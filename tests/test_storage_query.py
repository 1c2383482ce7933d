"""Tests for the storage substrate, the fact store and answer extraction."""

import pytest

from repro.core.atoms import Atom, Fact, fact
from repro.core.chase import run_chase
from repro.core.fact_store import FactStore, StaleSnapshotError
from repro.core.parser import parse_program
from repro.core.query import Query, certain_answer, extract_answers, universal_answer
from repro.core.terms import Constant, Null, Variable
from repro.storage.csv_io import load_relation_csv, save_relation_csv
from repro.storage.database import Database, Relation


class TestRelationDatabase:
    def test_relation_arity_enforced(self):
        relation = Relation("P", 2)
        relation.add(("a", "b"))
        with pytest.raises(ValueError):
            relation.add(("a",))

    def test_relation_facts(self):
        relation = Relation("P", 2, [("a", 1)])
        facts = relation.facts()
        assert facts[0] == fact("P", "a", 1)

    def test_relation_distinct(self):
        relation = Relation("P", 1, [("a",), ("a",), ("b",)])
        assert len(relation.distinct()) == 2

    def test_database_building_and_size(self):
        database = Database.from_dict({"E": [("a", "b"), ("b", "c")], "N": [("a",)]})
        assert database.size() == 3
        assert database.size("E") == 2
        assert "E" in database and "missing" not in database

    def test_database_from_facts_roundtrip(self):
        database = Database.from_facts([fact("P", 1, 2), fact("Q", "x")])
        assert {f.values() for f in database.facts("P")} == {(1, 2)}

    def test_unknown_relation_raises(self):
        with pytest.raises(KeyError):
            Database().relation("nope")


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        relation = Relation("Own", 3, [("a", "b", 0.6), ("b", "c", 0.4)])
        path = save_relation_csv(relation, tmp_path / "own.csv")
        loaded = load_relation_csv(path)
        assert loaded.name == "own"
        assert loaded.tuples == [("a", "b", 0.6), ("b", "c", 0.4)]

    def test_type_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,1,2.5,true\n")
        loaded = load_relation_csv(path)
        assert loaded.tuples == [("a", 1, 2.5, True)]

    def test_header_skipping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("col1,col2\na,b\n")
        loaded = load_relation_csv(path, has_header=True)
        assert loaded.tuples == [("a", "b")]


class TestFactStore:
    def test_add_and_duplicates(self):
        store = FactStore()
        assert store.add(fact("P", 1))
        assert not store.add(fact("P", 1))
        assert len(store) == 1

    def test_by_predicate_and_count(self):
        store = FactStore([fact("P", 1), fact("P", 2), fact("Q", 3)])
        assert store.count("P") == 2
        assert {f.values() for f in store.by_predicate("Q")} == {(3,)}

    def test_active_domain(self):
        store = FactStore([fact("P", "a", 1)])
        assert store.in_active_domain("a") and store.in_active_domain(1)
        assert not store.in_active_domain("z")

    def test_candidates_use_position_index(self):
        store = FactStore([fact("E", "a", i) for i in range(100)] + [fact("E", "b", 0)])
        atom = Atom("E", (Constant("b"), Variable("Y")))
        candidates = store.candidates(atom, {})
        assert len(candidates) == 1

    def test_matches_with_partial_binding(self):
        store = FactStore([fact("E", "a", "b"), fact("E", "a", "c"), fact("E", "z", "b")])
        atom = Atom("E", (Variable("X"), Variable("Y")))
        results = list(store.matches(atom, {Variable("X"): Constant("a")}))
        assert len(results) == 2

    def test_nulls_indexed_separately_from_constants(self):
        store = FactStore([Fact("P", (Null(0),)), fact("P", 0)])
        assert len(store) == 2

    def test_snapshot_goes_stale_on_mutation(self):
        store = FactStore([fact("P", "a")])
        snapshot = store.snapshot()
        assert snapshot.by_predicate("P")
        store.add(fact("P", "b"))
        assert snapshot.stale
        with pytest.raises(StaleSnapshotError):
            snapshot.by_predicate("P")


class TestAnswers:
    def make_result(self):
        program = parse_program(
            """
            KeyPerson(P, X) :- Company(X).
            KeyPerson(P, Y) :- Control(X, Y), KeyPerson(P, X).
            """
        )
        database = [
            fact("Company", "a"),
            fact("Control", "a", "b"),
            fact("KeyPerson", "Bob", "a"),
        ]
        return run_chase(program, database)

    def test_universal_vs_certain(self):
        result = self.make_result()
        universal = universal_answer(result, ["KeyPerson"])
        certain = certain_answer(result, ["KeyPerson"])
        assert certain.count() < universal.count()
        assert all(not f.has_nulls for f in certain.facts("KeyPerson"))

    def test_ground_tuples_and_tuples(self):
        result = self.make_result()
        answers = universal_answer(result, ["KeyPerson"])
        assert ("Bob", "a") in answers.ground_tuples("KeyPerson")
        assert len(answers.tuples("KeyPerson")) >= len(answers.ground_tuples("KeyPerson"))

    def test_order_and_limit(self):
        result = self.make_result()
        answers = extract_answers(
            result, Query(("KeyPerson",), certain=True, order_by=(1,), limit=1)
        )
        assert answers.count("KeyPerson") == 1

    def test_isomorphic_duplicates_removed(self):
        result = self.make_result()
        answers = universal_answer(result, ["KeyPerson"])
        keys = set()
        from repro.core.isomorphism import isomorphism_key

        for f in answers.facts("KeyPerson"):
            key = isomorphism_key(f)
            assert key not in keys
            keys.add(key)

    def test_unknown_predicate_gives_empty_answers(self):
        result = self.make_result()
        answers = universal_answer(result, ["Nope"])
        assert answers.count("Nope") == 0
