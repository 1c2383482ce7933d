"""Tests for the logic-optimizer rewritings and harmful-join elimination."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.atoms import fact
from repro.core.chase import run_chase
from repro.core.harmful_joins import (
    HarmfulJoinEliminator,
    UnsupportedHarmfulJoin,
    build_null_flow_graph,
    can_linearize,
    eliminate_harmful_joins,
    is_virtual_join,
    simplify_skolem_equalities,
)
from repro.core.parser import parse_program
from repro.core.skolem import SkolemTerm
from repro.core.transform import (
    is_auxiliary_predicate,
    isolate_existentials,
    normalize_for_chase,
    remove_duplicate_rules,
    split_multiple_heads,
)
from repro.core.wardedness import analyse_program

EXAMPLE_7 = """
@output("StrongLink").
Owns(P, S, X) :- Company(X).
Stock(X, S) :- Owns(P, S, X).
PSC(X, P) :- Owns(P, S, X).
Owns(P, S, Y) :- PSC(X, P), Controls(X, Y).
StrongLink(X, Y) :- PSC(X, P), PSC(Y, P).
Owns(P, S, X) :- StrongLink(X, Y).
Owns(P, S, Y) :- StrongLink(X, Y).
Company(X) :- Stock(X, S).
"""

EXAMPLE_7_DB = [
    fact("Company", "HSBC"),
    fact("Company", "HSB"),
    fact("Company", "IBA"),
    fact("Controls", "HSBC", "HSB"),
    fact("Controls", "HSB", "IBA"),
]


class TestElementaryRewritings:
    def test_split_multiple_heads_without_shared_existential(self):
        program = parse_program("A(X), B(X) :- C(X).")
        rewritten = split_multiple_heads(program)
        assert len(rewritten.rules) == 2
        assert all(len(r.head) == 1 for r in rewritten.rules)

    def test_split_multiple_heads_with_shared_existential(self):
        program = parse_program("A(Z, X), B(Z) :- C(X).")
        rewritten = split_multiple_heads(program)
        # One auxiliary rule plus one rule per original head atom.
        assert len(rewritten.rules) == 3
        aux_preds = [
            p.name for p in rewritten.predicates() if is_auxiliary_predicate(p.name)
        ]
        assert len(aux_preds) == 1

    def test_split_preserves_joint_witness(self):
        program = normalize_for_chase(parse_program("A(Z, X), B(Z) :- C(X)."))
        result = run_chase(program, [fact("C", "c1")])
        a_nulls = {f.terms[0] for f in result.facts("A")}
        b_nulls = {f.terms[0] for f in result.facts("B")}
        assert a_nulls == b_nulls and len(a_nulls) == 1

    def test_isolate_existentials_makes_existential_rules_linear(self):
        program = parse_program("Owns(P, S, Y) :- PSC(X, P), Controls(X, Y).")
        rewritten = isolate_existentials(program)
        for rule in rewritten.rules:
            if rule.has_existentials():
                assert rule.is_linear()

    def test_isolate_existentials_keeps_answers(self):
        program = parse_program("T(X, Z) :- A(X), B(X).")
        original = run_chase(program, [fact("A", "v"), fact("B", "v")])
        rewritten = run_chase(
            isolate_existentials(parse_program("T(X, Z) :- A(X), B(X).")),
            [fact("A", "v"), fact("B", "v")],
        )
        assert len(original.facts("T")) == len(rewritten.facts("T")) == 1

    def test_remove_duplicate_rules(self):
        program = parse_program("P(X) :- Q(X).\nP(Y) :- Q(Y).\nR(X) :- Q(X).")
        assert len(remove_duplicate_rules(program).rules) == 2

    def test_normalize_pipeline_preserves_wardedness(self):
        program = parse_program(EXAMPLE_7)
        normalized = normalize_for_chase(program)
        assert analyse_program(normalized).is_warded


class TestNullFlowGraph:
    def test_creators_and_propagations(self):
        program = parse_program(EXAMPLE_7)
        graph = build_null_flow_graph(program)
        creator_positions = {str(p) for p in graph.creators}
        assert "Owns[0]" in creator_positions and "Owns[1]" in creator_positions
        propagation_targets = {str(p) for p in graph.propagations}
        assert "PSC[1]" in propagation_targets

    def test_backward_reachability(self):
        program = parse_program(EXAMPLE_7)
        graph = build_null_flow_graph(program)
        from repro.core.atoms import Position

        reachable = graph.positions_flowing_into({Position("PSC", 1)})
        names = {str(p) for p in reachable}
        assert "PSC[1]" in names and "Owns[0]" in names


class TestHarmfulJoinElimination:
    def test_no_harmful_joins_is_identity(self):
        program = parse_program("KeyPerson(P, X) :- Company(X).")
        result = eliminate_harmful_joins(program)
        assert not result.changed
        assert len(result.program.rules) == 1

    def test_example_7_rewriting_structure(self):
        program = parse_program(EXAMPLE_7)
        result = eliminate_harmful_joins(program)
        assert result.changed
        assert len(result.eliminated_rules) == 1
        assert result.tracking_predicates  # origin-tracking predicates introduced
        assert result.grounded_rules  # the Dom-guarded grounded copy exists
        rewritten_analysis = analyse_program(result.program)
        assert not rewritten_analysis.has_harmful_joins

    def test_example_7_answers_preserved(self):
        # The rewritten program must produce the same StrongLink pairs as the
        # original semantics: every pair of companies sharing a (possibly
        # anonymous) person of significant control.
        program = parse_program(EXAMPLE_7)
        result = eliminate_harmful_joins(program)
        chase = run_chase(normalize_for_chase(result.program), EXAMPLE_7_DB)
        links = {f.values() for f in chase.facts("StrongLink") if not f.has_nulls}
        expected_members = {"HSBC", "HSB", "IBA"}
        assert {("HSBC", "HSB"), ("HSB", "IBA"), ("HSBC", "IBA")} <= links
        assert {x for pair in links for x in pair} == expected_members

    def test_ground_joins_still_possible_after_rewriting(self):
        # A harmful join whose variable also ranges over database constants
        # must keep the ground matches (covered by the Dom-guarded copy).
        program = parse_program(
            """
            PSC(X, P) :- KeyPerson(X, P).
            PSC(X, P) :- Company(X).
            PSC(X, P) :- Control(Y, X), PSC(Y, P).
            Link(X, Y) :- PSC(X, P), PSC(Y, P), X > Y.
            """
        )
        result = eliminate_harmful_joins(program)
        database = [
            fact("Company", "a"),
            fact("Company", "b"),
            fact("KeyPerson", "a", "ann"),
            fact("KeyPerson", "b", "ann"),
        ]
        chase = run_chase(normalize_for_chase(result.program), database)
        links = {f.values() for f in chase.facts("Link") if not f.has_nulls}
        assert ("b", "a") in links

    def test_aggregation_over_harmful_variable_unsupported(self):
        program = parse_program(
            """
            PSC(X, P) :- Company(X).
            PSC(X, P) :- Control(Y, X), PSC(Y, P).
            StrongLink(X, Y, W) :- PSC(X, P), PSC(Y, P), W = mcount(P).
            """
        )
        with pytest.raises(UnsupportedHarmfulJoin):
            HarmfulJoinEliminator(program).eliminate()

    def test_non_warded_program_rejected(self):
        program = parse_program(
            """
            P(X, H) :- S(X).
            Q(Y, H) :- P(Y, H).
            Out(H) :- P(X, H), Q(Y, H).
            """
        )
        with pytest.raises(UnsupportedHarmfulJoin):
            HarmfulJoinEliminator(program).eliminate()


#: Compiles a synthB-shaped iWarded program (harmful joins, two composed
#: blocks) and prints the compiled rule text and the pull events as JSON.
_COMPILE_SCRIPT = """
import json
from repro import VadalogReasoner
from repro.workloads import rule_count_scenario
reasoner = VadalogReasoner(rule_count_scenario(2, facts_per_predicate=2).program)
assert reasoner.harmful_join_rewriting.changed
print(json.dumps({
    "rules": [str(rule) for rule in reasoner.program.rules],
    "events": [[e.caller, e.callee, e.kind] for e in reasoner.scheduler_report.events],
}))
"""


def test_harmful_join_compile_is_hash_seed_independent():
    """The rewritten program and its pull events are identical under any
    ``PYTHONHASHSEED``: the eliminator iterates positions canonically."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _COMPILE_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["rules"] and outputs[0]["events"]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


class TestSkolemSimplification:
    def test_virtual_join_cases(self):
        f_term = SkolemTerm("f", ("a",))
        g_term = SkolemTerm("g", ("a",))
        nested = SkolemTerm("f", (SkolemTerm("f", ("a",)),))
        assert is_virtual_join("constant", f_term)  # case 1a
        assert is_virtual_join(f_term, g_term)  # case 1b
        assert is_virtual_join(f_term, nested)  # case 1c
        assert not is_virtual_join(f_term, SkolemTerm("f", ("b",)))

    def test_linearization_case(self):
        assert can_linearize(SkolemTerm("f", ("a",)), SkolemTerm("f", ("b",)))
        assert not can_linearize(SkolemTerm("f", ("a",)), SkolemTerm("g", ("b",)))

    def test_simplification_summary(self):
        f1 = SkolemTerm("f", ("a",))
        f2 = SkolemTerm("f", ("b",))
        g1 = SkolemTerm("g", ("a",))
        stats = simplify_skolem_equalities([(f1, f2), (f1, g1), ("c", f1), (1, 2)])
        assert stats == {"virtual": 2, "linearized": 1, "kept": 1}

    def test_skolem_term_depth_and_usage(self):
        nested = SkolemTerm("f", (SkolemTerm("g", ("a",)),))
        assert nested.depth() == 2
        assert nested.uses_function("g") and not nested.uses_function("h")
