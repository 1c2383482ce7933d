"""Tests for the streaming pipeline executor and its pull protocol."""

import pytest

from repro.core.atoms import fact
from repro.core.chase import ChaseConfig
from repro.core.limits import STATUS_BUDGET, ExecutionBudget
from repro.core.parser import parse_program
from repro.core.termination import strategy_by_name
from repro.engine.pipeline import PipelineExecutor
from repro.engine.reasoner import VadalogReasoner, reason
from repro.engine.record_managers import managers_for_facts

TC_PROGRAM = """
@output("T").
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""


def chain_edges(n):
    return {"E": [(i, i + 1) for i in range(n)]}


def tc_pipeline(n_edges=8, **kwargs):
    program = parse_program(TC_PROGRAM)
    facts = [fact("E", i, i + 1) for i in range(n_edges)]
    return PipelineExecutor(
        program,
        outputs=["T"],
        input_managers=managers_for_facts(facts),
        strategy=strategy_by_name("warded"),
        **kwargs,
    )


class TestStreamingMatchesCompiled:
    def test_transitive_closure(self):
        expected = reason(TC_PROGRAM, database=chain_edges(6), executor="compiled")
        streamed = reason(TC_PROGRAM, database=chain_edges(6), executor="streaming")
        assert streamed.ground_tuples("T") == expected.ground_tuples("T")
        assert streamed.chase.executor == "streaming"

    def test_cyclic_graph(self):
        db = {"E": [("a", "b"), ("b", "c"), ("c", "a")]}
        expected = reason(TC_PROGRAM, database=db, executor="compiled")
        streamed = reason(TC_PROGRAM, database=db, executor="streaming")
        assert streamed.ground_tuples("T") == expected.ground_tuples("T")

    def test_existential_rule(self):
        program = """
        @output("HasDept").
        HasDept(X, D) :- Employee(X).
        """
        streamed = reason(program, database={"Employee": [("e1",), ("e2",)]}, executor="streaming")
        facts = streamed.answers.facts("HasDept")
        assert len(facts) == 2
        assert all(f.has_nulls for f in facts)


class TestPullProtocol:
    def test_recursive_program_records_cyclic_misses(self):
        """A filter re-entered while serving a ``next()`` answers ``notifyCycle``."""
        result = reason(TC_PROGRAM, database=chain_edges(5), executor="streaming")
        sched = result.pipeline.sched
        assert sched.cyclic_misses >= 1
        assert sched.real_misses >= 1  # exhausted sources answer real misses
        kinds = {e.kind for e in sched.events}
        assert "cyclic-miss" in kinds and "next" in kinds and "hit" in kinds
        # Cyclic misses happen on the recursive rule pulling itself, and the
        # events identify caller and callee.
        cyclic = [e for e in sched.events if e.kind == "cyclic-miss"]
        assert any(e.caller == e.callee for e in cyclic)

    def test_non_recursive_program_has_no_cyclic_miss(self):
        program = """
        @output("B").
        B(X) :- A(X).
        """
        result = reason(program, database={"A": [(1,), (2,)]}, executor="streaming")
        assert result.pipeline.sched.cyclic_misses == 0
        assert result.ground_tuples("B") == {(1,), (2,)}

    def test_round_robin_fairness_three_predecessors(self):
        """A filter with three producers alternates its pulls among them."""
        program = """
        @output("Out").
        Out(X) :- M(X).
        M(X) :- S1(X).
        M(X) :- S2(X).
        M(X) :- S3(X).
        """
        db = {
            "S1": [("a1",), ("a2",)],
            "S2": [("b1",), ("b2",)],
            "S3": [("c1",), ("c2",)],
        }
        result = reason(program, database=db, executor="streaming")
        assert result.ground_tuples("Out") == {
            ("a1",), ("a2",), ("b1",), ("b2",), ("c1",), ("c2",),
        }
        pipeline = result.pipeline
        out_filter = next(
            node for node in pipeline.filters
            if node.rule.head_predicate_names() == ("Out",)
        )
        assert len(out_filter.cursors) == 3
        hits = [
            e.callee
            for e in pipeline.sched.events
            if e.kind == "hit" and e.caller == out_filter.name
        ]
        assert len(hits) == 6
        # Round-robin: the first three pulls hit three distinct producers,
        # and no producer is drained before every producer served one fact.
        assert len(set(hits[:3])) == 3

    def test_first_answer_stops_pulling_early(self):
        """``first_answer()`` returns before the model is materialised."""
        reasoner = VadalogReasoner(TC_PROGRAM, executor="streaming")
        lazy = reasoner.stream(database=chain_edges(30))
        first = lazy.first_answer()
        assert first is not None and first.predicate == "T"
        resident = len(lazy.chase.store)
        assert not lazy.pipeline.finished
        # Completing derives the full closure: 30 edges + 465 T facts.
        lazy.complete()
        assert len(lazy.chase.store) > resident * 5
        assert lazy.pipeline.finished
        # The snapshot taken at first-answer time is recorded in the stats.
        assert lazy.chase.extra_stats["pipeline_facts_at_first_answer"] == resident

    def test_lazy_iterator_streams_answers(self):
        reasoner = VadalogReasoner(TC_PROGRAM, executor="streaming")
        lazy = reasoner.stream(database=chain_edges(4))
        seen = list(lazy.iter_answers())
        assert {f.values() for f in seen} == {
            (i, j) for i in range(5) for j in range(i + 1, 5)
        }
        # Draining the iterator finalizes the post-processed answer set.
        assert lazy.ground_tuples("T") == {f.values() for f in seen}

    def test_stream_available_from_compiled_reasoner(self):
        reasoner = VadalogReasoner(TC_PROGRAM)  # default executor: compiled
        lazy = reasoner.stream(database=chain_edges(3))
        assert lazy.first_answer() is not None
        lazy.complete()
        eager = reasoner.reason(database=chain_edges(3))
        assert lazy.ground_tuples("T") == eager.ground_tuples("T")


class TestRelevancePruning:
    PROGRAM = """
    @output("Good").
    Good(X) :- Base(X).
    Junk(X) :- Noise(X).
    MoreJunk(X) :- Junk(X).
    """

    def test_irrelevant_rules_and_sources_pruned(self):
        result = reason(
            self.PROGRAM,
            database={"Base": [(1,)], "Noise": [(2,), (3,)]},
            executor="streaming",
        )
        stats = result.chase.extra_stats
        assert stats["pipeline_pruned_rules"] == 2
        assert stats["pipeline_pruned_sources"] == 1
        # Pruned inputs never enter the store; the answers are unaffected.
        assert result.chase.store.count("Noise") == 0
        assert result.ground_tuples("Good") == {(1,)}

    def test_compiled_keeps_everything(self):
        result = reason(
            self.PROGRAM,
            database={"Base": [(1,)], "Noise": [(2,)]},
            executor="compiled",
        )
        assert result.chase.store.count("Junk") == 1


class TestBufferBackedPipes:
    def test_tight_budget_swaps_and_still_answers(self):
        pipeline = tc_pipeline(n_edges=20, page_size=4, max_pages_per_segment=2)
        result = pipeline.run_to_completion()
        tuples = {f.values() for f in result.store.by_predicate("T")}
        assert tuples == {(i, j) for i in range(21) for j in range(i + 1, 21)}
        assert pipeline.buffers.total_evictions() > 0
        stats = pipeline.buffers.stats()
        assert any(s["swap_outs"] > 0 for s in stats.values())
        assert any(s["swap_ins"] > 0 for s in stats.values())
        # Residency stayed within budget: 2 pages of 4 items per segment.
        for name in pipeline.buffers.segments():
            assert pipeline.buffers.segment(name).resident_pages() <= 2

    def test_peak_resident_accounting(self):
        pipeline = tc_pipeline(n_edges=10, page_size=2, max_pages_per_segment=3)
        pipeline.run_to_completion()
        for name in pipeline.buffers.segments():
            segment = pipeline.buffers.segment(name)
            assert segment.stats.peak_resident_pages <= 3


class TestTerminationWrappers:
    def test_filters_check_termination_inline(self):
        result = reason(TC_PROGRAM, database=chain_edges(4), executor="streaming")
        registry_stats = result.pipeline.registry.stats()
        rule_wrappers = {k: v for k, v in registry_stats.items() if k.startswith("rule:")}
        assert rule_wrappers
        assert sum(s["checks"] for s in rule_wrappers.values()) > 0
        assert sum(s["accepted"] for s in rule_wrappers.values()) == len(
            result.chase.derived_facts()
        )
        source_wrappers = {k: v for k, v in registry_stats.items() if k.startswith("source:")}
        assert sum(s["inputs_registered"] for s in source_wrappers.values()) == 4


class TestLimitsAndErrors:
    def test_max_facts_limit_enforced(self):
        reasoner = VadalogReasoner(
            TC_PROGRAM,
            executor="streaming",
            chase_config=ChaseConfig(budget=ExecutionBudget(max_resident_facts=40)),
        )
        result = reasoner.reason(database=chain_edges(30))
        assert result.status == STATUS_BUDGET
        assert "resident-fact ceiling" in result.stop_reason

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            VadalogReasoner("A(X) :- B(X).", executor="pipelined")

    def test_streaming_compiles_join_plans(self):
        reasoner = VadalogReasoner("A(X) :- B(X).", executor="streaming")
        assert reasoner.join_plans


class TestPostDirectivesAllExecutors:
    PROGRAM = """
    @output("Copy").
    @post("Copy", "sort", 0).
    @post("Copy", "limit", 2).
    Copy(X) :- Item(X).
    """

    @pytest.mark.parametrize("executor", ["naive", "compiled", "streaming"])
    def test_sort_and_limit(self, executor):
        result = reason(
            self.PROGRAM,
            database={"Item": [(10,), (9,), (2,), (30,)]},
            executor=executor,
        )
        values = [f.values() for f in result.answers.facts("Copy")]
        # Numeric-aware sort: 9 < 10 (not the lexicographic "10" < "9").
        assert values == [(2,), (9,)]

    @pytest.mark.parametrize("executor", ["naive", "compiled", "streaming"])
    def test_certain_drops_null_answers(self, executor):
        program = """
        @output("HasBoss").
        @post("HasBoss", "certain").
        HasBoss(X, B) :- Employee(X).
        """
        result = reason(program, database={"Employee": [("e1",)]}, executor=executor)
        assert result.answers.count("HasBoss") == 0

    def test_stream_complete_applies_directives(self):
        reasoner = VadalogReasoner(self.PROGRAM, executor="streaming")
        lazy = reasoner.stream(database={"Item": [(10,), (9,), (2,), (30,)]})
        lazy.complete()
        assert [f.values() for f in lazy.answers.facts("Copy")] == [(2,), (9,)]


class TestPipelineTopology:
    def test_describe_lists_nodes(self):
        pipeline = tc_pipeline()
        text = pipeline.describe()
        assert "source:E" in text and "sink:T" in text and "rule:" in text

    def test_constraint_predicates_get_drained(self):
        program = """
        @output("A").
        A(X) :- Base(X).
        :- Forbidden(X).
        """
        result = reason(
            program,
            database={"Base": [(1,)], "Forbidden": [(9,)]},
            executor="streaming",
        )
        # The constraint body predicate is not an output, yet its facts must
        # be materialised for the deferred violation check.
        assert len(result.chase.violations) == 1
