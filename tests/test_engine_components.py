"""Tests for the pipeline-architecture components: plan, scheduler, joins, buffer, wrappers."""

import pytest

from repro.core.atoms import fact
from repro.core.forests import input_node
from repro.core.parser import parse_program
from repro.core.termination import TrivialIsomorphismStrategy
from repro.engine.buffer import BufferCache, BufferSegment
from repro.engine.joins import JoinInput, SlotMachineJoin, hash_join
from repro.engine.plan import PlanNode, ReasoningAccessPlan, compile_plan
from repro.engine.reasoner import VadalogReasoner
from repro.engine.scheduler import PullEvent, RoundRobinScheduler
from repro.engine.wrappers import TerminationWrapper, WrapperRegistry
from repro.storage.index import HashIndex
from repro.workloads import rule_count_scenario

RECURSIVE_PROGRAM = parse_program(
    """
    @output("T").
    T(X, Y) :- E(X, Y).
    T(X, Z) :- T(X, Y), E(Y, Z).
    """
)


class TestPlan:
    def test_nodes_and_edges(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        kinds = {n.kind for n in plan.nodes}
        assert kinds == {"source", "rule", "sink"}
        assert plan.sources()[0].predicate == "E"
        assert plan.sinks()[0].predicate == "T"
        assert len(plan.rule_nodes()) == 2

    def test_recursion_detected(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        assert plan.has_cycles()
        assert len(plan.recursive_components()) == 1

    def test_acyclic_plan(self):
        plan = compile_plan(parse_program("B(X) :- A(X).\nC(X) :- B(X)."))
        assert not plan.has_cycles()

    def test_topological_rule_order_producers_first(self):
        program = parse_program(
            """
            C(X) :- B(X).
            B(X) :- A(X).
            """
        )
        plan = compile_plan(program)
        order = plan.topological_rule_order(program)
        labels = [r.head_predicate_names()[0] for r in order]
        assert labels.index("B") < labels.index("C")

    def test_describe_mentions_nodes(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        text = plan.describe()
        assert "source:" in text and "sink:" in text

    @pytest.mark.parametrize("shape", ["recursive", "acyclic", "composed-iwarded"])
    def test_neighbours_match_edge_list_scan(self, shape):
        if shape == "recursive":
            plan = compile_plan(RECURSIVE_PROGRAM)
        elif shape == "acyclic":
            plan = compile_plan(parse_program("B(X) :- A(X).\nC(X) :- B(X), A(X)."))
        else:
            scenario = rule_count_scenario(2, facts_per_predicate=2)
            plan = VadalogReasoner(scenario.program.copy()).plan
        assert len(plan.edges) == len(set(plan.edges))
        for node in plan.nodes:
            # Reference: the plain edge-list scan, in edge-insertion order.
            assert plan.successors(node.name) == [t for s, t in plan.edges if s == node.name]
            assert plan.predecessors(node.name) == [s for s, t in plan.edges if t == node.name]

    @staticmethod
    def _two_node_plan():
        plan = ReasoningAccessPlan()
        plan.add_node(PlanNode(name="rule:a", kind="rule", rule_label="a"))
        plan.add_node(PlanNode(name="rule:b", kind="rule", rule_label="b"))
        return plan

    def test_duplicate_edge_is_ignored(self):
        plan = self._two_node_plan()
        plan.add_edge("rule:a", "rule:b")
        plan.add_edge("rule:a", "rule:b")
        assert plan.edges == [("rule:a", "rule:b")]
        assert plan.successors("rule:a") == ["rule:b"]
        assert plan.predecessors("rule:b") == ["rule:a"]

    def test_returned_neighbour_lists_are_copies(self):
        plan = self._two_node_plan()
        plan.add_edge("rule:a", "rule:b")
        plan.successors("rule:a").append("rule:a")
        plan.predecessors("rule:b").clear()
        assert plan.successors("rule:a") == ["rule:b"]
        assert plan.predecessors("rule:b") == ["rule:a"]
        assert not plan.has_cycles()

    def test_self_loop_is_recursive(self):
        plan = self._two_node_plan()
        plan.add_edge("rule:a", "rule:b")
        plan.add_edge("rule:b", "rule:b")
        assert plan.recursive_components() == [["rule:b"]]
        assert plan.has_cycles()

    def test_edges_given_at_construction_are_indexed(self):
        plan = ReasoningAccessPlan(edges=[("x", "y"), ("x", "y"), ("y", "x")])
        assert plan.edges == [("x", "y"), ("y", "x")]
        assert plan.successors("y") == ["x"]


class TestScheduler:
    def test_round_robin_schedule_stats(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        report = RoundRobinScheduler(plan, RECURSIVE_PROGRAM).schedule()
        stats = report.stats()
        assert stats["rules"] == 2
        assert stats["recursive_components"] == 1
        # The recursive rule pulling from itself produces a cyclic miss event.
        assert stats["cyclic_misses"] >= 1

    def test_recursive_program_pull_events_pinned(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        report = RoundRobinScheduler(plan, RECURSIVE_PROGRAM).schedule()
        # The recursive rule r2 first pulls itself once (it is not yet on the
        # invocation stack), and only the nested pull misses cyclically.
        assert report.events == [
            PullEvent("sink:T", "rule:r1", "next"),
            PullEvent("rule:r1", "source:E", "next"),
            PullEvent("sink:T", "rule:r2", "next"),
            PullEvent("rule:r2", "rule:r1", "next"),
            PullEvent("rule:r2", "rule:r2", "next"),
            PullEvent("rule:r2", "rule:r1", "next"),
            PullEvent("rule:r2", "rule:r2", "cyclic-miss"),
            PullEvent("rule:r2", "source:E", "next"),
            PullEvent("rule:r2", "source:E", "next"),
        ]
        assert report.stats() == {
            "rules": 2,
            "pull_events": 9,
            "cyclic_misses": 1,
            "real_misses": 0,
            "recursive_components": 1,
        }

    @pytest.mark.parametrize("harmful", [False, True])
    def test_construction_runs_wardedness_analysis_twice(self, harmful, monkeypatch):
        from repro.core import harmful_joins
        from repro.engine import reasoner as reasoner_module

        calls = []
        original = reasoner_module.analyse_program

        def counting(program):
            calls.append(program)
            return original(program)

        monkeypatch.setattr(reasoner_module, "analyse_program", counting)
        monkeypatch.setattr(harmful_joins, "analyse_program", counting)
        if harmful:
            program = rule_count_scenario(2, facts_per_predicate=2).program.copy()
        else:
            program = RECURSIVE_PROGRAM.copy()
        reasoner = VadalogReasoner(program)
        assert (reasoner.harmful_join_rewriting is not None) == harmful
        # Once in the optimizer (reused by the harmful-join eliminator), once
        # on the optimized program.
        assert len(calls) == 2

    def test_non_recursive_program_has_no_cyclic_miss(self):
        program = parse_program("@output(\"B\").\nB(X) :- A(X).")
        plan = compile_plan(program)
        report = RoundRobinScheduler(plan, program).schedule()
        assert report.cyclic_misses == 0


class TestSlotMachineJoin:
    def make_facts(self, name, pairs):
        return [fact(name, a, b) for a, b in pairs]

    def test_two_way_join(self):
        left = self.make_facts("L", [("a", 1), ("b", 2)])
        right = self.make_facts("R", [("a", 10), ("a", 11), ("c", 12)])
        pairs = hash_join(left, right, (0,), (0,))
        assert len(pairs) == 2
        assert all(l.terms[0] == r.terms[0] for l, r in pairs)

    def test_three_way_join(self):
        a = self.make_facts("A", [("k", 1), ("j", 2)])
        b = self.make_facts("B", [("k", 3)])
        c = self.make_facts("C", [("k", 4)])
        join = SlotMachineJoin(
            [JoinInput("A", a, (0,)), JoinInput("B", b, (0,)), JoinInput("C", c, (0,))]
        )
        results = list(join.execute())
        assert len(results) == 1
        assert join.stats.output_tuples == 1

    def test_dynamic_index_reused_on_repeated_keys(self):
        left = self.make_facts("L", [("a", 1), ("a", 2), ("a", 3)])
        right = self.make_facts("R", [("a", 10), ("b", 11)])
        join = SlotMachineJoin([JoinInput("L", left, (0,)), JoinInput("R", right, (0,))])
        list(join.execute())
        # After the first probe scanned the input, later probes hit the index.
        assert join.stats.index_hits >= 1

    def test_join_requires_two_inputs_and_same_key_length(self):
        with pytest.raises(ValueError):
            SlotMachineJoin([JoinInput("L", [], (0,))])
        with pytest.raises(ValueError):
            SlotMachineJoin([JoinInput("L", [], (0,)), JoinInput("R", [], (0, 1))])


class TestHashIndex:
    def test_incomplete_index_miss_returns_none(self):
        index = HashIndex()
        index.insert("a", 1)
        assert index.get("a") == [1]
        assert index.get("missing") is None

    def test_complete_index_miss_returns_empty(self):
        index = HashIndex()
        index.insert("a", 1)
        index.mark_complete()
        assert index.get("missing") == []

    def test_bulk_load(self):
        index = HashIndex()
        index.bulk_load([("a", 1), ("a", 2), ("b", 3)])
        assert index.complete
        assert sorted(index.get("a")) == [1, 2]
        assert len(index) == 3


class TestBufferCache:
    def test_append_iterate(self):
        segment = BufferSegment("s", page_size=4, max_pages=2)
        segment.extend(range(10))
        assert list(segment) == list(range(10))
        assert len(segment) == 10

    def test_lru_eviction_and_swap_in(self):
        segment = BufferSegment("s", page_size=2, max_pages=2)
        segment.extend(range(10))  # 5 pages, only 2 resident
        assert segment.resident_pages() <= 2
        assert segment.swapped_pages() >= 3
        assert segment.stats.evictions >= 3
        # Reading an evicted page swaps it back in.
        assert segment.page(0) == [0, 1]
        assert segment.stats.swap_ins >= 1

    def test_lfu_policy(self):
        segment = BufferSegment("s", page_size=1, max_pages=2, policy="lfu")
        segment.extend([0, 1, 2])
        assert segment.resident_pages() == 2

    def test_lfu_tie_break_is_insertion_order(self):
        """Among equally frequent pages the oldest one is evicted, always."""
        segment = BufferSegment("s", page_size=1, max_pages=3, policy="lfu")
        segment.extend([0, 1, 2])  # pages 0,1,2 resident, one touch each
        segment.page(0)  # page 0 now more frequent
        segment.append(3)  # pages 1 and 2 tie on frequency -> evict page 1
        assert segment.swapped_pages() == 1
        assert 1 in segment._swap  # the older of the tied pages lost
        assert segment.page(1) == [1]  # swapped back in on demand
        assert segment.stats.swap_ins == 1

    def test_lfu_eviction_deterministic_across_runs(self):
        def evicted_sequence():
            segment = BufferSegment("s", page_size=1, max_pages=2, policy="lfu")
            segment.extend(range(6))
            return segment.stats.as_dict(), segment.resident_pages()

        assert evicted_sequence() == evicted_sequence()

    def test_swap_out_accounting_and_peak(self):
        segment = BufferSegment("s", page_size=2, max_pages=2)
        segment.extend(range(10))  # 5 pages, 2 resident
        assert segment.stats.swap_outs == segment.stats.evictions == 3
        assert segment.stats.peak_resident_pages == 2
        assert segment.resident_items() <= 4

    def test_item_random_access_reads_through_swap(self):
        segment = BufferSegment("s", page_size=2, max_pages=2)
        segment.extend(range(10))
        assert [segment.item(i) for i in range(10)] == list(range(10))
        assert segment.stats.swap_ins >= 1
        with pytest.raises(IndexError):
            segment.item(10)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            BufferSegment("s", policy="fifo")

    def test_cache_segments_and_stats(self):
        cache = BufferCache(page_size=2, max_pages_per_segment=1)
        cache.segment("filter:a").extend(range(5))
        cache.segment("filter:b").append("x")
        assert set(cache.segments()) == {"filter:a", "filter:b"}
        assert cache.total_items() == 6
        assert cache.total_evictions() >= 1
        assert "filter:a" in cache.stats()


class TestTerminationWrappers:
    def test_wrapper_counts_and_delegates(self):
        strategy = TrivialIsomorphismStrategy()
        wrapper = TerminationWrapper("rule:r1", strategy)
        node = input_node(fact("P", 1))
        assert wrapper.check_termination(node) is True
        assert wrapper.check_termination(node) is False  # isomorphic duplicate
        assert wrapper.stats.checks == 2
        assert wrapper.stats.accepted == 1 and wrapper.stats.discarded == 1

    def test_registry_shares_strategy(self):
        registry = WrapperRegistry(TrivialIsomorphismStrategy())
        first = registry.wrapper_for("rule:a")
        second = registry.wrapper_for("rule:b")
        assert first.strategy is second.strategy
        assert registry.wrapper_for("rule:a") is first
        node = input_node(fact("P", 2))
        first.check_termination(node)
        assert second.check_termination(node) is False
        assert "rule:a" in registry.stats()
