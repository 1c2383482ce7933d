"""The resident incremental reasoner: differential + DRed edge cases.

The main body is a differential over the shared 16-scenario registry of
``differential_harness``: after any sequence of upserts/retractions the
resident answers must match a from-scratch ``reason()`` on the final
database — ground answers exactly, null-witness answers at *pattern*
level (the resident materialisation may retain a different multiset of
isomorphic null witnesses, the same contract as the streaming executor,
so ``check_iso=False`` throughout).

The second half pins the delete-and-rederive edge cases one by one:
independently rederivable facts survive, existential null witnesses
disappear exactly when their last justification goes, retract-then-
reinsert is idempotent, and the documented hard errors/fallbacks hold.
"""

import pytest

from differential_harness import (
    SCENARIOS,
    AnswerProfile,
    _profile_facts,
    assert_profiles_match,
    scenario_names,
)
from repro.core.chase import ChaseConfig, ChaseLimitError
from repro.core.limits import ExecutionBudget
from repro.engine.incremental import ResidentError, ResidentReasoner
from repro.engine.reasoner import VadalogReasoner

REACH_PROGRAM = """
@output("Reach").
Reach(X, Y) :- Edge(X, Y).
Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
"""

AUDIT_PROGRAM = """
@output("Audit").
Reach(X, Y) :- Edge(X, Y).
Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
Audit(Y, Z) :- Source(X), Reach(X, Y).
"""

COUNT_PROGRAM = """
@output("Degree").
Degree(X, N) :- Edge(X, Y), N = mcount(Y).
"""


def _scenario_split(name):
    """One scenario's facts split into an initial set and a held-out tail.

    Every 5th fact (by sorted repr, deterministic) is held out — enough to
    exercise multi-fact deltas without reducing any scenario to an empty
    database.
    """
    scenario = SCENARIOS[name]()
    facts = sorted(VadalogReasoner._database_facts(scenario.database), key=repr)
    late = facts[::5] or facts[:1]
    held_out = set(late)
    initial = [fact for fact in facts if fact not in held_out]
    return scenario, facts, initial, late


def _profile_answers(answers, predicates) -> AnswerProfile:
    ground, iso, patterns = {}, {}, {}
    for predicate in predicates:
        g, i, p = _profile_facts(answers.facts(predicate))
        ground[predicate] = g
        iso[predicate] = i
        patterns[predicate] = p
    return AnswerProfile(ground=ground, iso=iso, patterns=patterns, result=None)


def _scratch_profile(name, facts) -> AnswerProfile:
    """From-scratch ``reason()`` on an explicit fact list, profiled."""
    scenario = SCENARIOS[name]()
    reasoner = VadalogReasoner(scenario.program.copy(), executor="compiled")
    result = reasoner.reason(database=facts, outputs=scenario.outputs)
    return _profile_answers(result.answers, scenario.outputs)


def _resident_profile(resident, predicates) -> AnswerProfile:
    return _profile_answers(resident.answers(), predicates)


@pytest.mark.parametrize("name", scenario_names())
def test_upsert_matches_from_scratch(name):
    """Resident(initial) + upsert(tail) == reason(initial + tail)."""
    scenario, facts, initial, late = _scenario_split(name)
    resident = ResidentReasoner(scenario.program.copy(), database=initial)
    resident.upsert(late)
    reference = _scratch_profile(name, facts)
    candidate = _resident_profile(resident, scenario.outputs)
    assert_profiles_match(
        name, reference, candidate, check_iso=False, label="upsert"
    )


@pytest.mark.parametrize("name", scenario_names())
def test_retract_matches_from_scratch(name):
    """Resident(full) - retract(tail) == reason(initial)."""
    scenario, _facts, initial, late = _scenario_split(name)
    resident = ResidentReasoner(
        SCENARIOS[name]().program.copy(), database=scenario.database
    )
    resident.retract(late)
    reference = _scratch_profile(name, initial)
    candidate = _resident_profile(resident, scenario.outputs)
    assert_profiles_match(
        name, reference, candidate, check_iso=False, label="retract"
    )


@pytest.mark.parametrize("name", scenario_names())
def test_retract_then_reinsert_matches_from_scratch(name):
    """A retract/upsert round trip converges back to the full database."""
    scenario, facts, _initial, late = _scenario_split(name)
    resident = ResidentReasoner(
        SCENARIOS[name]().program.copy(), database=scenario.database
    )
    resident.retract(late)
    resident.upsert(late)
    reference = _scratch_profile(name, facts)
    candidate = _resident_profile(resident, scenario.outputs)
    assert_profiles_match(
        name, reference, candidate, check_iso=False, label="round-trip"
    )


class TestUpsert:
    def test_upsert_derives_consequences(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert resident.query().ground_tuples("Reach") == {("a", "b")}
        resident.upsert({"Edge": [("b", "c")]})
        assert resident.query().ground_tuples("Reach") == {
            ("a", "b"),
            ("b", "c"),
            ("a", "c"),
        }

    def test_upsert_returns_new_fact_count(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert resident.upsert({"Edge": [("a", "b"), ("b", "c")]}) == 1
        assert resident.upsert({"Edge": [("b", "c")]}) == 0

    def test_upsert_of_already_derived_fact_adds_nothing(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        # Reach("a", "c") is derived; upserting it as extensional must not
        # create a duplicate store entry or a second chase node.
        facts_before = len(resident.store)
        assert resident.upsert({"Reach": [("a", "c")]}) == 0
        assert len(resident.store) == facts_before
        # ...but it is now extensional: retracting the edge that derived it
        # keeps it alive.
        resident.retract({"Edge": [("b", "c")]})
        assert ("a", "c") in resident.query().ground_tuples("Reach")

    def test_epoch_advances_on_every_write(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        first = resident.epoch
        resident.upsert({"Edge": [("b", "c")]})
        second = resident.epoch
        assert second > first
        resident.retract({"Edge": [("b", "c")]})
        assert resident.epoch > second

    def test_aggregates_stay_incremental_under_upsert(self):
        resident = ResidentReasoner(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        assert resident.query().ground_tuples("Degree") == {("a", 2)}
        resident.upsert({"Edge": [("a", "d"), ("b", "c")]})
        assert not resident.needs_settle
        assert resident.query().ground_tuples("Degree") == {("a", 3), ("b", 1)}

    def test_upsert_past_the_round_budget_raises(self):
        # Maintenance cannot stop half-way and stay sound, so the budget's
        # round bound raises instead of ending with a partial status.
        config = ChaseConfig(budget=ExecutionBudget(max_rounds=5))
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [(0, 1)]}, chase_config=config
        )
        assert resident.query().ground_tuples("Reach") == {(0, 1)}
        with pytest.raises(ChaseLimitError, match="maximum of 5 rounds"):
            resident.upsert({"Edge": [(i, i + 1) for i in range(1, 12)]})


class TestDRedEdgeCases:
    def test_independently_rederivable_fact_survives(self):
        # a->c through b (length 2, derived first, so it owns the recorded
        # justification) and through d->e (length 3): deleting the b-route
        # overdeletes Reach("a", "c") and the rederivation step must bring
        # it back via the longer route.
        resident = ResidentReasoner(
            REACH_PROGRAM,
            database={
                "Edge": [
                    ("a", "b"),
                    ("b", "c"),
                    ("a", "d"),
                    ("d", "e"),
                    ("e", "c"),
                ]
            },
        )
        resident.retract({"Edge": [("b", "c")]})
        reach = resident.query().ground_tuples("Reach")
        assert ("a", "c") in reach
        assert ("b", "c") not in reach
        assert resident.stats()["rederived"] >= 1

    def test_fact_with_surviving_recorded_justification_is_untouched(self):
        # The recorded justification of Reach("a", "c") is whichever route
        # derived it first; with two length-2 routes the surviving one keeps
        # the fact out of the overdeletion closure entirely.
        resident = ResidentReasoner(
            REACH_PROGRAM,
            database={
                "Edge": [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]
            },
        )
        resident.retract({"Edge": [("b", "c")]})
        reach = resident.query().ground_tuples("Reach")
        assert ("a", "c") in reach
        assert ("b", "c") not in reach

    def test_existential_witness_disappears_with_last_justification(self):
        # Audit(Y, Z) invents Z for every node reached from a source;
        # retracting the only source must delete the null witness.
        resident = ResidentReasoner(
            AUDIT_PROGRAM,
            database={"Edge": [("a", "b")], "Source": [("a",)]},
        )
        assert len(resident.query().facts("Audit")) > 0
        resident.retract({"Source": [("a",)]})
        assert resident.query().facts("Audit") == ()

    def test_existential_witness_survives_alternative_justification(self):
        # Two sources reach "b"; dropping one must keep the Audit witness
        # for "b" (pattern-identical, possibly a different null label).
        resident = ResidentReasoner(
            AUDIT_PROGRAM,
            database={
                "Edge": [("a", "b"), ("c", "b")],
                "Source": [("a",), ("c",)],
            },
        )
        before = {f.values()[0] for f in resident.query().facts("Audit")}
        resident.retract({"Source": [("a",)]})
        after = {f.values()[0] for f in resident.query().facts("Audit")}
        assert "b" in after
        assert after <= before

    def test_retract_then_reinsert_restores_existential_pattern(self):
        database = {"Edge": [("a", "b"), ("b", "c")], "Source": [("a",)]}
        resident = ResidentReasoner(AUDIT_PROGRAM, database=database)
        _, _, patterns_before = _profile_facts(resident.query().facts("Audit"))
        resident.retract({"Source": [("a",)]})
        resident.upsert({"Source": [("a",)]})
        _, _, patterns_after = _profile_facts(resident.query().facts("Audit"))
        # The relabelled nulls must present the same witness patterns.
        assert patterns_after == patterns_before

    def test_derived_facts_follow_retract_then_same_size_upsert(self):
        # The retraction replaces the node list and the upsert brings it
        # back to the same length: derived_facts() must still read the
        # current nodes.
        resident = ResidentReasoner(
            "Reach(X, Y) :- Edge(X, Y).",
            database={"Edge": [("a", "b"), ("b", "c")]},
        )
        assert len(resident.result.derived_facts()) == 2
        resident.retract({"Edge": [("b", "c")]})
        resident.upsert({"Edge": [("x", "y")]})
        derived = {f.values() for f in resident.result.derived_facts()}
        assert derived == {("a", "b"), ("x", "y")}

    def test_retracting_derived_fact_raises(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        with pytest.raises(ValueError, match="derived, not extensional"):
            resident.retract({"Reach": [("a", "c")]})

    def test_retracting_program_fact_raises(self):
        resident = ResidentReasoner(
            REACH_PROGRAM + '\nEdge("p", "q").\n',
            database={"Edge": [("a", "b")]},
        )
        with pytest.raises(ValueError, match="program text"):
            resident.retract({"Edge": [("p", "q")]})

    def test_rejected_retract_batch_leaves_state_untouched(self):
        # The batch is validated before anything is applied: a derived fact
        # late in the batch must not leave earlier facts half-retracted
        # (discarded from the extensional set but still materialised).
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        epoch_before = resident.epoch
        with pytest.raises(ValueError, match="derived, not extensional"):
            resident.retract({"Edge": [("a", "b")], "Reach": [("a", "c")]})
        assert resident.epoch == epoch_before
        assert resident.query().ground_tuples("Reach") == {
            ("a", "b"),
            ("b", "c"),
            ("a", "c"),
        }
        # The untouched extensional set still accepts the valid retraction.
        assert resident.retract({"Edge": [("a", "b")]}) == 1
        assert resident.query().ground_tuples("Reach") == {("b", "c")}

    def test_duplicate_facts_in_a_retract_batch_count_once(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        removed = resident.retract(
            {"Edge": [("b", "c"), ("b", "c")]}
        )
        assert removed == 1
        assert resident.query().ground_tuples("Reach") == {("a", "b")}

    def test_retracting_absent_fact_is_ignored(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert resident.retract({"Edge": [("x", "y")]}) == 0
        assert resident.query().ground_tuples("Reach") == {("a", "b")}

    def test_aggregate_retraction_falls_back_to_rebuild(self):
        resident = ResidentReasoner(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        resident.retract({"Edge": [("a", "c")]})
        assert resident.needs_settle
        # Writes on a dirty reasoner are staged, not chased.
        resident.upsert({"Edge": [("d", "e")]})
        assert resident.query().ground_tuples("Degree") == {("a", 1), ("d", 1)}
        assert resident.stats()["full_rebuilds"] == 1
        assert not resident.needs_settle


class TestConstruction:
    def test_rejects_streaming_executor(self):
        with pytest.raises(ValueError, match="resident executor"):
            ResidentReasoner(REACH_PROGRAM, executor="streaming")

    def test_rejects_strategy_instance(self):
        from repro.core.termination import WardedTerminationStrategy

        with pytest.raises(ValueError, match="named termination strategy"):
            ResidentReasoner(
                REACH_PROGRAM, strategy=WardedTerminationStrategy()
            )

    def test_reasoner_resident_entry_point(self):
        reasoner = VadalogReasoner(REACH_PROGRAM)
        resident = reasoner.resident(database={"Edge": [("a", "b")]})
        assert resident.query().ground_tuples("Reach") == {("a", "b")}

    def test_snapshot_query_on_unsettled_reasoner_raises(self):
        resident = ResidentReasoner(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        resident.retract({"Edge": [("a", "c")]})
        assert resident.needs_settle
        with pytest.raises(ResidentError, match="unsettled"):
            resident.query(snapshot=resident.snapshot())
