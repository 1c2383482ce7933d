"""The Vadalog reasoner facade — the main public entry point of the library.

The reasoner ties the pieces of Section 3 and Section 4 together, following
the four compilation steps of the pipeline architecture:

1. the **logic optimizer** rewrites the rules: duplicate removal, multiple-
   head elimination, isolation of existentials into linear rules and, when
   needed, harmful-join elimination (Section 3.2);
2. the **logic compiler** produces the reasoning access plan
   (:mod:`repro.engine.plan`);
3. the **execution optimizer** orders the rule filters (round-robin order
   from the scheduler, producers before consumers);
4. the **query compiler / executor** compiles every rule body into a
   slot-machine join plan (:func:`repro.engine.plan.compile_join_plans` —
   selectivity-ordered atoms, variable→slot maps, join-key positions), runs
   the chase through the compiled executors with the warded termination
   strategy (Algorithm 1) and extracts the answers, applying the
   post-processing annotations.  Pass ``executor="naive"`` to fall back to
   the interpreted matcher (the reference path for differential testing),
   ``executor="streaming"`` for the pull-based pipeline runtime
   (:mod:`repro.engine.pipeline`): query-driven, buffer-backed and able to
   return first answers before the model is fully materialized;
   :meth:`VadalogReasoner.stream` exposes the lazy variant.

Typical usage::

    from repro import VadalogReasoner

    reasoner = VadalogReasoner('''
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        Control(X, Z) :- Control(X, Y), Own(Y, Z, W), V = msum(W, <Y>), V > 0.5.
    ''')
    result = reasoner.reason(database={"Own": [("a", "b", 0.6), ("b", "c", 0.6)]})
    result.answers.ground_tuples("Control")
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.chase import ChaseConfig, ChaseEngine, ChaseResult
from ..core.limits import STATUS_COMPLETE, CancellationToken, ExecutionBudget
from ..core.harmful_joins import (
    HarmfulJoinEliminationResult,
    UnsupportedHarmfulJoin,
    eliminate_harmful_joins,
)
from ..core.atoms import Atom, Fact
from ..core.magic import (
    REWRITES,
    MagicRewriteError,
    MagicRewriteResult,
    rewrite_with_magic,
)
from ..core.parser import parse_atom, parse_program
from ..core.query import AnswerSet, Query, extract_answers
from ..core.rules import Program
from ..core.terms import Constant
from ..core.termination import TerminationStrategy, strategy_by_name
from ..core.transform import is_auxiliary_predicate, normalize_for_chase
from ..core.wardedness import ProgramAnalysis, analyse_program
from ..obs.report import render_report
from ..obs.trace import Tracer, activate, as_tracer
from ..storage.database import Database
from .annotations import (
    BindingSet,
    apply_post_directives,
    collect_bindings,
    load_bound_facts,
    write_output_bindings,
)
from .pipeline import PipelineExecutor
from .plan import (
    ReasoningAccessPlan,
    RuleJoinPlan,
    compile_join_plans,
    compile_plan,
    compile_source_pushdowns,
)
from .record_managers import (
    DataSourceRecordManager,
    FactsRecordManager,
    RecordManager,
    managers_for_database,
    managers_for_facts,
)
from .scheduler import RoundRobinScheduler, SchedulerReport
from .wrappers import WrapperRegistry

EXECUTORS = ("compiled", "naive", "streaming")

DatabaseLike = Union[Database, Mapping[str, Iterable[Sequence[object]]], Iterable[Fact], None]


@dataclass
class ReasoningResult:
    """Everything produced by one reasoning run.

    Eager runs (``reason()``) arrive with :attr:`answers` fully populated.
    Streaming runs created by :meth:`VadalogReasoner.stream` additionally
    carry a live :attr:`pipeline`; :meth:`first_answer` and
    :meth:`iter_answers` then pull the pipeline on demand, and
    :meth:`complete` drains it and fills :attr:`answers` (post-processing
    directives included) exactly like an eager run.
    """

    answers: AnswerSet
    chase: ChaseResult
    analysis: ProgramAnalysis
    plan: ReasoningAccessPlan
    scheduler: SchedulerReport
    harmful_join_rewriting: Optional[HarmfulJoinEliminationResult]
    warnings: List[str] = field(default_factory=list)
    #: Coarse per-phase wall-clock seconds (``rewrite``/``load``/``chase``/
    #: ``answers``/``total``).  Streaming runs measure ``chase`` from the
    #: *first pull* (the pipeline is lazy — nothing runs at build time);
    #: the trace's chase span records both clocks as ``t_create`` and
    #: ``t_first_pull`` attrs.  Thin legacy view: traced runs carry the same
    #: phases as spans on :attr:`trace` — prefer :meth:`run_report`.
    timings: Dict[str, float] = field(default_factory=dict)
    #: The live streaming pipeline (lazy runs and eager streaming runs).
    pipeline: Optional[PipelineExecutor] = None
    #: Per-predicate datasource counters (``@bind`` traffic: rows scanned,
    #: pushdown applied, cache hits, rows written back).  Empty when the run
    #: used no external bindings.  Thin legacy view: traced runs record each
    #: completed scan as a ``source-scan`` span with the same counters.
    source_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: The run's telemetry (:class:`repro.obs.Tracer`) when the run was
    #: started with ``trace=``; ``None`` otherwise.  Spans are in
    #: ``trace.spans()``, aggregated counters in ``trace.metrics``.
    trace: Optional[Tracer] = None
    #: The magic-set rewriting applied to this run (``reason(query=...,
    #: rewrite="magic")``), including guard/fallback/seed counters; ``None``
    #: on runs without a query or with ``rewrite="none"``.
    magic_rewriting: Optional[MagicRewriteResult] = None
    _finalizer: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def status(self) -> str:
        """Structured run outcome: ``"complete"``, ``"deadline_exceeded"``,
        ``"budget_exceeded"`` or ``"cancelled"`` (see :mod:`repro.core.limits`).

        Non-complete runs carry the sound partial materialisation derived
        before the stop — the chase is monotone, so every answer present is
        an answer of the complete run too.
        """
        return self.chase.status

    @property
    def stop_reason(self) -> Optional[str]:
        """Why a non-complete run stopped (``None`` for complete runs)."""
        return self.chase.stop_reason

    def is_complete(self) -> bool:
        return self.chase.status == STATUS_COMPLETE

    def facts(self, predicate: str) -> Tuple[Fact, ...]:
        return self.answers.facts(predicate)

    def tuples(self, predicate: str):
        return self.answers.tuples(predicate)

    def ground_tuples(self, predicate: str):
        return self.answers.ground_tuples(predicate)

    # ------------------------------------------------------- streaming access
    def first_answer(self) -> Optional[Fact]:
        """The first answer fact, pulling the pipeline only as far as needed.

        On a lazy streaming result this *stops* as soon as any sink produces
        a fact — the rest of the model is not materialized.  On an eager
        result it simply returns the first extracted answer.
        """
        if self.pipeline is not None:
            return self.pipeline.first_answer()
        for facts in self.answers.facts_by_predicate.values():
            if facts:
                return facts[0]
        return None

    def iter_answers(self):
        """Lazily iterate answer facts; finalizes :attr:`answers` when drained.

        Streamed facts are the raw sink output (universal answers, before
        isomorphic deduplication and monotonic-aggregate reduction); the
        post-processed view is in :attr:`answers` after :meth:`complete`.
        """
        if self.pipeline is None:
            yield from self.answers.facts()
            return
        yield from self.pipeline.answers()
        self._finalize()

    def complete(self) -> "ReasoningResult":
        """Drain a lazy streaming run and populate :attr:`answers`."""
        if self.pipeline is not None:
            self.pipeline.run_to_completion()
            self._finalize()
        return self

    def _finalize(self) -> None:
        if self._finalizer is not None:
            finalizer, self._finalizer = self._finalizer, None
            finalizer(self)

    def stats(self) -> Dict[str, object]:
        data = dict(self.chase.stats())
        data.update({f"time_{k}": v for k, v in self.timings.items()})
        data["warnings"] = list(self.warnings)
        if self.source_stats:
            data["datasources"] = dict(self.source_stats)
        if self.magic_rewriting is not None:
            data.update(self.magic_rewriting.stats())
        return data

    def run_report(self, limit: int = 5) -> str:
        """Human-readable run summary (phases, top rules, rounds, sources).

        Traced runs (``reason(trace=...)``) render the full span tree
        aggregates; untraced runs fall back to a coarse summary built from
        :meth:`stats` and :attr:`timings`.
        """
        return render_report(self, limit=limit)


@dataclass
class _RunSpec:
    """Everything one reasoning run needs: program, plans and seed facts.

    Runs without a query reuse the reasoner's compiled state; query runs
    with ``rewrite="magic"`` carry the magic-rewritten program with its own
    analysis/plans plus the ``_aux_magic_*`` seed facts.
    """

    program: Program
    analysis: ProgramAnalysis
    join_plans: Dict[int, RuleJoinPlan]
    outputs: List[str]
    seeds: List[Fact] = field(default_factory=list)
    query_atom: Optional[Atom] = None
    rewriting: Optional[MagicRewriteResult] = None


class VadalogReasoner:
    """High-level reasoner over Vadalog programs (Warded Datalog± core)."""

    def __init__(
        self,
        program: Union[Program, str],
        strategy: Union[str, TerminationStrategy, None] = "warded",
        eliminate_harmful: bool = True,
        normalize: bool = True,
        chase_config: Optional[ChaseConfig] = None,
        base_path: Optional[str] = None,
        executor: str = "compiled",
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; use one of {', '.join(EXECUTORS)}"
            )
        self.original_program = parse_program(program) if isinstance(program, str) else program
        self._strategy_spec = strategy
        self.eliminate_harmful = eliminate_harmful
        self.normalize = normalize
        self.chase_config = chase_config or ChaseConfig()
        self.base_path = base_path
        self.executor = executor
        self.warnings: List[str] = []
        self.harmful_join_rewriting: Optional[HarmfulJoinEliminationResult] = None
        #: ``@bind`` resolution is memoized across runs so the per-source
        #: page caches persist — a second ``reason()`` on the same reasoner
        #: reads sources from memory, not the backend.
        self._bindings: Optional[BindingSet] = None
        #: Magic-rewritten run specs, memoized per query atom (a production
        #: reasoner answers the same point query many times; the rewriting,
        #: analysis and join plans are reused, only the chase re-runs).
        self._magic_cache: Dict[Tuple[str, Tuple], _RunSpec] = {}

        self.program = self._optimize(self.original_program)
        (
            self.analysis,
            self.plan,
            self.scheduler_report,
            self.join_plans,
        ) = _compile(self.program, join_plans=executor != "naive")

    # -------------------------------------------------------------- compilation
    def _optimize(self, program: Program) -> Program:
        """Step 1: the logic optimizer (elementary + complex rewritings)."""
        optimized = program
        analysis = analyse_program(optimized)
        if not analysis.is_warded:
            self.warnings.append(
                "the program is not warded: termination of the chase is not guaranteed "
                "by the warded strategy"
            )
        if self.eliminate_harmful and analysis.has_harmful_joins:
            try:
                rewriting = eliminate_harmful_joins(optimized, analysis=analysis)
                self.harmful_join_rewriting = rewriting
                optimized = rewriting.program
            except UnsupportedHarmfulJoin as exc:
                self.warnings.append(
                    f"harmful-join elimination skipped ({exc}); answers involving "
                    "labelled nulls joined harmfully may be incomplete"
                )
        if self.normalize:
            optimized = normalize_for_chase(optimized)
        return optimized

    def _make_strategy(self) -> TerminationStrategy:
        if isinstance(self._strategy_spec, TerminationStrategy):
            return self._strategy_spec
        if self._strategy_spec is None:
            return strategy_by_name("warded")
        return strategy_by_name(self._strategy_spec)

    # ----------------------------------------------------------------- running
    def reason(
        self,
        database: DatabaseLike = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
        strategy: Union[str, TerminationStrategy, None] = None,
        query: Union[str, Atom, None] = None,
        rewrite: Optional[str] = None,
        deadline: Optional[float] = None,
        budget: Optional[ExecutionBudget] = None,
        cancel: Optional[CancellationToken] = None,
        trace: object = None,
    ) -> ReasoningResult:
        """Run the reasoning task and return answers plus diagnostics.

        ``query`` asks for a single predicate with some arguments bound to
        constants (``query='Control("f0", Y)'`` — a string or an
        :class:`~repro.core.atoms.Atom`); answers are the matching facts of
        that predicate and ``outputs`` is ignored.  ``rewrite`` selects the
        query-driven logic optimization: ``"magic"`` (the default with a
        query) applies the existential-safe magic-set rewriting of
        :mod:`repro.core.magic` so every executor only derives facts the
        query can observe; ``"none"`` evaluates the full program and
        filters.  Both return identical answers — the rewriting only prunes
        derivations no answer depends on.  Query runs do not write back to
        ``@output`` bindings (their answer set is intentionally partial).

        ``deadline`` (wall-clock seconds), ``budget`` (an
        :class:`~repro.core.limits.ExecutionBudget`) and ``cancel`` (a
        :class:`~repro.core.limits.CancellationToken`) bound the run: when
        any of them triggers, the run ends gracefully with
        ``result.status != "complete"`` and the sound partial answers
        derived so far, instead of raising.  ``deadline`` is shorthand for
        ``budget=ExecutionBudget(deadline_seconds=...)`` and overrides the
        budget's own deadline when both are given.

        ``trace`` opts the run into the telemetry layer of :mod:`repro.obs`:
        ``True`` records spans in memory (inspect via ``result.trace`` /
        ``result.run_report()``), a path string writes a JSONL trace file, a
        ready-made :class:`repro.obs.Tracer` is used as-is.  The default
        ``None`` is the zero-overhead null tracer — the run is bit-identical
        to an untraced one.
        """
        tracer = as_tracer(trace)
        if tracer is None:
            return self._reason_impl(
                database, outputs, certain, strategy, query, rewrite,
                deadline, budget, cancel, tracer=None,
            )
        run_span = tracer.begin(
            "run",
            f"reason:{self.executor}",
            executor=self.executor,
            query=str(query) if query is not None else None,
        )
        try:
            with activate(tracer):
                result = self._reason_impl(
                    database, outputs, certain, strategy, query, rewrite,
                    deadline, budget, cancel, tracer=tracer,
                )
        except BaseException as exc:
            tracer.end(run_span, status="error", error=repr(exc))
            tracer.finish()
            raise
        chase = result.chase
        run_span.counters["facts"] = len(chase.store)
        run_span.counters["derived"] = chase.chase_steps
        run_span.counters["rounds"] = chase.rounds
        run_span.counters["peak_resident_facts"] = chase.peak_resident_facts
        run_span.attrs["status"] = chase.status
        if chase.stop_reason is not None:
            run_span.attrs["stop_reason"] = chase.stop_reason
        tracer.end(run_span)
        tracer.finish()
        result.trace = tracer
        return result

    def _reason_impl(
        self,
        database: DatabaseLike,
        outputs: Optional[Iterable[str]],
        certain: bool,
        strategy: Union[str, TerminationStrategy, None],
        query: Union[str, Atom, None],
        rewrite: Optional[str],
        deadline: Optional[float],
        budget: Optional[ExecutionBudget],
        cancel: Optional[CancellationToken],
        tracer: Optional[Tracer],
    ) -> ReasoningResult:
        timings: Dict[str, float] = {}
        started = time.perf_counter()
        chosen = self._resolve_strategy(strategy)
        config = self._effective_config(deadline, budget, cancel)
        rewrite_span = tracer.begin("rewrite", "rewrite") if tracer is not None else None
        spec = self._prepare_run(outputs, query, rewrite)
        if rewrite_span is not None:
            rewrite_span.attrs["magic"] = bool(
                spec.rewriting is not None and spec.rewriting.changed
            )
            tracer.end(rewrite_span)
        timings["rewrite"] = time.perf_counter() - started
        output_predicates = spec.outputs
        bindings = self._collect_bindings(output_predicates)

        if self.executor == "streaming":
            load_span = tracer.begin("load", "load") if tracer is not None else None
            pipeline = self._build_pipeline(
                database, bindings, chosen, output_predicates, spec, config=config,
                tracer=tracer,
            )
            if load_span is not None:
                tracer.end(load_span)
            timings["load"] = time.perf_counter() - started
            chase_started = time.perf_counter()
            chase_result = pipeline.run_to_completion()
            timings["chase"] = time.perf_counter() - chase_started
        else:
            pipeline = None
            load_span = tracer.begin("load", "load") if tracer is not None else None
            facts = list(self._database_facts(database))
            facts.extend(load_bound_facts(bindings))
            facts.extend(spec.seeds)
            if load_span is not None:
                load_span.counters["facts"] = len(facts)
                tracer.end(load_span)
            timings["load"] = time.perf_counter() - started

            registry = WrapperRegistry(chosen)
            for rule in spec.program.rules:
                registry.wrapper_for(f"rule:{rule.label}")

            chase_started = time.perf_counter()
            engine = ChaseEngine(
                spec.program,
                facts,
                strategy=chosen,
                analysis=spec.analysis,
                config=config,
                executor=self.executor,
                join_plans=spec.join_plans,
                tracer=tracer,
            )
            chase_result = engine.run()
            timings["chase"] = time.perf_counter() - chase_started

        answer_started = time.perf_counter()
        answers_span = tracer.begin("answers", "answers") if tracer is not None else None
        query_spec = Query(tuple(output_predicates), certain=certain)
        answers = extract_answers(chase_result, query_spec)
        answers = apply_post_directives(answers, bindings.post_directives)
        if spec.query_atom is not None:
            answers = _filter_answers(answers, spec.query_atom)
        else:
            write_output_bindings(bindings, answers, output_predicates)
        if answers_span is not None:
            answers_span.counters["answers"] = sum(
                len(facts) for facts in answers.facts_by_predicate.values()
            )
            tracer.end(answers_span)
        timings["answers"] = time.perf_counter() - answer_started
        if chase_result.first_answer_seconds is not None:
            timings["first_answer"] = chase_result.first_answer_seconds
        timings["total"] = time.perf_counter() - started

        return ReasoningResult(
            answers=answers,
            chase=chase_result,
            analysis=spec.analysis,
            plan=self.plan,
            scheduler=self.scheduler_report,
            harmful_join_rewriting=self.harmful_join_rewriting,
            warnings=list(self.warnings) + list(chase_result.warnings),
            timings=timings,
            pipeline=pipeline,
            source_stats=bindings.source_stats(),
            magic_rewriting=spec.rewriting,
        )

    def stream(
        self,
        database: DatabaseLike = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
        strategy: Union[str, TerminationStrategy, None] = None,
        query: Union[str, Atom, None] = None,
        rewrite: Optional[str] = None,
        deadline: Optional[float] = None,
        budget: Optional[ExecutionBudget] = None,
        cancel: Optional[CancellationToken] = None,
        trace: object = None,
    ) -> ReasoningResult:
        """Start a lazy streaming run: nothing is evaluated until pulled.

        The returned result exposes ``first_answer()`` (pull until one answer
        fact is produced, then stop), ``iter_answers()`` (a lazy answer
        iterator) and ``complete()`` (drain to the fixpoint and populate
        ``answers`` exactly like ``reason()``).  Available on every reasoner
        regardless of its default ``executor``.  ``query``/``rewrite``
        behave as in :meth:`reason`; with ``rewrite="magic"`` the pipeline
        pulls through the rewritten program, so a bound first answer touches
        only the demanded slice of the data.  ``deadline``/``budget``/
        ``cancel`` bound the run as in :meth:`reason`; the deadline clock
        starts at the first pull, not at this call.  ``trace`` behaves as in
        :meth:`reason`; the trace is finalized when the run is drained
        (``complete()`` or an exhausted ``iter_answers()``), and the chase
        span records both the build and the first-pull clock (``t_create``
        and ``t_first_pull`` attrs).
        """
        tracer = as_tracer(trace)
        run_span = (
            tracer.begin("run", "stream:streaming", executor="streaming",
                         query=str(query) if query is not None else None)
            if tracer is not None
            else None
        )
        chosen = self._resolve_strategy(strategy)
        config = self._effective_config(deadline, budget, cancel)
        rewrite_span = tracer.begin("rewrite", "rewrite") if tracer is not None else None
        spec = self._prepare_run(outputs, query, rewrite)
        if rewrite_span is not None:
            tracer.end(rewrite_span)
        output_predicates = spec.outputs
        bindings = self._collect_bindings(output_predicates)
        load_span = tracer.begin("load", "load") if tracer is not None else None
        pipeline = self._build_pipeline(
            database, bindings, chosen, output_predicates, spec, config=config,
            tracer=tracer,
        )
        if load_span is not None:
            tracer.end(load_span)

        def finalize(result: ReasoningResult) -> None:
            query_spec = Query(tuple(output_predicates), certain=certain)
            answers = extract_answers(pipeline.result, query_spec)
            answers = apply_post_directives(answers, bindings.post_directives)
            if spec.query_atom is not None:
                answers = _filter_answers(answers, spec.query_atom)
            else:
                write_output_bindings(bindings, answers, output_predicates)
            result.answers = answers
            result.source_stats = bindings.source_stats()
            for warning in pipeline.result.warnings:
                if warning not in result.warnings:
                    result.warnings.append(warning)
            if pipeline.result.first_answer_seconds is not None:
                result.timings["first_answer"] = pipeline.result.first_answer_seconds
            result.timings["total"] = pipeline.result.elapsed_seconds
            if tracer is not None and run_span is not None:
                chase = pipeline.result
                run_span.counters["facts"] = len(chase.store)
                run_span.counters["derived"] = chase.chase_steps
                run_span.counters["rounds"] = chase.rounds
                run_span.counters["peak_resident_facts"] = chase.peak_resident_facts
                run_span.attrs["status"] = chase.status
                if chase.stop_reason is not None:
                    run_span.attrs["stop_reason"] = chase.stop_reason
                tracer.end(run_span)
                tracer.finish()

        return ReasoningResult(
            answers=AnswerSet(),
            chase=pipeline.result,
            analysis=spec.analysis,
            plan=self.plan,
            scheduler=self.scheduler_report,
            harmful_join_rewriting=self.harmful_join_rewriting,
            warnings=list(self.warnings),
            timings={},
            pipeline=pipeline,
            magic_rewriting=spec.rewriting,
            trace=tracer,
            _finalizer=finalize,
        )

    def _effective_config(
        self,
        deadline: Optional[float],
        budget: Optional[ExecutionBudget],
        cancel: Optional[CancellationToken],
    ) -> ChaseConfig:
        """The run's chase config with the call's budget/cancel merged in."""
        if deadline is None and budget is None and cancel is None:
            return self.chase_config
        merged = budget or self.chase_config.budget or ExecutionBudget()
        if deadline is not None:
            merged = replace(merged, deadline_seconds=deadline)
        return replace(
            self.chase_config,
            budget=merged,
            cancel=cancel if cancel is not None else self.chase_config.cancel,
        )

    # ----------------------------------------------------------------- helpers
    def _prepare_run(
        self,
        outputs: Optional[Iterable[str]],
        query: Union[str, Atom, None],
        rewrite: Optional[str],
    ) -> _RunSpec:
        """Resolve the program/plans/outputs/seeds of one run.

        Without a query this is the reasoner's own compiled state.  With a
        query the output is the query's predicate and ``rewrite="magic"``
        (the default) swaps in the magic-rewritten program: its own
        wardedness analysis, join plans, round-robin rule order and
        ``_aux_magic_*`` seed facts.  If the rewriting declines or fails
        its internal invariants the run falls back to the unrewritten
        program — answers are identical either way, only the pruning is
        lost (a warning records the fallback).
        """
        if query is None:
            if rewrite is not None:
                raise ValueError("rewrite= requires a query= atom")
            return _RunSpec(
                program=self.program,
                analysis=self.analysis,
                join_plans=self.join_plans,
                outputs=self._output_predicates(outputs),
            )
        query_atom = parse_atom(query) if isinstance(query, str) else query
        chosen_rewrite = rewrite if rewrite is not None else "magic"
        if chosen_rewrite not in REWRITES:
            raise ValueError(
                f"unknown rewrite {chosen_rewrite!r}; use one of {', '.join(REWRITES)}"
            )
        base = _RunSpec(
            program=self.program,
            analysis=self.analysis,
            join_plans=self.join_plans,
            outputs=[query_atom.predicate],
            query_atom=query_atom,
        )
        if chosen_rewrite == "none":
            return base
        cache_key = (query_atom.predicate, query_atom.terms)
        cached = self._magic_cache.pop(cache_key, None)
        if cached is not None:
            self._magic_cache[cache_key] = cached  # refresh LRU recency
            return cached
        try:
            rewriting = rewrite_with_magic(self.program, query_atom, self.analysis)
        except MagicRewriteError as exc:
            self.warnings.append(
                f"magic rewriting failed ({exc}); falling back to the full program"
            )
            base.rewriting = None
            return base
        base.rewriting = rewriting
        if rewriting.changed:
            program = rewriting.program
            analysis, _plan, _report, join_plans = _compile(
                program, join_plans=self.executor != "naive"
            )
            base = _RunSpec(
                program=program,
                analysis=analysis,
                join_plans=join_plans,
                outputs=[query_atom.predicate],
                seeds=list(rewriting.seeds),
                query_atom=query_atom,
                rewriting=rewriting,
            )
        if len(self._magic_cache) >= 32:
            self._magic_cache.pop(next(iter(self._magic_cache)))
        self._magic_cache[cache_key] = base
        return base

    def _collect_bindings(self, output_predicates: Sequence[str]) -> BindingSet:
        """Resolve ``@bind``/``@mapping`` and attach compiled pushdowns.

        Resolution happens once per reasoner (sources — and their page
        caches — are shared by subsequent runs; external files modified
        behind a live reasoner's back are re-read only by a new reasoner).
        The selection pushdowns of :func:`compile_source_pushdowns` are
        recomputed per run and attached to the input record managers, so
        both the materializing load (:func:`load_bound_facts`) and the
        streaming pipeline's lazy source cursors scan with the same
        restriction.  ``output_predicates`` is this run's answer selection:
        a bound predicate the caller asks for directly must be served in
        full, so it is excluded from pushdown.
        """
        if self._bindings is None:
            self._bindings = collect_bindings(self.program, self.base_path)
        bindings = self._bindings
        if bindings.sources:
            bindings.pushdowns = compile_source_pushdowns(
                self.program, tuple(bindings.sources), output_predicates
            )
            for predicate, manager in bindings.record_managers.items():
                if isinstance(manager, DataSourceRecordManager):
                    manager.pushdown = bindings.pushdowns.get(predicate)
        return bindings

    def _resolve_strategy(
        self, strategy: Union[str, TerminationStrategy, None]
    ) -> TerminationStrategy:
        if strategy is None:
            return self._make_strategy()
        if isinstance(strategy, TerminationStrategy):
            return strategy
        return strategy_by_name(strategy)

    def _build_pipeline(
        self,
        database: DatabaseLike,
        bindings: BindingSet,
        strategy: TerminationStrategy,
        output_predicates: Sequence[str],
        spec: Optional[_RunSpec] = None,
        config: Optional[ChaseConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> PipelineExecutor:
        """Assemble the streaming pipeline for one run.

        :class:`Database` inputs and external ``@bind`` sources keep lazy
        record managers (their relations are only read when the backward
        slice actually pulls them); loose fact lists/mappings, program facts
        and magic seed facts are wrapped in :class:`FactsRecordManager`
        sources.  ``spec`` overrides the program/plans for query runs.
        """
        program = spec.program if spec is not None else self.program
        analysis = spec.analysis if spec is not None else self.analysis
        managers: Dict[str, RecordManager] = {}
        if isinstance(database, Database):
            managers.update(managers_for_database(database))
            loose: List[Fact] = []
        else:
            loose = list(self._database_facts(database))
        loose.extend(program.facts)
        if spec is not None:
            loose.extend(spec.seeds)
        for predicate, manager in managers_for_facts(loose).items():
            managers[predicate] = self._merge_managers(managers.get(predicate), manager)
        for predicate, manager in bindings.record_managers.items():
            managers[predicate] = self._merge_managers(managers.get(predicate), manager)
        join_plans = spec.join_plans if spec is not None else self.join_plans
        if not join_plans and program is self.program:
            # A reasoner built with executor="naive" has no plans yet; the
            # pipeline needs them, so compile (and cache) on first use.
            self.join_plans = join_plans = compile_join_plans(self.program)
        return PipelineExecutor(
            program,
            outputs=list(output_predicates),
            input_managers=managers,
            strategy=strategy,
            analysis=analysis,
            config=config if config is not None else self.chase_config,
            join_plans=join_plans,
            tracer=tracer,
        )

    @staticmethod
    def _merge_managers(
        existing: Optional[RecordManager], manager: RecordManager
    ) -> RecordManager:
        """Combine two sources of the same predicate (rare), materialising both."""
        if existing is None:
            return manager
        return FactsRecordManager(
            manager.predicate, existing.facts() + manager.facts()
        )

    # ----------------------------------------------------------------- helpers
    def _output_predicates(self, outputs: Optional[Iterable[str]]) -> List[str]:
        if outputs is not None:
            return list(outputs)
        declared = self.original_program.output_predicates()
        return sorted(p for p in declared if not is_auxiliary_predicate(p))

    @staticmethod
    def _database_facts(database: DatabaseLike) -> List[Fact]:
        if database is None:
            return []
        if isinstance(database, Database):
            return database.facts()
        if isinstance(database, Mapping):
            facts: List[Fact] = []
            for predicate, rows in database.items():
                for row in rows:
                    facts.append(Fact(predicate, [Constant(v) for v in row]))
            return facts
        return [f for f in database]  # already facts

    def resident(self, database: DatabaseLike = None) -> "ResidentReasoner":
        """Materialise ``database`` once and keep it warm under updates.

        Returns a :class:`~repro.engine.incremental.ResidentReasoner` bound
        to this reasoner's compiled state (optimized program, analysis,
        join plans): ``upsert``/``retract`` maintain the materialisation
        incrementally and ``query`` answers without re-running the chase.
        Requires the ``compiled`` or ``naive`` executor and a *named*
        termination strategy (retraction replays a fresh instance).
        """
        from .incremental import ResidentReasoner

        if not isinstance(self._strategy_spec, (str, type(None))):
            raise ValueError(
                "resident maintenance needs a named termination strategy; "
                "this reasoner was built with a strategy instance"
            )
        return ResidentReasoner(self, database=database)

    def explain(self) -> str:
        """Human-readable description of the compiled program and plan."""
        lines = [
            f"Program: {len(self.program.rules)} rules "
            f"({self.analysis.fragment()} fragment)",
        ]
        summary = self.analysis.summary()
        lines.append(
            "  linear rules: {linear_rules}, join rules: {join_rules}, "
            "existential rules: {existential_rules}, harmful joins: {harmful_joins}".format(**summary)
        )
        if self.harmful_join_rewriting and self.harmful_join_rewriting.changed:
            lines.append(
                f"  harmful-join elimination introduced "
                f"{len(self.harmful_join_rewriting.tracking_predicates)} tracking predicates"
            )
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        lines.append(self.plan.describe())
        lines.append(
            "Scheduler: "
            + ", ".join(f"{k}={v}" for k, v in self.scheduler_report.stats().items())
        )
        return "\n".join(lines)


def _compile(
    program: Program, join_plans: bool
) -> Tuple[ProgramAnalysis, ReasoningAccessPlan, SchedulerReport, Dict[int, RuleJoinPlan]]:
    """Steps 2-4a for an optimized program, shared by construction and magic runs.

    Analyses the program, compiles its reasoning access plan (step 2), lets
    the round-robin scheduler fix the rule order in place (step 3), then
    compiles every rule body into its slot-machine join plan (step 4a) —
    reasoning runs, and the streaming pipeline, reuse those plans.
    ``join_plans=False`` (the naive executor) skips step 4a.
    """
    analysis = analyse_program(program)
    plan = compile_plan(program)
    report = RoundRobinScheduler(plan, program).schedule()
    if report.rule_order and len(report.rule_order) == len(program.rules):
        program.rules = list(report.rule_order)
    return analysis, plan, report, compile_join_plans(program) if join_plans else {}


def _filter_answers(answers: AnswerSet, query_atom: Atom) -> AnswerSet:
    """Restrict an answer set to the facts matching a query atom.

    Constants of the query must coincide positionally; repeated query
    variables must bind consistently (``Atom.match`` semantics).
    """
    filtered = AnswerSet()
    for predicate, facts in answers.facts_by_predicate.items():
        if predicate != query_atom.predicate:
            filtered.facts_by_predicate[predicate] = list(facts)
            continue
        filtered.facts_by_predicate[predicate] = [
            fact
            for fact in facts
            if fact.arity == query_atom.arity and query_atom.match(fact) is not None
        ]
    return filtered


def reason(
    program: Union[Program, str],
    database: DatabaseLike = None,
    outputs: Optional[Iterable[str]] = None,
    certain: bool = False,
    strategy: Union[str, TerminationStrategy, None] = "warded",
    executor: str = "compiled",
    query: Union[str, Atom, None] = None,
    rewrite: Optional[str] = None,
    deadline: Optional[float] = None,
    budget: Optional[ExecutionBudget] = None,
    cancel: Optional[CancellationToken] = None,
    trace: object = None,
) -> ReasoningResult:
    """One-call helper: build a :class:`VadalogReasoner` and run it."""
    reasoner = VadalogReasoner(program, strategy=strategy, executor=executor)
    return reasoner.reason(
        database=database,
        outputs=outputs,
        certain=certain,
        query=query,
        rewrite=rewrite,
        deadline=deadline,
        budget=budget,
        cancel=cancel,
        trace=trace,
    )
