"""One measured process: a closed loop of passes with one client, no threads.

A pass is one job of the workload, from program text to answers:

* ``kg-batch``, ``rules-heavy``: set up a ``VadalogReasoner``, then three
  ``reason()`` calls (kg-batch reads SQLite through ``@bind`` -- later
  calls from the reasoner's page cache -- and writes ``StrongLink``/``PSC``
  back); ``total_s`` is the set-up plus the pass's median ``reason()``;
* ``point-queries``: set up a ``VadalogReasoner``, then 100 point queries
  ``reason(database=..., query=...)``; its ``reason_s`` is the median query
  that missed the magic-rewrite cache;
* ``service-mixed``: set up a ``ReasoningService`` (compile, then the first
  materialisation), then 300 upserts, retractions and queries.

Passes repeat until ``--seconds`` have elapsed.  With ``--trace 1`` the
first half of the time runs untraced and the second half with the layer
hooks of :mod:`layers` installed; the gap between the halves is the
tracing overhead.

Times are reported in host-normalised seconds.  The speed of a shared
host drifts by a quarter within minutes, so between operations (at most
every 0.2 s) the client also times :func:`calibrate`, a fixed pure-Python
loop outside the program.  Every time is scaled by
``CALIBRATION_REFERENCE_S / median(calibration)``: the seconds it would
have taken on a host that runs the loop in exactly 20 ms.  The raw
wall-clock figures and the calibration median are reported beside them.

Usage: ``python3 perfbench/measure.py --dir DIR --seconds N --trace 0|1``
where ``DIR/inputs.json`` holds the generated inputs.  Prints one JSON
object: metrics, answer digests and counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import ReasoningService, ResidentReasoner, VadalogReasoner
from repro.storage.database import Database

import layers
from check import facts_digest, write_kg_edb, writeback_digest
from workloads import Inputs, decode

clock = time.perf_counter

#: Duration of :func:`calibrate` that defines host-normalised seconds.
CALIBRATION_REFERENCE_S = 0.020
CALIBRATION_EVERY_S = 0.2

READS = ("reason", "query")
WRITES = ("upsert", "retract")


@dataclass
class Pass:
    setup_s: float = 0.0
    reason_s: float = 0.0
    total_s: float = 0.0
    #: (kind, seconds) of each operation after set-up.
    ops: List[Tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: check key -> answer digest of each checked operation.
    checks: Dict[str, List[str]] = field(default_factory=lambda: defaultdict(list))
    counts: Dict[str, float] = field(default_factory=dict)
    layer_s: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    blocking_s: float = 0.0


#: A fixed permutation of 0..4098 the calibration loop walks: dict lookups
#: and integer arithmetic, no new container objects, so the loop leaves the
#: cyclic collector's counters -- and the workload's collections -- alone.
_CYCLE = {i: (i * 7919 + 1) % 4099 for i in range(4099)}


def calibrate() -> float:
    """Seconds one fixed walk of :data:`_CYCLE` takes on this host, now."""
    started = clock()
    key, total = 0, 0
    for _ in range(200000):
        key = _CYCLE[key]
        total += key & 15
    return clock() - started


class Client:
    """Times operations; under tracing each one is a root span."""

    def __init__(self, recorder: Optional[layers.SpanRecorder]) -> None:
        self.recorder = recorder
        self.calibrations: List[float] = []
        self._calibrated_at = float("-inf")

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())
        self._calibrated_at = clock()

    def timed(self, name: str, call: Callable):
        if clock() - self._calibrated_at >= CALIBRATION_EVERY_S:
            self.calibrate()
        span = self.recorder.op(name) if self.recorder is not None else None
        started = clock()
        try:
            return call(), clock() - started
        finally:
            if span is not None:
                self.recorder.end(span)


def _chase_counts(chase) -> Dict[str, float]:
    return {
        "chase.rounds": chase.rounds,
        "chase.derived": chase.chase_steps,
        "chase.candidates": chase.candidate_facts,
        "chase.peak_resident_facts": chase.peak_resident_facts,
    }


def _operation(record: Pass, client: Client, kind: str, call: Callable):
    """Run one loop operation; one that raises is counted as failed."""
    try:
        value, seconds = client.timed(kind, call)
    except Exception:  # counted in error_rate; the closed loop goes on
        record.failed += 1
        return None
    record.ops.append((kind, seconds))
    return value


def _batch_pass(inputs: Inputs, client: Client, workdir: Path, database) -> Pass:
    record = Pass(attempted=1 + len(inputs.ops))
    options = {"base_path": str(workdir)} if inputs.workload == "kg-batch" else {}
    reasoner, record.setup_s = client.timed(
        "setup", lambda: VadalogReasoner(inputs.program, **options)
    )
    for _ in inputs.ops:
        result = _operation(record, client, "reason", lambda: reasoner.reason(database=database))
        if result is None:
            continue
        record.failed += not result.is_complete()
        record.checks["answers"].append(
            facts_digest(result.answers.facts_by_predicate, inputs.outputs)
        )
        if inputs.workload == "kg-batch":
            record.checks["writeback"].append(writeback_digest(workdir, inputs.outputs))
        if not record.counts:  # the first call reads @bind sources from the backend
            record.counts.update(_chase_counts(result.chase))
            for direction, key in (("input", "rows_scanned"), ("output", "rows_written")):
                record.counts[f"datasources.{key}"] = sum(
                    row[key] for row in result.source_stats.values()
                    if row["direction"] == direction
                )
        del result  # one result alive at a time, as in a single batch job
    record.reason_s = statistics.median(seconds for _, seconds in record.ops)
    record.total_s = record.setup_s + record.reason_s
    return record


def _point_query_pass(inputs: Inputs, client: Client, workdir: Path, database) -> Pass:
    record = Pass(attempted=1 + len(inputs.ops))
    reasoner, record.setup_s = client.timed("setup", lambda: VadalogReasoner(inputs.program))
    totals: Dict[str, float] = defaultdict(float)
    #: Rewritings seen so far (kept alive, so a new object means a cache miss).
    rewritings: List[object] = []
    misses: List[float] = []
    for _, text in inputs.ops:
        result = _operation(
            record, client, "query", lambda: reasoner.reason(database=database, query=text)
        )
        if result is None:
            continue
        if not any(result.magic_rewriting is seen for seen in rewritings):
            rewritings.append(result.magic_rewriting)
            misses.append(record.ops[-1][1])
        record.failed += not result.is_complete()
        record.checks[f"query:{text}"].append(
            facts_digest(result.answers.facts_by_predicate, ["PSC"])
        )
        for name, value in _chase_counts(result.chase).items():
            if name == "chase.peak_resident_facts":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    record.reason_s = statistics.median(misses)
    record.total_s = record.setup_s + sum(seconds for _, seconds in record.ops)
    record.counts.update(totals)
    return record


def _service_pass(inputs: Inputs, client: Client, workdir: Path, database) -> Pass:
    record = Pass(attempted=2 + len(inputs.ops))
    marks: List[float] = []

    def setup() -> ReasoningService:
        reasoner = VadalogReasoner(inputs.program)
        marks.append(clock())
        service = ReasoningService(ResidentReasoner(reasoner, database=database))
        marks.append(clock())
        return service

    service, record.setup_s = client.timed("setup", setup)
    record.reason_s = marks[1] - marks[0]
    record.counts.update(_chase_counts(service.resident.result))
    calls = {
        "upsert": service.upsert,
        "retract": service.retract,
        "query": service.query,
    }
    for kind, argument in inputs.ops:
        _operation(record, client, kind, lambda: calls[kind](argument))
    record.total_s = record.setup_s + sum(seconds for _, seconds in record.ops)
    answers = service.query()
    record.checks["answers"].append(facts_digest(answers.facts_by_predicate, inputs.outputs))
    stats = service.stats()
    resident = stats["resident"]
    record.counts.update({
        "incremental.overdeleted": resident["overdeleted"],
        "incremental.rederived": resident["rederived"],
        "service.cache_hits": stats["cache_hits"],
        "service.queries": stats["queries"],
        "service.invalidations": stats["invalidations"],
    })
    return record


RUNNERS = {
    "kg-batch": _batch_pass,
    "rules-heavy": _batch_pass,
    "point-queries": _point_query_pass,
    "service-mixed": _service_pass,
}


def _database(inputs: Inputs, workdir: Path):
    """The extensional data in the form the workload's client passes it."""
    if inputs.workload == "kg-batch":
        write_kg_edb(inputs, workdir)  # read back through @bind
        return None
    if inputs.workload == "point-queries":
        database = Database()
        for predicate, rows in inputs.data.items():
            database.add_tuples(predicate, rows)
        return database
    return inputs.data


def run_passes(
    inputs: Inputs,
    workdir: Path,
    database,
    seconds: float,
    recorder: Optional[layers.SpanRecorder] = None,
) -> Tuple[List[Pass], float]:
    """Repeat passes until ``seconds`` have elapsed (at least one pass).

    Returns the raw passes and the median duration of the calibrations
    interleaved with them.
    """
    runner = RUNNERS[inputs.workload]
    client = Client(recorder)
    deadline = clock() + seconds
    passes: List[Pass] = []
    while not passes or clock() < deadline:
        gc.collect()
        first_span = len(recorder.spans) if recorder is not None else 0
        try:
            record = runner(inputs, client, workdir, database)
        except Exception:  # a pass whose set-up or batch run raised
            expected = 1 + len(inputs.ops)
            record = Pass(attempted=expected, failed=expected)
        if recorder is not None:
            record.layer_s, record.layer_calls, record.blocking_s = layers.self_times(
                recorder.spans[first_span:]
            )
        passes.append(record)
    client.calibrate()
    return passes, statistics.median(client.calibrations)


def normalised(passes: List[Pass], calibration_s: float) -> List[Pass]:
    """The passes with every time in host-normalised seconds."""
    scale = CALIBRATION_REFERENCE_S / calibration_s
    return [
        dataclasses.replace(
            p,
            setup_s=p.setup_s * scale,
            reason_s=p.reason_s * scale,
            total_s=p.total_s * scale,
            ops=[(kind, seconds * scale) for kind, seconds in p.ops],
            layer_s={name: seconds * scale for name, seconds in p.layer_s.items()},
            blocking_s=p.blocking_s * scale,
        )
        for p in passes
    ]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _op_seconds(passes: List[Pass], kinds) -> List[float]:
    return [s for p in passes for kind, s in p.ops if kind in kinds]


def end_to_end(passes: List[Pass]) -> Dict[str, float]:
    timed = [p for p in passes if p.total_s > 0]
    reads = _op_seconds(timed, READS)
    every = [seconds for p in timed for _, seconds in p.ops]
    return {
        "setup_s": _median([p.setup_s for p in timed]),
        "reason_s": _median([p.reason_s for p in timed]),
        "total_s": _median([p.total_s for p in timed]),
        "query_p50_ms": _median(reads) * 1000,
        # The tail of a pass, median over passes: one slow stretch of a
        # shared host then moves one pass, not the run's tail.
        "query_p90_ms": _median(
            [_percentile(_op_seconds([p], READS), 90) for p in timed]
        ) * 1000,
        "ops_per_s": len(every) / sum(every) if every else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


#: Per-pass counters reported as per-layer metrics (median over passes).
COUNTS = (
    "chase.rounds",
    "chase.derived",
    "chase.candidates",
    "chase.peak_resident_facts",
    "datasources.rows_scanned",
    "datasources.rows_written",
    "incremental.overdeleted",
    "incremental.rederived",
    "service.invalidations",
)


def pass_counts(record: Pass, workload: str) -> Dict[str, float]:
    """The counters of one traced pass, derived ratios included."""
    counts = {name: record.counts.get(name, 0) for name in COUNTS}
    rewrites = record.layer_calls.get("magic.rewrite", 0)
    queries = sum(1 for kind, _ in record.ops if kind == "query")
    counts["magic.rewrites"] = rewrites
    counts["magic.cache_hit_ratio"] = (
        1 - rewrites / queries if workload == "point-queries" and queries else 0.0
    )
    counts["wardedness.analyse_calls"] = record.layer_calls.get("wardedness.analyse", 0)
    candidates = counts["chase.candidates"]
    counts["chase.admit_ratio"] = counts["chase.derived"] / candidates if candidates else 0.0
    overdeleted = counts["incremental.overdeleted"]
    counts["incremental.rederive_ratio"] = (
        counts["incremental.rederived"] / overdeleted if overdeleted else 0.0
    )
    service_queries = record.counts.get("service.queries", 0)
    counts["service.cache_hit_ratio"] = (
        record.counts.get("service.cache_hits", 0) / service_queries if service_queries else 0.0
    )
    return counts


def per_layer(untraced: List[Pass], traced: List[Pass], workload: str) -> Dict[str, float]:
    traced = [p for p in traced if p.total_s > 0]
    untraced = [p for p in untraced if p.total_s > 0]
    metrics: Dict[str, float] = {}
    for layer in layers.HOOKS:
        metrics[f"{layer}_s"] = _median([p.layer_s.get(layer, 0.0) for p in traced])
    per_pass = [pass_counts(p, workload) for p in traced]
    for name in per_pass[0] if per_pass else ():
        metrics[name] = _median([counts[name] for counts in per_pass])
    metrics["upsert_p50_ms"] = _median(_op_seconds(untraced, ("upsert",))) * 1000
    metrics["retract_p50_ms"] = _median(_op_seconds(untraced, ("retract",))) * 1000
    metrics["write_p90_ms"] = _percentile(_op_seconds(untraced, WRITES), 90) * 1000
    untraced_total = _median([p.total_s for p in untraced])
    metrics["trace.overhead_ratio"] = (
        _median([p.total_s for p in traced]) / untraced_total - 1 if untraced_total else 0.0
    )
    metrics["trace.other_s"] = _median([p.layer_s.get("other", 0.0) for p in traced])
    metrics["trace.blocking_s"] = _median([p.blocking_s for p in traced])
    metrics["trace.coverage"] = _median(
        [1 - p.layer_s.get("other", 0.0) / p.blocking_s for p in traced if p.blocking_s]
    )
    return metrics


def _digests(passes: List[Pass]) -> Dict[str, Dict[str, int]]:
    """check key -> {answer digest: number of operations that produced it}."""
    table: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for record in passes:
        for key, digests in record.checks.items():
            for value in digests:
                table[key][value] += 1
    return {key: dict(values) for key, values in table.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = decode((args.dir / "inputs.json").read_bytes())
    database = _database(inputs, args.dir)
    report: Dict[str, object] = {"pythonhashseed": os.environ.get("PYTHONHASHSEED")}
    if args.trace:
        untraced, untraced_cal = run_passes(inputs, args.dir, database, args.seconds / 2)
        recorder = layers.SpanRecorder()
        uninstall, missing = layers.install(recorder)
        try:
            traced, traced_cal = run_passes(
                inputs, args.dir, database, args.seconds / 2, recorder
            )
        finally:
            uninstall()
        recorder.write_jsonl(args.dir / "trace.jsonl")
        passes = untraced + traced
        traced = normalised(traced, traced_cal)
        report["metrics"] = per_layer(
            normalised(untraced, untraced_cal), traced, inputs.workload
        )
        report["pass_counts"] = [pass_counts(p, inputs.workload) for p in traced]
        report["missing_hooks"] = missing
        report["analyse_calls_by_site"] = {
            site: count / len(traced)
            for site, count in layers.calls_by_site(recorder.spans, "wardedness.analyse").items()
        }
        report["calibration_s"] = [untraced_cal, traced_cal]
    else:
        passes, calibration_s = run_passes(inputs, args.dir, database, args.seconds)
        report["metrics"] = end_to_end(normalised(passes, calibration_s))
        report["raw_metrics"] = end_to_end(passes)
        report["calibration_s"] = [calibration_s]
    report["passes"] = len(passes)
    report["attempted"] = sum(p.attempted for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["checks"] = _digests(passes)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
