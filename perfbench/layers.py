"""Layer spans for the traced run, recorded from outside the program.

Each hook wraps one function under the name its caller imported (a
module global such as ``repro.engine.reasoner.compile_plan``) or one
class method (``ChaseEngine.run``), so the program itself stays
untouched.  Every call becomes a span: layer name, start, end, parent span
and the operation it belongs to.  Spans stay in memory and are written out
at the end in the JSONL format ``tools/trace_view.py`` reads.

A hook whose target no longer exists is reported as missing and its layer
reads 0, so a renamed function shows up in the report instead of
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

clock = time.perf_counter

#: Layer name -> call sites (module path, attribute path within the module).
HOOKS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "parser.parse": (
        ("repro.engine.reasoner", "parse_program"),
        ("repro.engine.reasoner", "parse_atom"),
        ("repro.engine.service", "parse_atom"),
        ("repro.engine.incremental", "parse_atom"),
    ),
    "wardedness.analyse": (
        ("repro.engine.reasoner", "analyse_program"),
        ("repro.core.harmful_joins", "analyse_program"),
        ("repro.core.magic", "analyse_program"),
        ("repro.core.chase", "analyse_program"),
    ),
    "harmful_joins.eliminate": (("repro.engine.reasoner", "eliminate_harmful_joins"),),
    "transform.normalize": (("repro.engine.reasoner", "normalize_for_chase"),),
    "plan.compile_plan": (("repro.engine.reasoner", "compile_plan"),),
    "plan.join_plans": (("repro.engine.reasoner", "compile_join_plans"),),
    "scheduler.schedule": (("repro.engine.scheduler", "RoundRobinScheduler.schedule"),),
    "magic.rewrite": (("repro.engine.reasoner", "rewrite_with_magic"),),
    "database.facts": (("repro.storage.database", "Database.facts"),),
    "annotations.bind": (("repro.engine.reasoner", "collect_bindings"),),
    "annotations.load": (
        ("repro.engine.reasoner", "load_bound_facts"),
        ("repro.engine.incremental", "load_bound_facts"),
    ),
    "annotations.writeback": (("repro.engine.reasoner", "write_output_bindings"),),
    "chase.run": (("repro.core.chase", "ChaseEngine.run"),),
    "query.extract": (
        ("repro.engine.reasoner", "extract_answers"),
        ("repro.engine.incremental", "extract_answers"),
    ),
    "incremental.query": (("repro.engine.incremental", "ResidentReasoner.query"),),
    "incremental.upsert": (("repro.engine.incremental", "ResidentReasoner.upsert"),),
    "incremental.retract": (("repro.engine.incremental", "ResidentReasoner.retract"),),
}

#: Root spans: one per operation of the closed loop; their self time is
#: the part of the blocking time no layer span accounts for.
OP_KIND = "op"


class SpanRecorder:
    """In-memory spans, parented by a call stack (one client, no threads)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._next_id = 1
        self._op_count = 0
        #: Id of the open operation span; 0 between operations (answer
        #: checks), whose spans the layer report leaves out.
        self.current_op = 0

    def begin(self, kind: str, name: str, **attrs: object) -> dict:
        span = {
            "kind": kind,
            "name": name,
            "span_id": self._next_id,
            "parent_id": self._stack[-1]["span_id"] if self._stack else None,
            "t_start": clock(),
            "t_end": None,
            "status": "ok",
            "attrs": dict(attrs, op=self.current_op),
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["t_end"] = clock()
        while self._stack and self._stack.pop() is not span:
            pass
        if span["kind"] == OP_KIND:
            self.current_op = 0
        self.spans.append(span)

    def op(self, name: str) -> dict:
        self._op_count += 1
        self.current_op = self._op_count
        return self.begin(OP_KIND, name)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "meta", "format": "repro-trace", "version": 1}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(dict(span, type="span"), sort_keys=True, default=str))
                handle.write("\n")


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrap(recorder: SpanRecorder, original: Callable, layer: str, site: str) -> Callable:
    kind = layer.split(".")[0]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.begin(kind, layer, site=site)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def install(recorder: SpanRecorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every hook; returns (uninstall, sites that could not be found)."""
    restore: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    for layer, sites in HOOKS.items():
        for module_name, attribute in sites:
            site = f"{module_name}.{attribute}"
            try:
                owner, name = _resolve(module_name, attribute)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                missing.append(site)
                continue
            setattr(owner, name, _wrap(recorder, original, layer, site))
            restore.append((owner, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)

    return uninstall, missing


def self_times(spans: List[dict]) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-layer self time and call count, plus the operations' total time.

    A span's self time is its duration minus the durations of its direct
    children.  Operation (root) spans contribute their self time under
    ``other`` -- blocking time that no layer accounts for.
    """
    spans = [s for s in spans if s["kind"] == OP_KIND or s["attrs"]["op"]]
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent_id"] is not None:
            child_time[span["parent_id"]] += span["t_end"] - span["t_start"]
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    blocking = 0.0
    for span in spans:
        duration = span["t_end"] - span["t_start"]
        own = duration - child_time[span["span_id"]]
        if span["kind"] == OP_KIND:
            blocking += duration
            seconds["other"] += own
        else:
            seconds[span["name"]] += own
            calls[span["name"]] += 1
    return dict(seconds), dict(calls), blocking


def calls_by_site(spans: List[dict], layer: str) -> Dict[str, int]:
    """How often each call site of ``layer`` ran, operations only."""
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span["name"] == layer and span["attrs"]["op"]:
            counts[span["attrs"]["site"]] += 1
    return dict(counts)
