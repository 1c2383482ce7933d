"""Layered end-to-end benchmark of the Vadalog reasoner: program text to answers.

Usage, from the repository root::

    python3 perfbench/run.py --workload kg-batch --seed 1 --seconds 20 --trace 0

One run goes through three processes:

1. this one generates the workload's inputs from ``--seed`` (program text,
   extensional rows, operation stream) into a work directory under
   ``.perfbench/``;
2. ``reference.py`` (another ``PYTHONHASHSEED``) regenerates them, requires
   byte-identical bytes, and computes the expected answers with the
   ``naive`` executor, untimed;
3. ``measure.py`` (a fresh process, ``PYTHONHASHSEED=0``) runs the closed
   loop for ``--seconds`` on the default ``compiled`` executor with one
   client: the end-to-end metrics with ``--trace 0``, the per-layer metrics
   with ``--trace 1``.  Its peak resident memory is its own, so one
   workload's peak cannot leak into another's.  Times are host-normalised
   against a calibration loop (see ``measure.py``); the raw wall-clock
   figures are saved beside them.

Every checked answer is compared with the reference; a mismatch counts as
a failed operation.  The report and its provenance (seed, ``nproc``,
Python, ``PYTHONHASHSEED``, commit, source digest) are printed and saved
under ``.perfbench/results/``; the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MEASURED_HASHSEED = "0"
REFERENCE_HASHSEED = "1"
#: Headroom over ``--seconds`` for imports, the last pass and the checks.
SLACK_SECONDS = 60


def _spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(script: str, args: List[str], hashseed: str, timeout: float) -> Dict[str, object]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hashseed)
    completed = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=timeout,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{script} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True
    )
    return completed.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _mismatches(checks: Dict[str, Dict[str, int]], expected: Dict[str, str]) -> int:
    """Operations whose answer digest differs from the reference."""
    return sum(
        count
        for key, digests in checks.items()
        for digest, count in digests.items()
        if expected.get(key) != digest
    )


def _layer_table(metrics: Dict[str, float]) -> List[str]:
    blocking = metrics.get("trace.blocking_s") or 0.0
    lines = [f"{'layer':28} {'self s/pass':>12} {'share':>7}"]
    for name, value in sorted(metrics.items(), key=lambda item: -item[1]):
        if name.endswith("_s") and not name.startswith("trace.blocking"):
            share = value / blocking if blocking else 0.0
            lines.append(f"{name[:-2]:28} {value:12.6f} {share:7.1%}")
    lines.append(f"{'blocking time':28} {blocking:12.6f} {1:7.1%}")
    lines.append(f"tracing overhead: {metrics.get('trace.overhead_ratio', 0.0):+.1%} "
                 "(traced pass time over untraced)")
    lines.append("other per-layer metrics (per pass): " + ", ".join(
        f"{name}={value:g}" for name, value in metrics.items() if not name.endswith("_s")
    ))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"perfbench: no reasoner sources under {SRC}\n")
        return 2
    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2

    sys.path.insert(0, str(SRC))
    from workloads import digest, encode, generate

    raw = encode(generate(args.workload, args.seed))
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        (workdir / "inputs.json").write_bytes(raw)
        common = ["--dir", str(workdir)]
        ref = _child("reference.py", ["--workload", args.workload, "--seed", str(args.seed),
                                      *common], REFERENCE_HASHSEED, SLACK_SECONDS)
        run = _child("measure.py", [*common, "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)],
                     MEASURED_HASHSEED, args.seconds + SLACK_SECONDS)
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            shutil.copyfile(workdir / "trace.jsonl", results / f"{stem}.trace.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatched = _mismatches(run["checks"], ref["expected"])
    failed = int(run["failed"]) + mismatched
    correct = failed == 0 and ref["identical"]
    metrics = run["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {missing}\n")
        return 3
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": run["pythonhashseed"],
        "commit": _commit(),
        "source_digest": _source_digest(),
        "input_digest": digest(raw),
        "inputs_regenerated_identical": ref["identical"],
        "passes": run["passes"],
        "answer_mismatches": mismatched,
        "missing_hooks": run.get("missing_hooks", []),
        "analyse_calls_by_site": run.get("analyse_calls_by_site"),
        "calibration_s": run["calibration_s"],
        "raw_wall_clock": run.get("raw_metrics"),
    }
    result = {
        "correct": correct,
        "attempted": int(run["attempted"]),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    saved = dict(provenance, result=result, pass_counts=run.get("pass_counts"))
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=2, sort_keys=True), encoding="utf-8"
    )
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"error_rate: {failed / max(1, result['attempted']):.6f} "
          f"({failed} failed of {result['attempted']} operations)")
    if args.trace:
        print("\n".join(_layer_table(metrics)))
    else:
        for name, entry in result["metrics"].items():
            print(f"{name:16} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
