"""The benchmark's own checks: reproducible inputs and counters that repeat.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute; not part of the tier-1 suite).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import _mismatches  # noqa: E402
from workloads import WORKLOADS, encode, generate  # noqa: E402

#: Counters a later change may rest a count-based claim on.
EXACT_COUNTS = (
    "chase.derived",
    "chase.candidates",
    "magic.rewrites",
    "incremental.overdeleted",
    "incremental.rederived",
)


def _python(script: str, args, hashseed: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, script, *args], cwd=str(cwd), env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_regenerates_identical_bytes(workload):
    first = encode(generate(workload, 3))
    assert encode(generate(workload, 3)) == first
    assert encode(generate(workload, 4)) != first


def test_regeneration_is_identical_across_hash_seeds(tmp_path):
    (tmp_path / "inputs.json").write_bytes(encode(generate("point-queries", 5)))
    done = _python(str(HERE / "reference.py"),
                   ["--workload", "point-queries", "--seed", "5", "--dir", str(tmp_path)], "7")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["identical"] is True


def _traced_counts(workload: str, directory: Path):
    """Per-pass counters of one traced pass in a fresh process."""
    directory.mkdir()
    (directory / "inputs.json").write_bytes(encode(generate(workload, 1)))
    done = _python(str(HERE / "measure.py"),
                   ["--dir", str(directory), "--seconds", "0", "--trace", "1"], "0")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["failed"] == 0
    assert report["pass_counts"]
    return report["pass_counts"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_on_compiled(workload, tmp_path):
    first = _traced_counts(workload, tmp_path / "first")
    second = _traced_counts(workload, tmp_path / "second")
    for name in EXACT_COUNTS:
        assert first[0][name] == second[0][name], name


def test_answer_mismatch_counts_each_operation():
    checks = {"query:a": {"good": 3, "bad": 2}, "answers": {"good": 1}}
    assert _mismatches(checks, {"query:a": "good", "answers": "good"}) == 2
    assert _mismatches(checks, {"query:a": "good"}) == 3


def test_refuses_to_run_without_the_reasoner_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _python("perfbench/run.py",
                   ["--workload", "kg-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
