"""The benchmark's own checks.

    python -m pytest perfbench/test_perfbench.py -q

Runs each workload traced, twice at one seed and once at another (a few
minutes in all).  Every count the traced run reports must repeat exactly
at one seed: a count that wobbles cannot explain a timing change.  The
counts must also move under another seed, which shows the seed reaches the
workload generator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

#: Units whose values are deterministic for a seed (counts and quality).
EXACT_UNITS = {"count", "bytes", "prob", "fraction"}
#: The counts the regression story leans on; each must be reported.
KEY_COUNTS = (
    "profiling.n_unique_ticks",
    "core.n_paths",
    "core.em_iterations",
    "sim.timing.chain_builds",
    "core.online.checkpoint_bytes",
    "pgo.swaps",
    "pgo.rollbacks",
    "pgo.commits",
    "pgo.drift_alarms",
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _traced(workload: str, seed: int) -> dict:
    proc = _run(workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(PER_LAYER)
    return {name: m for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_one_seed_and_follow_the_seed(workload):
    first = _traced(workload, 11)
    again = _traced(workload, 11)
    other = _traced(workload, 12)
    exact = [n for n, m in first.items() if m["unit"] in EXACT_UNITS]
    assert set(KEY_COUNTS) <= set(exact)
    for name in exact:
        assert first[name]["value"] == again[name]["value"], name
    assert any(first[n]["value"] != other[n]["value"] for n in exact)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run("pgo-drift", 11, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_records_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    record = json.loads((HERE / "metrics.json").read_text())
    assert list(record) == declared
    for name, entry in record.items():
        assert set(entry["workloads"]) <= set(WORKLOADS), name
        for target, workloads in entry.get("moves", {}).items():
            assert target in declared, name
            assert set(workloads) <= set(entry["workloads"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run("profile-em", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([os.path.abspath(__file__), "-q"]))
