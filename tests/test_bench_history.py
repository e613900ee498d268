"""Benchmark-history and regression-gate contracts.

The acceptance spec for the tracking layer: a real-ish ingest produces a
schema-valid ``BENCH_<date>.json``, the ``--check`` gate flags a synthetic
25% wall-clock regression and a synthetic counter drift, and the CLI's
exit codes are stable (0 ok / 1 failure / 2 usage).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs.bench_history import (
    BENCH_SCHEMA,
    SUMMARY_SCHEMA,
    append_record,
    bench_path,
    build_record,
    check_history,
    distill_pytest_benchmark,
    load_history,
    summarize_history,
)
from repro.obs.counters import SNAPSHOT_SCHEMA
from repro.obs.validate import ArtifactError, validate_bench_file


def pytest_benchmark_payload(median=1.0):
    stats = {
        "min": median * 0.95,
        "max": median * 1.1,
        "mean": median * 1.01,
        "median": median,
        "stddev": 0.01,
        "rounds": 1,
    }
    return {
        "benchmarks": [
            {"name": "test_f4", "fullname": "bench_f4.py::test_f4", "stats": stats}
        ]
    }


def counter_snapshot(block_cycles=1000):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "totals": {"cycles.block": block_cycles, "branch.taken": 40},
        "per_proc": {"main": {"invocations": 10, "cycles": block_cycles}},
    }


def record(median=1.0, block_cycles=1000, sha="aaa111", when="2026-08-01T00:00:00+00:00"):
    return build_record(
        benchmark_payload=pytest_benchmark_payload(median),
        counter_snapshots={"test_f4": counter_snapshot(block_cycles)},
        git_sha=sha,
        created_utc=when,
    )


class TestRecordsAndFiles:
    def test_ingested_file_is_schema_valid(self, tmp_path):
        path = bench_path(tmp_path, "2026-08-06")
        assert path.name == "BENCH_2026-08-06.json"
        append_record(path, record())
        payload = json.loads(path.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        summary = validate_bench_file(path)
        assert summary == {"records": 1, "benchmarks": 1, "snapshots": 1}

    def test_append_preserves_existing_records(self, tmp_path):
        path = bench_path(tmp_path, "2026-08-06")
        append_record(path, record(sha="aaa111"))
        append_record(path, record(sha="bbb222"))
        shas = [r["git_sha"] for r in json.loads(path.read_text())["records"]]
        assert shas == ["aaa111", "bbb222"]

    def test_load_history_orders_files_by_date(self, tmp_path):
        append_record(bench_path(tmp_path, "2026-08-06"), record(sha="newer"))
        append_record(bench_path(tmp_path, "2026-08-05"), record(sha="older"))
        assert [r["git_sha"] for r in load_history(tmp_path)] == ["older", "newer"]

    def test_bad_date_rejected(self, tmp_path):
        with pytest.raises(ObsError, match="ISO"):
            bench_path(tmp_path, "last tuesday")

    def test_record_needs_some_payload(self):
        with pytest.raises(ObsError, match="needs benchmark stats"):
            build_record()

    def test_record_rejects_foreign_snapshot_schema(self):
        with pytest.raises(ObsError, match="schema"):
            build_record(
                counter_snapshots={"x": {"schema": "other/1", "totals": {}}}
            )

    def test_distill_rejects_malformed_export(self):
        with pytest.raises(ObsError, match="benchmarks"):
            distill_pytest_benchmark({"not": "an export"})

    def test_validate_flags_corrupt_history(self, tmp_path):
        path = bench_path(tmp_path, "2026-08-06")
        append_record(path, record())
        payload = json.loads(path.read_text())
        payload["records"][0]["counters"]["test_f4"]["totals"]["cycles.block"] = -4
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="non-negative"):
            validate_bench_file(path)

    def test_validate_flags_nan_bench_stat(self, tmp_path):
        path = bench_path(tmp_path, "2026-08-06")
        append_record(path, record())
        payload = json.loads(path.read_text())
        (stats,) = payload["records"][0]["benchmarks"].values()
        stats["median"] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="stat 'median' must be a non-negative"):
            validate_bench_file(path)


class TestRegressionGate:
    def test_clean_history_passes(self):
        assert check_history([record(), record(median=1.05, sha="bbb")]) == []

    def test_synthetic_25pct_wallclock_regression_is_flagged(self):
        history = [record(), record(), record(median=1.25, sha="ccc")]
        failures = check_history(history)
        assert len(failures) == 1
        assert "wall-clock regression" in failures[0]
        assert "+25.0%" in failures[0]

    def test_regression_compares_against_trailing_median(self):
        # trailing medians 1.0, 1.0, 2.0 -> median 1.0; a 1.15 newest passes
        history = [record(), record(), record(median=2.0), record(median=1.15)]
        assert check_history(history) == []

    def test_synthetic_counter_drift_is_flagged(self):
        history = [record(sha="s1"), record(block_cycles=1001, sha="s1")]
        failures = check_history(history)
        assert len(failures) == 1
        assert "counter drift" in failures[0]
        assert "cycles.block: 1000 -> 1001" in failures[0]

    def test_counters_at_different_shas_are_not_compared(self):
        history = [record(sha="s1"), record(block_cycles=2000, sha="s2")]
        assert check_history(history) == []

    def test_determinism_only_mode_ignores_wallclock(self):
        history = [record(sha="s1"), record(median=5.0, sha="s1")]
        assert check_history(history, wallclock=False) == []
        assert check_history(history, wallclock=True) != []

    def test_short_history_passes_vacuously(self):
        assert check_history([]) == []
        assert check_history([record()]) == []

    def test_benchmark_only_in_newest_record_passes(self):
        # A benchmark just added (or renamed historically) has no prior
        # points; the gate must treat that as "trajectory starts here",
        # not crash scanning the trail for it.
        newest = record(sha="bbb")
        newest["benchmarks"]["bench_new.py::test_new"] = {
            "median": 3.0, "mean": 3.0, "rounds": 1,
        }
        assert check_history([record(), newest]) == []

    def test_degenerate_trail_records_are_skipped(self):
        # Histories are hand-editable JSON: a trail record with nulled-out
        # blocks must be skipped, not crash the gate.
        broken = record(sha="s0")
        broken["benchmarks"] = None
        broken["counters"] = None
        broken["host"] = None
        history = [broken, record(sha="s1"), record(median=1.05, sha="s1")]
        assert check_history(history) == []

    def test_degenerate_newest_record_passes(self):
        newest = record(sha="bbb")
        newest["benchmarks"] = None
        newest["counters"] = None
        assert check_history([record(), newest]) == []

    def test_prior_records_from_other_machines_are_skipped(self):
        elsewhere = record(median=0.1)
        elsewhere["host"] = {"machine": "some-other-box"}
        # Only cross-machine priors exist -> no baseline -> pass, even
        # though the newest median is 10x the foreign one.
        assert check_history([elsewhere, record(median=1.0, sha="bbb")]) == []

    def test_trail_stats_without_median_are_skipped(self):
        partial = record(sha="s0")
        partial["benchmarks"]["bench_f4.py::test_f4"] = {"rounds": 1}
        history = [partial, record(), record(median=1.05, sha="bbb")]
        assert check_history(history) == []


def _load_bench_track():
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_track.py"
    spec = importlib.util.spec_from_file_location("bench_track", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTrackScript:
    @pytest.fixture
    def module(self):
        return _load_bench_track()

    @pytest.fixture
    def artifacts(self, tmp_path):
        bench_json = tmp_path / "bench.json"
        bench_json.write_text(json.dumps(pytest_benchmark_payload()))
        counters_dir = tmp_path / "counters"
        counters_dir.mkdir()
        (counters_dir / "test_f4.json").write_text(json.dumps(counter_snapshot()))
        return bench_json, counters_dir, tmp_path / "history"

    def _ingest(self, module, artifacts, date, sha="s1", median=None):
        bench_json, counters_dir, history = artifacts
        if median is not None:
            bench_json.write_text(json.dumps(pytest_benchmark_payload(median)))
        return module.main(
            [
                "--benchmark-json", str(bench_json),
                "--counters-dir", str(counters_dir),
                "--history-dir", str(history),
                "--date", date,
                "--git-sha", sha,
            ]
        )

    def test_ingest_then_check_clean(self, module, artifacts, capsys):
        assert self._ingest(module, artifacts, "2026-08-05") == 0
        assert self._ingest(module, artifacts, "2026-08-06") == 0
        history = artifacts[2]
        validate_bench_file(history / "BENCH_2026-08-05.json")
        assert module.main(["--check", "--history-dir", str(history)]) == 0
        assert "bench check OK" in capsys.readouterr().out

    def test_check_flags_regression_with_exit_1(self, module, artifacts, capsys):
        assert self._ingest(module, artifacts, "2026-08-05") == 0
        assert self._ingest(module, artifacts, "2026-08-06", sha="s2", median=1.25) == 0
        history = artifacts[2]
        assert module.main(["--check", "--history-dir", str(history)]) == 1
        assert "wall-clock regression" in capsys.readouterr().err
        # the same history passes the determinism-only CI gate
        assert (
            module.main(
                ["--check", "--counter-determinism-only", "--history-dir", str(history)]
            )
            == 0
        )

    def test_failing_check_prints_attribution_table(self, module, artifacts, capsys):
        # The acceptance contract: a breached gate explains itself — the
        # stderr carries the full attribution report, not just the
        # threshold message.
        assert self._ingest(module, artifacts, "2026-08-05") == 0
        assert self._ingest(module, artifacts, "2026-08-06", sha="s2", median=1.25) == 0
        assert module.main(["--check", "--history-dir", str(artifacts[2])]) == 1
        err = capsys.readouterr().err
        assert "wall-clock regression" in err
        assert "== attribution report ==" in err
        assert "benchmark movers" in err
        assert "bench_f4.py::test_f4" in err

    def test_render_summary_writes_distilled_dashboard(
        self, module, artifacts, tmp_path, capsys
    ):
        assert self._ingest(module, artifacts, "2026-08-05") == 0
        assert self._ingest(module, artifacts, "2026-08-06", sha="s2", median=1.1) == 0
        out = tmp_path / "BENCH_2026-08-06.json"
        results = tmp_path / "results"
        results.mkdir()
        (results / "serve.txt").write_text(json.dumps({"shards_per_s": 8714.0}))
        (results / "obs.txt").write_text("ratio  1.0649\nrepeats  3\n")
        (results / "fleet.txt").write_text(
            "workload motes activations scalar_s vector_s speedup\n"
            "tinydb-agg 2048 16384 2.241 0.188 11.935\n"
            "surge 2048 16384 4.406 0.501 8.803\n"
        )
        code = module.main(
            [
                "--render-summary", str(out),
                "--history-dir", str(artifacts[2]),
                "--results-dir", str(results),
            ]
        )
        assert code == 0
        assert "summarized 2 record(s)" in capsys.readouterr().out
        summary = json.loads(out.read_text())
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["git_sha"] == "s2"
        bench = summary["benchmarks"]["bench_f4.py::test_f4"]
        assert bench["median_s"] == pytest.approx(1.1)
        assert bench["trailing_median_s"] == pytest.approx(1.0)
        assert bench["relative"] == pytest.approx(0.1)
        assert bench["points"] == 2
        assert summary["headline"] == {
            "serve_shards_per_s": 8714.0,
            "fleet_speedup_max": 11.935,
            "obs_overhead_ratio": 1.0649,
            "health_overhead_ratio": None,
        }

    def test_render_summary_without_history_exits_1(self, module, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        code = module.main(
            [
                "--render-summary", str(out),
                "--history-dir", str(tmp_path / "empty"),
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "no bench history" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_history_skips_foreign_machine_trail(self):
        elsewhere = record(median=0.1)
        elsewhere["host"] = {"machine": "some-other-box"}
        summary = summarize_history([elsewhere, record(median=1.0, sha="bbb")])
        bench = summary["benchmarks"]["bench_f4.py::test_f4"]
        assert bench["trailing_median_s"] is None
        assert bench["relative"] is None
        assert bench["points"] == 1

    def test_check_flags_counter_drift_with_exit_1(self, module, artifacts, capsys):
        bench_json, counters_dir, history = artifacts
        assert self._ingest(module, artifacts, "2026-08-05") == 0
        (counters_dir / "test_f4.json").write_text(
            json.dumps(counter_snapshot(block_cycles=999))
        )
        assert self._ingest(module, artifacts, "2026-08-06") == 0
        code = module.main(
            ["--check", "--counter-determinism-only", "--history-dir", str(history)]
        )
        assert code == 1
        assert "counter drift" in capsys.readouterr().err

    def test_no_arguments_is_a_usage_error(self, module):
        with pytest.raises(SystemExit) as excinfo:
            module.main([])
        assert excinfo.value.code == 2

    def test_unreadable_benchmark_json_exits_1(self, module, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = module.main(
            ["--benchmark-json", str(missing), "--history-dir", str(tmp_path / "h")]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err


class TestCheckScriptNewArtifacts:
    """check_obs_artifacts.py grew --hw-counters/--bench validation."""

    @pytest.fixture
    def module(self):
        script = (
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "check_obs_artifacts.py"
        )
        spec = importlib.util.spec_from_file_location("check_obs_artifacts", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_validates_counter_snapshot_and_bench_history(
        self, module, tmp_path, capsys
    ):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(counter_snapshot()))
        history = bench_path(tmp_path, "2026-08-06")
        append_record(history, record())
        assert module.main(["--hw-counters", str(snap), "--bench", str(history)]) == 0
        out = capsys.readouterr().out
        assert "2 counters" in out and "1 record(s)" in out

    def test_invalid_snapshot_exits_1(self, module, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"schema": "wrong/1", "totals": {}, "per_proc": {}}))
        assert module.main(["--hw-counters", str(snap)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_missing_file_exits_1_not_traceback(self, module, tmp_path, capsys):
        assert module.main(["--bench", str(tmp_path / "BENCH_nope.json")]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_nothing_to_check_is_usage_error(self, module):
        with pytest.raises(SystemExit) as excinfo:
            module.main([])
        assert excinfo.value.code == 2
