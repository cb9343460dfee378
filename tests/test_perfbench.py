"""Tests for the perf-trajectory harness (``repro.tools.perfbench``)."""

from __future__ import annotations

import copy
import json
import statistics

import pytest

from repro.tools import perfbench


@pytest.fixture(scope="module")
def payload():
    """One real quick measurement, shared by the whole module (seconds)."""
    return perfbench.run_bench(quick=True, repeats=1)


class TestRunBench:
    def test_schema_and_scenarios(self, payload):
        assert payload["schema"] == perfbench.SCHEMA
        assert payload["quick"] is True
        for name in ("single_cell", "eventkernel_sweep", "batch_sweep",
                     "cached_resweep", "parallel_grid"):
            scenario = payload["scenarios"][name]
            assert scenario["median_s"] > 0
            assert scenario["min_s"] > 0
            gated = name in ("eventkernel_sweep", "batch_sweep")
            assert len(scenario["runs"]) == (perfbench.GATE_PASSES if gated else 1)

    def test_gated_ratios_are_the_median_pass(self, payload):
        derived = payload["derived"]
        for key in perfbench.GATED_SPEEDUPS:
            passes = derived["gate_passes"][key]
            assert len(passes) == perfbench.GATE_PASSES
            assert derived[key] == statistics.median(passes)

    def test_host_fingerprint(self, payload):
        host = payload["host"]
        assert host["python"] and host["platform"]
        assert host["cpu_count"] >= 1

    def test_derived_metrics(self, payload):
        derived = payload["derived"]
        assert derived["records_equal"] is True
        assert derived["batch_speedup_x"] > 1.0
        assert derived["cache_speedup_x"] > 0.0

    def test_grid_block_describes_the_workload(self, payload):
        grid = payload["grid"]
        assert grid["cells"] == len(grid["strategies"]) * grid["seeds"]

    def test_memory_family_scenarios(self, payload):
        for name in ("memory_eventkernel_sweep", "memory_batch_sweep"):
            assert payload["scenarios"][name]["min_s"] > 0
        derived = payload["derived"]
        assert derived["batch_memory_speedup_x"] > 1.0
        assert derived["batch_coverage"] >= perfbench.DEFAULT_COVERAGE_FLOOR

    def test_batch_coverage_is_the_batched_share_of_cells(self):
        from repro.analysis.experiment import ExperimentGrid
        from repro.workloads import generate

        def grid(*strategies):
            g = ExperimentGrid(
                strategies=list(strategies),
                instances=[generate("uniform", 12, 4, 2.0, 0)],
                realization_models=["uniform"],
                seeds=(0, 1),
                exact_limit=8,
            )
            g.run()
            return g

        # The barrier ablation's pack is refused: its cells take the kernel.
        mixed = grid("lpt_no_choice", "abo[delta=1,barrier]")
        assert perfbench.batch_coverage([mixed]) == 0.5
        swept = grid("lpt_no_choice", "abo[delta=1]", "ls_group[k=2]")
        assert perfbench.batch_coverage([mixed, swept]) == (2 + 6) / (4 + 6)


class TestWritePayload:
    def test_artifact_and_manifest_sidecar(self, payload, tmp_path):
        out = perfbench.write_payload(payload, tmp_path / "BENCH_perf.json")
        data = json.loads(out.read_text())
        assert data["schema"] == perfbench.SCHEMA
        sidecar = json.loads((tmp_path / "BENCH_perf.manifest.json").read_text())
        assert sidecar["kind"] == "bench"
        # The artifact itself is timestamp-free; the sidecar carries it.
        assert "created_unix" not in data
        assert "created_unix" in sidecar


class TestCheckRegression:
    def test_identical_payloads_pass(self, payload):
        assert perfbench.check_regression(payload, copy.deepcopy(payload)) == []

    def test_regression_fails(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_speedup_x"] = (
            payload["derived"]["batch_speedup_x"] * 0.5
        )
        problems = perfbench.check_regression(fresh, payload)
        assert any("regressed" in p for p in problems)

    def test_large_improvement_requests_rebaseline(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_speedup_x"] = (
            payload["derived"]["batch_speedup_x"] * 2.0
        )
        problems = perfbench.check_regression(fresh, payload)
        assert any("improved" in p and "re-baseline" in p for p in problems)

    def test_floor_is_absolute(self, payload):
        fresh = copy.deepcopy(payload)
        base = copy.deepcopy(payload)
        fresh["derived"]["batch_speedup_x"] = 1.1
        base["derived"]["batch_speedup_x"] = 1.1  # drifted baseline too
        problems = perfbench.check_regression(fresh, base)
        assert any("floor" in p for p in problems)

    def test_fresh_scenario_floor_applies_without_baseline_key(self, payload):
        """A speedup scenario absent from the committed baseline must still
        clear the absolute floor on the fresh run (it used to silently
        pass until a re-baseline introduced the key)."""
        old = copy.deepcopy(payload)
        old["derived"].pop("batch_memory_speedup_x")
        old["derived"].pop("batch_coverage")
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_memory_speedup_x"] = 1.1
        problems = perfbench.check_regression(fresh, old)
        assert any(
            "batch_memory_speedup_x" in p and "floor" in p for p in problems
        )
        # Above the floor, the missing baseline key means no band to apply.
        fresh["derived"]["batch_memory_speedup_x"] = perfbench.DEFAULT_FLOOR * 2
        assert perfbench.check_regression(fresh, old) == []

    def test_memory_speedup_band_applies_with_baseline_key(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_memory_speedup_x"] = (
            payload["derived"]["batch_memory_speedup_x"] * 0.5
        )
        problems = perfbench.check_regression(fresh, payload)
        assert any(
            "batch_memory_speedup_x" in p and "regressed" in p for p in problems
        )

    def test_coverage_floor_gate(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_coverage"] = 0.5
        problems = perfbench.check_regression(fresh, payload)
        assert any("batch_coverage" in p for p in problems)

    def test_records_divergence_fails(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["records_equal"] = False
        problems = perfbench.check_regression(fresh, payload)
        assert any("diverged" in p for p in problems)

    def test_schema_mismatch_detected(self, payload):
        alien = {"schema": "something/else", "derived": {}}
        problems = perfbench.check_regression(alien, payload)
        assert problems and "schema" in problems[0]


class TestMain:
    def test_measure_writes_artifact(self, payload, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        out = tmp_path / "bench.json"
        assert perfbench.main(["--quick", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == perfbench.SCHEMA

    def test_check_passes_against_own_baseline(
        self, payload, tmp_path, monkeypatch
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        rc = perfbench.main(["--quick", "--check", "--baseline", str(baseline)])
        assert rc == 0

    def test_check_fails_on_injected_regression(
        self, payload, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        slow = copy.deepcopy(payload)
        slow["derived"]["batch_speedup_x"] = (
            payload["derived"]["batch_speedup_x"] * 0.5
        )
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: slow)
        rc = perfbench.main(["--quick", "--check", "--baseline", str(baseline)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_missing_baseline(self, payload, tmp_path, monkeypatch):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        rc = perfbench.main(
            ["--quick", "--check", "--baseline", str(tmp_path / "absent.json")]
        )
        assert rc == 2


class TestTracerOverhead:
    def test_scenario_and_derived(self, payload):
        assert payload["scenarios"]["tracer_overhead"]["min_s"] > 0
        calls = payload["derived"]["tracer_calls"]
        assert calls["spans"] > 0 and calls["counts"] > 0
        pct = payload["derived"]["tracer_overhead_pct"]
        assert 0 < pct < perfbench.DEFAULT_OVERHEAD_LIMIT_PCT

    def test_count_tracer_calls_tallies_disabled_path(self):
        from repro.obs.tracer import get_tracer

        def reference():
            tr = get_tracer()
            with tr.span("x"):
                tr.count("y")
                tr.count("y", 5)  # one call, whatever the delta
            tr.event("z")

        calls = perfbench._count_tracer_calls(reference)
        assert calls == {"spans": 1, "events": 1, "counts": 2}
        # The tallying shims are removed afterwards.
        assert "span" not in vars(get_tracer())

    def test_count_requires_untraced_run(self):
        from repro.obs import MemorySink, observed

        with observed(MemorySink()):
            with pytest.raises(AssertionError):
                perfbench._count_tracer_calls(lambda: None)

    def test_overhead_gate_is_fresh_only(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["tracer_overhead_pct"] = 5.0
        problems = perfbench.check_regression(fresh, payload)
        assert any("overhead" in p for p in problems)

    def test_old_baselines_without_overhead_field_pass(self, payload):
        old = copy.deepcopy(payload)
        old["derived"].pop("tracer_overhead_pct")
        old["derived"].pop("tracer_calls")
        assert perfbench.check_regression(payload, old) == []


class TestHistory:
    def test_history_rides_along_with_the_artifact(
        self, payload, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        out = tmp_path / "bench.json"
        assert perfbench.main(["--quick", "--out", str(out)]) == 0
        history = tmp_path / "BENCH_history.jsonl"
        rows = [json.loads(line) for line in history.read_text().splitlines()]
        assert len(rows) == 1
        row = rows[0]
        assert row["schema"] == perfbench.HISTORY_SCHEMA
        assert row["ts"]
        assert row["scenarios"]["batch_sweep"] > 0
        assert row["derived"]["batch_speedup_x"] > 1.0
        # Nested derived values (tracer_calls) stay out of the compact row.
        assert "tracer_calls" not in row["derived"]
        sidecar = json.loads(history.with_suffix(".manifest.json").read_text())
        # bench_manifest may also snapshot tracer metrics; pin only ours.
        assert sidecar["params"]["rows"] == 1
        assert sidecar["params"]["schema"] == perfbench.HISTORY_SCHEMA

    def test_history_appends_and_sidecar_tracks_rows(
        self, payload, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        out = tmp_path / "bench.json"
        for _ in range(2):
            assert perfbench.main(["--quick", "--out", str(out)]) == 0
        history = tmp_path / "BENCH_history.jsonl"
        assert len(history.read_text().splitlines()) == 2
        sidecar = json.loads(history.with_suffix(".manifest.json").read_text())
        assert sidecar["params"]["rows"] == 2

    def test_no_history_opts_out(self, payload, tmp_path, monkeypatch):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        out = tmp_path / "bench.json"
        assert perfbench.main(["--quick", "--out", str(out), "--no-history"]) == 0
        assert out.exists()
        assert not (tmp_path / "BENCH_history.jsonl").exists()

    def test_check_without_out_writes_nothing(
        self, payload, tmp_path, monkeypatch
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        monkeypatch.chdir(tmp_path)
        rc = perfbench.main(["--quick", "--check", "--baseline", str(baseline)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]

    def test_explicit_history_path_wins(self, payload, tmp_path, monkeypatch):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        out = tmp_path / "bench.json"
        history = tmp_path / "elsewhere" / "hist.jsonl"
        rc = perfbench.main(
            ["--quick", "--out", str(out), "--history", str(history)]
        )
        assert rc == 0
        assert history.exists()
        assert not (tmp_path / "BENCH_history.jsonl").exists()


class TestCommittedBaseline:
    """The repo ships its own perf trajectory; keep it honest."""

    def test_bench_perf_json_is_committed_and_valid(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        data = json.loads((root / "BENCH_perf.json").read_text())
        assert data["schema"] == perfbench.SCHEMA
        assert len(data["scenarios"]) >= 4
        assert data["derived"]["batch_speedup_x"] >= 3.0
        assert data["derived"]["records_equal"] is True

    def test_committed_baseline_carries_the_overhead_scenario(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        data = json.loads((root / "BENCH_perf.json").read_text())
        assert data["scenarios"]["tracer_overhead"]["min_s"] > 0
        assert (
            0
            < data["derived"]["tracer_overhead_pct"]
            < perfbench.DEFAULT_OVERHEAD_LIMIT_PCT
        )

    def test_committed_history_has_rows(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        history = root / "results" / "BENCH_history.jsonl"
        rows = [
            json.loads(line)
            for line in history.read_text().splitlines()
            if line
        ]
        assert rows
        assert all(r["schema"] == perfbench.HISTORY_SCHEMA for r in rows)
        sidecar = json.loads(history.with_suffix(".manifest.json").read_text())
        assert sidecar["params"]["rows"] == len(rows)
