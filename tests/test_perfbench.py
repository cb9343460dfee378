"""Tests for the perf gate (``repro.tools.perfbench``)."""

from __future__ import annotations

import copy
import json
import math
import re
import statistics
from pathlib import Path

import pytest

from repro.tools import perfbench

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def payload():
    """One real measurement, shared by the whole module (seconds)."""
    return perfbench.run_bench(repeats=1)


def _failed(problems: list[str]) -> list[str]:
    """The objective texts among ``check_regression``'s failures."""
    return [p.split(" failed (observed")[0] for p in problems if " failed (observed" in p]


class TestRunBench:
    def test_schema_and_scenarios(self, payload):
        assert payload["schema"] == perfbench.SCHEMA
        assert sorted(payload["scenarios"]) == [
            "batch_sweep",
            "eventkernel_sweep",
            "memory_batch_sweep",
            "memory_eventkernel_sweep",
            "tracer_overhead",
        ]
        for name, scenario in payload["scenarios"].items():
            assert scenario["median_s"] > 0
            assert scenario["min_s"] > 0
            gated = name != "tracer_overhead"
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
        assert derived["service_zero_drop"] is True
        assert derived["batch_speedup_x"] > 1.0

    def test_every_derived_scalar_is_read_by_an_objective(self, payload):
        from repro.obs.slo import parse_objectives

        scalars = {k for k, v in payload["derived"].items() if not isinstance(v, dict)}
        targets = {o.target for o in parse_objectives(perfbench.objectives(payload))}
        assert scalars == targets

    def test_grid_block_describes_the_workload(self, payload):
        grid = payload["grid"]
        assert grid["cells"] == len(grid["strategies"]) * grid["seeds"]

    def test_memory_family_scenarios(self, payload):
        for name in ("memory_eventkernel_sweep", "memory_batch_sweep"):
            assert payload["scenarios"][name]["min_s"] > 0
        derived = payload["derived"]
        assert derived["batch_memory_speedup_x"] > 1.0
        assert derived["batch_coverage"] >= perfbench.COVERAGE_FLOOR

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


def _boundary_cases():
    """(gate, fresh value from the baseline's, passes?) on each side of
    each gate: on the threshold, and one ulp across it.  A floor case
    drops the baseline's value, so no band applies."""
    below = lambda x: math.nextafter(x, -math.inf)  # noqa: E731
    above = lambda x: math.nextafter(x, math.inf)  # noqa: E731
    lo, hi = 1 - perfbench.TOLERANCE, 1 + perfbench.TOLERANCE
    cases = [
        ("records_equal", lambda b: True, True),
        ("records_equal", lambda b: False, False),
        ("service_zero_drop", lambda b: True, True),
        ("service_zero_drop", lambda b: False, False),
        ("tracer_overhead_pct", lambda b: below(2.0), True),
        ("tracer_overhead_pct", lambda b: 2.0, False),
        ("batch_coverage", lambda b: 0.8, True),
        ("batch_coverage", lambda b: below(0.8), False),
    ]
    for key in perfbench.GATED_SPEEDUPS:
        cases += [
            (f"{key}-floor", lambda b: 2.0, True),
            (f"{key}-floor", lambda b: below(2.0), False),
            (f"{key}-band_low", lambda b: b * lo, True),
            (f"{key}-band_low", lambda b: below(b * lo), False),
            (f"{key}-band_high", lambda b: b * hi, True),
            (f"{key}-band_high", lambda b: above(b * hi), False),
        ]
    return [
        pytest.param(gate, value, passes, id=f"{gate}-{'inside' if passes else 'outside'}")
        for gate, value, passes in cases
    ]


class TestCheckRegression:
    def test_identical_payloads_pass(self, payload):
        assert perfbench.check_regression(payload, copy.deepcopy(payload)) == []

    def test_objectives_keep_the_thresholds(self, payload):
        base = copy.deepcopy(payload)
        base["derived"] = {}
        assert perfbench.objectives(base) == [
            "records_equal == 1",
            "service_zero_drop == 1",
            "tracer_overhead_pct < 2.0",
            "batch_coverage >= 0.8",
            "batch_speedup_x >= 2.0",
            "batch_memory_speedup_x >= 2.0",
        ]
        base["derived"]["batch_speedup_x"] = 8.0
        lo, hi = 8.0 * (1 - 0.30), 8.0 * (1 + 0.30)
        assert perfbench.objectives(base)[-3:] == [
            f"batch_speedup_x >= {lo!r}",
            f"batch_speedup_x <= {hi!r}",
            "batch_memory_speedup_x >= 2.0",
        ]

    @pytest.mark.parametrize("gate, value, passes", _boundary_cases())
    def test_gate_boundary(self, payload, gate, value, passes):
        """Each gate passes on its threshold and fails one ulp across it."""
        key = gate.split("-")[0]
        fresh = copy.deepcopy(payload)
        base = copy.deepcopy(payload)
        fresh["derived"][key] = value(base["derived"][key])
        if gate.endswith("-floor"):
            base["derived"].pop(key)
        assert (perfbench.check_regression(fresh, base) == []) is passes

    @pytest.mark.parametrize(
        "key",
        [
            "records_equal",
            "service_zero_drop",
            "tracer_overhead_pct",
            "batch_coverage",
            *perfbench.GATED_SPEEDUPS,
        ],
    )
    def test_missing_gated_value_fails(self, payload, key):
        fresh = copy.deepcopy(payload)
        fresh["derived"].pop(key)
        problems = perfbench.check_regression(fresh, payload)
        assert problems
        assert all(text.startswith(key) for text in _failed(problems))
        assert all("observed missing" in p for p in problems)

    def test_baseline_from_another_grid_fails(self, payload):
        """A baseline measured on another grid carries ratios the fresh
        run cannot be compared with."""
        foreign = copy.deepcopy(payload)
        foreign["grid"].update(n=120, m=12, seeds=10)
        problems = perfbench.check_regression(payload, foreign)
        assert len(problems) == 1 and "grid" in problems[0]

    def test_regression_fails(self, payload):
        fresh = copy.deepcopy(payload)
        base = payload["derived"]["batch_speedup_x"]
        fresh["derived"]["batch_speedup_x"] = base * 0.5
        problems = perfbench.check_regression(fresh, payload)
        assert _failed(problems) == [
            f"batch_speedup_x >= {base * (1 - perfbench.TOLERANCE)!r}"
        ]

    def test_large_improvement_requests_rebaseline(
        self, payload, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        fresh = copy.deepcopy(payload)
        base = payload["derived"]["batch_speedup_x"]
        fresh["derived"]["batch_speedup_x"] = base * 2.0
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: fresh)
        assert perfbench.main(["--check", "--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert f"batch_speedup_x <= {base * (1 + perfbench.TOLERANCE)!r} failed" in err
        assert "re-baseline" in err

    def test_floor_is_absolute(self, payload):
        fresh = copy.deepcopy(payload)
        base = copy.deepcopy(payload)
        fresh["derived"]["batch_speedup_x"] = 1.1
        base["derived"]["batch_speedup_x"] = 1.1  # drifted baseline too
        problems = perfbench.check_regression(fresh, base)
        assert _failed(problems) == [f"batch_speedup_x >= {perfbench.FLOOR!r}"]

    def test_fresh_scenario_floor_applies_without_baseline_key(self, payload):
        """A speedup absent from the committed baseline must still clear
        the absolute floor on the fresh run."""
        old = copy.deepcopy(payload)
        old["derived"].pop("batch_memory_speedup_x")
        old["derived"].pop("batch_coverage")
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_memory_speedup_x"] = 1.1
        problems = perfbench.check_regression(fresh, old)
        assert _failed(problems) == [f"batch_memory_speedup_x >= {perfbench.FLOOR!r}"]
        # Above the floor, the missing baseline key means no band to apply.
        fresh["derived"]["batch_memory_speedup_x"] = perfbench.FLOOR * 2
        assert perfbench.check_regression(fresh, old) == []

    def test_memory_speedup_band_applies_with_baseline_key(self, payload):
        fresh = copy.deepcopy(payload)
        base = payload["derived"]["batch_memory_speedup_x"]
        fresh["derived"]["batch_memory_speedup_x"] = base * 0.5
        problems = perfbench.check_regression(fresh, payload)
        assert _failed(problems) == [
            f"batch_memory_speedup_x >= {base * (1 - perfbench.TOLERANCE)!r}"
        ]

    def test_coverage_floor_gate(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["batch_coverage"] = 0.5
        problems = perfbench.check_regression(fresh, payload)
        assert problems == ["batch_coverage >= 0.8 failed (observed 0.5)"]

    def test_records_divergence_fails(self, payload):
        fresh = copy.deepcopy(payload)
        fresh["derived"]["records_equal"] = False
        problems = perfbench.check_regression(fresh, payload)
        assert problems == ["records_equal == 1 failed (observed 0)"]

    def test_schema_mismatch_detected(self, payload):
        alien = {"schema": "something/else", "derived": {}}
        problems = perfbench.check_regression(alien, payload)
        assert problems and "schema" in problems[0]


class TestMain:
    def test_options_are_out_check_and_baseline(self, capsys):
        with pytest.raises(SystemExit):
            perfbench.main(["--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--out", "--check", "--baseline"}

    def test_measure_writes_artifact(self, payload, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        out = tmp_path / "bench.json"
        assert perfbench.main(["--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == perfbench.SCHEMA

    def test_check_passes_against_own_baseline(
        self, payload, tmp_path, monkeypatch
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        rc = perfbench.main(["--check", "--baseline", str(baseline)])
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
        rc = perfbench.main(["--check", "--baseline", str(baseline)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_missing_baseline(self, payload, tmp_path, monkeypatch):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        rc = perfbench.main(["--check", "--baseline", str(tmp_path / "absent.json")])
        assert rc == 2


class TestTracerOverhead:
    def test_scenario_and_derived(self, payload):
        assert payload["scenarios"]["tracer_overhead"]["min_s"] > 0
        calls = payload["derived"]["tracer_calls"]
        assert calls["spans"] > 0 and calls["counts"] > 0
        pct = payload["derived"]["tracer_overhead_pct"]
        assert 0 < pct < perfbench.OVERHEAD_LIMIT_PCT

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
        assert _failed(problems) == ["tracer_overhead_pct < 2.0"]

    def test_old_baselines_without_overhead_field_pass(self, payload):
        old = copy.deepcopy(payload)
        old["derived"].pop("tracer_overhead_pct")
        old["derived"].pop("tracer_calls")
        assert perfbench.check_regression(payload, old) == []


class TestHistory:
    """perfbench keeps no trajectory file: a run writes what ``--out``
    names and its manifest, and nothing else."""

    def test_artifact_is_written_alone(self, payload, tmp_path, monkeypatch):
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        assert perfbench.main(["--out", str(tmp_path / "bench.json")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench.json",
            "bench.manifest.json",
        ]

    def test_check_without_out_writes_nothing(
        self, payload, tmp_path, monkeypatch
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        monkeypatch.setattr(perfbench, "run_bench", lambda **kw: payload)
        monkeypatch.chdir(tmp_path)
        rc = perfbench.main(["--check", "--baseline", str(baseline)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]


class TestCommittedBaseline:
    """The committed baseline is what ``--check`` compares against."""

    def test_bench_perf_json_is_committed_and_valid(self):
        data = json.loads((ROOT / "BENCH_perf.json").read_text())
        assert data["schema"] == perfbench.SCHEMA
        assert len(data["scenarios"]) >= 4
        assert data["derived"]["batch_speedup_x"] >= 3.0
        assert data["derived"]["records_equal"] is True

    def test_committed_baseline_carries_the_overhead_scenario(self):
        data = json.loads((ROOT / "BENCH_perf.json").read_text())
        assert data["scenarios"]["tracer_overhead"]["min_s"] > 0
        assert (
            0
            < data["derived"]["tracer_overhead_pct"]
            < perfbench.OVERHEAD_LIMIT_PCT
        )

    def test_committed_grid_is_the_measured_grid(self, payload):
        data = json.loads((ROOT / "BENCH_perf.json").read_text())
        assert data["grid"] == payload["grid"]
