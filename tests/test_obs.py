"""Tests for the observability layer (repro.obs) and its wiring.

Covers the ISSUE-1 acceptance surface: span nesting and timing
monotonicity, counter exactness on a hand-built 2-machine instance
(with and without an injected failure), JSONL sink round-trip +
validation, manifest provenance, and the no-op overhead bound.
"""

from __future__ import annotations

import json
import time

import pytest

import repro
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Tracer,
    get_tracer,
    observed,
    run_manifest,
    validate_record,
)
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate_trace
from repro.faults import CrashStop, FaultPlan
from repro.simulation.engine import simulate


def make_two_machine():
    """4 tasks on 2 machines, fully replicated so failures are survivable."""
    inst = repro.make_instance(estimates=[4.0, 3.0, 2.0, 1.0], m=2, alpha=1.5)
    strategy = repro.LPTNoRestriction()
    placement = strategy.place(inst)
    policy = strategy.make_policy(inst, placement)
    real = repro.truthful_realization(inst)
    return inst, placement, policy, real


# ---------------------------------------------------------------------------
# Tracer spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_nesting_depths_and_order(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        kinds = [(e.kind, e.name, e.depth) for e in sink.events]
        assert kinds == [
            ("span_start", "outer", 0),
            ("span_start", "inner", 1),
            ("span_end", "inner", 1),
            ("span_start", "inner2", 1),
            ("span_end", "inner2", 1),
            ("span_end", "outer", 0),
        ]

    def test_seq_and_ts_monotone(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("a"):
            time.sleep(0.001)
            with tracer.span("b"):
                pass
        seqs = [e.seq for e in sink.events]
        assert seqs == list(range(len(seqs)))
        ts = [e.ts for e in sink.events]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_span_duration_positive_and_contains_children(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.002)
        assert inner.duration > 0
        assert outer.duration >= inner.duration

    def test_span_records_exception_and_still_closes(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        end = sink.by_kind("span_end")[-1]
        assert end.payload["error"] == "ValueError"
        assert end.payload["duration_s"] >= 0

    def test_span_set_attrs_travel_in_end_event(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("s", a=1) as span:
            span.set(b=2)
        end = sink.by_kind("span_end")[0]
        assert end.payload["a"] == 1 and end.payload["b"] == 2

    def test_disabled_tracer_emits_nothing(self):
        sink = MemorySink()
        tracer = Tracer(enabled=False, sinks=[sink])
        with tracer.span("x"):
            tracer.count("c")
            tracer.event("e")
        assert not sink.events
        assert not tracer.registry.counters

    def test_timers_record_span_durations(self):
        tracer = Tracer(sinks=[MemorySink()])
        with tracer.span("thing"):
            pass
        t = tracer.registry.timers["span.thing"]
        assert t.count == 1 and t.total >= 0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_timer(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        with reg.timer("t").time():
            pass
        assert reg.counters["c"].value == 5
        assert reg.gauges["g"].value == 2.5
        t = reg.timers["t"]
        assert t.count == 1 and t.max >= t.min >= 0

    def test_summary_and_rows(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.timer("t").observe(0.5)
        s = reg.summary()
        assert s["counters"]["c"] == 2
        assert s["timers"]["t"]["count"] == 1
        assert s["timers"]["t"]["mean_s"] == pytest.approx(0.5)
        rows = reg.rows()
        assert {r["metric"] for r in rows} == {"c", "t"}
        # rows feed straight into the table formatter
        assert "c" in repro.format_table(rows)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert not reg.counters


# ---------------------------------------------------------------------------
# Engine counter exactness
# ---------------------------------------------------------------------------

class TestEngineCounters:
    def test_counts_exact_no_failures(self):
        inst, placement, policy, real = make_two_machine()
        with observed(MemorySink()) as tracer:
            trace = simulate(placement, real, policy)
            counters = tracer.registry.counters
            assert counters["sim.dispatches"].value == inst.n
            assert counters["sim.completions"].value == inst.n
            assert "sim.restarts" not in counters
            # events: n dispatches via idle polls + n completions + m
            # initial idle + m retire polls — at least 2n + m
            assert counters["sim.events_processed"].value >= 2 * inst.n + inst.m
        assert trace.makespan > 0

    def test_restart_counted_under_injected_failure(self):
        inst, placement, policy, real = make_two_machine()
        with observed(MemorySink()) as tracer:
            trace = simulate(
                placement, real, policy,
                faults=FaultPlan.of(CrashStop(0, 1.0)),
            )
            counters = tracer.registry.counters
            assert counters["sim.machine_failures"].value == 1
            assert counters["sim.restarts"].value == len(trace.aborted) >= 1
            # every task completes exactly once; the aborted attempt is
            # re-dispatched, so dispatches = n + restarts
            assert counters["sim.completions"].value == inst.n
            assert (
                counters["sim.dispatches"].value
                == inst.n + counters["sim.restarts"].value
            )

    def test_dispatch_events_carry_task_and_machine(self):
        inst, placement, policy, real = make_two_machine()
        sink = MemorySink()
        with observed(sink):
            simulate(placement, real, policy)
        dispatches = [e for e in sink.events if e.kind == "event" and e.name == "dispatch"]
        assert sorted(e.payload["task"] for e in dispatches) == list(range(inst.n))
        assert all(0 <= e.payload["machine"] < inst.m for e in dispatches)

    def test_simulate_emits_manifest_and_makespan_gauge(self):
        inst, placement, policy, real = make_two_machine()
        sink = MemorySink()
        with observed(sink) as tracer:
            trace = simulate(placement, real, policy, label="unit")
            manifests = sink.by_kind("manifest")
            assert len(manifests) == 1
            payload = manifests[0].payload
            assert payload["kind"] == "simulate"
            assert payload["params"]["n"] == inst.n
            assert payload["params"]["m"] == inst.m
            assert payload["timing"]["simulate_s"] > 0
            assert payload["environment"]["repro_version"] == repro.__version__
            assert tracer.registry.gauges["sim.makespan"].value == trace.makespan
            idle = tracer.registry.timers["sim.idle_time"]
            assert idle.count == inst.m


# ---------------------------------------------------------------------------
# Sinks / JSONL round-trip / validation
# ---------------------------------------------------------------------------

class TestSinks:
    def test_memory_ring_buffer_drops_oldest(self):
        sink = MemorySink(capacity=3)
        tracer = Tracer(sinks=[sink])
        for i in range(5):
            tracer.event(f"e{i}")
        assert sink.dropped == 2
        assert [e.name for e in sink.events] == ["e2", "e3", "e4"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("outer", x=1):
            tracer.event("ping", v=2)
        tracer.count("c", 3)
        tracer.snapshot_counters()
        tracer.close()
        events = repro.obs.read_jsonl(path)
        assert [e.kind for e in events] == ["span_start", "event", "span_end", "counter"]
        assert events[1].payload == {"v": 2}
        assert events[3].payload == {"value": 3}
        # every line individually validates
        for line in path.read_text().splitlines():
            assert validate_record(json.loads(line)) == []

    def test_validate_trace_ok_and_stats(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.event("e")
        tracer.close()
        stats, errors = validate_trace(path)
        assert errors == []
        assert stats["records"] == 5 and stats["spans"] == 2

    def test_validate_trace_catches_corruption(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("a"):
            pass
        tracer.close()
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["kind"] = "nonsense"
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        _, errors = validate_trace(path)
        assert errors and "kind" in errors[0]

    def test_validate_trace_catches_unclosed_span(self, tmp_path):
        path = tmp_path / "open.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        span = tracer.span("never_closed")
        span.__enter__()
        tracer.close()
        _, errors = validate_trace(path)
        assert any("never closed" in e for e in errors)

    def test_validate_main_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("a"):
            pass
        tracer.close()
        assert validate_main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        path.write_text("{not json\n")
        assert validate_main([str(path)]) == 1


# ---------------------------------------------------------------------------
# Global tracer / scoped enablement
# ---------------------------------------------------------------------------

class TestGlobalTracer:
    def test_default_disabled(self):
        assert get_tracer().enabled is False

    def test_observed_restores_state(self):
        before = get_tracer()
        assert before.enabled is False
        with observed(MemorySink()) as tracer:
            assert tracer is get_tracer()
            assert tracer.enabled is True
        assert get_tracer().enabled is False

    def test_observed_isolates_registry(self):
        with observed(MemorySink()) as t1:
            t1.count("x")
            assert t1.registry.counters["x"].value == 1
        with observed(MemorySink()) as t2:
            assert "x" not in t2.registry.counters


# ---------------------------------------------------------------------------
# Grid / provenance wiring
# ---------------------------------------------------------------------------

class TestGridObservability:
    def test_grid_spans_progress_and_manifest(self):
        # batch=False: this test pins the per-cell observability contract
        # (grid.cell spans, grid.strategy.* timers); the batch backend
        # reports pack-level grid.batch spans instead (see test_batch.py).
        inst = repro.uniform_instance(n=6, m=2, alpha=1.5, seed=0)
        sink = MemorySink()
        seen: list[tuple[int, int]] = []
        with observed(sink) as tracer:
            records = repro.run_grid(
                [repro.LPTNoChoice(), repro.LPTNoRestriction()],
                [inst],
                ["log_uniform"],
                seeds=(0, 1),
                batch=False,
                progress=lambda done, total, rec: seen.append((done, total)),
            )
            counters = tracer.registry.counters
            assert counters["grid.cells_done"].value == len(records) == 4
            assert "grid.strategy.lpt_no_choice" in tracer.registry.timers
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
        cell_spans = [e for e in sink.by_kind("span_start") if e.name == "grid.cell"]
        assert len(cell_spans) == 4
        manifests = [
            e for e in sink.by_kind("manifest") if e.payload["kind"] == "grid"
        ]
        assert len(manifests) == 1
        assert manifests[0].payload["params"]["seeds"] == [0, 1]

    def test_grid_skips_are_counted(self):
        # ls_group[k=4] cannot split m=2 machines -> skipped cell
        inst = repro.uniform_instance(n=4, m=2, alpha=1.5, seed=0)
        with observed(MemorySink()) as tracer:
            grid = repro.ExperimentGrid(
                strategies=[repro.LSGroup(4)],
                instances=[inst],
                realization_models=["log_uniform"],
            )
            records = grid.run()
            assert records == []
            assert grid.skipped
            assert tracer.registry.counters["grid.cells_skipped"].value == 1

    def test_run_manifest_write(self, tmp_path):
        man = run_manifest("simulate", "unit", params={"n": 3}, timing={"s": 0.1})
        path = man.write(tmp_path / "m.json")
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "simulate"
        assert loaded["params"]["n"] == 3
        assert loaded["environment"]["repro_version"] == repro.__version__

    def test_bench_emit_writes_manifest_sidecar(self, tmp_path, monkeypatch):
        import benchmarks.conftest as bc
        import repro.analysis.csvio as csvio

        monkeypatch.setattr(csvio, "results_dir", lambda base=None: tmp_path)
        monkeypatch.setattr(bc, "results_dir", lambda base=None: tmp_path)
        bc.emit("unit_artifact", "hello")
        bc._EMITTED.clear()
        sidecar = tmp_path / "unit_artifact.manifest.json"
        assert sidecar.exists()
        loaded = json.loads(sidecar.read_text())
        assert loaded["kind"] == "bench"
        assert loaded["label"] == "unit_artifact"


# ---------------------------------------------------------------------------
# No-op overhead
# ---------------------------------------------------------------------------

class TestOverhead:
    def test_noop_span_is_cheap(self):
        tracer = Tracer(enabled=False)
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("x"):
                pass
        per_call = (time.perf_counter() - t0) / n
        # A disabled span is one attribute check + a shared object; even
        # slow CI boxes manage well under 5 microseconds.
        assert per_call < 5e-6

    def test_disabled_simulate_not_slower_than_enabled(self):
        # The acceptance bound is "<5% overhead, asserted loosely": the
        # robust form is that the no-op path is not slower than the traced
        # path (best-of-N to shed scheduler noise, generous 25% slack).
        inst = repro.uniform_instance(n=1000, m=8, alpha=1.5, seed=3)
        strategy = repro.LPTNoRestriction()
        placement = strategy.place(inst)
        real = repro.truthful_realization(inst)

        def run_once() -> float:
            policy = strategy.make_policy(inst, placement)
            t0 = time.perf_counter()
            simulate(placement, real, policy)
            return time.perf_counter() - t0

        run_once()  # warm caches
        disabled = min(run_once() for _ in range(3))
        with observed(MemorySink(capacity=50_000)):
            enabled = min(run_once() for _ in range(3))
        assert disabled <= enabled * 1.25, (
            f"no-op path took {disabled:.4f}s vs {enabled:.4f}s traced — "
            "the disabled tracer is supposed to be free"
        )


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestCliObservability:
    def test_run_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        assert main(
            ["run", "lpt_no_choice", "--n", "12", "--m", "3", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        stats, errors = validate_trace(path)
        assert errors == []
        # one span per phase at least
        assert stats["spans"] >= 3  # phase1, phase2, simulate
        counters = {
            e.name: e.payload["value"]
            for e in repro.obs.read_jsonl(path)
            if e.kind == "counter"
        }
        assert counters["sim.dispatches"] == 12
        assert counters["sim.completions"] == 12
        assert get_tracer().enabled is False  # CLI restored the default

    def test_run_metrics_flag_prints_table(self, capsys):
        from repro.cli import main

        assert main(["run", "lpt_no_choice", "--n", "8", "--m", "2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "observability metrics" in out
        assert "sim.dispatches" in out

    def test_obs_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "obs.jsonl"
        assert main(["obs", "--n", "10", "--m", "2", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dispatches   : 10" in out
        assert "completions  : 10" in out
        stats, errors = validate_trace(path)
        assert errors == []
        assert stats["manifest"] >= 1

    def test_sweep_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--n", "6", "--m", "2", "--seeds", "1", "--trace", str(path)]
        ) == 0
        _, errors = validate_trace(path)
        assert errors == []
