"""The counters-only tracer: enabled, no sink, no trace events built.

``repro serve``, ``--metrics`` and ``--metrics-out`` without ``--trace``
run the tracer with no sink.  Counters, gauges and span timers (all that
``/metrics``, ``/v1/slo`` and ``--metrics`` read) must come out as they
do with a sink, while no :class:`~repro.obs.events.TraceEvent` is made.
"""

from __future__ import annotations

import argparse
import asyncio

import pytest

import repro.obs.tracer as tracer_module
from repro.cli import _observability
from repro.obs import MemorySink, get_tracer, observed, validate_exposition
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.scheduler import ServiceScheduler


def _refuse(*args, **kwargs):
    raise AssertionError("a TraceEvent was built without a sink")


def _admission_script() -> dict:
    """Admissions (with replays), a failure and a drain; the registry totals."""
    tracer = get_tracer()
    sched = ServiceScheduler("ls_group[k=2]", m=4, alpha=2.0, seed=3)
    for j in range(30):
        with tracer.span("script.admit", task=j):
            sched.admit(f"tenant-{j % 3}", 0.5 + 0.1 * j, key=f"k{j}")
        if j % 7 == 0:
            sched.admit(f"tenant-{j % 3}", 0.5 + 0.1 * j, key=f"k{j}")
        if j == 10:
            sched.inject_failure([0, 1], downtime=3.0)
        for _ in range(3):
            sched.step()
    with tracer.span("script.drain"):
        sched.drain()
    tracer.snapshot_counters()
    summary = tracer.registry.summary()
    return {
        "counters": summary["counters"],
        "gauges": summary["gauges"],
        "timer_counts": {name: t["count"] for name, t in summary["timers"].items()},
    }


def test_no_sink_records_the_same_metrics_and_builds_no_event(monkeypatch):
    sink = MemorySink()
    with observed(sink):
        traced = _admission_script()
    assert sink.by_kind("event") and sink.by_kind("span_end")
    monkeypatch.setattr(tracer_module, "TraceEvent", _refuse)
    with observed() as tracer:
        assert tracer.sinks == []
        counters_only = _admission_script()
    assert counters_only == traced
    assert traced["counters"]["service.admissions"] == 30
    assert traced["timer_counts"]["span.script.admit"] == 30


def _metric_families() -> set[str]:
    async def scenario() -> str:
        daemon = ServiceDaemon(ServiceScheduler("ls_group[k=2]", m=4, seed=2), port=0)
        server = asyncio.create_task(daemon.serve())
        await daemon.started.wait()
        try:
            async with ServiceClient(port=daemon.port) as client:
                for j in range(6):
                    await client.submit("t", 1.0 + j, key=f"k{j}")
                await client.submit("t", 1.0, key="k0")
                await client.chaos(fail=[0], downtime=1.0)
                await client.drain()
                return await client.metrics()
        finally:
            daemon.stop()
            await server

    text = asyncio.run(scenario())
    families, errors = validate_exposition(text)
    assert not errors
    return set(families)


def test_a_drained_daemon_exposes_the_same_families_without_a_sink(monkeypatch):
    sink = MemorySink()
    with observed(sink):
        with_sink = _metric_families()
    assert sink.events
    monkeypatch.setattr(tracer_module, "TraceEvent", _refuse)
    with observed() as tracer:
        assert tracer.sinks == []
        counters_only = _metric_families()
    assert counters_only == with_sink
    assert {"repro_service_admissions", "repro_span_service_request_seconds"} <= counters_only


@pytest.mark.parametrize(
    "trace, metrics, want_sinks", [(None, True, 0), (None, False, 0), ("trace.jsonl", False, 1)]
)
def test_the_cli_attaches_a_sink_only_for_trace(tmp_path, trace, metrics, want_sinks):
    args = argparse.Namespace(trace=str(tmp_path / trace) if trace else None, metrics=metrics)
    with _observability(args, force=True):
        tracer = get_tracer()
        assert tracer.enabled and len(tracer.sinks) == want_sinks
    assert not get_tracer().enabled


def _pool_sweep(monkeypatch, *sinks) -> tuple[dict, list[int]]:
    """A 3-instance x 3-seed ``full_sweep(4)`` grid on two workers.

    Returns the registry totals and the number of events each worker
    trace shipped to :func:`~repro.obs.merge.replay_events`.
    """
    import repro.analysis.experiment as experiment
    from repro.analysis.experiment import run_grid
    from repro.registry import full_sweep
    from repro.workloads.generators import uniform_instance

    shipped: list[int] = []
    replay = experiment.replay_events

    def counting(tracer, events, **kwargs):
        events = list(events)
        shipped.append(len(events))
        return replay(tracer, events, **kwargs)

    monkeypatch.setattr(experiment, "replay_events", counting)
    instances = [uniform_instance(10, 4, 1.5, seed=s) for s in range(3)]
    with observed(*sinks) as tracer:
        run_grid(full_sweep(4), instances, ["log_uniform"], seeds=(0, 1, 2), workers=2)
        summary = tracer.registry.summary()
    totals = {
        "counters": summary["counters"],
        "timer_counts": {name: t["count"] for name, t in summary["timers"].items()},
    }
    return totals, shipped


def test_pool_workers_ship_no_events_to_a_parent_without_a_sink(monkeypatch):
    with_sink, shipped_traced = _pool_sweep(monkeypatch, MemorySink())
    if not shipped_traced:
        pytest.skip("no process pool in this environment (every chunk ran inline)")
    assert sum(shipped_traced) > 0
    counters_only, shipped = _pool_sweep(monkeypatch)
    assert shipped, "the worker traces (with their metrics) must still come back"
    assert sum(shipped) == 0
    assert counters_only == with_sink
