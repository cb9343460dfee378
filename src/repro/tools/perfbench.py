"""Perf gate (``repro bench`` / ``python -m repro.tools.perfbench``).

Measures what CI's perf-smoke gate reads, on one fixed grid
(:data:`GRID`), and writes or checks the schema-versioned JSON artifact
``BENCH_perf.json`` at the repo root.  The scenarios:

* ``eventkernel_sweep`` — the grid with ``batch=False`` (every
  cell through :class:`~repro.simulation.kernel.EventKernel`);
* ``batch_sweep`` — the same grid with the vectorized batch backend
  (:mod:`repro.simulation.batch`);
* ``memory_eventkernel_sweep`` / ``memory_batch_sweep`` — the same
  instance swept by the memory/robust/hetero exemplars
  (``GRID["memory_strategies"]``), kernel vs compiled plans; the derived
  ``batch_memory_speedup_x`` measures what the plan-compiler tiers
  bought the families that used to fall back to the kernel, and the
  derived ``batch_coverage`` (the share of the two batch grids' cells a
  compiled plan served) fails the gate when the compiler quietly stops
  accepting a family;
* ``tracer_overhead`` — the cost of the *disabled* tracer path: one
  untraced reference run counts how many span/event/count calls actually
  reach the disabled tracer (the kernel checks ``tracer.enabled`` before
  each per-event counter, so only unguarded call sites — grid
  orchestration spans and analysis counters — hit it), then the
  scenario times that many disabled-path calls back-to-back.  The
  derived ``tracer_overhead_pct`` (relative to the event-kernel sweep)
  guards against unguarded per-event instrumentation landing in a hot
  loop, which multiplies the call count a few hundredfold.

One untimed :func:`~repro.service.loadgen.run_burst` brings the
placement daemon up on loopback TCP, streams seeded tenants' admissions
(with scripted idempotency retries) through it, drains the queue and
shuts it down; the derived ``service_zero_drop`` says every admitted
task completed with zero request errors.

Before any timing, the harness asserts that the batch, serial, and
parallel runs produce **identical record lists** — the bench doubles as
an end-to-end equality gate.

**CI regression gate** (``--check``): the fresh run's scalar ``derived``
values are checked against :func:`objectives`, evaluated fail-closed by
:func:`repro.obs.slo.evaluate` (booleans read as 1 and 0), and the
baseline's ``grid`` block must equal the fresh one.  The two speed-ups
(:data:`GATED_SPEEDUPS`) divide a kernel time by a batch time measured
in the same process, so runner speed cancels out; each is the median
over :data:`GATE_PASSES` passes, and a pass times the two sides of its
pair in turns (the per-pass ratios are kept under
``derived.gate_passes``), so neither a drift of the host's speed nor
one noisy pass can carry it outside the band.  Absolute times are
recorded but never gated.

Schema (``repro.perfbench/1``)::

    {
      "schema": "repro.perfbench/1",
      "repeats": int,
      "host": {... environment_info ..., "cpu_count": int},
      "grid": {family, n, m, alpha, strategies, memory_strategies,
               model, seeds, cells},
      "scenarios": {name: {"median_s", "stdev_s", "min_s", "runs"}},
      "derived": {"batch_speedup_x", "batch_memory_speedup_x",
                  "gate_passes", "batch_coverage", "records_equal",
                  "tracer_overhead_pct", "tracer_calls",
                  "service_zero_drop"}
    }

A ``*.manifest.json`` provenance sidecar (with the wall-clock timestamp
and git describe) is written next to the JSON; the artifact itself stays
timestamp-free.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.analysis.experiment import ExperimentGrid

SCHEMA = "repro.perfbench/1"
DEFAULT_OUT = "BENCH_perf.json"
#: Timed runs of each scenario per pass.
REPEATS = 3
#: Two-sided relative band on each gated speed-up around the baseline.
TOLERANCE = 0.30
#: Hard floor: the batch backend must stay at least this many times
#: faster than the per-cell event kernel, regardless of the baseline.
FLOOR = 2.0
#: Ceiling on the disabled-tracer overhead estimate, percent of the
#: untraced event-kernel sweep.  Fresh-run-only (no baseline involved).
OVERHEAD_LIMIT_PCT = 2.0
#: Floor on ``batch_coverage`` — the share of the batch grids' cells a
#: compiled plan served.  Fresh-run-only.
COVERAGE_FLOOR = 0.8
#: The derived speedup ratios gated in ``--check``: each must clear the
#: absolute floor on every fresh run, and additionally stay inside the
#: ±tolerance band *when* the committed baseline carries the key.
GATED_SPEEDUPS = ("batch_speedup_x", "batch_memory_speedup_x")
#: Passes over each gated scenario pair; the gated ratio is the median
#: of the per-pass ratios.
GATE_PASSES = 3

__all__ = [
    "SCHEMA",
    "REPEATS",
    "TOLERANCE",
    "FLOOR",
    "OVERHEAD_LIMIT_PCT",
    "COVERAGE_FLOOR",
    "GATED_SPEEDUPS",
    "GATE_PASSES",
    "GRID",
    "run_bench",
    "batch_coverage",
    "objectives",
    "check_regression",
    "main",
]


#: The one grid perf-smoke measures and ``BENCH_perf.json`` records.
GRID: dict[str, Any] = {
    "family": "uniform",
    "n": 60,
    "m": 8,
    "alpha": 2.0,
    "instance_seed": 0,
    "strategies": [
        "lpt_no_choice",
        "lpt_no_restriction",
        "ls_group[k=4]",
        "lpt_group[k=2]",
    ],
    "model": "log_uniform",
    "seeds": [1000 + s for s in range(6)],
    # The families that were event-kernel-bound before the plan compiler
    # grew past fixed orders over partitions: one exemplar per family
    # (memory × 3, robust, hetero, selective-replication).  The
    # ``memory_*`` scenarios sweep these over the same instance/model/
    # seeds as the main grid, so ``batch_memory_speedup_x`` measures
    # exactly what these cells cost on the old batch path (which fell
    # back to the kernel) versus the compiled plans.
    "memory_strategies": [
        "sabo[delta=1]",
        "abo[delta=1]",
        "capped[C=1000]",
        "robust_pinned",
        "risk_aware[0.5]",
        "selective[0.25,count]",
    ],
}


def batch_coverage(grids: Sequence[ExperimentGrid]) -> float:
    """Share of the grids' cells a compiled plan served in their last run.

    The grids ran with batching on: their ``batched_cells`` over their
    ``total_cells()``, pooled.  It measures what the compiler accepted
    on these instances, not what any strategy claims.
    """
    return sum(g.batched_cells for g in grids) / sum(g.total_cells() for g in grids)


def _count_tracer_calls(reference_run: Callable[[], Any]) -> dict[str, int]:
    """Count the disabled-path instrumentation calls one untraced sweep makes.

    Wraps the disabled singleton's span/event/count entry points with
    tallying shims and runs ``reference_run`` once.  Only the call sites
    that do *not* check ``tracer.enabled`` reach the tracer with tracing
    off (the kernel checks it before its per-event counters), so
    this is exactly the instrumentation work an untraced sweep pays —
    the work the ``tracer_overhead`` scenario then times.
    """
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    assert not tracer.enabled, "reference run must be untraced"
    tally = {"spans": 0, "events": 0, "counts": 0}
    orig_span, orig_event, orig_count = tracer.span, tracer.event, tracer.count

    def span(name, **attrs):
        tally["spans"] += 1
        return orig_span(name, **attrs)

    def event(name, **payload):
        tally["events"] += 1
        orig_event(name, **payload)

    def count(name, delta=1):
        tally["counts"] += 1
        orig_count(name, delta)

    tracer.span, tracer.event, tracer.count = span, event, count
    try:
        reference_run()
    finally:
        del tracer.span, tracer.event, tracer.count
    return tally


def _disabled_tracer_calls(calls: dict[str, int]) -> None:
    """Issue ``calls``-many disabled-path tracer invocations back to back.

    Timing this is what instrumentation costs an untraced sweep at the
    tracer boundary (hot loops additionally pay only a hoisted
    ``enabled`` branch, which never reaches these entry points).
    """
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    assert not tracer.enabled, "tracer must be disabled for the overhead scenario"
    for _ in range(calls["spans"]):
        with tracer.span("perf.noop"):
            pass
    for _ in range(calls["events"]):
        tracer.event("perf.noop")
    for _ in range(calls["counts"]):
        tracer.count("perf.noop")


def _timing(runs: list[float]) -> dict[str, Any]:
    return {
        "median_s": statistics.median(runs),
        "stdev_s": statistics.stdev(runs) if len(runs) > 1 else 0.0,
        "min_s": min(runs),
        "runs": runs,
    }


def _time_interleaved(fns: list[Callable[[], Any]], repeats: int) -> list[list[float]]:
    """``repeats`` timed runs of each of ``fns``, taken in turns.

    Taking turns lets both sides of a ratio see the same host speed,
    which on a shared VM drifts by tens of percent within seconds.
    """
    for fn in fns:
        fn()  # untimed warmup: first calls pay import/allocator costs
    runs: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, runs):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return runs


def run_bench(*, repeats: int = REPEATS) -> dict[str, Any]:
    """Measure every scenario and return the schema-versioned payload.

    Raises ``AssertionError`` if the batch / serial / parallel record
    lists diverge — a perf artifact must never be produced from runs
    that disagree on the records.
    """
    from repro.analysis.experiment import ExperimentGrid
    from repro.obs.provenance import environment_info
    from repro.service.loadgen import RETRY_EVERY, run_burst
    from repro.workloads import generate

    instance = generate(
        GRID["family"], GRID["n"], GRID["m"], GRID["alpha"], GRID["instance_seed"]
    )

    def grid(strategies: str, **overrides: Any) -> ExperimentGrid:
        return ExperimentGrid(
            strategies=list(GRID[strategies]),
            instances=[instance],
            realization_models=[GRID["model"]],
            seeds=list(GRID["seeds"]),
            **overrides,
        )

    # Equality gate first: producing a perf artifact from divergent
    # backends would be worse than producing none.  The memory grid also
    # exercises the batch × parallel composition (packs sharded across
    # the pool) against the serial kernel.
    serial_records = grid("strategies", batch=False).run()
    batch_grid = grid("strategies", batch=True)
    batch_records = batch_grid.run()
    parallel_records = grid("strategies", batch=False, workers=2).run()
    records_equal = serial_records == batch_records == parallel_records
    assert records_equal, "batch/serial/parallel record lists diverged"
    mem_serial = grid("memory_strategies", batch=False).run()
    mem_batch_grid = grid("memory_strategies", batch=True)
    mem_batch = mem_batch_grid.run()
    mem_pooled = grid("memory_strategies", batch=True, workers=2).run()
    memory_records_equal = mem_serial == mem_batch == mem_pooled
    records_equal = records_equal and memory_records_equal
    assert memory_records_equal, (
        "memory-family batch/serial/batched-parallel record lists diverged"
    )

    # The gated pairs, kernel vs batch.  The memory pair is the newly
    # batchable families: before the compiler grew past partitions these
    # cells took the event kernel even with batch=True, so it measures
    # the end-to-end win of the wider batch tier on its own cells.  Each
    # pass times a pair's two sides in turns and yields one ratio.
    pairs = {
        "batch_speedup_x": {
            "eventkernel_sweep": lambda: grid("strategies", batch=False).run(),
            "batch_sweep": lambda: grid("strategies", batch=True).run(),
        },
        "batch_memory_speedup_x": {
            "memory_eventkernel_sweep": lambda: grid("memory_strategies", batch=False).run(),
            "memory_batch_sweep": lambda: grid("memory_strategies", batch=True).run(),
        },
    }
    gate_passes: dict[str, list[float]] = {key: [] for key in pairs}
    pair_runs: dict[str, list[float]] = {name: [] for pair in pairs.values() for name in pair}
    for _ in range(GATE_PASSES):
        for key, pair in pairs.items():
            slow, fast = _time_interleaved(list(pair.values()), repeats)
            gate_passes[key].append(min(slow) / min(fast))
            for name, runs in zip(pair, (slow, fast)):
                pair_runs[name].extend(runs)
    scenarios = {name: _timing(runs) for name, runs in pair_runs.items()}

    tracer_calls = _count_tracer_calls(lambda: grid("strategies", batch=False).run())
    scenarios["tracer_overhead"] = _timing(
        _time_interleaved([lambda: _disabled_tracer_calls(tracer_calls)], repeats)[0]
    )

    # One whole daemon lifecycle: admissions in, queue drained, daemon
    # down.  tasks_per_tenant covers one RETRY_EVERY period so the dedup
    # path always runs; the tracer stays disabled (run_burst never
    # enables it), so the overhead tally above is untouched by it.
    burst = run_burst(30, RETRY_EVERY, seed=GRID["instance_seed"], concurrency=16)
    service_zero_drop = (
        burst.errors == 0
        and burst.final_status.get("admitted") == burst.final_status.get("done")
    )

    # Speedups gate CI, so each pass derives them from min_s (timing
    # noise is purely additive, making the minimum the most reproducible
    # point estimate) and the gate takes the median pass.
    ek = scenarios["eventkernel_sweep"]["min_s"]
    derived = {
        "batch_speedup_x": statistics.median(gate_passes["batch_speedup_x"]),
        "batch_memory_speedup_x": statistics.median(gate_passes["batch_memory_speedup_x"]),
        "gate_passes": gate_passes,
        "batch_coverage": batch_coverage([batch_grid, mem_batch_grid]),
        "records_equal": records_equal,
        "tracer_calls": tracer_calls,
        "tracer_overhead_pct": 100.0 * scenarios["tracer_overhead"]["min_s"] / ek,
        "service_zero_drop": service_zero_drop,
    }
    return {
        "schema": SCHEMA,
        "repeats": repeats,
        "host": {**environment_info(), "cpu_count": os.cpu_count()},
        "grid": {
            **{k: v for k, v in GRID.items() if k != "instance_seed"},
            "seeds": len(GRID["seeds"]),
            "cells": len(GRID["strategies"]) * len(GRID["seeds"]),
        },
        "scenarios": scenarios,
        "derived": derived,
    }


def write_payload(payload: dict[str, Any], out: str | Path) -> Path:
    """Write the artifact plus its provenance manifest sidecar."""
    from repro.obs.provenance import bench_manifest

    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    bench_manifest(path.stem, schema=payload["schema"]).write(
        path.with_suffix(".manifest.json")
    )
    return path


def objectives(baseline: dict[str, Any]) -> list[str]:
    """The gate, as objectives in the :mod:`repro.obs.slo` grammar.

    Records equal, zero drop, the tracer-overhead ceiling and the
    coverage floor are fresh-run-only.  Every gated speed-up must clear
    :data:`FLOOR`, and stay inside the ±:data:`TOLERANCE` band around
    its baseline value when the baseline carries one.  Band edges are
    written with ``repr``, so they parse back to the exact floats.
    """
    texts = [
        "records_equal == 1",
        "service_zero_drop == 1",
        f"tracer_overhead_pct < {OVERHEAD_LIMIT_PCT!r}",
        f"batch_coverage >= {COVERAGE_FLOOR!r}",
    ]
    for key in GATED_SPEEDUPS:
        texts.append(f"{key} >= {FLOOR!r}")
        base = baseline["derived"].get(key)
        if base is not None:
            texts.append(f"{key} >= {base * (1 - TOLERANCE)!r}")
            texts.append(f"{key} <= {base * (1 + TOLERANCE)!r}")
    return texts


def check_regression(fresh: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Compare a fresh measurement against the committed baseline.

    Returns a list of human-readable failures (empty = pass): a schema
    mismatch, a baseline measured on another grid, and each of
    :func:`objectives` that the fresh run's scalar ``derived`` values do
    not meet.  Evaluation is fail-closed, so a gated value missing from
    the fresh run fails its objective.
    """
    from repro.obs.slo import evaluate

    problems: list[str] = []
    for payload, label in ((fresh, "fresh"), (baseline, "baseline")):
        if payload.get("schema") != SCHEMA:
            problems.append(
                f"{label} artifact has schema {payload.get('schema')!r}, "
                f"expected {SCHEMA!r}"
            )
    if problems:
        return problems
    if baseline.get("grid") != fresh["grid"]:
        problems.append(
            f"baseline grid {baseline.get('grid')} is not the measured grid "
            f"{fresh['grid']}; its ratios are not comparable"
        )
    extras = {
        key: value
        for key, value in fresh["derived"].items()
        if isinstance(value, (int, float))
    }
    report = evaluate(objectives(baseline), extras=extras)
    for result in report.failures:
        observed = "missing" if result.observed is None else f"{result.observed:.4g}"
        problems.append(f"{result.objective.text} failed (observed {observed})")
    return problems


def _summarize(payload: dict[str, Any]) -> str:
    lines = [
        f"perfbench ({payload['repeats']} repeats, "
        f"grid of {payload['grid']['cells']} cells):"
    ]
    for name, s in payload["scenarios"].items():
        lines.append(
            f"  {name:24s} median {s['median_s'] * 1e3:9.2f} ms "
            f"(± {s['stdev_s'] * 1e3:.2f} ms)"
        )
    d = payload["derived"]
    lines.append(
        f"  batch speedup {d['batch_speedup_x']:.2f}x, "
        f"memory/robust/hetero batch speedup {d['batch_memory_speedup_x']:.2f}x, "
        f"batch coverage {d['batch_coverage']:.2f}, "
        f"records equal: {d['records_equal']}"
    )
    for key, ratios in d["gate_passes"].items():
        lines.append(
            f"  {key} per pass: {', '.join(f'{r:.2f}' for r in ratios)} (gate takes the median)"
        )
    lines.append(
        f"  disabled-tracer overhead {d['tracer_overhead_pct']:.3f}% "
        f"of the event-kernel sweep ({sum(d['tracer_calls'].values())} "
        f"instrumentation calls), service zero drop: {d['service_zero_drop']}"
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.perfbench",
        description="measure the perf scenarios and write/check BENCH_perf.json",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help=f"write the artifact here (default: {DEFAULT_OUT}; with --check, "
        "fresh measurements are only written when PATH is given)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and gate the fresh run's objectives against --baseline",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_OUT,
        metavar="PATH",
        help=f"committed baseline for --check (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    payload = run_bench()
    print(_summarize(payload))

    if args.check:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"perfbench: no baseline at {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        problems = check_regression(payload, baseline)
        if args.out:
            print(f"fresh artifact written to {write_payload(payload, args.out)}")
        if problems:
            for p in problems:
                print(f"perfbench: FAIL: {p}", file=sys.stderr)
            print(
                "perfbench: if the change is intentional, re-baseline by "
                f"committing a fresh {DEFAULT_OUT} (repro bench)",
                file=sys.stderr,
            )
            return 1
        print(f"perfbench: OK — all {len(objectives(baseline))} objectives held")
        return 0

    out = args.out or DEFAULT_OUT
    print(f"artifact written to {write_payload(payload, out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
