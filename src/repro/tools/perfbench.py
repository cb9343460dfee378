"""Performance-trajectory harness (``repro bench`` / ``python -m repro.tools.perfbench``).

Times a fixed set of named scenarios through the public substrate and
emits a schema-versioned JSON artifact (``BENCH_perf.json`` at the repo
root) so the repository carries its own performance trajectory:

* ``single_cell`` — one :func:`~repro.analysis.ratios.measured_ratio`
  call (the per-cell event-kernel path end to end);
* ``eventkernel_sweep`` — the quick grid with ``batch=False`` (every
  cell through :class:`~repro.simulation.kernel.EventKernel`);
* ``batch_sweep`` — the same grid with the vectorized batch backend
  (:mod:`repro.simulation.batch`);
* ``memory_eventkernel_sweep`` / ``memory_batch_sweep`` — the same
  instance swept by the memory/robust/hetero exemplars
  (:data:`_MEMORY_STRATEGIES`), kernel vs compiled plans; the derived
  ``batch_memory_speedup_x`` (gated: absolute floor always, baseline
  band when the key exists) measures what the plan-compiler tiers
  bought the families that used to fall back to the kernel, and the
  derived ``batch_coverage`` (the share of the two batch grids' cells a
  compiled plan served, gated ≥ :data:`DEFAULT_COVERAGE_FLOOR`) fails
  the gate when the compiler quietly stops accepting a family;
* ``cached_resweep`` — the same grid served warm from a
  :class:`~repro.analysis.cache.CellCache`;
* ``parallel_grid`` — the same grid fanned over a 2-process pool with
  the batch backend off (isolates pool overhead + per-cell kernel);
* ``tracer_overhead`` — the cost of the *disabled* tracer path: one
  untraced reference run counts how many span/event/count calls actually
  reach the disabled tracer (the kernel checks ``tracer.enabled`` before
  each per-event counter, so only unguarded call sites — grid
  orchestration spans and analysis counters — hit it), then the
  scenario times that many disabled-path calls back-to-back.  The
  derived ``tracer_overhead_pct`` (relative to the event-kernel sweep)
  is gated at <:data:`DEFAULT_OVERHEAD_LIMIT_PCT`% in ``--check`` — a
  regression guard against unguarded per-event instrumentation landing
  in a hot loop, which multiplies the call count a few hundredfold;
* ``service_loadgen`` — one end-to-end
  :func:`~repro.service.loadgen.run_burst`: the placement daemon comes
  up on loopback TCP, seeded synthetic tenants stream admissions (with
  scripted idempotency retries) through Phase-1 placement, the queue
  drains through Phase-2 dispatch, and the daemon shuts down.  The
  derived ``service_zero_drop`` flag (every admitted task completed,
  zero request errors) is gated fresh-run-only in ``--check``;
  ``service_throughput_rps`` is recorded for the trajectory but never
  gated (absolute, hardware-dependent);
* ``chaos_soak`` — one virtual-time :func:`~repro.chaos.soak.run_soak`
  over a small fleet with a rack failure landing mid-run: the
  failure-aware admission path, task re-placement, health tracking, and
  the no-fault control arm, end to end.  Purely informational — its
  derived scalars (``soak_min_availability``, ``soak_inflation``) ride
  along in the trajectory but are **never** gated here; the survival
  invariants are owned by ``tests/test_chaos_soak.py`` and the CI
  ``chaos-soak-smoke`` job, and duplicating them in the perf gate would
  double-report one failure.

Before any timing, the harness asserts that the batch, serial, and
parallel runs produce **identical record lists** — the bench doubles as
an end-to-end equality gate.

**CI regression gate** (``--check``): re-measures and compares the
*derived, scale-free* metric ``batch_speedup_x`` (event-kernel minimum /
batch minimum, both measured in the same process on the same machine)
against the committed baseline with a two-sided tolerance, plus a hard
floor, plus the fresh-run-only ``tracer_overhead_pct`` ceiling.  Each
gated ratio is the median over :data:`GATE_PASSES` passes; a pass times
the two sides of its pair in turns (the per-pass ratios are kept under
``derived.gate_passes``), so neither a drift of the host's speed nor
one noisy pass can carry it outside the band.
Absolute times are recorded for trajectory plots but never gated — they
vary with runner hardware; the ratios do not.

Schema (``repro.perfbench/1``)::

    {
      "schema": "repro.perfbench/1",
      "quick": bool,
      "repeats": int,
      "host": {... environment_info ..., "cpu_count": int},
      "grid": {family, n, m, alpha, strategies, model, seeds, cells},
      "scenarios": {name: {"median_s", "stdev_s", "min_s", "runs"}},
      "derived": {"batch_speedup_x", "cache_speedup_x", "records_equal",
                  "tracer_overhead_pct", "tracer_calls",
                  "service_zero_drop", "service_throughput_rps",
                  "soak_min_availability", "soak_inflation"}
    }

A ``*.manifest.json`` provenance sidecar (with the wall-clock timestamp
and git describe) is written next to the JSON; the artifact itself stays
timestamp-free.

**Perf trajectory**: whenever an artifact is written, a timestamped row
(schema ``repro.perfbench-history/1``) is appended to
``results/BENCH_history.jsonl`` (next to ``--out`` when that is given),
with a manifest sidecar — so the performance curve accumulates across
PRs instead of only storing the latest snapshot.  ``--no-history`` opts
out; ``--check`` without ``--out`` writes neither artifact nor history.
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
HISTORY_SCHEMA = "repro.perfbench-history/1"
DEFAULT_OUT = "BENCH_perf.json"
DEFAULT_HISTORY = "results/BENCH_history.jsonl"
#: Two-sided relative tolerance on ``batch_speedup_x`` vs the baseline.
DEFAULT_TOLERANCE = 0.30
#: Hard floor: the batch backend must stay at least this many times
#: faster than the per-cell event kernel, regardless of the baseline.
DEFAULT_FLOOR = 2.0
#: Ceiling on the disabled-tracer overhead estimate, percent of the
#: untraced event-kernel sweep.  Fresh-run-only (no baseline involved).
DEFAULT_OVERHEAD_LIMIT_PCT = 2.0
#: Floor on ``batch_coverage`` — the share of the batch grids' cells a
#: compiled plan served.  Fresh-run-only.
DEFAULT_COVERAGE_FLOOR = 0.8
#: The derived speedup ratios gated in ``--check``: each must clear the
#: absolute floor on every fresh run (baseline key present or not), and
#: additionally stay inside the ±tolerance band *when* the committed
#: baseline carries the key — a fresh scenario must not silently pass.
GATED_SPEEDUPS = ("batch_speedup_x", "batch_memory_speedup_x")
#: Passes over each gated scenario pair; the gated ratio is the median
#: of the per-pass ratios.
GATE_PASSES = 3

__all__ = [
    "SCHEMA",
    "HISTORY_SCHEMA",
    "DEFAULT_TOLERANCE",
    "DEFAULT_FLOOR",
    "DEFAULT_OVERHEAD_LIMIT_PCT",
    "DEFAULT_COVERAGE_FLOOR",
    "GATED_SPEEDUPS",
    "GATE_PASSES",
    "run_bench",
    "batch_coverage",
    "check_regression",
    "append_history",
    "main",
]


def _grid_config(quick: bool) -> dict[str, Any]:
    if quick:
        return {
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
            "memory_strategies": _MEMORY_STRATEGIES,
        }
    return {
        "family": "uniform",
        "n": 120,
        "m": 12,
        "alpha": 2.0,
        "instance_seed": 0,
        "strategies": [
            "lpt_no_choice",
            "lpt_no_restriction",
            "ls_group[k=4]",
            "ls_group[k=6]",
            "lpt_group[k=3]",
        ],
        "model": "log_uniform",
        "seeds": [1000 + s for s in range(10)],
        "memory_strategies": _MEMORY_STRATEGIES,
    }


#: The families that were event-kernel-bound before the plan compiler
#: grew past fixed orders over partitions: one exemplar per family
#: (memory × 3, robust, hetero, selective-replication).  The
#: ``memory_*`` scenarios sweep these over the same instance/model/seeds
#: as the main grid, so ``batch_memory_speedup_x`` measures exactly what
#: these cells cost on the old batch path (which fell back to the
#: kernel) versus the compiled plans.
_MEMORY_STRATEGIES = [
    "sabo[delta=1]",
    "abo[delta=1]",
    "capped[C=1000]",
    "robust_pinned",
    "risk_aware[0.5]",
    "selective[0.25,count]",
]


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


def _time_scenario(fn: Callable[[], Any], repeats: int) -> dict[str, Any]:
    return _timing(_time_interleaved([fn], repeats)[0])


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


def run_bench(*, quick: bool = True, repeats: int | None = None) -> dict[str, Any]:
    """Measure every scenario and return the schema-versioned payload.

    Raises ``AssertionError`` if the batch / serial / parallel record
    lists diverge — a perf artifact must never be produced from runs
    that disagree on the records.
    """
    import tempfile

    from repro.analysis.cache import CellCache
    from repro.analysis.experiment import ExperimentGrid
    from repro.analysis.ratios import measured_ratio
    from repro.obs.provenance import environment_info
    from repro.registry import make_strategy
    from repro.uncertainty import sample_realization
    from repro.workloads import generate

    cfg = _grid_config(quick)
    if repeats is None:
        repeats = 3 if quick else 5
    instance = generate(
        cfg["family"], cfg["n"], cfg["m"], cfg["alpha"], cfg["instance_seed"]
    )

    def grid(**overrides: Any) -> ExperimentGrid:
        kwargs: dict[str, Any] = dict(
            strategies=list(cfg["strategies"]),
            instances=[instance],
            realization_models=[cfg["model"]],
            seeds=list(cfg["seeds"]),
        )
        kwargs.update(overrides)
        return ExperimentGrid(**kwargs)

    def memory_grid(**overrides: Any) -> ExperimentGrid:
        kwargs: dict[str, Any] = dict(
            strategies=list(cfg["memory_strategies"]),
            instances=[instance],
            realization_models=[cfg["model"]],
            seeds=list(cfg["seeds"]),
        )
        kwargs.update(overrides)
        return ExperimentGrid(**kwargs)

    # Equality gate first: producing a perf artifact from divergent
    # backends would be worse than producing none.  The memory grid also
    # exercises the batch × parallel composition (packs sharded across
    # the pool) against the serial kernel.
    serial_records = grid(batch=False).run()
    batch_grid = grid(batch=True)
    batch_records = batch_grid.run()
    parallel_records = grid(batch=False, workers=2).run()
    records_equal = serial_records == batch_records == parallel_records
    assert records_equal, "batch/serial/parallel record lists diverged"
    mem_serial = memory_grid(batch=False).run()
    mem_batch_grid = memory_grid(batch=True)
    mem_batch = mem_batch_grid.run()
    mem_pooled = memory_grid(batch=True, workers=2).run()
    memory_records_equal = mem_serial == mem_batch == mem_pooled
    records_equal = records_equal and memory_records_equal
    assert memory_records_equal, (
        "memory-family batch/serial/batched-parallel record lists diverged"
    )

    strategy = make_strategy("lpt_no_restriction")
    realization = sample_realization(instance, cfg["model"], cfg["seeds"][0])

    scenarios: dict[str, dict[str, Any]] = {}
    scenarios["single_cell"] = _time_scenario(
        lambda: measured_ratio(strategy, instance, realization), repeats
    )
    # The gated pairs, kernel vs batch.  The memory pair is the newly
    # batchable families: before the compiler grew past partitions these
    # cells took the event kernel even with batch=True, so it measures
    # the end-to-end win of the wider batch tier on its own cells.  Each
    # pass times a pair's two sides in turns and yields one ratio.
    pairs = {
        "batch_speedup_x": {
            "eventkernel_sweep": lambda: grid(batch=False).run(),
            "batch_sweep": lambda: grid(batch=True).run(),
        },
        "batch_memory_speedup_x": {
            "memory_eventkernel_sweep": lambda: memory_grid(batch=False).run(),
            "memory_batch_sweep": lambda: memory_grid(batch=True).run(),
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
    for name, runs in pair_runs.items():
        scenarios[name] = _timing(runs)

    with tempfile.TemporaryDirectory(prefix="perfbench-cache-") as cache_dir:
        grid(cache=CellCache(cache_dir)).run()  # cold run populates
        scenarios["cached_resweep"] = _time_scenario(
            lambda: grid(cache=CellCache(cache_dir)).run(), repeats
        )

    scenarios["parallel_grid"] = _time_scenario(
        lambda: grid(batch=False, workers=2).run(), repeats
    )

    tracer_calls = _count_tracer_calls(lambda: grid(batch=False).run())
    scenarios["tracer_overhead"] = _time_scenario(
        lambda: _disabled_tracer_calls(tracer_calls), repeats
    )

    # One whole daemon lifecycle per run: admissions in, queue drained,
    # daemon down.  tasks_per_tenant covers one RETRY_EVERY period so the
    # dedup path is always on the timed path; the tracer stays disabled
    # (run_burst never enables it), so the overhead tally above is
    # untouched by this scenario.
    from repro.service.loadgen import RETRY_EVERY, run_burst

    svc_tenants = 30 if quick else 80
    last_burst: list[Any] = []

    def _service_burst() -> None:
        last_burst[:] = [
            run_burst(
                svc_tenants,
                RETRY_EVERY,
                seed=cfg["instance_seed"],
                concurrency=16,
            )
        ]

    scenarios["service_loadgen"] = _time_scenario(_service_burst, repeats)
    burst = last_burst[0]
    service_zero_drop = (
        burst.errors == 0
        and burst.final_status.get("admitted") == burst.final_status.get("done")
    )

    # One virtual-time soak per run: sustained seeded arrivals against
    # the failure-aware scheduler while a rack dies mid-run, plus the
    # no-fault control arm.  Informational only — never gated here (the
    # survival invariants live in tests/test_chaos_soak.py and the CI
    # chaos-soak-smoke job).
    from repro.chaos import ChaosSchedule, FleetTopology, SoakConfig, run_soak

    topo = FleetTopology(
        zones=1, racks_per_zone=4, machines_per_rack=2 if quick else 3
    )
    soak_config = SoakConfig(
        topology=topo,
        seed=cfg["instance_seed"],
        duration=12.0 if quick else 30.0,
        rate=4.0,
        sample_every=1.0,
        schedule=ChaosSchedule.rack(topo, 1, at=4.0, downtime=5.0),
    )
    last_soak: list[Any] = []

    def _chaos_soak() -> None:
        last_soak[:] = [run_soak(soak_config)]

    scenarios["chaos_soak"] = _time_scenario(_chaos_soak, repeats)
    soak_summary = last_soak[0].summary

    # Speedups gate CI, so each pass derives them from min_s (timing
    # noise is purely additive, making the minimum the most reproducible
    # point estimate) and the gate takes the median pass.
    ek = scenarios["eventkernel_sweep"]["min_s"]
    derived = {
        "batch_speedup_x": statistics.median(gate_passes["batch_speedup_x"]),
        "batch_memory_speedup_x": statistics.median(gate_passes["batch_memory_speedup_x"]),
        "gate_passes": gate_passes,
        "batch_coverage": batch_coverage([batch_grid, mem_batch_grid]),
        "cache_speedup_x": ek / scenarios["cached_resweep"]["min_s"],
        "records_equal": records_equal,
        "tracer_calls": tracer_calls,
        "tracer_overhead_pct": 100.0 * scenarios["tracer_overhead"]["min_s"] / ek,
        "service_zero_drop": service_zero_drop,
        "service_throughput_rps": burst.throughput_rps,
        "soak_min_availability": soak_summary["min_availability"],
        "soak_inflation": soak_summary["inflation"],
    }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "host": {**environment_info(), "cpu_count": os.cpu_count()},
        "grid": {
            "family": cfg["family"],
            "n": cfg["n"],
            "m": cfg["m"],
            "alpha": cfg["alpha"],
            "strategies": cfg["strategies"],
            "memory_strategies": cfg["memory_strategies"],
            "model": cfg["model"],
            "seeds": len(cfg["seeds"]),
            "cells": len(cfg["strategies"]) * len(cfg["seeds"]),
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
    bench_manifest(
        path.stem, schema=payload["schema"], quick=payload["quick"]
    ).write(path.with_suffix(".manifest.json"))
    return path


def append_history(payload: dict[str, Any], history: str | Path) -> Path:
    """Append one timestamped trajectory row; returns the history path.

    Rows are schema-versioned (``repro.perfbench-history/1``) and compact
    — scenario medians plus the derived ratios — so the file stays small
    while accumulating across PRs.  A ``*.manifest.json`` sidecar is
    (re)written next to it with the row count and git describe, and when
    the history lives in the repo's ``results/`` directory the file is
    also published to the artifact store as the volatile
    ``BENCH_history`` CURATED artifact (see docs/artifacts.md).
    """
    import datetime

    from repro.obs.provenance import bench_manifest

    path = Path(history)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = {
        "schema": HISTORY_SCHEMA,
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "quick": payload["quick"],
        "repeats": payload["repeats"],
        "cells": payload["grid"]["cells"],
        "git_describe": payload["host"].get("git_describe"),
        "scenarios": {
            name: s["median_s"] for name, s in payload["scenarios"].items()
        },
        "derived": {
            k: v for k, v in payload["derived"].items() if not isinstance(v, dict)
        },
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    rows = sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line)
    artifact_id = None
    refs: tuple[Any, ...] = ()
    from repro.analysis.csvio import results_dir
    from repro.store import ArtifactStore, code_ref, publish_curated

    if path.parent.resolve() == results_dir().resolve():
        refs = (code_ref("repro.tools.perfbench"),)
        artifact = publish_curated(path.stem, store=ArtifactStore(), refs=refs)
        artifact_id = artifact.artifact_id if artifact is not None else None
    bench_manifest(
        path.stem, schema=HISTORY_SCHEMA, rows=rows, refs=refs, artifact_id=artifact_id
    ).write(path.with_suffix(".manifest.json"))
    return path


def check_regression(
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    floor: float = DEFAULT_FLOOR,
) -> list[str]:
    """Compare a fresh measurement against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  Only the
    scale-free speedup ratios (:data:`GATED_SPEEDUPS`) are gated —
    absolute scenario times are informational because CI runners vary in
    speed; each ratio is measured within one process on one machine and
    cancels that out.  Every gated ratio must clear the absolute
    ``floor`` on the *fresh* run unconditionally; the ±``tolerance``
    drift band applies only when the committed baseline also carries the
    key, so a freshly introduced scenario is floor-gated from its first
    CI run instead of silently passing until re-baselined.
    """
    problems: list[str] = []
    for payload, label in ((fresh, "fresh"), (baseline, "baseline")):
        if payload.get("schema") != SCHEMA:
            problems.append(
                f"{label} artifact has schema {payload.get('schema')!r}, "
                f"expected {SCHEMA!r}"
            )
    if problems:
        return problems
    if not fresh["derived"]["records_equal"]:
        problems.append("fresh run: batch/serial/parallel records diverged")
    if fresh["derived"].get("service_zero_drop") is False:
        problems.append(
            "fresh run: service_loadgen burst dropped tasks or saw request "
            "errors — the daemon must complete every admitted task"
        )
    overhead = fresh["derived"].get("tracer_overhead_pct")
    if overhead is not None and overhead >= DEFAULT_OVERHEAD_LIMIT_PCT:
        problems.append(
            f"tracer_overhead_pct {overhead:.3f}% is at or above the "
            f"{DEFAULT_OVERHEAD_LIMIT_PCT}% ceiling — the disabled tracer "
            "path must stay near-free"
        )
    coverage = fresh["derived"].get("batch_coverage")
    if coverage is not None and coverage < DEFAULT_COVERAGE_FLOOR:
        problems.append(
            f"batch_coverage {coverage:.3f} is below the "
            f"{DEFAULT_COVERAGE_FLOOR} floor — a compiled plan served too "
            "small a share of the batch grids' cells"
        )
    for key in GATED_SPEEDUPS:
        speedup = fresh["derived"].get(key)
        if speedup is None:
            continue  # older artifact from before this scenario existed
        if speedup < floor:
            problems.append(
                f"{key} {speedup:.2f} is below the hard floor {floor:.2f}"
            )
        base = baseline["derived"].get(key)
        if base is None:
            # Fresh scenario with no committed history: the floor above
            # already gated it; there is no band to compare against.
            continue
        lo, hi = base * (1 - tolerance), base * (1 + tolerance)
        if not lo <= speedup <= hi:
            direction = "regressed" if speedup < lo else "improved"
            problems.append(
                f"{key} {speedup:.2f} {direction} outside "
                f"[{lo:.2f}, {hi:.2f}] (baseline {base:.2f} ± {tolerance:.0%}); "
                "if intentional, re-baseline by committing the fresh "
                f"{DEFAULT_OUT}"
            )
    return problems


def _summarize(payload: dict[str, Any]) -> str:
    lines = [
        f"perfbench ({'quick' if payload['quick'] else 'full'}, "
        f"{payload['repeats']} repeats, grid of {payload['grid']['cells']} cells):"
    ]
    for name, s in payload["scenarios"].items():
        lines.append(
            f"  {name:24s} median {s['median_s'] * 1e3:9.2f} ms "
            f"(± {s['stdev_s'] * 1e3:.2f} ms)"
        )
    d = payload["derived"]
    lines.append(
        f"  batch speedup {d['batch_speedup_x']:.2f}x, "
        f"cache speedup {d['cache_speedup_x']:.2f}x, "
        f"records equal: {d['records_equal']}"
    )
    for key, ratios in d.get("gate_passes", {}).items():
        lines.append(
            f"  {key} per pass: {', '.join(f'{r:.2f}' for r in ratios)} (gate takes the median)"
        )
    if "batch_memory_speedup_x" in d:
        lines.append(
            f"  memory/robust/hetero batch speedup "
            f"{d['batch_memory_speedup_x']:.2f}x, "
            f"batch coverage {d['batch_coverage']:.2f} "
            f"(floor {DEFAULT_COVERAGE_FLOOR})"
        )
    if "tracer_overhead_pct" in d:
        calls = d.get("tracer_calls", {})
        total = sum(calls.values()) if isinstance(calls, dict) else 0
        lines.append(
            f"  disabled-tracer overhead {d['tracer_overhead_pct']:.3f}% "
            f"of the event-kernel sweep ({total} instrumentation calls)"
        )
    if "service_throughput_rps" in d:
        lines.append(
            f"  service loadgen {d['service_throughput_rps']:.0f} req/s, "
            f"zero drop: {d['service_zero_drop']}"
        )
    if "soak_min_availability" in d:
        lines.append(
            f"  chaos soak min availability {d['soak_min_availability']:.3f}, "
            f"inflation {d['soak_inflation']:.3f} (informational, not gated)"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.perfbench",
        description="measure the perf scenarios and write/check BENCH_perf.json",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small grid, 3 repeats (the CI mode)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per scenario"
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
        help="re-measure and gate batch_speedup_x against --baseline",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_OUT,
        metavar="PATH",
        help=f"committed baseline for --check (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"two-sided relative drift allowed (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help=f"hard minimum batch speedup (default: {DEFAULT_FLOOR})",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="perf-trajectory JSONL to append to (default: "
        f"{DEFAULT_HISTORY}, or BENCH_history.jsonl next to --out); "
        "only written when the artifact is written",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip appending the perf-trajectory row",
    )
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick, repeats=args.repeats)
    print(_summarize(payload))

    def _history(out_path: str) -> None:
        # History rides along with the artifact: a pure --check run (no
        # --out) measures without writing, so it must not dirty the tree.
        if args.no_history:
            return
        history = args.history or str(
            Path(out_path).parent / Path(DEFAULT_HISTORY).name
            if args.out
            else DEFAULT_HISTORY
        )
        print(f"history row appended to {append_history(payload, history)}")

    if args.check:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"perfbench: no baseline at {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        problems = check_regression(
            payload, baseline, tolerance=args.tolerance, floor=args.floor
        )
        if args.out:
            print(f"fresh artifact written to {write_payload(payload, args.out)}")
            _history(args.out)
        if problems:
            for p in problems:
                print(f"perfbench: FAIL: {p}", file=sys.stderr)
            return 1
        print(
            f"perfbench: OK — batch_speedup_x {payload['derived']['batch_speedup_x']:.2f} "
            f"within {args.tolerance:.0%} of baseline "
            f"{baseline['derived']['batch_speedup_x']:.2f}"
        )
        return 0

    out = args.out or DEFAULT_OUT
    print(f"artifact written to {write_payload(payload, out)}")
    _history(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
