"""Batch fast path for the experiment grid (cell-level executor).

:mod:`repro.simulation.batch` turns one (strategy, instance) pair into a
vectorized completion sweep; this module lifts that to grid granularity:
:func:`batch_eligible` routes cells, and :func:`execute_pack` runs one
pack of same-(strategy, instance) cells — every realization model and
seed in a single ``(B, n)`` NumPy pass — and assembles the exact
:class:`~repro.analysis.records.ExperimentRecord` the per-cell path
produces:

* the makespan comes from the sweep (bit-identical to the event kernel —
  see the exactness contract in :mod:`repro.simulation.batch`);
* the optimum is :func:`repro.exact.optimal.optimal_makespan` on the same
  realization, memoized per (instance, model, seed) *group* in the
  chunk's :class:`~repro.analysis.parallel.GroupMemo`, so one value
  serves every strategy instead of being recomputed per cell;
* the record comes from :meth:`ExperimentRecord.measured
  <repro.analysis.records.ExperimentRecord.measured>`, the constructor
  the per-cell path uses too.

Observability: each pack opens a ``grid.batch`` span and emits one
``grid.batch_pack`` event; every cell served by the sweep bumps
``grid.cells_done`` (keeping the grid's aggregate counters identical in
meaning to the per-cell path) plus the batch-specific
``grid.cells_batched`` counter.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.analysis.parallel import CellOutcome, CellSpec, GroupMemo
from repro.analysis.records import ExperimentRecord
from repro.exact.optimal import optimal_makespan
from repro.obs.tracer import get_tracer
from repro.simulation.batch import (
    BatchUnsupported,
    Plan,
    build_plan,
    sweep_makespans,
)
from repro.simulation.batch import supports_batch as _supports_batch

__all__ = [
    "batch_eligible",
    "execute_pack",
    "group_packs",
    "try_plan",
]


def batch_eligible(spec: CellSpec) -> bool:
    """Whether this cell may take the batch fast path (capability gate).

    The structural preconditions are still verified per pack by
    :func:`repro.simulation.batch.build_plan`; a cell that passes here
    but fails there falls back to the event kernel.
    """
    return _supports_batch(spec.strategy)


def group_packs(cells: Sequence[CellSpec]) -> list[list[CellSpec]]:
    """Group eligible cells into (strategy, instance) packs, stable order.

    Identity (not equality) keys: the grid enumerates shared strategy and
    instance objects, so identity grouping is exact and cheap.
    """
    packs: dict[tuple[int, int], list[CellSpec]] = {}
    for spec in cells:
        packs.setdefault((id(spec.strategy), id(spec.instance)), []).append(spec)
    return list(packs.values())


def try_plan(spec: CellSpec) -> Plan | None:
    """Compile this cell's (strategy, instance) pair, or ``None``.

    ``None`` means "use the per-cell path": either the structure is
    unsupported (:class:`BatchUnsupported`) or Phase 1 itself refuses the
    instance (``ValueError``, e.g. a ``k`` that does not divide ``m``) —
    the per-cell path turns the latter into the canonical
    :class:`~repro.analysis.records.SkippedCell`, so the fallback must
    not duplicate that logic.
    """
    try:
        return build_plan(spec.strategy, spec.instance)
    except (BatchUnsupported, ValueError):
        return None


def execute_pack(pack: Sequence[CellSpec], memo: GroupMemo) -> list[CellOutcome] | None:
    """Run one same-(strategy, instance) pack through the vectorized sweep.

    ``memo`` is the chunk's :class:`~repro.analysis.parallel.GroupMemo`,
    shared with the per-cell path and across packs, so a realization is
    sampled (and its optimum computed) once per (instance, model, seed)
    no matter how many strategies sweep it.  Each outcome's
    ``duration_s`` is an equal share of the pack's time, optima included.

    Returns ``None`` when the pack cannot be compiled — the caller then
    routes these cells through the per-cell path, which produces the
    identical records or skip entries it always has.
    """
    tracer = get_tracer()
    spec0 = pack[0]
    start = time.perf_counter()
    plan = try_plan(spec0)
    if plan is None:
        return None

    reals = [memo.realization(spec) for spec in pack]
    matrix = np.asarray([r.actuals for r in reals], dtype=np.float64)
    with tracer.span(
        "grid.batch",
        strategy=plan.strategy_name,
        instance=spec0.instance.name,
        cells=len(pack),
    ):
        makespans = [float(v) for v in sweep_makespans(plan, matrix)]
    tracer.count("grid.batch_packs")
    tracer.event(
        "grid.batch_pack",
        strategy=plan.strategy_name,
        instance=spec0.instance.name,
        cells=len(pack),
    )

    replication = plan.placement.max_replication()
    records = [
        ExperimentRecord.measured(
            plan.strategy_name,
            spec.instance,
            realization.label,
            spec.seed,
            replication,
            makespan,
            memo.optimum(spec, optimal_makespan),
            plan.guarantee,
        )
        for spec, realization, makespan in zip(pack, reals, makespans)
    ]
    duration_each = (time.perf_counter() - start) / len(pack)
    tracer.count("grid.cells_done", len(pack))
    tracer.count("grid.cells_batched", len(pack))
    return [
        CellOutcome(spec.index, record, None, duration_each, batched=True)
        for spec, record in zip(pack, records)
    ]
