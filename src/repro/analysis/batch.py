"""Batch fast path for the experiment grid (cell-level executor).

:mod:`repro.simulation.batch` turns one (strategy, instance) pair into a
vectorized completion sweep; this module lifts that to grid granularity:
:func:`group_stacks` groups a chunk's cells into *stacks* — the
(strategy, instance) packs of one strategy on same-shape instances — and
:func:`execute_pack` runs one stack: its closed-form plans, every
realization model and seed, in one ``(R, n)`` NumPy pass, and its replay
plans in another.  Which packs sweep is
:func:`~repro.simulation.batch.build_plan`'s call alone.  A partition
strategy's stack (:func:`~repro.simulation.batch.stack_compiles`)
compiles in one call, from its instances' Phase-1 group ids, with no
placement built; any other stack, and a partition stack whose compile
raises, compiles pack by pack through :func:`try_plan`, and a pack it
refuses runs on the per-cell kernel.  It assembles
the exact :class:`~repro.analysis.records.ExperimentRecord` the per-cell
path produces:

* the makespan comes from the sweep (bit-identical to the event kernel —
  see the exactness contract in :mod:`repro.simulation.batch`), whose
  ``(R, n)`` matrix stacks each group's float64 row from the chunk's
  :class:`~repro.analysis.parallel.GroupMemo`;
* the optimum is :func:`repro.exact.optimal.optimal_makespan` on the same
  realization, memoized per (instance, model, seed) *group* in the
  chunk's :class:`~repro.analysis.parallel.GroupMemo`, so one value
  serves every strategy instead of being recomputed per cell;
* the replication is the plan's ``replication``, the placement's
  ``max_j |M_j|`` (for a partition, its group size ``m / k``);
* the record comes from :meth:`ExperimentRecord.measured
  <repro.analysis.records.ExperimentRecord.measured>`, the constructor
  the per-cell path uses too, and each outcome is one
  :class:`~repro.analysis.parallel.CellOutcome` tuple.

Observability: a partition stack's compile opens one ``phase1`` span and
counts ``phase1.placements`` once per instance; each stack opens a
``grid.batch`` span, and each
(strategy, instance) pack it serves emits one ``grid.batch_pack`` event
and bumps ``grid.batch_packs``; every cell served by the sweep bumps
``grid.cells_done`` (keeping the grid's aggregate counters identical in
meaning to the per-cell path) plus the batch-specific
``grid.cells_batched`` counter.  When a profiling spec is armed and the
tracer is enabled, the stack's sweep runs under cProfile and its top
rows land in the ``grid.batch`` span's ``profile`` attribute plus
``profile.*`` registry timers, as :func:`~repro.analysis.parallel.run_cell`
does per cell (:mod:`repro.obs.profiling`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.analysis.parallel import CellOutcome, CellSpec, GroupMemo
from repro.analysis.records import ExperimentRecord
from repro.exact.optimal import optimal_makespan
from repro.obs import profiling
from repro.obs.tracer import get_tracer
from repro.simulation.batch import (
    BatchPlan,
    BatchUnsupported,
    Plan,
    build_plan,
    stack_compiles,
    sweep_makespans,
)

__all__ = [
    "execute_pack",
    "group_packs",
    "group_stacks",
    "try_plan",
]


def group_packs(cells: Sequence[CellSpec]) -> list[list[CellSpec]]:
    """Group cells into (strategy, instance) packs, stable order.

    Identity (not equality) keys: the grid enumerates shared strategy and
    instance objects, so identity grouping is exact and cheap.
    """
    packs: dict[tuple[int, int], list[CellSpec]] = {}
    for spec in cells:
        packs.setdefault((id(spec.strategy), id(spec.instance)), []).append(spec)
    return list(packs.values())


def group_stacks(cells: Sequence[CellSpec]) -> list[list[list[CellSpec]]]:
    """Group cells into stacks of packs, stable order.

    A stack holds the (strategy, instance) packs of one strategy object
    on instances of one ``(n, m)`` shape, so their closed-form plans
    sweep as one ``(R, n)`` matrix.
    """
    stacks: dict[tuple[int, int, int], list[list[CellSpec]]] = {}
    for pack in group_packs(cells):
        spec = pack[0]
        key = (id(spec.strategy), spec.instance.n, spec.instance.m)
        stacks.setdefault(key, []).append(pack)
    return list(stacks.values())


def try_plan(spec: CellSpec, memo: GroupMemo) -> Plan | None:
    """Compile this cell's (strategy, instance) pair, or ``None``.

    ``None`` means "use the per-cell path": either the structure is
    unsupported (:class:`BatchUnsupported`) or compiling raised —
    Phase 1 refusing the instance (``ValueError``, e.g. a ``k`` that
    does not divide ``m``) or any other crash.  The per-cell path turns
    the former into the canonical
    :class:`~repro.analysis.records.SkippedCell` and retries and
    quarantines the latter, so the fallback must not duplicate that
    logic.  A refusal hands the placement :func:`build_plan` already
    built to ``memo``, so the pack's cells run Phase 2 on it instead of
    running Phase 1 each.  ``KeyboardInterrupt`` and ``SystemExit``
    propagate.
    """
    try:
        return build_plan(spec.strategy, spec.instance)
    except BatchUnsupported as exc:
        memo.share_placement(spec, exc.placement)
        return None
    except Exception:
        return None


def _compile_stack(
    packs: Sequence[Sequence[CellSpec]], memo: GroupMemo
) -> list[Plan | None]:
    """One plan per pack of a stack, ``None`` for the per-cell path.

    A stack of a partition strategy compiles in one :func:`build_plan`
    call; everything else, and a partition stack whose compile raises,
    compiles pack by pack through :func:`try_plan`, so each refusal and
    each crash stays its own pack's.
    """
    strategy = packs[0][0].strategy
    if stack_compiles(strategy):
        try:
            return build_plan(strategy, [pack[0].instance for pack in packs])
        except Exception:
            pass  # pack by pack, the failure lands on the packs it belongs to
    return [try_plan(pack[0], memo) for pack in packs]


def _sweep(
    closed: list[tuple[Sequence[CellSpec], Plan]],
    replayed: list[tuple[Sequence[CellSpec], Plan]],
    matrix: np.ndarray,
) -> list[float]:
    """The stack's makespans: closed-form rows first, then the replay
    rows, each kind one slice of ``matrix``."""
    makespans: list[float] = []
    for kind in (closed, replayed):
        if kind:
            rows = [len(pack) for pack, _ in kind]
            plans = [plan for _, plan in kind]
            row = len(makespans)
            block = matrix[row : row + sum(rows)]
            makespans += sweep_makespans(plans, block, rows).tolist()
    return makespans


def execute_pack(
    packs: Sequence[Sequence[CellSpec]], memo: GroupMemo
) -> tuple[list[CellOutcome], list[CellSpec]]:
    """Run one stack of same-(strategy, instance) packs through the sweep.

    A partition strategy's stack compiles in one :func:`build_plan` call,
    and any other stack pack by pack (see :func:`_compile_stack`).  The
    closed-form plans sweep together in one ``sweep_makespans`` call over
    their stacked rows, and the replay plans in another.
    ``memo`` is the chunk's :class:`~repro.analysis.parallel.GroupMemo`,
    shared with the per-cell path and across stacks, so a realization is
    sampled (and its optimum computed) once per (instance, model, seed)
    no matter how many strategies sweep it.  Each outcome's
    ``duration_s`` is an equal share of the stack's time, optima
    included.

    Returns ``(outcomes, left)``: ``left`` holds the cells of every pack
    that cannot be compiled — the caller routes them through the per-cell
    path, which produces the identical records or skip entries it always
    has, on the placement a refused pack left in ``memo``.
    """
    tracer = get_tracer()
    start = time.perf_counter()
    closed: list[tuple[Sequence[CellSpec], Plan]] = []
    replayed: list[tuple[Sequence[CellSpec], Plan]] = []
    left: list[CellSpec] = []
    for pack, plan in zip(packs, _compile_stack(packs, memo)):
        if plan is None:
            left.extend(pack)
        else:
            (closed if isinstance(plan, BatchPlan) else replayed).append((pack, plan))
    served = closed + replayed
    if not served:
        return [], left

    specs = [spec for pack, _ in served for spec in pack]
    matrix = np.stack([memo.row(spec) for spec in specs])
    profile_spec = profiling.active_spec() if tracer.enabled else None
    with tracer.span(
        "grid.batch",
        strategy=served[0][1].strategy_name,
        instances=len(served),
        cells=len(specs),
    ) as batch_span:
        if profile_spec is None:
            makespans = _sweep(closed, replayed, matrix)
        else:
            makespans, profile_rows = profiling.profile_call(
                _sweep, closed, replayed, matrix, top=profile_spec.top
            )
            if profile_rows:
                batch_span.set(profile=profile_rows)
                profiling.fold_rows(tracer.registry, profile_rows)

    records: list[ExperimentRecord] = []
    for pack, plan in served:
        tracer.count("grid.batch_packs")
        tracer.event(
            "grid.batch_pack",
            strategy=plan.strategy_name,
            instance=pack[0].instance.name,
            cells=len(pack),
        )
        for spec in pack:
            row = len(records)
            records.append(
                ExperimentRecord.measured(
                    plan.strategy_name,
                    spec.instance,
                    memo.realization(spec).label,
                    spec.seed,
                    plan.replication,
                    makespans[row],
                    memo.optimum(spec, optimal_makespan),
                    plan.guarantee,
                )
            )
    duration_each = (time.perf_counter() - start) / len(records)
    tracer.count("grid.cells_done", len(records))
    tracer.count("grid.cells_batched", len(records))
    outcomes = [
        tuple.__new__(CellOutcome, (spec.index, record, None, duration_each, 1, 0, True))
        for spec, record in zip(specs, records)
    ]
    return outcomes, left
