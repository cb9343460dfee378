"""Grid-experiment driver for the empirical benches.

An :class:`ExperimentGrid` crosses strategies × instances × realization
models × seeds, divides every cell's makespan by the optimum of the same
realization, and returns flat records the benches aggregate and write
out — it is the substrate behind every
empirical paper artifact (benches E1–E16 and the figure sweeps).
Keeping the sweep in one driver means every bench agrees on provenance
fields and determinism.

Every run takes one path: probe the cache once per cell, hand the cold
cells to one executor call —
:func:`~repro.analysis.parallel.execute_packs` (batch packs) or
:func:`~repro.analysis.parallel.execute_cells` (event-kernel cells) —
then merge in cell-index order.  Three settings shape that path:

* **workers** (``workers=N``, default 1) — the width of the process pool
  the executor fans chunks out over; one worker is the inline case of
  the same executor, not a separate loop.  The record list is identical
  for every ``N``; ``progress`` callbacks and cache stores happen at
  merge time for every ``N``;
* **cached** (``cache=CellCache(...)``) — cell outcomes are fingerprinted
  and persisted by :mod:`repro.analysis.cache`; warm cells are never
  recomputed;
* **batched** (``batch=True``, the default) — every cold cell ships in
  a (strategy, instance) pack, and each pack the batch compiler
  (:func:`~repro.simulation.batch.build_plan`) accepts is replayed by the
  vectorized NumPy sweep (:mod:`repro.analysis.batch`) instead of the
  per-event kernel; records are bit-identical, and packs the compiler
  refuses run on the kernel inside the same chunk, on the pack's
  shared placement.

See ``docs/performance.md`` for the worker model, determinism guarantee,
and cache invalidation rules.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.analysis.cache import CellCache
from repro.analysis.parallel import (
    DEFAULT_RETRY,
    CellOutcome,
    CellSpec,
    RetryPolicy,
    enumerate_cells,
    execute_cells,
    execute_packs,
    model_display_name,
)
from repro.analysis.records import ExperimentRecord, SkippedCell
from repro.core.model import Instance
from repro.core.strategy import TwoPhaseStrategy
from repro.obs.merge import merge_registry_summary, replay_events
from repro.obs.provenance import run_manifest
from repro.obs.tracer import get_tracer
from repro.uncertainty.realization import Realization

__all__ = [
    "ExperimentRecord",
    "SkippedCell",
    "ExperimentGrid",
    "RetryPolicy",
    "run_grid",
    "ProgressCallback",
]

RealizationFactory = Callable[[Instance, int], Realization]

#: Called after each grid cell with (cells_done, cells_total, record) —
#: ``record`` is None when the cell was skipped (incompatible pair).
ProgressCallback = Callable[[int, int, "ExperimentRecord | None"], None]


@dataclass
class ExperimentGrid:
    """Declarative sweep specification.

    Attributes
    ----------
    strategies:
        The strategies to run.  Entries may be instantiated strategies or
        registry spec strings (``"ls_group[k=3]"``); strings are built
        through :func:`repro.registry.make_strategy` on construction.
        Group strategies must match each instance's ``m`` — incompatible
        pairs are skipped and recorded as :class:`SkippedCell` entries in
        :attr:`skipped`, which each ``run()`` starts afresh.
    instances:
        The instances to run on.
    realization_models:
        Stochastic model names (see
        :data:`repro.uncertainty.stochastic.STOCHASTIC_MODELS`) and/or
        custom factories.
    seeds:
        Seeds per (instance, model) pair.
    exact_limit:
        Passed to :func:`repro.exact.optimal.optimal_makespan`.
    progress:
        Optional :data:`ProgressCallback` invoked once per cell.  It fires
        during the deterministic merge, in cell order, after computation
        finishes — for every worker count.
    workers:
        Process-pool width; ``1`` (default) runs in-process as the
        one-worker case of the same executor.  Every worker count
        produces the same record list.
    cache:
        Optional :class:`~repro.analysis.cache.CellCache`; warm cells are
        served from disk without running the strategy or the solver.
    retry:
        Per-cell :class:`~repro.analysis.parallel.RetryPolicy`.  Crashing
        cells are retried with backoff; cells that exhaust their attempts
        land in :attr:`skipped` as ``kind="quarantined"`` entries rather
        than aborting the sweep.
    batch:
        Ship cells in (strategy, instance) packs and sweep every pack the
        batch compiler accepts (default on).  Records are bit-identical
        to the per-cell path — disable only to benchmark the event
        kernel itself.
    batched_cells:
        How many cells of the last ``run()`` the batch backend served
        (cache hits excluded).  Mirrored into the grid manifest.
    resilience:
        Accumulated fault accounting for the last ``run()``: total
        ``retries`` (attempts beyond the first), ``timeouts``, and
        ``quarantined`` cells.  Mirrored into the grid manifest.
    """

    strategies: Sequence[TwoPhaseStrategy | str]
    instances: Sequence[Instance]
    realization_models: Sequence[str | RealizationFactory]
    seeds: Sequence[int] = (0,)
    exact_limit: int = 22
    skipped: list[SkippedCell] = field(default_factory=list)
    progress: ProgressCallback | None = None
    workers: int = 1
    cache: CellCache | None = None
    retry: RetryPolicy = DEFAULT_RETRY
    batch: bool = True
    batched_cells: int = field(default=0, init=False)
    resilience: dict[str, int] = field(
        default_factory=lambda: {"retries": 0, "timeouts": 0, "quarantined": 0}
    )

    def __post_init__(self) -> None:
        if any(isinstance(s, str) for s in self.strategies):
            from repro.registry import make_strategy

            self.strategies = [
                make_strategy(s) if isinstance(s, str) else s
                for s in self.strategies
            ]

    def total_cells(self) -> int:
        """Number of grid cells ``run()`` will attempt."""
        return (
            len(self.instances)
            * len(self.realization_models)
            * len(self.seeds)
            * len(self.strategies)
        )

    def run(self) -> list[ExperimentRecord]:
        tracer = get_tracer()
        total = self.total_cells()
        self.batched_cells = 0
        self.skipped = []
        self.resilience = {"retries": 0, "timeouts": 0, "quarantined": 0}
        with tracer.span(
            "run_grid",
            strategies=len(self.strategies),
            instances=len(self.instances),
            models=len(self.realization_models),
            seeds=len(self.seeds),
            cells=total,
            workers=self.workers,
            cached=self.cache is not None,
        ) as grid_span:
            cells = enumerate_cells(
                self.strategies,
                self.instances,
                self.realization_models,
                self.seeds,
                self.exact_limit,
            )
            cold, hits = self._probe(cells, tracer)
            from repro.faults import inject

            if self.batch and inject.active_spec() is None:
                from repro.analysis.batch import group_packs

                execute, work = execute_packs, group_packs(cold)
            else:
                # The cell-fault injection harness validates the per-cell
                # resilient executor; batching would mask the injected faults.
                execute, work = execute_cells, cold
            computed, traces = execute(
                work, workers=self.workers, traced=tracer.enabled, retry=self.retry
            )
            for wt in traces:
                replay_events(tracer, wt.events, worker=wt.worker)
                merge_registry_summary(tracer.registry, wt.metrics)
            records = self._merge(cells, hits, computed, total)
        if tracer.enabled:
            self._emit_manifest(tracer, records, total, grid_span.duration)
        return records

    def _probe(
        self, cells: list[CellSpec], tracer
    ) -> tuple[list[CellSpec], list[CellOutcome]]:
        """Probe the cache once per cell: (cold cells, cache hits).

        Plans are *not* compiled here — the chunk that runs a pack
        compiles (and verifies) it, and a refused pack runs on the
        per-cell kernel inside that chunk.
        """
        hits: list[CellOutcome] = []
        cold: list[CellSpec] = []
        for spec in cells:
            outcome = self._lookup(spec, tracer)
            if outcome is None:
                cold.append(spec)
            else:
                hits.append(outcome)
        return cold, hits

    def _merge(
        self,
        cells: list[CellSpec],
        hits: list[CellOutcome],
        computed: list[CellOutcome],
        total: int,
    ) -> list[ExperimentRecord]:
        """Store computed outcomes, then fold everything in cell order.

        The fold runs strictly by cell index, so the record list — and
        the order of ``progress`` callbacks — is the same for every
        worker count, whatever order the workers finished in.
        """
        if self.cache is not None:
            for outcome in computed:
                self.cache.put(cells[outcome.index], outcome)
        records: list[ExperimentRecord] = []
        merged = sorted(hits + computed, key=lambda o: o.index)
        for done, outcome in enumerate(merged, start=1):
            self._fold(outcome, done, total, records)
        return records

    def _lookup(self, spec: CellSpec, tracer) -> CellOutcome | None:
        """Cache probe for one cell, with warm-cell counters and event."""
        if self.cache is None:
            return None
        outcome = self.cache.get(spec)
        if outcome is None:
            return None
        # Keep the grid's aggregate counters meaningful on warm runs.
        if outcome.skipped is not None:
            tracer.count("grid.cells_skipped")
        else:
            tracer.count("grid.cells_done")
        tracer.event(
            "grid.cell_cached",
            strategy=spec.strategy.name,
            instance=spec.instance.name,
            model=spec.model_name,
            seed=spec.seed,
        )
        return outcome

    def _fold(
        self,
        outcome: CellOutcome,
        done: int,
        total: int,
        records: list[ExperimentRecord],
    ) -> None:
        """Accumulate one outcome into records/skips and report progress."""
        self.resilience["retries"] += max(0, outcome.attempts - 1)
        self.resilience["timeouts"] += outcome.timed_out
        if outcome.batched:
            self.batched_cells += 1
        if outcome.skipped is not None:
            if outcome.skipped.kind == "quarantined":
                self.resilience["quarantined"] += 1
            self.skipped.append(outcome.skipped)
        elif outcome.record is not None:
            records.append(outcome.record)
        if self.progress is not None:
            self.progress(done, total, outcome.record)

    def _emit_manifest(
        self, tracer, records: list[ExperimentRecord], total: int, duration: float
    ) -> None:
        from repro.registry import capabilities_of, try_describe_strategy

        specs: list[str] = []
        capability_sets: list[list[str] | None] = []
        for s in self.strategies:
            caps = capabilities_of(s)
            specs.append(try_describe_strategy(s) or s.name)
            capability_sets.append(list(caps.flags()) if caps is not None else None)
        params: dict[str, object] = {
            "strategies": [s.name for s in self.strategies],
            "strategy_specs": specs,
            "strategy_capabilities": capability_sets,
            "instances": [i.name for i in self.instances],
            "models": [model_display_name(m) for m in self.realization_models],
            "seeds": list(self.seeds),
            "exact_limit": self.exact_limit,
            "skipped": len(self.skipped),
            "workers": self.workers,
            "batch": self.batch,
            "batched_cells": self.batched_cells,
            "resilience": dict(self.resilience),
        }
        if self.cache is not None:
            params["cache"] = self.cache.stats()
        timers = {
            name: {
                "count": t.count,
                "mean_s": round(t.mean, 6),
                "p50_s": round(t.p50, 6),
                "p90_s": round(t.p90, 6),
                "p99_s": round(t.p99, 6),
                "max_s": round(t.max, 6),
            }
            for name, t in sorted(tracer.registry.timers.items())
            if t.count and not name.startswith("profile.")
        }
        if timers:
            params["timers"] = timers
        profile = [
            {
                "func": name[len("profile."):],
                "cells": t.count,
                "cum_s": round(t.total, 6),
            }
            for name, t in sorted(
                tracer.registry.timers.items(),
                key=lambda item: -item[1].total,
            )
            if name.startswith("profile.") and t.count
        ][:10]
        if profile:
            params["profile"] = profile
        tracer.manifest(
            run_manifest(
                "grid",
                f"{len(records)} records / {total} cells",
                params=params,
                timing={"run_grid_s": duration},
            )
        )


def run_grid(
    strategies: Sequence[TwoPhaseStrategy | str],
    instances: Iterable[Instance],
    realization_models: Sequence[str | RealizationFactory],
    *,
    seeds: Sequence[int] = (0,),
    exact_limit: int = 22,
    progress: ProgressCallback | None = None,
    workers: int = 1,
    cache: CellCache | None = None,
    retry: RetryPolicy = DEFAULT_RETRY,
    batch: bool = True,
) -> list[ExperimentRecord]:
    """One-call wrapper around :class:`ExperimentGrid`."""
    grid = ExperimentGrid(
        strategies=list(strategies),
        instances=list(instances),
        realization_models=list(realization_models),
        seeds=list(seeds),
        exact_limit=exact_limit,
        progress=progress,
        workers=workers,
        cache=cache,
        retry=retry,
        batch=batch,
    )
    return grid.run()
