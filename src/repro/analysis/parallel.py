"""Parallel execution backend for the experiment grid.

Serves every grid-driven paper artifact (benches E1–E16 and the figure
sweeps): :func:`enumerate_cells` flattens a strategies × instances ×
models × seeds sweep into picklable :class:`CellSpec` objects up front;
:func:`execute_packs` (batch packs) and :func:`execute_cells` (event
kernel cells) are thin wrappers over one fan-out that runs chunks over a
``concurrent.futures`` process pool, or inline for one worker.  Results
come back keyed by cell index and are merged in enumeration order, so
the record list is the same for every worker count no matter which
worker finishes first.

Design points:

* **Determinism** — a cell's outcome depends only on its spec (strategy,
  instance, model, seed, exact limit); realizations are resampled
  deterministically inside the worker.  The merge sorts by cell index,
  so ``workers=N`` returns byte-identical records to ``workers=1``.
* **Chunked dispatch** — cells are shipped in contiguous chunks of whole
  packs (``~4`` chunks per worker) to amortize pickling/IPC; one worker
  runs everything as a single chunk.  Every chunk runs the same body with
  one :class:`GroupMemo`, so each (instance, model, seed) realization is
  sampled and its optimum solved once per chunk, whichever path serves
  the cell, and the batch path reads its actuals as one float64 row,
  converted once per chunk however many strategies sweep it.
* **Outcomes as tuples** — a :class:`CellOutcome` is a ``NamedTuple``
  (as is the :class:`~repro.analysis.records.ExperimentRecord` it
  carries), so the batch path builds one per cell with
  ``tuple.__new__`` and a chunk's outcomes pickle as plain tuples.
* **Pickle transport** — the parent pickles each chunk once and the
  worker loads it.  Pickle keeps one object per strategy and per
  instance within a chunk, so the worker groups the chunk's packs into
  the same stacks the parent would.
* **Inline fallback** — a chunk that does not pickle (custom realization
  factories or strategies built from closures) or an unavailable pool
  (restricted environments) runs in-process; callers never have to care.
* **Resilience** — every cell runs under a :class:`RetryPolicy`: a cell
  that raises (or exceeds a per-cell wall-clock timeout) is retried with
  exponential backoff, and a cell that keeps failing is *quarantined* as
  a structured :class:`~repro.analysis.records.SkippedCell` instead of
  aborting the sweep.  A crashed pool chunk falls back inline, so one
  broken worker never loses the run.
* **Worker observability** — when the parent tracer is enabled each
  worker records into a private tracer and ships its metric summary back
  with the results, plus its events when the parent has a sink to write
  them to; :mod:`repro.obs.merge` folds both into the parent tracer.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.analysis import ratios
from repro.analysis.records import ExperimentRecord, SkippedCell
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import TwoPhaseStrategy
from repro.exact.optimal import OptimalValue
from repro.faults import inject
from repro.obs import profiling
from repro.obs.sink import MemorySink
from repro.obs.tracer import get_tracer
from repro.uncertainty.realization import Realization
from repro.uncertainty.stochastic import sample_realization

__all__ = [
    "CellSpec",
    "CellOutcome",
    "CellTimeout",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "WorkerTrace",
    "GroupMemo",
    "enumerate_cells",
    "execute_cells",
    "execute_packs",
    "run_cell",
    "run_cell_resilient",
    "default_chunk_size",
]

RealizationFactory = Callable[[Instance, int], Realization]

#: Ring capacity of each worker's private event buffer.  Workers emit a
#: handful of events per cell, so this comfortably holds the largest
#: chunks while bounding memory on runaway grids.
_WORKER_EVENT_CAPACITY = 100_000

#: Growth of the retry backoff: each retry of a cell sleeps this many
#: times longer than the one before.
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class CellSpec:
    """One grid cell, fully specified and (usually) picklable.

    ``index`` is the cell's position in serial enumeration order — the
    merge key that makes parallel output deterministic.  ``group``
    identifies the (instance, model, seed) realization group so executors
    can sample each realization once per chunk.
    """

    index: int
    group: int
    strategy: TwoPhaseStrategy
    instance: Instance
    model: str | RealizationFactory
    model_name: str
    seed: int
    exact_limit: int

    def realization(self) -> Realization:
        """Sample (deterministically) the realization this cell runs under."""
        if isinstance(self.model, str):
            return sample_realization(self.instance, self.model, self.seed)
        return self.model(self.instance, self.seed)


class CellOutcome(NamedTuple):
    """What one cell produced: a record, or a structured skip.

    ``attempts`` counts how many tries the cell needed (1 = clean first
    run) and ``timed_out`` how many of the failed tries hit the
    :class:`RetryPolicy` wall-clock timeout; both feed the grid's
    resilience accounting.  ``batched`` marks outcomes served by the
    vectorized sweep (:mod:`repro.analysis.batch`) — the grid folds it
    into its ``batched_cells`` counter regardless of which process ran
    the pack.
    """

    index: int
    record: ExperimentRecord | None
    skipped: SkippedCell | None
    duration_s: float
    attempts: int = 1
    timed_out: int = 0
    batched: bool = False


class CellTimeout(RuntimeError):
    """A cell exceeded its :class:`RetryPolicy` wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for grid cells.

    Attributes
    ----------
    max_attempts:
        Total tries per cell (first run included).  After the last failed
        attempt the cell is quarantined as a ``kind="quarantined"``
        :class:`~repro.analysis.records.SkippedCell` instead of raising.
    backoff_s:
        Sleep before the second attempt; each further retry multiplies it
        by :data:`BACKOFF_FACTOR`.  Zero disables sleeping (tests).
    timeout_s:
        Optional per-attempt wall-clock budget.  ``None`` (the default)
        runs the cell directly in the calling thread; a number runs it in
        a daemon thread and abandons it past the deadline.  An abandoned
        attempt keeps executing in the background until it finishes on
        its own — cheap measurement kernels make this acceptable — so
        enable timeouts only for untraced sweeps (a zombie attempt would
        otherwise keep emitting events into the live tracer).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError(f"backoff_s must be finite and >= 0, got {self.backoff_s}")
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ValueError(
                f"timeout_s must be positive and finite, got {self.timeout_s}"
            )


#: The grid's default policy: three attempts, 50 ms then 100 ms backoff,
#: no per-cell timeout (timeouts are opt-in; see ``--cell-timeout``).
DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class WorkerTrace:
    """One worker chunk's observability payload, shipped back over IPC."""

    worker: int
    events: tuple[dict[str, Any], ...]
    metrics: dict[str, Any]


def model_display_name(model: str | RealizationFactory) -> str:
    """The name a model contributes to spans, manifests, and fingerprints."""
    return model if isinstance(model, str) else getattr(model, "__name__", "custom")


def enumerate_cells(
    strategies: Sequence[TwoPhaseStrategy],
    instances: Sequence[Instance],
    realization_models: Sequence[str | RealizationFactory],
    seeds: Sequence[int],
    exact_limit: int,
) -> list[CellSpec]:
    """Flatten the sweep into specs, in the serial loop's nesting order.

    The nesting (instances, then models, then seeds, then strategies)
    matches the historical serial driver, so cell indices — and therefore
    merged output order — are stable across backends.
    """
    cells: list[CellSpec] = []
    index = 0
    group = 0
    for instance in instances:
        for model in realization_models:
            name = model_display_name(model)
            for seed in seeds:
                for strategy in strategies:
                    cells.append(
                        CellSpec(
                            index=index,
                            group=group,
                            strategy=strategy,
                            instance=instance,
                            model=model,
                            model_name=name,
                            seed=seed,
                            exact_limit=exact_limit,
                        )
                    )
                    index += 1
                group += 1
    return cells


class GroupMemo:
    """Realizations and optima of one chunk, keyed by ``spec.group``.

    Every cell of an (instance, model, seed) group runs under the same
    realization and divides by the same optimum, so a chunk samples and
    solves each group once — whether a closed-form pack, a replay pack, a
    refused pack or the per-cell kernel serves the cell.

    It also carries the Phase-1 placement of each pack the batch
    compiler refused, keyed by the identities of its strategy and
    instance, so the pack's cells skip Phase 1 on the kernel path.  The
    entry holds both objects, so neither identity can be reused while
    the memo lives.
    """

    def __init__(self) -> None:
        self.realizations: dict[int, Realization] = {}
        self.rows: dict[int, np.ndarray] = {}
        self.optima: dict[int, OptimalValue] = {}
        self.placements: dict[tuple[int, int], tuple[Any, Any, Placement | None]] = {}

    def share_placement(self, spec: CellSpec, placement: Placement | None) -> None:
        """Keep a refused pack's placement for the pack's kernel cells."""
        key = (id(spec.strategy), id(spec.instance))
        self.placements[key] = (spec.strategy, spec.instance, placement)

    def placement(self, spec: CellSpec) -> Placement | None:
        """The placement shared for this cell's pack, or ``None``."""
        entry = self.placements.get((id(spec.strategy), id(spec.instance)))
        return entry[2] if entry is not None else None

    def realization(self, spec: CellSpec) -> Realization:
        """The group's realization, sampled on first use."""
        realization = self.realizations.get(spec.group)
        if realization is None:
            realization = self.realizations[spec.group] = spec.realization()
        return realization

    def row(self, spec: CellSpec) -> np.ndarray:
        """The group's actuals as one float64 row, converted on first use.

        Every stack that sweeps the group reads this row, so a
        realization's tuple becomes an array once, not once per strategy.
        """
        row = self.rows.get(spec.group)
        if row is None:
            row = self.rows[spec.group] = np.array(
                self.realization(spec).actuals, dtype=np.float64
            )
        return row

    def optimum(
        self, spec: CellSpec, solve: Callable[..., OptimalValue]
    ) -> OptimalValue:
        """The group's optimum, computed by ``solve`` on first use.

        ``solve`` is :func:`repro.exact.optimal.optimal_makespan` as the
        calling module names it, so the benchmark's layer shims
        (``bench/layers.py``) see each solve at its call site.
        """
        optimum = self.optima.get(spec.group)
        if optimum is None:
            optimum = self.optima[spec.group] = solve(
                self.realization(spec).actuals,
                spec.instance.m,
                exact_limit=spec.exact_limit,
            )
        return optimum


def _measure(spec: CellSpec, memo: GroupMemo) -> ExperimentRecord:
    """Run the cell on the event kernel and divide by the group's optimum.

    A cell of a pack the batch compiler refused reuses the pack's
    placement from ``memo``; any other cell runs Phase 1 itself.
    """
    realization = memo.realization(spec)
    outcome = ratios.run_strategy(
        spec.strategy, spec.instance, realization, placement=memo.placement(spec)
    )
    return ExperimentRecord.measured(
        outcome.strategy_name,
        spec.instance,
        realization.label,
        spec.seed,
        outcome.replication,
        outcome.makespan,
        memo.optimum(spec, ratios.optimal_makespan),
        ratios.guarantee_of(spec.strategy, spec.instance),
    )


def run_cell(spec: CellSpec, memo: GroupMemo | None = None) -> CellOutcome:
    """Execute one cell on the event kernel under the current tracer.

    Emits the same instrumentation regardless of which process it runs
    in: a ``grid.cell`` span, ``grid.cells_done``/``grid.cells_skipped``
    counters, a structured ``grid.cell_skipped`` event on incompatible
    pairs, and a per-strategy timer observation.  ``memo`` supplies the
    group's realization and optimum (a fresh one when omitted).  When a
    profiling spec is armed (``--profile`` / ``REPRO_PROFILE_CELLS``) and
    the tracer is enabled, the measurement runs under cProfile and the
    top-N rows land in the span's ``profile`` attribute plus
    ``profile.*`` registry timers (:mod:`repro.obs.profiling`).
    """
    tracer = get_tracer()
    if memo is None:
        memo = GroupMemo()
    profile_spec = profiling.active_spec() if tracer.enabled else None
    start = time.perf_counter()
    record: ExperimentRecord | None = None
    skipped: SkippedCell | None = None
    with tracer.span(
        "grid.cell",
        strategy=spec.strategy.name,
        instance=spec.instance.name,
        model=spec.model_name,
        seed=spec.seed,
    ) as cell_span:
        try:
            if profile_spec is not None:
                record, profile_rows = profiling.profile_call(
                    _measure, spec, memo, top=profile_spec.top
                )
            else:
                profile_rows = []
                record = _measure(spec, memo)
        except ValueError as exc:
            # Group strategies reject m not divisible by k; record the
            # structured skip and move on.
            skipped = SkippedCell(spec.strategy.name, spec.instance.name, str(exc))
            tracer.count("grid.cells_skipped")
            tracer.event(
                "grid.cell_skipped",
                strategy=skipped.strategy,
                instance=skipped.instance,
                error=skipped.error,
            )
            cell_span.set(skipped=True)
        else:
            tracer.count("grid.cells_done")
            cell_span.set(ratio=record.ratio)
            if profile_rows:
                cell_span.set(profile=profile_rows)
                profiling.fold_rows(tracer.registry, profile_rows)
    duration = time.perf_counter() - start
    if tracer.enabled:
        tracer.registry.timer(f"grid.strategy.{spec.strategy.name}").observe(duration)
    return CellOutcome(spec.index, record, skipped, duration)


def _attempt_cell(
    spec: CellSpec, memo: GroupMemo, timeout_s: float | None
) -> CellOutcome:
    """One try of one cell: fault-injection check, then (bounded) run.

    With a timeout the cell runs in a daemon thread; past the deadline
    the thread is abandoned (see :class:`RetryPolicy.timeout_s`) and
    :class:`CellTimeout` is raised for the retry loop to handle.
    """
    inject.check(spec.index)
    if timeout_s is None:
        return run_cell(spec, memo)
    box: list[CellOutcome] = []
    error: list[BaseException] = []

    def _target() -> None:
        try:
            box.append(run_cell(spec, memo))
        except BaseException as exc:  # noqa: BLE001 - reraised in the caller
            error.append(exc)

    thread = threading.Thread(target=_target, daemon=True, name=f"cell-{spec.index}")
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise CellTimeout(
            f"cell {spec.index} ({spec.strategy.name} on {spec.instance.name}) "
            f"exceeded {timeout_s}s"
        )
    if error:
        raise error[0]
    return box[0]


def run_cell_resilient(
    spec: CellSpec,
    memo: GroupMemo | None = None,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> CellOutcome:
    """Run one cell under a retry policy; never raises for cell faults.

    Transient failures (a crashing cell, an injected fault, a timeout)
    are retried up to ``retry.max_attempts`` times with exponential
    backoff, counted as ``grid.cell_retries`` / ``grid.cell_timeouts``
    and traced as ``grid.cell_retry`` events.  A cell that exhausts its
    attempts is *quarantined*: counted as ``grid.cells_quarantined``,
    traced as ``grid.cell_quarantined``, and returned as a structured
    ``kind="quarantined"`` skip so the sweep completes without it.

    ``KeyboardInterrupt``/``SystemExit`` always propagate — resilience
    must not swallow a user abort.
    """
    tracer = get_tracer()
    if memo is None:
        memo = GroupMemo()
    memo.realization(spec)  # sampled once, outside the retried attempts
    timeouts = 0
    delay = retry.backoff_s
    last_error = ""
    for attempt in range(1, retry.max_attempts + 1):
        try:
            outcome = _attempt_cell(spec, memo, retry.timeout_s)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if isinstance(exc, CellTimeout):
                timeouts += 1
                tracer.count("grid.cell_timeouts")
            last_error = f"{type(exc).__name__}: {exc}"
            if attempt < retry.max_attempts:
                tracer.count("grid.cell_retries")
                tracer.event(
                    "grid.cell_retry",
                    strategy=spec.strategy.name,
                    instance=spec.instance.name,
                    attempt=attempt,
                    error=last_error,
                )
                if delay > 0:
                    time.sleep(delay)
                delay *= BACKOFF_FACTOR
            continue
        return outcome._replace(attempts=attempt, timed_out=timeouts)
    tracer.count("grid.cells_quarantined")
    tracer.event(
        "grid.cell_quarantined",
        strategy=spec.strategy.name,
        instance=spec.instance.name,
        attempts=retry.max_attempts,
        error=last_error,
    )
    skipped = SkippedCell(
        spec.strategy.name,
        spec.instance.name,
        last_error,
        kind="quarantined",
        attempts=retry.max_attempts,
    )
    return CellOutcome(
        spec.index, None, skipped, 0.0,
        attempts=retry.max_attempts, timed_out=timeouts,
    )


def _run_chunk(
    cells: Sequence[CellSpec], batched: bool, retry: RetryPolicy
) -> list[CellOutcome]:
    """Run one chunk in this process: the body of every worker and fallback.

    With ``batched`` the cells are regrouped into stacks — the (strategy,
    instance) packs of one strategy on same-shape instances — and each
    stack runs through the vectorized sweep; the cells of a pack the
    batch compiler refuses — or whose compile raises — run through the
    resilient per-cell kernel path here, under the chunk's one memo
    (which carries a refused pack's placement to its cells).
    Lazy import: the batch executor imports this module at module level.
    """
    from repro.analysis import batch

    memo = GroupMemo()
    if not batched:
        return [run_cell_resilient(spec, memo, retry) for spec in cells]
    outcomes: list[CellOutcome] = []
    for stack in batch.group_stacks(cells):
        served, left = batch.execute_pack(stack, memo)
        outcomes += served
        outcomes += [run_cell_resilient(spec, memo, retry) for spec in left]
    return outcomes


def _worker_chunk(
    payload: tuple[bytes, bool, bool, bool, RetryPolicy]
) -> tuple[list[CellOutcome], WorkerTrace | None]:
    """Process-pool entry point: unpickle one chunk and run it, capturing its trace.

    The worker *always* rebuilds its tracer state: with the ``fork``
    start method a child inherits the parent's enabled tracer and open
    sinks, and writing to those would interleave with the parent.  The
    inherited sinks are dropped without closing (closing would flush the
    parent's duplicated buffer — the parent flushes before forking
    instead).  When tracing is on the worker records into a fresh
    registry, and into a private memory sink only when the parent has a
    sink (``events``): a counters-only parent would drop every event.
    """
    chunk, batched, traced, events, retry = payload
    cells = pickle.loads(chunk)
    tracer = get_tracer()
    tracer.enabled = False
    tracer.sinks = []
    sink: MemorySink | None = None
    if traced:
        from repro.obs.metrics import MetricsRegistry

        if events:
            sink = MemorySink(capacity=_WORKER_EVENT_CAPACITY)
            tracer.sinks = [sink]
        tracer.registry = MetricsRegistry()
        tracer._stack = []
        tracer.enabled = True
    try:
        outcomes = _run_chunk(cells, batched, retry)
    finally:
        tracer.enabled = False
    trace: WorkerTrace | None = None
    if traced:
        trace = WorkerTrace(
            worker=os.getpid(),
            events=tuple(ev.as_dict() for ev in sink.events) if sink is not None else (),
            metrics=tracer.registry.summary(),
        )
    return outcomes, trace


def default_chunk_size(n_cells: int, workers: int) -> int:
    """Contiguous cells per dispatch: ~4 chunks per worker, at least 1.

    Small enough to load-balance uneven cell costs, large enough that
    pickling strategies/instances is amortized over many cells.
    """
    if n_cells <= 0:
        return 1
    return max(1, -(-n_cells // max(1, workers * 4)))


def _chunks(packs: Sequence[Sequence[CellSpec]], workers: int) -> list[list[CellSpec]]:
    """Group whole packs into pool dispatches of about equal cell count.

    Packs must ship whole (one compile per pack) and arrive in grid
    enumeration order, which is instance-major — so contiguous filling
    keeps same-instance packs together and their (instance, model, seed)
    realization memos shared within the chunk.  Single-cell packs give
    plain contiguous chunks of :func:`default_chunk_size` cells.
    """
    target = default_chunk_size(sum(len(pack) for pack in packs), workers)
    chunks: list[list[CellSpec]] = []
    current: list[CellSpec] = []
    for pack in packs:
        current.extend(pack)
        if len(current) >= target:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


def _fan_out(
    packs: Sequence[Sequence[CellSpec]],
    batched: bool,
    workers: int,
    traced: bool,
    retry: RetryPolicy,
) -> tuple[list[CellOutcome], list[WorkerTrace]]:
    """Run every pack and return (outcomes sorted by index, worker traces).

    ``workers <= 1`` runs everything as one inline chunk under the
    caller's tracer (no traces to merge).  ``workers > 1`` pickles each
    chunk of whole packs once and ships it to a process pool, one future
    per chunk; chunks that do not pickle, a pool that cannot start, and
    *individual failed chunks* (a worker killed mid-flight, a broken
    pool, a chunk the worker could not load) all run inline instead, so
    the call always completes with the full outcome list.
    """
    if not packs:
        return [], []
    outcomes: list[CellOutcome] = []
    traces: list[WorkerTrace] = []
    inline: list[list[CellSpec]] = []
    remote: list[list[CellSpec]] = []  # chunks kept for failover recovery
    shipped: list[bytes] = []  # their pickles, submitted to the pool
    if workers <= 1:
        inline.append([spec for pack in packs for spec in pack])
    else:
        for chunk in _chunks(packs, workers):
            try:
                shipped.append(pickle.dumps(chunk))
            except Exception:
                inline.append(chunk)
            else:
                remote.append(chunk)
    if remote:
        # A forked child duplicates any buffered sink bytes; flush first so
        # nothing is written twice when the child tears down.
        tracer = get_tracer()
        for sink in tracer.sinks:
            sink.flush()
        events = traced and bool(tracer.sinks)
        done: set[int] = set()
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_worker_chunk, (chunk, batched, traced, events, retry))
                    for chunk in shipped
                ]
                for i, future in enumerate(futures):
                    try:
                        chunk_outcomes, trace = future.result()
                    except Exception:
                        # This chunk's worker died (BrokenProcessPool) or
                        # could not load the chunk; recover just this chunk
                        # inline, where a fault of the chunk itself raises.
                        tracer.count("grid.chunk_failovers")
                        continue
                    done.add(i)
                    outcomes.extend(chunk_outcomes)
                    if trace is not None:
                        traces.append(trace)
        except (ImportError, OSError, PermissionError, RuntimeError):
            # Pool unavailable (sandboxed interpreter, missing semaphores,
            # failed startup ...): every undone chunk runs inline below.
            pass
        inline += [chunk for i, chunk in enumerate(remote) if i not in done]
    for chunk in inline:
        outcomes.extend(_run_chunk(chunk, batched, retry))
    outcomes.sort(key=lambda o: o.index)
    return outcomes, traces


def execute_cells(
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
    traced: bool = False,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> tuple[list[CellOutcome], list[WorkerTrace]]:
    """Run cells on the event kernel; (outcomes sorted by index, worker traces).

    Each cell runs under ``retry`` (see :func:`run_cell_resilient`);
    :func:`_fan_out` describes the worker model and its fallbacks.
    """
    return _fan_out([[spec] for spec in cells], False, workers, traced, retry)


def execute_packs(
    packs: Sequence[Sequence[CellSpec]],
    *,
    workers: int = 1,
    traced: bool = False,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> tuple[list[CellOutcome], list[WorkerTrace]]:
    """Run same-(strategy, instance) packs through the vectorized sweep.

    Outcomes come back index-sorted with the worker traces.  A pack the
    compiler refuses degrades to the per-cell kernel inside its own
    chunk, so one unsupported pack never poisons the others;
    :func:`_fan_out` describes the worker model and its fallbacks.
    """
    return _fan_out(packs, True, workers, traced, retry)
