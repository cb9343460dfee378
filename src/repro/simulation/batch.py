"""Vectorized batch backend: many fault-free simulations in one pass.

The per-event :class:`~repro.simulation.kernel.EventKernel` is the honest
executor — it enforces the information model, validates every dispatch,
and supports faults, releases, and heterogeneous speeds.  But the grid
sweeps behind the paper's empirical artifacts (Figure 3, benches E1–E16)
run the *same* strategy on the *same* instance under dozens of seeds and
realization models.  This module exploits that: it packs the realizations
of one (strategy, instance) pair into a ``(B, n)`` actuals matrix and
compiles the pair into the cheapest *plan* its decision structure admits:

* :class:`BatchPlan` — the closed-form completion sweep for
  :class:`~repro.core.strategy.FixedOrderPolicy` over a machine
  *partition*, and for ABO's fixed phase split (the pinned queues first,
  each on its one machine, then the replicated tasks over every
  machine): ``n`` vectorized argmin+add steps replace ``B × n`` Python
  event cycles.
* :class:`ReplayPlan` — everything with no closed form: a fixed order
  over an *arbitrary* placement (overlapping windows, gaps) and the
  :class:`~repro.core.strategies.selective.PinnedAwarePolicy` families
  (selective/budgeted/capped/risk-aware).  Each row is replayed by
  :func:`_drain`, a lean event loop that calls the policy's own
  ``select``; Phase 1 and all trace/validation overhead are amortized
  across the pack.

**Exactness contract.**  Every plan is bit-identical to the
:class:`EventKernel`, never merely close.  The closed-form sweep performs, per
machine, the *same* IEEE additions in the *same* left-to-right order as
the kernel (each task's end is ``min-load + p_j``; argmin ties go to the
lowest machine index, the kernel's ``t = 0`` seeding order, and
partition/phase-split structure makes later exact ties
makespan-invariant — tied machines are interchangeable for all remaining
work).  The replay runs the kernel's own dispatch decisions and its
event discipline literally: completions surface in ``(time, seq)``
order, completions at a tied time all process before the idle polls
they trigger, and ``t = 0`` polls run in machine order — the exact
``EventQueue`` contract.  ``tests/test_batch.py`` asserts equality
property-style across random instances for every ``supports_batch``
family.

**Eligibility.**  A strategy opts in via the ``supports_batch``
capability flag (:class:`repro.registry.Capabilities`), and
:func:`build_plan` then *verifies* the structure instead of trusting the
flag: the Phase-2 policy must be one of the three compilable types
(:class:`FixedOrderPolicy`, :class:`~repro.memory.abo.ABOPolicy` without
its barrier ablation, :class:`PinnedAwarePolicy`), and ABO's queues must
agree with the placement it was built from.  The allowlist is by exact
type because :func:`_drain`'s view tracks started tasks only (no clock,
no revealed actuals): a policy that reads more must stay on the kernel.
Anything else — adaptive policies with bespoke dispatch, the ABO global
barrier, fault plans, release times — raises :class:`BatchUnsupported`
and the caller falls back to the event kernel, so the flag can never
produce silently-wrong records.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import (
    FixedOrderPolicy,
    OnlinePolicy,
    SchedulerView,
    TwoPhaseStrategy,
)

__all__ = [
    "BatchUnsupported",
    "BatchPlan",
    "ReplayPlan",
    "Plan",
    "supports_batch",
    "build_plan",
    "sweep_makespans",
    "batch_makespans",
]


class BatchUnsupported(RuntimeError):
    """The strategy/instance pair cannot be replayed by the batch sweep.

    Raised by :func:`build_plan` when a structural precondition fails.
    Callers treat this as "use the :class:`EventKernel` instead" — it is
    a routing signal, never an error surfaced to users.
    """


@dataclass(frozen=True)
class BatchPlan:
    """One (strategy, instance) pair compiled for the vectorized sweep.

    Attributes
    ----------
    strategy_name:
        Display name of the compiled strategy (for records and spans).
    placement:
        The Phase-1 placement (computed once, shared by every realization
        in the pack; carries the replication metrics records need).
    order:
        Task ids in the order the sweep places them: the fixed-order
        policy's dispatch order, or ABO's pinned queues then its
        replicated order.
    lo, hi:
        Per-task allowed machine range ``[lo[j], hi[j])`` derived from the
        placement; verified contiguous and partition-structured, or ABO's
        ``[i, i + 1)`` pins and ``[0, m)`` replicas.
    guarantee:
        ``strategy.guarantee(instance)`` if defined, else ``None``.
    """

    strategy_name: str
    placement: Placement
    order: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    guarantee: float | None

    @property
    def instance(self) -> Instance:
        return self.placement.instance


@dataclass(frozen=True)
class ReplayPlan:
    """A strategy whose dispatch has no closed form, replayed per row.

    Each actuals row gets a fresh policy from ``strategy.make_policy``
    and a fresh :class:`~repro.core.strategy.SchedulerView`, and
    :func:`_drain` drives the policy's own ``select`` in the kernel's
    event order.  Serves :class:`~repro.core.strategy.FixedOrderPolicy`
    over a non-partition placement (overlapping or gapped replica sets,
    where an idle machine may legally skip an earlier task it does not
    hold) and every :class:`~repro.core.strategies.selective.PinnedAwarePolicy`
    family.
    """

    strategy_name: str
    placement: Placement
    strategy: TwoPhaseStrategy
    guarantee: float | None

    @property
    def instance(self) -> Instance:
        return self.placement.instance


#: Everything :func:`build_plan` can return; all variants share the
#: ``strategy_name`` / ``placement`` / ``guarantee`` / ``instance`` surface
#: the pack executor consumes.
Plan = Union[BatchPlan, ReplayPlan]


def supports_batch(strategy: TwoPhaseStrategy) -> bool:
    """Whether the registry declares ``strategy`` batch-sweepable.

    Purely the capability lookup — :func:`build_plan` still verifies the
    structure before any batch run.  Unregistered strategies return
    ``False`` (they always take the event kernel).
    """
    from repro.registry import capabilities_of

    caps = capabilities_of(strategy)
    return caps is not None and caps.supports_batch


def build_plan(strategy: TwoPhaseStrategy, instance: Instance) -> Plan:
    """Compile one (strategy, instance) pair into the cheapest plan.

    Runs Phase 1 once (through
    :func:`~repro.analysis.ratios.build_placement`, traced like the
    per-cell path's), builds the Phase-2 policy once, and dispatches on
    its exact type: :class:`FixedOrderPolicy` compiles to the closed-form
    sweep (or the replay when the placement is not a partition),
    ``ABOPolicy`` to the closed-form sweep over its phase split,
    ``PinnedAwarePolicy`` to the replay.  Every closed-form precondition is verified against the
    placement — the capability flag is never trusted.  Raises
    :class:`BatchUnsupported` when the pair must use the event kernel,
    and propagates ``ValueError`` from Phase 1 unchanged (e.g. a group
    strategy whose ``k`` does not divide ``m`` — the same error the
    per-cell path turns into a skipped cell).
    """
    from repro.analysis.ratios import build_placement, guarantee_of
    from repro.core.strategies.selective import PinnedAwarePolicy
    from repro.memory.abo import ABOPolicy

    placement = build_placement(strategy, instance)
    policy = strategy.make_policy(instance, placement)
    guarantee = guarantee_of(strategy, instance)
    if type(policy) is FixedOrderPolicy:
        plan = _compile_fixed_order(strategy, instance, placement, policy, guarantee)
        if plan is not None:
            return plan
    elif type(policy) is ABOPolicy:
        return _compile_phase_split(strategy, instance, placement, policy, guarantee)
    elif type(policy) is not PinnedAwarePolicy:
        raise BatchUnsupported(
            f"{strategy.name}: Phase-2 policy {type(policy).__name__} is not a "
            "FixedOrderPolicy, ABOPolicy, or PinnedAwarePolicy — its dispatch "
            "decisions cannot be compiled or replayed bit-exactly"
        )
    return ReplayPlan(strategy.name, placement, strategy, guarantee)


def _check_permutation(strategy_name: str, tids: list[int], n: int) -> None:
    if sorted(tids) != list(range(n)):
        raise BatchUnsupported(
            f"{strategy_name}: dispatch structure does not cover every one of "
            f"the {n} tasks exactly once"
        )


def _compile_fixed_order(
    strategy: TwoPhaseStrategy,
    instance: Instance,
    placement: Placement,
    policy: FixedOrderPolicy,
    guarantee: float | None,
) -> BatchPlan | None:
    """The closed-form sweep, or ``None`` when the placement is not a
    partition (overlapping or gapped replica sets need the replay)."""
    order = policy.order
    n = instance.n
    _check_permutation(strategy.name, list(order), n)

    # Each distinct set object's range, computed once: a group placement
    # shares one set per group.
    spans: dict[int, tuple[int, int]] = {}
    lo: list[int] = []
    hi: list[int] = []
    for machines in placement.machine_sets:
        span = spans.get(id(machines))
        if span is None:
            a, b = min(machines), max(machines) + 1
            if b - a != len(machines):
                return None  # a gapped set is not a range
            span = spans[id(machines)] = (a, b)
        lo.append(span[0])
        hi.append(span[1])
    # Partition check: distinct ranges must not overlap, otherwise tasks
    # can start out of order (a machine may skip a task it does not hold
    # and run a later one first), which the in-order closed-form sweep
    # cannot express.
    bounds = sorted(set(spans.values()))
    for (_, b_prev), (a_next, _) in zip(bounds, bounds[1:]):
        if a_next < b_prev:
            return None
    return BatchPlan(
        strategy_name=strategy.name,
        placement=placement,
        order=tuple(order),
        lo=tuple(lo),
        hi=tuple(hi),
        guarantee=guarantee,
    )


def _compile_phase_split(
    strategy: TwoPhaseStrategy,
    instance: Instance,
    placement: Placement,
    policy,
    guarantee: float | None,
) -> BatchPlan:
    """ABO's phase split as a :class:`BatchPlan` over one task order.

    Each machine runs its pinned queue back to back from ``t = 0``, so
    its pinned tasks are ranges ``[i, i + 1)`` summed left to right; the
    replicated tasks follow in the policy's global order over ``[0, m)``.
    A machine competes for replicated work exactly when its total load is
    minimal, so the argmin sweep reproduces the kernel's event order
    (``t = 0`` ties go to the lowest machine index, and later exact ties
    are between machines interchangeable for all remaining work).
    """
    if policy.barrier:
        raise BatchUnsupported(
            f"{strategy.name}: the global-barrier Phase 2 stalls machines on "
            "remote pinned state and retires them early — only the event "
            "kernel replays that faithfully"
        )
    n, m = instance.n, instance.m
    all_machines = frozenset(range(m))
    order: list[int] = []
    lo = [0] * n
    hi = [m] * n
    for i, queue in policy.pinned_queues.items():
        if not 0 <= i < m:
            raise BatchUnsupported(
                f"{strategy.name}: pinned queue for unknown machine {i}"
            )
        for j in queue:
            if placement.machines_for(j) != frozenset((i,)):
                raise BatchUnsupported(
                    f"{strategy.name}: task {j} is queued on machine {i} but "
                    "not pinned there by the placement"
                )
            lo[j], hi[j] = i, i + 1
        order.extend(queue)
    replicated = tuple(policy.replicated_order)
    for j in replicated:
        if placement.machines_for(j) != all_machines:
            raise BatchUnsupported(
                f"{strategy.name}: replicated task {j} is not placed on every "
                "machine — the unrestricted argmin would misplace it"
            )
    order.extend(replicated)
    _check_permutation(strategy.name, order, n)
    return BatchPlan(
        strategy_name=strategy.name,
        placement=placement,
        order=tuple(order),
        lo=tuple(lo),
        hi=tuple(hi),
        guarantee=guarantee,
    )


# -- plan execution ---------------------------------------------------------


def sweep_makespans(plan: Plan, actuals: np.ndarray) -> np.ndarray:
    """Execute a compiled plan against a ``(B, n)`` actuals matrix.

    Returns the ``(B,)`` makespans, bit-identical to running each row
    through the event kernel.  Closed-form plans are fully vectorized
    across the batch; replay plans loop the rows through the lean event
    loop (still amortizing Phase 1, policy construction, and all
    per-event trace/validation overhead across the pack).
    """
    if actuals.ndim != 2 or actuals.shape[1] != plan.instance.n:
        raise ValueError(
            f"actuals must be (B, {plan.instance.n}), got {actuals.shape}"
        )
    if isinstance(plan, BatchPlan):
        return _fixed_order_makespans(plan, actuals)
    return _replay_makespans(plan, actuals)


def _fixed_order_makespans(plan: BatchPlan, actuals: np.ndarray) -> np.ndarray:
    """The heap-free completion sweep for partitions and ABO's phase split.

    Machine loads start at zero; each task (in dispatch order) lands on
    the least-loaded machine of its allowed range, ties to the lowest
    index — the event kernel's tie-break.  Each step is one vectorized
    argmin + add across the whole batch, and the additions are
    elementwise (never reduced), so every machine's final load is the
    same left-to-right IEEE sum the event kernel produces.
    """
    B, m = actuals.shape[0], plan.instance.m
    # Machine-major: each machine's loads and each task's actuals are one
    # contiguous row of B values; cell[i, c] = i * B + c is the index of
    # machine i's load in column c within the flat view of ``loads``.
    loads = np.zeros((m, B), dtype=np.float64)
    flat = loads.reshape(-1)
    cell = np.arange(m * B).reshape(m, B)
    by_task = np.ascontiguousarray(actuals.T, dtype=np.float64)
    lo, hi = plan.lo, plan.hi
    for j in plan.order:
        a, b = lo[j], hi[j]
        if b - a == 1:
            # Pinned task: plain elementwise accumulate on one row.
            loads[a] += by_task[j]
        else:
            chosen = loads[a:b].argmin(axis=0)
            chosen *= B
            chosen += cell[a]
            flat[chosen] += by_task[j]
    return loads.max(axis=0)


def _drain(acts: list[float], policy: OnlinePolicy, view: SchedulerView) -> tuple[float, int]:
    """The lean event loop: the kernel's queue discipline on one heap.

    In the regime every plan compiles for — all tasks released at
    ``t = 0``, no faults, unit speeds — the kernel's event queue only
    holds the completions of busy machines plus same-time idle polls.
    ``t = 0`` polls run in machine order (the kernel's seeding); after
    that completions surface in ``(time, seq)`` order, and every
    completion tied at an instant is collected before any of the polls
    it triggers runs, in completion order — the ``EventQueue``'s
    ``(time, kind, seq)`` order, since completions (kind 1) sort before
    idle polls (kind 5).  A ``select`` returning ``None`` retires the
    machine permanently (no releases can wake it), as in the kernel.
    The view only tracks started tasks.  Returns ``(makespan,
    dispatched-task count)``.
    """
    select, mark_started = policy.select, view._mark_started
    heap: list[tuple[float, int, int]] = []
    seq = 0
    t = 0.0
    polls: list[int] | range = range(view.instance.m)
    while True:
        for i in polls:
            tid = select(i, view)
            if tid is not None:
                mark_started(tid, i)
                seq += 1
                heapq.heappush(heap, (t + acts[tid], seq, i))
        if not heap:
            # The last completion popped is the latest one.
            return t, seq
        t, _, i = heapq.heappop(heap)
        polls = [i]
        while heap and heap[0][0] == t:
            polls.append(heapq.heappop(heap)[2])


def _check_drained(plan: Plan, dispatched: int) -> None:
    if dispatched != plan.instance.n:
        from repro.simulation.kernel import SimulationError

        raise SimulationError(
            f"batch replay of {plan.strategy_name} ended with "
            f"{plan.instance.n - dispatched} unscheduled tasks; the policy "
            "retired machines that still had eligible work"
        )


def _replay_makespans(plan: ReplayPlan, actuals: np.ndarray) -> np.ndarray:
    """Drive a fresh policy and view through :func:`_drain` per row."""
    instance, placement = plan.instance, plan.placement
    make_policy = plan.strategy.make_policy
    out = np.empty(actuals.shape[0], dtype=np.float64)
    for b, acts in enumerate(actuals.tolist()):
        policy = make_policy(instance, placement)
        out[b], dispatched = _drain(acts, policy, SchedulerView(instance, placement))
        _check_drained(plan, dispatched)
    return out


def batch_makespans(
    strategy: TwoPhaseStrategy,
    instance: Instance,
    actuals_rows: list[tuple[float, ...]] | np.ndarray,
) -> list[float]:
    """Convenience wrapper: compile + sweep, returning Python floats.

    ``actuals_rows`` is one row of actual durations per realization.
    Raises :class:`BatchUnsupported` exactly when :func:`build_plan` does.
    """
    plan = build_plan(strategy, instance)
    matrix = np.asarray(actuals_rows, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    return [float(v) for v in sweep_makespans(plan, matrix)]
