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
  *partition*: ``k`` machine groups that never interact, each placing
  its own tasks.  One step advances every group in every row at once,
  so a plan costs as many vectorized argmin+add steps as its longest
  group has tasks, not ``n``.  Plans of one strategy on same-shape
  instances sweep together as one *stack*: an ``(R, n)`` matrix holding
  every instance's rows.  A partition strategy's stack also compiles in
  one pass, from each task's group id (see :func:`build_plan`).
* :class:`ReplayPlan` — everything with no closed form: a fixed order
  over an *arbitrary* placement (overlapping windows, gaps) and every
  :class:`~repro.core.strategies.selective.PinnedAwarePolicy`
  (selective/budgeted/capped/risk-aware, and ABO without its barrier,
  whose pinned queues rank ahead of its replicated tasks).  The plan
  holds the tables the policy decides from (ranks, pinned queues with
  their suffix sums, candidates and their allowed machines), built once
  per pack; a fixed order is the same rule with no pinned queues.
  Replay plans of one
  ``(n, m)`` shape stack too, and every row of the stack steps in
  lockstep through the kernel's event order: ``m + n`` vectorized polls
  per stack, whatever its row count.

**Exactness contract.**  Every plan is bit-identical to the
:class:`EventKernel`, never merely close.  The closed-form sweep performs, per
machine, the *same* IEEE additions in the *same* left-to-right order as
the kernel (each task's end is ``min-load + p_j``; argmin ties go to the
lowest machine index, the kernel's ``t = 0`` seeding order, and
partition structure makes later exact ties makespan-invariant — tied
machines are interchangeable for all remaining work).  Padding the
groups to the longest one changes no sum: an empty task slot adds
``+0.0`` to a load that is ``>= +0.0``, and an empty machine slot holds
``+inf`` after the group's real machines, so argmin never picks it.
The replay makes the policy's own decisions, compare for compare, in the
kernel's event order: ``t = 0`` polls run in machine order, then
completions surface in ``(time, seq)`` order, one per step — which polls
tied completions in the order the ``EventQueue`` does, since a
completion changes nothing a policy reads (see :func:`_lockstep_replay`).
``tests/test_batch.py`` asserts equality property-style across random
instances for an exemplar of every registry family.

**Eligibility.**  :func:`build_plan` is the only router.  A stack of a
:class:`~repro.core.strategies.partition.PartitionStrategy` that keeps
the base's ``place`` and ``make_policy`` (:func:`stack_compiles`:
LPT-No Choice, LPT-No Restriction, LS-Group and its LPT ablation)
compiles from its Phase-1 result alone: each task's group among ``k``
equal contiguous machine groups, and the fixed dispatch order, which
is a partition by construction (the tables are still checked to be a
permutation in ``k`` groups).  Any other pair runs Phase 1 and builds
the policy, then checks the pair's structure.  The Phase-2
policy must be one of the two compilable types
(:class:`FixedOrderPolicy`, :class:`PinnedAwarePolicy`), and a
pinned-aware policy's tables, whoever built them, must agree with the
placement: each queued task pinned to exactly its queue's machine, and
the queues plus the candidates a permutation of the tasks; and their
``barrier`` gate, which the replay does not run, must be off.  The
allowlist is by exact type because the replay compiles each policy's
tables, and its rule reads only which tasks started (no clock, no
revealed actuals): a policy that decides otherwise must stay on the
kernel.
Anything else — adaptive policies with bespoke dispatch, ABO's barrier
tables, fault plans, release times — raises :class:`BatchUnsupported`
and the caller falls back to the event kernel, so no pair the sweep
would misread is ever swept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import FixedOrderPolicy, TwoPhaseStrategy

if TYPE_CHECKING:
    from repro.core.strategies.selective import PinnedTables

__all__ = [
    "BatchUnsupported",
    "BatchPlan",
    "ReplayPlan",
    "Plan",
    "build_plan",
    "stack_compiles",
    "sweep_makespans",
    "batch_makespans",
]


class BatchUnsupported(RuntimeError):
    """The strategy/instance pair cannot be replayed by the batch sweep.

    Raised by :func:`build_plan` when a structural precondition fails.
    Callers treat this as "use the :class:`EventKernel` instead" — it is
    a routing signal, never an error surfaced to users.  ``placement`` is
    the Phase-1 placement :func:`build_plan` had built before it refused
    the pair, so the kernel fallback need not run Phase 1 again.
    """

    placement: Placement | None = None


@dataclass(frozen=True)
class BatchPlan:
    """One (strategy, instance) pair compiled for the vectorized sweep.

    Attributes
    ----------
    strategy_name:
        Display name of the compiled strategy (for records and spans).
    instance:
        The compiled instance.
    replication:
        ``max_j |M_j|`` of the pair's placement: the widest group's
        machine count (records carry it).
    machines, tasks:
        The partition's ``k`` groups (verified contiguous and disjoint):
        ``machines[g]`` lists group ``g``'s machines in increasing order,
        padded with ``m`` (an empty machine slot); ``tasks[g]`` lists the
        tasks group ``g`` places, in dispatch order, padded with ``n``
        (an empty task slot).  Both are ``intp`` arrays, ``(k, S)`` and
        ``(k, T)``: the sweep steps all ``k`` groups at once, ``T`` times.
        The plans of one partition stack share ``machines`` and ``T``,
        and a group may hold no task in some of them.
    guarantee:
        ``strategy.guarantee(instance)`` if defined, else ``None``.
    """

    strategy_name: str
    instance: Instance
    replication: int
    machines: np.ndarray
    tasks: np.ndarray
    guarantee: float | None


@dataclass(frozen=True, eq=False)
class ReplayPlan:
    """A strategy whose dispatch has no closed form, compiled to tables.

    Serves :class:`~repro.core.strategies.selective.PinnedAwarePolicy`
    (selective/budgeted/capped/risk-aware/ABO) and
    :class:`~repro.core.strategy.FixedOrderPolicy` over a non-partition
    placement (overlapping or gapped replica sets, where an idle machine
    may legally skip an earlier task it does not hold).  Both decide from
    tables fixed by (instance, placement), built once per pack.  Like a
    :class:`BatchPlan` it carries ``strategy_name``, ``instance``,
    ``replication`` (the placement's ``max_j |M_j|``) and ``guarantee``.

    rank:
        ``(n + 1,)``: each task's rank (LPT, with ABO's pinned tasks
        first; a fixed order: its position), then ``n`` for the empty
        slot.
    queues, suffix:
        ``(Q,)``: every machine's pinned queue in dispatch order, each
        followed by the empty slot ``n``; ``suffix`` holds, at each queue
        position, the pinned estimate left from there on, summed left to
        right (``0.0`` at the empty slot).  ``heads[i]`` is where machine
        ``i``'s queue starts.  A fixed order has no pinned queues.
    candidates, allowed:
        ``(c,)``: the tasks any of several machines may take, in dispatch
        order (a fixed order: all of it), and their ``(c, m)``
        allowed-machine masks.

    :func:`sweep_makespans` runs one poll rule over these tables for
    every row of a stack at once (see :func:`_lockstep_replay`).  The
    rule has no barrier gate yet, so :func:`build_plan` refuses tables
    with ``PinnedTables.barrier`` set (ABO's strict Phase 2); on the
    replay the gate would be one more table the rule reads.
    """

    strategy_name: str
    instance: Instance
    replication: int
    rank: np.ndarray
    queues: np.ndarray
    suffix: np.ndarray
    heads: np.ndarray
    candidates: np.ndarray
    allowed: np.ndarray
    guarantee: float | None


def _replay_plan(
    strategy_name: str,
    placement: Placement,
    tables: PinnedTables,
    guarantee: float | None,
) -> ReplayPlan:
    """Lay :class:`PinnedTables` out as a :class:`ReplayPlan`'s arrays."""
    n, m = placement.instance.n, placement.instance.m
    queues: list[int] = []
    suffix: list[float] = []
    heads: list[int] = []
    for queue, sums in zip(tables.queues, tables.suffix, strict=True):
        heads.append(len(queues))
        queues += queue
        queues.append(n)
        suffix += sums
    sets = placement.machine_sets
    masks = [[i in sets[j] for i in range(m)] for j in tables.candidates]
    return ReplayPlan(
        strategy_name,
        placement.instance,
        placement.max_replication(),
        np.array([*tables.rank, n], dtype=np.intp),
        np.array(queues, dtype=np.intp),
        np.array(suffix, dtype=np.float64),
        np.array(heads, dtype=np.intp),
        np.array(tables.candidates, dtype=np.intp),
        np.array(masks, dtype=bool).reshape(len(masks), m),
        guarantee,
    )


#: Everything :func:`build_plan` can return for one instance; all variants
#: share the ``strategy_name`` / ``instance`` / ``replication`` /
#: ``guarantee`` surface the pack executor consumes.
Plan = Union[BatchPlan, ReplayPlan]


def stack_compiles(strategy: TwoPhaseStrategy) -> bool:
    """Whether :func:`build_plan` compiles a stack of ``strategy`` at once.

    True for a :class:`~repro.core.strategies.partition.PartitionStrategy`
    whose :meth:`place` and :meth:`make_policy` are the base's, so both
    derive from its :meth:`partition`; a subclass overriding either
    compiles pack by pack, through its placement and policy.
    """
    from repro.core.strategies.partition import PartitionStrategy

    cls = type(strategy)
    return (
        isinstance(strategy, PartitionStrategy)
        and cls.place is PartitionStrategy.place
        and cls.make_policy is PartitionStrategy.make_policy
    )


def build_plan(
    strategy: TwoPhaseStrategy, instance: Instance | Sequence[Instance]
) -> Plan | list[BatchPlan]:
    """Compile one (strategy, instance) pair into the cheapest plan, or a
    stack of same-shape instances of a partition strategy.

    One instance: runs Phase 1 once (through
    :func:`~repro.analysis.ratios.build_placement`, traced like the
    per-cell path's), builds the Phase-2 policy once, and dispatches on
    its exact type: :class:`FixedOrderPolicy` compiles to the closed-form
    sweep (or the replay when the placement is not a partition),
    ``PinnedAwarePolicy`` to the replay.  Every precondition is verified
    against the placement, whoever built the strategy.  Raises
    :class:`BatchUnsupported` when the pair must use the event kernel
    (its ``placement`` is the one Phase 1 built), and propagates
    ``ValueError`` from Phase 1 unchanged (e.g. a group strategy whose
    ``k`` does not divide ``m`` — the same error the per-cell path turns
    into a skipped cell).

    A sequence of instances of one ``(n, m)`` shape, for a strategy
    :func:`stack_compiles`: runs each instance's Phase 1
    (:meth:`~repro.core.strategies.partition.PartitionStrategy.partition`)
    under one ``phase1`` span and returns one :class:`BatchPlan` per
    instance, their tables laid out together from the group ids (see
    :func:`_compile_partitions`); no placement or policy is built.
    Raises :class:`BatchUnsupported` for any other strategy, and whatever
    Phase 1 raises.
    """
    if not isinstance(instance, Instance):
        return _compile_partitions(strategy, instance)
    from repro.analysis.ratios import build_placement

    placement = build_placement(strategy, instance)
    try:
        return _compile(strategy, instance, placement)
    except BatchUnsupported as exc:
        exc.placement = placement
        raise


def _compile_partitions(
    strategy: TwoPhaseStrategy, instances: Sequence[Instance]
) -> list[BatchPlan]:
    """:func:`build_plan` on a partition stack: Phase 1 per instance, on
    the heap, then every instance's tables in one NumPy pass."""
    from repro.analysis.ratios import guarantee_of
    from repro.obs.tracer import get_tracer

    if not stack_compiles(strategy):
        raise BatchUnsupported(
            f"{strategy.name}: not a partition strategy; compile it pack by pack"
        )
    n, m = instances[0].n, instances[0].m
    if any((inst.n, inst.m) != (n, m) for inst in instances):
        raise ValueError(f"a stack's instances must share one (n, m) = ({n}, {m})")
    tracer = get_tracer()
    with tracer.span(
        "phase1", strategy=strategy.name, n=n, m=m, instances=len(instances)
    ) as span:
        parts = [strategy.partition(inst) for inst in instances]
        k = parts[0].k
        span.set(replication=m // k)
    tracer.count("phase1.placements", len(instances))
    orders = np.array([p.order for p in parts], dtype=np.intp).reshape(-1, n)
    groups = np.array([p.groups for p in parts], dtype=np.intp).reshape(-1, n)
    if (
        m % k
        or any(p.k != k for p in parts)
        or (np.sort(orders, axis=1) != np.arange(n)).any()
        or groups.min() < 0
        or groups.max() >= k
    ):
        raise BatchUnsupported(
            f"{strategy.name}: a partition is not {k} equal groups of "
            "every task in a dispatch order"
        )
    machines, tasks = _group_tables(
        np.arange(m, dtype=np.intp).reshape(k, m // k), groups, orders
    )
    return [
        BatchPlan(
            strategy.name, inst, m // k, machines, table, guarantee_of(strategy, inst)
        )
        for inst, table in zip(instances, tasks)
    ]


def _group_tables(
    machines: np.ndarray, groups: np.ndarray, orders: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lay out the task tables of a stack of partitions.

    ``machines`` is the ``(k, S)`` machine table; row ``i`` of the
    ``(I, n)`` ``orders`` is instance ``i``'s dispatch order, and
    ``groups[i, pos]`` the group (a row of ``machines``) of task
    ``orders[i, pos]``.  A stable argsort of each row's group ids lists
    every group's tasks in dispatch order; each row's groups are padded
    with ``n`` to the longest group of the stack.  Returns the machine
    table and the ``(I, k, T)`` task tables, without the groups empty in
    every row; a group empty in only some rows keeps its slot there,
    holding only padding, so its machines' loads stay ``+0.0``.
    """
    count, n = groups.shape
    k = machines.shape[0]
    rows = np.arange(count)[:, None]
    by_group = groups.argsort(axis=1, kind="stable")
    gids = groups[rows, by_group]
    sizes = np.bincount((groups + k * rows).ravel(), minlength=count * k)
    sizes = sizes.reshape(count, k)
    first = sizes.cumsum(axis=1) - sizes  # each group's first sorted position
    slot = np.arange(n) - first[rows, gids]
    tasks = np.full((count, k, int(sizes.max())), n, dtype=np.intp)
    tasks[rows, gids, slot] = orders[rows, by_group]
    used = sizes.any(axis=0)
    if used.all():
        return machines, tasks
    return machines[used], tasks[:, used]


def _compile(
    strategy: TwoPhaseStrategy, instance: Instance, placement: Placement
) -> Plan:
    """:func:`build_plan` after Phase 1: dispatch on the policy's exact type."""
    from repro.analysis.ratios import guarantee_of
    from repro.core.strategies.selective import PinnedAwarePolicy, PinnedTables

    policy = strategy.make_policy(instance, placement)
    guarantee = guarantee_of(strategy, instance)
    if type(policy) is PinnedAwarePolicy:
        _check_tables(strategy.name, placement, policy.tables)
        return _replay_plan(strategy.name, placement, policy.tables, guarantee)
    if type(policy) is not FixedOrderPolicy:
        raise BatchUnsupported(
            f"{strategy.name}: Phase-2 policy {type(policy).__name__} is not a "
            "FixedOrderPolicy or PinnedAwarePolicy — its dispatch decisions "
            "cannot be compiled or replayed bit-exactly"
        )
    plan = _compile_fixed_order(strategy, instance, placement, policy, guarantee)
    if plan is not None:
        return plan
    # A fixed order is the pinned-aware rule with no pinned queues: every
    # task is a candidate, ranked by its position in the order.
    order = policy.order
    rank = [0] * instance.n
    for pos, j in enumerate(order):
        rank[j] = pos
    tables = PinnedTables(rank, [[]] * instance.m, [[0.0]] * instance.m, list(order))
    return _replay_plan(strategy.name, placement, tables, guarantee)


def _check_permutation(strategy_name: str, tids: list[int], n: int) -> None:
    if sorted(tids) != list(range(n)):
        raise BatchUnsupported(
            f"{strategy_name}: dispatch structure does not cover every one of "
            f"the {n} tasks exactly once"
        )


def _check_tables(
    strategy_name: str, placement: Placement, tables: PinnedTables
) -> None:
    """Refuse pinned-aware tables the replay would misread.

    The replay has no barrier gate, so barrier tables stay on the
    kernel.  It advances a machine's queue only on that machine, so
    every queued task must be pinned to exactly its queue's machine; and
    every task must be queued or a candidate, once.
    """
    if tables.barrier:
        raise BatchUnsupported(f"{strategy_name}: the barrier gate has no replay yet")
    m = placement.instance.m
    if len(tables.queues) != m:
        raise BatchUnsupported(
            f"{strategy_name}: {len(tables.queues)} pinned queues for {m} machines"
        )
    sets = placement.machine_sets
    for i, queue in enumerate(tables.queues):
        for j in queue:
            if sets[j] != {i}:
                raise BatchUnsupported(
                    f"{strategy_name}: task {j} is queued on machine {i} but "
                    "not pinned there alone by the placement"
                )
    tids = [j for queue in tables.queues for j in queue] + list(tables.candidates)
    _check_permutation(strategy_name, tids, placement.instance.n)


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
    n, m = instance.n, instance.m
    _check_permutation(strategy.name, list(order), n)

    # Each task's machine set must be a range.  Each distinct set
    # object's range is computed once: a group placement shares one set
    # per group.
    sets = placement.machine_sets
    range_of: dict[int, tuple[int, int]] = {}
    ranges: list[tuple[int, int]] = []
    for j in order:
        machines = sets[j]
        bound = range_of.get(id(machines))
        if bound is None:
            a, b = min(machines), max(machines) + 1
            if b - a != len(machines):
                return None  # a gapped set is not a range
            bound = range_of[id(machines)] = (a, b)
        ranges.append(bound)
    # Partition check: distinct ranges must not overlap, otherwise tasks
    # can start out of order (a machine may skip a task it does not hold
    # and run a later one first), which the in-order closed-form sweep
    # cannot express.  Disjoint ranges are groups that never interact.
    bounds = sorted(set(range_of.values()))
    for (_, b_prev), (a_next, _) in zip(bounds, bounds[1:]):
        if a_next < b_prev:
            return None
    group = {bound: g for g, bound in enumerate(bounds)}
    width = max(b - a for a, b in bounds)
    machines, tasks = _group_tables(
        np.array(
            [[*range(a, b), *[m] * (width - (b - a))] for a, b in bounds], dtype=np.intp
        ).reshape(len(bounds), width),
        np.array([[group[bound] for bound in ranges]], dtype=np.intp).reshape(1, n),
        np.array([order], dtype=np.intp).reshape(1, n),
    )
    return BatchPlan(strategy.name, instance, width, machines, tasks[0], guarantee)


# -- plan execution ---------------------------------------------------------


def sweep_makespans(
    plan: Plan | Sequence[Plan],
    actuals: np.ndarray,
    rows: Sequence[int] | None = None,
) -> np.ndarray:
    """Execute compiled plans against an ``(R, n)`` actuals matrix.

    ``plan`` is one plan, which sweeps every row, or a *stack*: plans of
    one ``(n, m)`` shape and one kind — all closed-form or all replay —
    where plan ``i`` sweeps the next ``rows[i]`` rows.  Returns the ``(R,)`` makespans,
    bit-identical to running each row through the event kernel.  Both
    kinds step every row of the stack at once: closed-form plans one
    argmin + add per task of their longest machine group, replay plans
    one poll per machine and then one per completion.
    """
    plans = [plan] if isinstance(plan, (BatchPlan, ReplayPlan)) else list(plan)
    n, m = plans[0].instance.n, plans[0].instance.m
    if actuals.ndim != 2 or actuals.shape[1] != n:
        raise ValueError(f"actuals must be (R, {n}), got {actuals.shape}")
    if rows is None and len(plans) == 1:
        rows = [actuals.shape[0]]
    if rows is None or len(rows) != len(plans) or sum(rows) != actuals.shape[0]:
        raise ValueError(
            f"a stack of {len(plans)} plans needs one row count per plan, "
            f"summing to the {actuals.shape[0]} rows of actuals; got {rows}"
        )
    kind = type(plans[0])
    for p in plans:
        if type(p) is not kind:
            raise TypeError(
                f"{p.strategy_name}: a stack mixes closed-form and replay plans; "
                "sweep each kind in its own call"
            )
        if (p.instance.n, p.instance.m) != (n, m):
            raise ValueError(f"a stack's plans must share one (n, m) = ({n}, {m})")
    if kind is ReplayPlan:
        return _lockstep_replay(plans, actuals, rows)
    return _lockstep_makespans(plans, actuals, rows)


def _lockstep_makespans(
    plans: Sequence[BatchPlan], actuals: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """The heap-free completion sweep for partitions.

    Machine loads start at zero; each task (in its group's dispatch
    order) lands on the least-loaded machine of its group, ties to the
    lowest index — the event kernel's tie-break.  Each row's loads sit
    in ``(R, k, S)`` group slots laid out from its own plan's machine
    table, and every group of every row takes one step per vectorized
    argmin + add.  The additions are elementwise (never reduced), so
    every machine's final load is the same left-to-right IEEE sum the
    event kernel produces.
    """
    R, n = actuals.shape
    m = plans[0].instance.m
    k = max(p.machines.shape[0] for p in plans)
    width = max(p.machines.shape[1] for p in plans)
    steps = max(p.tasks.shape[1] for p in plans)
    # Column n of the actuals is the +0.0 an empty task slot adds.
    padded = np.zeros((R, n + 1))
    padded[:, :n] = actuals
    slots = np.full((R, k, width), m, dtype=np.intp)
    acts = np.zeros((steps, R, k))
    edges = np.cumsum([0, *rows]).tolist()
    for p, r0, r1 in zip(plans, edges, edges[1:]):
        groups, size = p.machines.shape
        slots[r0:r1, :groups, :size] = p.machines
        block = padded[r0:r1, p.tasks.T]  # (rows, T, groups)
        acts[: p.tasks.shape[1], r0:r1, :groups] = block.swapaxes(0, 1)
    # An empty machine slot holds +inf, so argmin never picks it.
    real = slots < m
    loads = np.where(real, 0.0, np.inf)
    _step(loads, acts)
    return np.where(real, loads, 0.0).max(axis=(1, 2))


def _step(loads: np.ndarray, acts: np.ndarray) -> None:
    """Place ``acts[t]`` (one task per row and group) for every step ``t``.

    ``loads`` is ``(R, k, S)``: each row's group slots, real machines
    first.  Each step adds a task's actual to the least-loaded slot of
    its group, through one flat index per (row, group); the indices are
    distinct by construction, so no position is written twice.
    """
    R, k, width = loads.shape
    if width == 1:
        # One machine per group: a plain elementwise accumulate.
        column = loads.reshape(R, k)
        for a in acts:
            column += a
        return
    flat = loads.reshape(-1)
    base = np.arange(0, R * k * width, width).reshape(R, k)
    for a in acts:
        chosen = loads.argmin(axis=2)
        chosen += base
        flat[chosen] += a


def _lockstep_replay(
    plans: Sequence[ReplayPlan], actuals: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """The lockstep replay: every row of a replay stack steps together.

    Each row runs the kernel's event order on its own plan's tables.  A
    row has at most one pending completion per machine, so the stack's
    event queues are an ``(m, R)`` array of completion times (``+inf``:
    idle) and one of dispatch sequence keys.  First every machine
    polls at ``t = 0``, in machine order (the kernel's seeding); then,
    ``n`` times, every row pops its least ``(time, seq)`` completion and
    polls that machine.  One completion per step gives what the kernel's
    batching of tied completions gives: a completion changes nothing the
    rule reads (only which tasks started), and a new dispatch's seq
    exceeds every pending one, so tied completions still poll in seq
    order.  The ``n``-th pop is the last completion, so its time is the
    makespan, and the poll it would trigger is skipped.

    A poll is :class:`~repro.core.strategies.selective.PinnedAwarePolicy`'s
    ``select``, for all rows at once: the machine's own queue head, the
    first unstarted candidate it may run, and the candidate wins when
    the machine's remaining pinned estimate is at most the least among
    the candidate's machines (``+ 1e-12``) and its rank is lower.  With
    no pinned queues (a fixed order) the test reads ``0.0 <= 0.0 +
    1e-12`` and the rule is :class:`FixedOrderPolicy`'s first unstarted
    allowed task.  ``t + acts[tid]`` and the compare are the same IEEE
    double operations the kernel and the policy perform.  A machine the
    rule gives nothing stays idle for good, as in the kernel; a row whose
    machines all idle with tasks left pops ``+inf``, and the replay
    raises :class:`~repro.simulation.kernel.SimulationError`.
    """
    R, n = actuals.shape
    m = plans[0].instance.m
    plan_of = np.repeat(np.arange(len(plans)), rows)
    row = np.arange(R)
    # Per-machine state is laid out (m, R), so the reductions over a row's
    # machines run down axis 0; row r's machine i is "slot" i * R + r.
    # Every plan's queues lie side by side: a row's queue positions point
    # into its own plan's stretch, each queue ending in the empty slot n.
    offsets = np.cumsum([0] + [p.queues.size for p in plans[:-1]])
    queues = np.concatenate([p.queues for p in plans])
    suffix = np.concatenate([p.suffix for p in plans])
    queue_rank = np.concatenate([p.rank[p.queues] for p in plans])
    heads = np.stack([p.heads + off for p, off in zip(plans, offsets)])
    pos = heads[plan_of].T.copy()  # each machine's queue head
    # Candidates padded with the empty slot n (rank n, allowed everywhere),
    # so each row finds one; column k of a row is free while unstarted.
    # Plan p's column k is read at p * width + k.
    width = max(p.candidates.size for p in plans) + 1
    candidates = np.full((len(plans), width), n, dtype=np.intp)
    candidate_rank = np.full((len(plans), width), n, dtype=np.intp)
    hosts = np.ones((len(plans), width, m), dtype=bool)
    for i, p in enumerate(plans):
        c = p.candidates.size
        candidates[i, :c] = p.candidates
        candidate_rank[i, :c] = p.rank[p.candidates]
        hosts[i, :c] = p.allowed
    # choices[slot]: the candidates that machine may run in that row.
    choices = hosts.transpose(2, 0, 1)[:, plan_of].reshape(m * R, width)
    candidates, candidate_rank = candidates.reshape(-1), candidate_rank.reshape(-1)
    hosts = hosts.reshape(-1, m)
    free = np.ones((R, width), dtype=bool)
    # Column n of the actuals is the +inf an empty dispatch completes at.
    acts = np.empty((R, n + 1))
    acts[:, :n] = actuals
    acts[:, n] = np.inf
    # A pending completion's key is seq * m * R + slot: among a row's tied
    # completions the least key has the least seq, and names its slot.
    ends = np.full((m, R), np.inf)
    keys = np.zeros((m, R), dtype=np.int64)
    flat_pos, flat_ends, flat_keys = pos.reshape(-1), ends.reshape(-1), keys.reshape(-1)
    flat_free, flat_acts = free.reshape(-1), acts.reshape(-1)
    row_free, row_acts, plan_base = row * width, row * (n + 1), plan_of * width
    slots = m * R
    least_of, never = np.minimum.reduce, np.iinfo(np.int64).max

    def poll(slot: np.ndarray, t: np.ndarray, seq: int) -> None:
        head = flat_pos[slot]
        own = queues[head]  # n: the machine's queue has run out
        avail = choices.take(slot, axis=0)
        avail &= free
        k = avail.argmax(axis=1)  # a padding column: no candidate
        column = plan_base + k
        # The least remaining pinned estimate over the candidate's machines.
        mask = hosts.take(column, axis=0).T
        least = least_of(np.where(mask, suffix[pos], np.inf), axis=0)
        take = suffix[head] <= least + 1e-12
        take &= candidate_rank[column] < queue_rank[head]
        keep = ~take
        flat_free[row_free + k] = keep
        tid = np.where(take, candidates[column], own)
        flat_pos[slot] = head + (keep & (own != n))
        flat_ends[slot] = t + flat_acts[row_acts + tid]
        flat_keys[slot] = slot + seq * slots

    t = np.zeros(R)
    for i in range(m):
        poll(row + i * R, t, i)
    for step in range(n):
        t = least_of(ends, axis=0)
        if step == n - 1:
            break
        key = least_of(np.where(ends == t, keys, never), axis=0)
        poll(key % slots, t, m + step)
    stuck = ~np.isfinite(t)
    if stuck.any():
        from repro.simulation.kernel import SimulationError

        plan = plans[int(plan_of[stuck.argmax()])]
        raise SimulationError(
            f"batch replay of {plan.strategy_name} on {plan.instance.name} "
            "ended with unscheduled tasks; the policy retired machines that "
            "still had eligible work"
        )
    return t


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
