"""Selective replication — the paper's future-work cost model, implemented.

The conclusion of the paper proposes: "A more realistic model would
introduce a cost of replicating a task (either global or per machine).
This would allow to replicate only some critical tasks and limit memory
usage."  These strategies realize that idea in two flavors:

:class:`SelectiveReplication`
    Replicate the *critical* (largest-estimate) tasks everywhere and pin
    the rest with LPT.  Criticality is a fraction of the task count or of
    the total estimated work.  Intuition: uncertainty hurts most when a
    long task is pinned to an already-loaded machine; short tasks are
    cheap to absorb anywhere.  One replica budget knob, smooth between
    LPT-No Choice (fraction 0) and LPT-No Restriction (fraction 1).

:class:`BudgetedReplication`
    A global replica budget ``B ≥ n`` (each task needs ≥ 1 copy).  Extra
    copies are handed to tasks in non-increasing estimate order, one
    machine at a time, choosing for each new replica the machine with the
    smallest estimated load among machines not yet holding the task.
    Generalizes the fraction knob to exact replica accounting, the unit
    in which a real system would price replication.

Neither strategy carries a proven bound (the paper leaves that open); both
are evaluated empirically in bench E5, where they trace a finer
replication/makespan tradeoff than the group strategy's divisor grid.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import NamedTuple

from repro._validation import check_fraction, check_positive_int
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import OnlinePolicy, SchedulerView, TwoPhaseStrategy
from repro.registry import Capabilities, Choice, Float, Int, register_strategy
from repro.schedulers.lpt import lpt_assignment_by_task

__all__ = [
    "SelectiveReplication",
    "BudgetedReplication",
    "PinnedAwarePolicy",
    "PinnedTables",
    "pinned_tables",
]


class PinnedTables(NamedTuple):
    """What :class:`PinnedAwarePolicy` decides from, fixed by (instance, placement).

    ``rank[j]`` orders task ``j`` against the others (its LPT position,
    from :func:`pinned_tables`); ``queues[i]`` lists the tasks pinned to
    machine ``i`` alone, in dispatch order; ``suffix[i][k]`` is the
    estimate of ``queues[i][k:]`` summed left to right, ending in
    ``0.0``; ``candidates`` lists the tasks several machines may take, in
    dispatch order, which must be rank order (no candidate ranks before
    the one listed ahead of it): the policy stops looking for a
    candidate once the first unstarted one ranks no better than the
    machine's own head.  With ``barrier`` set, a machine whose queue is
    empty takes a candidate only once every machine's queue has started.

    ABO's tables (:func:`repro.memory.abo.abo_tables`) rank every pinned
    task ahead of every candidate, so a machine always runs its own
    queue first and takes a candidate only once its queue is empty,
    whatever the backlogs.  Their ranks decide every pick and the
    backlogs are never compared, so their suffix sums are all ``0.0``.
    Only ABO's strict reading of Phase 2 sets ``barrier``.
    """

    rank: list[int]
    queues: list[list[int]]
    suffix: list[list[float]]
    candidates: list[int]
    barrier: bool = False


def pinned_tables(instance: Instance, placement: Placement) -> PinnedTables:
    """Build :class:`PinnedTables` — the one place the summation contract lives.

    The policy reads them per poll and the batch replay compiles them
    once per pack, so both compare the same floats.
    """
    lpt = instance.lpt_order()
    rank = [0] * instance.n
    for pos, tid in enumerate(lpt):
        rank[tid] = pos
    # Walking the LPT order leaves every queue and the candidates sorted.
    queues: list[list[int]] = [[] for _ in range(instance.m)]
    candidates: list[int] = []
    for j in lpt:
        machines = placement.machines_for(j)
        if len(machines) == 1:
            queues[next(iter(machines))].append(j)
        else:
            candidates.append(j)
    estimates = instance.estimates
    suffix: list[list[float]] = []
    for queue in queues:
        sums = []
        for k in range(len(queue)):
            acc = 0.0
            for j in queue[k:]:
                acc += estimates[j]
            sums.append(acc)
        sums.append(0.0)
        suffix.append(sums)
    return PinnedTables(rank, queues, suffix, candidates)


class PinnedAwarePolicy:
    """Phase-2 dispatch for mixed pinned/replicated placements.

    A naive global-LPT scan has a failure mode when only *some* tasks are
    replicated: at time 0 all machines look identical, so (tie-breaking by
    id) the machines that also hold the heaviest *pinned* queues grab the
    big replicated tasks, doubling up while lightly-pinned machines run
    out of work — the replicated tasks end up *adding* to the worst
    machine instead of filling the valleys.

    This policy makes the dispatch pinned-load-aware: machine ``i`` may
    start a replicated task only if its remaining pinned (estimated) work
    is minimal among the machines that could run that task; otherwise it
    works on its own pinned queue.  When both a pinned and a replicated
    task are available the one earlier in global LPT order wins, so the
    classical big-tasks-first behaviour is preserved.

    Pinned tasks start in queue order on their own machine, so each
    machine's unstarted pinned set is always a suffix of its queue: a
    head pointer per machine replaces the scan, and the remaining pinned
    estimate is a precomputed suffix sum.  The sums are accumulated left
    to right (``math.fsum`` or the compensated ``sum()`` of Python 3.12
    would round differently), so every interpreter compares the same
    floats.  Candidates are listed in rank order, so a low-water mark
    finds the first unstarted one, and when it ranks no better than the
    machine's own head the head wins without a scan.  With the tables'
    ``barrier`` (ABO's strict Phase 2), a machine whose queue is empty
    gets nothing until every queue head has reached its end, and the
    kernel retires it; a count of the leading machines whose queues
    ended makes that test O(m) over a run.  An abort
    (``view.abort_epoch``) reverts a machine's running task to
    unstarted, and a new run brings a new view, so either re-derives the
    marks from the view: one policy object can serve several runs.

    The policy is built from a :class:`PinnedTables`, whoever built it
    (:func:`pinned_tables`, or ABO's own), and refuses tables whose
    candidates are out of rank order (``ValueError``).  It reads the
    placement from the view; the batch replay
    (:mod:`repro.simulation.batch`) compiles the same ``tables`` instead
    of calling ``select``, and leaves barrier tables to the kernel.
    """

    def __init__(self, tables: PinnedTables) -> None:
        ranks = [tables.rank[j] for j in tables.candidates]
        if ranks != sorted(ranks):
            raise ValueError("PinnedTables: candidates must be listed in rank order")
        self.tables = tables
        self._rank, self._queues, self._suffix, self._multi, barrier = tables
        # The barrier gate opens once this many leading queues have all
        # started (0: no gate).
        self._gate = len(self._queues) if barrier else 0
        self._view: SchedulerView | None = None
        self._sets: tuple[frozenset[int], ...] = ()  # the view's machine sets
        self._seen_abort_epoch = 0
        self._head = [0] * len(self._queues)
        self._first_multi = 0  # low-water mark into _multi
        self._queues_done = 0  # leading machines whose queues all started

    def select(self, machine: int, view: SchedulerView) -> int | None:
        started = view.is_started
        if view is not self._view or view.abort_epoch != self._seen_abort_epoch:
            # A new run or an abort: re-derive every mark from the view.
            self._view, self._sets = view, view.placement.machine_sets
            self._seen_abort_epoch = view.abort_epoch
            self._first_multi = self._queues_done = 0
            self._head = heads = []
            for q in self._queues:
                k = 0
                while k < len(q) and started(q[k]):
                    k += 1
                heads.append(k)
        queue, head = self._queues[machine], self._head[machine]
        own = queue[head] if head < len(queue) else None
        multi, first, rank = self._multi, self._first_multi, self._rank
        if own is None:
            if self._queues_done < self._gate and not self._queues_started():
                return None  # the barrier gate is shut
        elif first == len(multi) or rank[multi[first]] >= rank[own]:
            # Candidates are in rank order and the low-water mark only
            # moves forward, so when the candidate at the mark, started or
            # not, ranks no better than the head, none can outrank it.
            self._head[machine] = head + 1
            return own
        while first < len(multi) and started(multi[first]):
            first += 1
        self._first_multi = first
        # The first unstarted candidate this machine may run.
        sets = self._sets
        cand = multi[first] if first < len(multi) else None
        if cand is not None and machine not in sets[cand]:
            cand = None  # a loop, not a generator: see _least_backlog
            for j in islice(multi, first + 1, None):
                if machine in sets[j] and not started(j):
                    cand = j
                    break
        if own is None:
            # An empty queue's backlog, 0.0, is minimal: take it.
            return cand
        if cand is not None and rank[cand] < rank[own]:
            # Eligibility: this machine's pinned backlog must be minimal
            # among the machines that could host the replicated task.
            if self._suffix[machine][head] <= self._least_backlog(sets[cand]) + 1e-12:
                return cand
        self._head[machine] = head + 1
        return own

    def _least_backlog(self, machines: frozenset[int]) -> float:
        """The least remaining pinned estimate over ``machines`` (kept out
        of ``select``, whose locals a generator would turn into cells)."""
        suffix, heads = self._suffix, self._head
        return min(suffix[i][heads[i]] for i in machines)

    def _queues_started(self) -> bool:
        """The barrier gate: whether every queue head reached its end."""
        queues, heads, done = self._queues, self._head, self._queues_done
        while done < len(queues) and heads[done] == len(queues[done]):
            done += 1
        self._queues_done = done
        return done == len(queues)


@register_strategy(
    "selective",
    params=(
        Float(
            "fraction",
            positional=True,
            ge=0.0,
            le=1.0,
            doc="share of tasks (or work) replicated everywhere",
        ),
        Choice(
            "basis",
            values=("count", "work"),
            default="count",
            omit_default=False,
            doc="what the fraction is measured against",
        ),
    ),
    family="core",
    theorem="conclusion: replication-cost model (bench E5)",
    capabilities=Capabilities(
        supports_releases=False, replication_factor="selective"
    ),
    builder=lambda fraction, basis: SelectiveReplication(
        fraction, by_work=basis == "work"
    ),
    extract=lambda s: {
        "fraction": s.fraction,
        "basis": "work" if s.by_work else "count",
    },
)
class SelectiveReplication(TwoPhaseStrategy):
    """Replicate the top tasks everywhere, pin the rest with LPT.

    Parameters
    ----------
    fraction:
        Fraction of *tasks* (by count, largest estimates first) to
        replicate everywhere.  ``0`` degenerates to LPT-No Choice,
        ``1`` to LPT-No Restriction.
    by_work:
        If True, ``fraction`` is interpreted against the total estimated
        *work* instead of the task count: replicate the largest tasks
        until they cover ``fraction`` of :math:`\\sum \\tilde p_j`.
    """

    def __init__(self, fraction: float, *, by_work: bool = False) -> None:
        self.fraction = check_fraction(fraction, "fraction")
        self.by_work = bool(by_work)
        basis = "work" if by_work else "count"
        self.name = f"selective[{self.fraction:g},{basis}]"

    def _critical_set(self, instance: Instance) -> set[int]:
        order = instance.lpt_order()
        if not self.by_work:
            cutoff = round(self.fraction * instance.n)
            return set(order[:cutoff])
        target = self.fraction * instance.total_estimate
        covered = 0.0
        chosen: set[int] = set()
        for j in order:
            if covered >= target:
                break
            chosen.add(j)
            covered += instance.tasks[j].estimate
        return chosen

    def place(self, instance: Instance) -> Placement:
        critical = self._critical_set(instance)
        pinned = [j for j in range(instance.n) if j not in critical]
        all_machines = frozenset(range(instance.m))
        sets: list[frozenset[int]] = [all_machines] * instance.n
        if pinned:
            # Pin the non-critical tasks with LPT *after* accounting for the
            # replicated work: each machine will absorb its share of the
            # critical work online, so pre-load each machine with the
            # average critical work to keep the pinned layer balanced.
            avg_critical = (
                sum(instance.tasks[j].estimate for j in critical) / instance.m
            )
            times = [instance.tasks[j].estimate for j in pinned]
            sub_assign = _lpt_with_offset(times, instance.m, avg_critical)
            for pos, j in enumerate(pinned):
                sets[j] = frozenset((sub_assign[pos],))
        return Placement(
            instance,
            tuple(sets),
            meta={
                "strategy": self.name,
                "critical": tuple(sorted(critical)),
                "pinned": tuple(pinned),
            },
        )

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        return PinnedAwarePolicy(pinned_tables(instance, placement))


def _lpt_with_offset(times: list[float], m: int, offset: float) -> list[int]:
    """LPT where every machine starts with ``offset`` load (uniform offsets
    do not change the greedy's decisions, but keep the code explicit about
    the modelling intent)."""
    order = sorted(range(len(times)), key=lambda j: (-times[j], j))
    heap = [(offset, i) for i in range(m)]
    heapq.heapify(heap)
    assignment = [0] * len(times)
    for j in order:
        load, i = heapq.heappop(heap)
        assignment[j] = i
        heapq.heappush(heap, (load + times[j], i))
    return assignment


@register_strategy(
    "budgeted",
    params=(
        Int("B", attr="budget", ge=1, doc="total replica budget; must be >= n"),
    ),
    family="core",
    theorem="conclusion: replication-cost model (bench E5)",
    capabilities=Capabilities(
        supports_releases=False, replication_factor="budgeted"
    ),
)
class BudgetedReplication(TwoPhaseStrategy):
    """Exact global replica budget; extra copies go to the longest tasks.

    Parameters
    ----------
    budget:
        Total number of data copies across the system; must be ≥ n (every
        task needs one copy).  ``budget = n`` degenerates to LPT-No
        Choice; ``budget = n*m`` to full replication.
    """

    def __init__(self, budget: int) -> None:
        self.budget = check_positive_int(budget, "budget")
        self.name = f"budgeted[B={self.budget}]"

    def place(self, instance: Instance) -> Placement:
        n, m = instance.n, instance.m
        if self.budget < n:
            raise ValueError(
                f"budget must cover one replica per task: budget={self.budget} < n={n}"
            )
        base = lpt_assignment_by_task(list(instance.estimates), m)
        machine_sets = [set((base[j],)) for j in range(n)]
        loads = [0.0] * m
        for j in range(n):
            loads[base[j]] += instance.tasks[j].estimate

        extra = min(self.budget, n * m) - n
        order = instance.lpt_order()
        # Round-robin over the LPT order: give each critical task one more
        # replica per pass so the budget spreads over the heaviest tasks
        # instead of saturating only the single heaviest.
        while extra > 0:
            progressed = False
            for j in order:
                if extra == 0:
                    break
                candidates = [i for i in range(m) if i not in machine_sets[j]]
                if not candidates:
                    continue
                target = min(candidates, key=lambda i: (loads[i], i))
                machine_sets[j].add(target)
                extra -= 1
                progressed = True
            if not progressed:
                break
        return Placement(
            instance,
            tuple(frozenset(s) for s in machine_sets),
            meta={"strategy": self.name, "budget": self.budget},
        )

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        return PinnedAwarePolicy(pinned_tables(instance, placement))
