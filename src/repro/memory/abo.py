"""The :math:`ABO_\\Delta` algorithm (Section 6.2, Theorems 7 and 8).

*Asymmetric Bi-Objective*: like SABO, Phase 1 splits the tasks with the
:math:`SBO_\\Delta` threshold, but the time-intensive set :math:`S_1` is
**replicated on every machine** instead of pinned.  Phase 2 first honors
the pinned memory-intensive tasks (:math:`S_2`, per :math:`\\pi_2`), then
dispatches the replicated :math:`S_1` tasks with Graham's online List
Scheduling as machines free up.

The replication buys load-balancing for exactly the tasks whose *time*
dominates — the ones uncertainty hurts — while charging memory only for
the tasks whose sizes are (relatively) small.

Guarantees:

* makespan (Th. 7): :math:`2 - 1/m + \\Delta\\,\\alpha^2\\rho_1`,
* memory (Th. 8): :math:`(1 + m/\\Delta)\\,\\rho_2` (the :math:`m`
  reflects charging every machine for each replicated task).

Phase-2 precedence note: the paper schedules the replicated tasks "after
all the memory intensive tasks are scheduled".  We implement the
work-conserving per-machine reading — a machine takes replicated work as
soon as *its own* pinned queue is empty — which matches the proof's use of
the List-Scheduling property on :math:`C^R_{max}` and never inserts the
idle time a global barrier would.  The strict global barrier is available
as ``barrier=True`` for the ablation bench.
"""

from __future__ import annotations

from repro._validation import check_delta
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import OnlinePolicy, SchedulerView, TwoPhaseStrategy
from repro.memory.sbo import sbo_split
from repro.registry import Capabilities, Choice, Flag, Float, register_strategy

__all__ = ["ABO", "ABOPolicy"]


class ABOPolicy:
    """Phase-2 policy of ABO: pinned :math:`S_2` first, then LS over :math:`S_1`.

    Pinned tasks are dispatched in LPT-estimate order within each machine's
    own queue; replicated tasks in LPT-estimate order globally (any fixed
    order preserves the LS analysis; LPT order also gives the policy the
    LPT-No-Restriction behaviour on the replicated set).

    Each pick is the first unstarted task of a fixed list, and a started
    task stays started until an abort (machine-failure extension), so a
    low-water mark per list stands in for the scan: a head per pinned
    queue, one into the replicated order, and, for the barrier, the
    number of machines (in queue order) whose pinned queues have all
    started.  A poll then costs O(1) amortized, and the barrier test
    O(m) amortized over a run.  An abort bumps ``view.abort_epoch`` and
    reverts a task to unstarted, and a new run brings a new view, so
    either resets the marks to the front of their lists.
    """

    def __init__(
        self,
        pinned_queues: dict[int, list[int]],
        replicated_order: list[int],
        *,
        barrier: bool = False,
    ) -> None:
        self._pinned = {i: list(q) for i, q in pinned_queues.items()}
        self._replicated = list(replicated_order)
        self._barrier = barrier
        self._machines = list(self._pinned)  # the barrier's scan order
        self._view: SchedulerView | None = None
        self._seen_abort_epoch = 0
        self._heads: dict[int, int] = {}
        self._first_replicated = 0
        self._machines_done = 0  # leading _machines whose queues all started

    @property
    def pinned_queues(self) -> dict[int, tuple[int, ...]]:
        """Per-machine pinned dispatch queues (read-only view).

        The batch backend (:mod:`repro.simulation.batch`) compiles these,
        together with :attr:`replicated_order`, into one task order for
        its closed-form completion sweep instead of replaying events.
        """
        return {i: tuple(q) for i, q in self._pinned.items()}

    @property
    def replicated_order(self) -> tuple[int, ...]:
        """The fixed global dispatch order of the replicated tasks."""
        return tuple(self._replicated)

    @property
    def barrier(self) -> bool:
        """Whether the strict global-barrier ablation is active."""
        return self._barrier

    def select(self, machine: int, view: SchedulerView) -> int | None:
        if view is not self._view or view.abort_epoch != self._seen_abort_epoch:
            self._view = view
            self._seen_abort_epoch = view.abort_epoch
            self._heads = dict.fromkeys(self._pinned, 0)
            self._first_replicated = 0
            self._machines_done = 0
        started = view.is_started
        queue = self._pinned.get(machine)
        if queue is not None:
            head = self._advance_head(machine, started)
            if head < len(queue):
                return queue[head]
        if self._barrier:
            # Global barrier variant: replicated work only once *every*
            # pinned task has started.
            machines = self._machines
            while self._machines_done < len(machines):
                i = machines[self._machines_done]
                if self._advance_head(i, started) < len(self._pinned[i]):
                    return None
                self._machines_done += 1
        replicated = self._replicated
        pos = self._first_replicated
        while pos < len(replicated) and started(replicated[pos]):
            pos += 1
        self._first_replicated = pos
        return replicated[pos] if pos < len(replicated) else None

    def _advance_head(self, machine: int, started) -> int:
        """Move ``machine``'s head past its started pinned tasks; return it."""
        queue, head = self._pinned[machine], self._heads[machine]
        while head < len(queue) and started(queue[head]):
            head += 1
        self._heads[machine] = head
        return head


@register_strategy(
    "abo",
    params=(
        Float("delta", gt=0.0, doc="threshold Δ trading makespan vs memory"),
        Flag("barrier", doc="strict global-barrier Phase 2 (ablation)"),
        Choice(
            "pi1",
            values=("lpt", "multifit"),
            attr="pi1_method",
            default="lpt",
            bare=False,
            doc="which ρ₁-approximate scheduler builds π₁",
        ),
    ),
    family="memory",
    theorem="Theorems 7–8",
    capabilities=Capabilities(
        supports_releases=False,
        memory_aware=True,
        replication_factor="selective",
        supports_batch=True,
    ),
)
class ABO(TwoPhaseStrategy):
    """Asymmetric bi-objective strategy with replication of time-intensive tasks.

    Parameters
    ----------
    delta:
        Threshold Δ > 0.
    pi1_method:
        ρ₁-approximate scheduler used to build π₁ (affects only the split
        threshold — the replicated tasks are *dispatched* by online LS).
    barrier:
        Use the strict global-barrier reading of Phase 2 (ablation only).
    """

    def __init__(
        self, delta: float, *, pi1_method: str = "lpt", barrier: bool = False
    ) -> None:
        self.delta = check_delta(delta)
        self.pi1_method = pi1_method
        self.barrier = barrier
        suffix = ",barrier" if barrier else ""
        self.name = f"abo[delta={self.delta:g}{suffix}]"

    def place(self, instance: Instance) -> Placement:
        split = sbo_split(instance, self.delta, pi1_method=self.pi1_method)
        all_machines = frozenset(range(instance.m))
        singletons = [frozenset((i,)) for i in range(instance.m)]
        sets: list[frozenset[int]] = [frozenset()] * instance.n
        for j in split.s1:
            sets[j] = all_machines
        for j in split.s2:
            sets[j] = singletons[split.pi2.assignment[j]]
        return Placement(
            instance,
            tuple(sets),
            meta={
                "strategy": self.name,
                "s1": split.s1,
                "s2": split.s2,
                "rho1": split.pi1.rho,
                "rho2": split.pi2.rho,
                "pi1_objective": split.pi1.objective,
                "pi2_objective": split.pi2.objective,
            },
        )

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        s1 = placement.meta["s1"]
        s2 = placement.meta["s2"]
        lpt_rank = {tid: pos for pos, tid in enumerate(instance.lpt_order())}
        pinned: dict[int, list[int]] = {}
        for j in s2:
            machine = next(iter(placement.machines_for(j)))
            pinned.setdefault(machine, []).append(j)
        for q in pinned.values():
            q.sort(key=lambda j: lpt_rank[j])
        replicated = sorted(s1, key=lambda j: lpt_rank[j])
        return ABOPolicy(pinned, replicated, barrier=self.barrier)

    # -- guarantees -----------------------------------------------------------------
    def makespan_guarantee(self, instance: Instance, *, rho1: float | None = None) -> float:
        """Theorem 7: :math:`2 - 1/m + \\Delta\\alpha^2\\rho_1` at this Δ."""
        from repro.core.bounds import abo_makespan_guarantee
        from repro.memory.model import pi1_rho

        r1 = rho1 if rho1 is not None else pi1_rho(self.pi1_method, instance.m)
        return abo_makespan_guarantee(instance.alpha, r1, self.delta, instance.m)

    def memory_guarantee(self, instance: Instance, *, rho2: float | None = None) -> float:
        """Theorem 8: :math:`(1 + m/\\Delta)\\rho_2` at this Δ."""
        from repro.core.bounds import abo_memory_guarantee
        from repro.memory.model import _rho_lpt

        r2 = rho2 if rho2 is not None else _rho_lpt(instance.m)
        return abo_memory_guarantee(r2, self.delta, instance.m)
