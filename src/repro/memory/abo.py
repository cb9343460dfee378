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
idle time a global barrier would.  That reading is the pinned-aware rule
of :class:`~repro.core.strategies.selective.PinnedAwarePolicy` once every
pinned task ranks ahead of every replicated one: :func:`abo_tables` lays
it out that way, and the batch replay compiles the same tables.  The
strict global barrier is available as ``barrier=True`` for the ablation
bench: the same policy over the same tables with their ``barrier`` gate
set, which the batch compiler refuses, so it runs on the event kernel.
"""

from __future__ import annotations

from repro._validation import check_delta
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategies.selective import PinnedAwarePolicy, PinnedTables
from repro.core.strategy import OnlinePolicy, TwoPhaseStrategy
from repro.memory.sbo import sbo_split
from repro.registry import Capabilities, Choice, Flag, Float, register_strategy

__all__ = ["ABO", "abo_tables"]


def abo_tables(
    instance: Instance, placement: Placement, barrier: bool = False
) -> PinnedTables:
    """ABO's Phase 2 as :class:`~repro.core.strategies.selective.PinnedTables`.

    Each machine's pinned :math:`S_2` queue and the replicated
    :math:`S_1` order (the candidates) are in LPT-estimate order, and
    every pinned task ranks ahead of every replicated one, so a machine
    runs its own queue before any replicated task.  :math:`S_1` is read
    from ``placement.meta["s1"]``, not from machine-set sizes: at
    ``m = 1`` every set is a singleton and :math:`S_2` still runs first.
    The ranks decide every pick, so the suffix sums are all ``0.0`` (see
    :class:`~repro.core.strategies.selective.PinnedTables`).  ``barrier``
    sets the tables' gate: the strict reading, where no machine takes
    replicated work before every pinned task has started.
    """
    s1 = set(placement.meta["s1"])
    queues: list[list[int]] = [[] for _ in range(instance.m)]
    pinned: list[int] = []
    candidates: list[int] = []
    for j in instance.lpt_order():
        if j in s1:
            candidates.append(j)
        else:
            pinned.append(j)
            queues[min(placement.machines_for(j))].append(j)
    rank = [0] * instance.n
    for pos, j in enumerate(pinned + candidates):
        rank[j] = pos
    suffix = [[0.0] * (len(queue) + 1) for queue in queues]
    return PinnedTables(rank, queues, suffix, candidates, barrier)


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
        return PinnedAwarePolicy(abo_tables(instance, placement, self.barrier))

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
