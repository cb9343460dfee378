"""The :math:`SABO_\\Delta` algorithm (Section 6.1, Theorems 5 and 6).

*Static Asymmetric Bi-Objective*: Phase 1 runs the :math:`SBO_\\Delta`
split on the estimates and pins every task to the machine its side's
reference schedule chose — memory-intensive tasks (:math:`S_2`) to their
:math:`\\pi_2` machine, time-intensive tasks (:math:`S_1`) to their
:math:`\\pi_1` machine.  No replication: :math:`|M_j| = 1` for all tasks.
Phase 2 has no decisions left (like LPT-No Choice).

Guarantees under uncertainty:

* makespan (Th. 5): :math:`(1+\\Delta)\\,\\alpha^2 \\rho_1`,
* memory (Th. 6): :math:`(1+1/\\Delta)\\,\\rho_2` — memory does not
  depend on the realization at all, so this is the certain-model bound.
"""

from __future__ import annotations

from repro._validation import check_delta
from repro.core.model import Instance
from repro.core.placement import Placement, single_machine_placement
from repro.core.strategy import FixedOrderPolicy, OnlinePolicy, TwoPhaseStrategy
from repro.memory.sbo import sbo_split
from repro.registry import Capabilities, Choice, Float, register_strategy

__all__ = ["SABO"]


@register_strategy(
    "sabo",
    params=(
        Float("delta", gt=0.0, doc="threshold Δ trading makespan vs memory"),
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
    theorem="Theorems 5–6",
    capabilities=Capabilities(
        memory_aware=True, replication_factor="none"
    ),
)
class SABO(TwoPhaseStrategy):
    """Static asymmetric bi-objective strategy.

    Parameters
    ----------
    delta:
        Threshold Δ > 0 trading makespan guarantee against memory
        guarantee.
    pi1_method:
        Which ρ₁-approximate makespan scheduler builds π₁
        (see :data:`repro.memory.model.PI1_METHODS`).
    """

    def __init__(self, delta: float, *, pi1_method: str = "lpt") -> None:
        self.delta = check_delta(delta)
        self.pi1_method = pi1_method
        self.name = f"sabo[delta={self.delta:g}]"

    def place(self, instance: Instance) -> Placement:
        split = sbo_split(instance, self.delta, pi1_method=self.pi1_method)
        assignment = split.combined_assignment()
        return single_machine_placement(
            instance,
            assignment,
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
        # Static: every task pinned, order irrelevant to the makespan.
        return FixedOrderPolicy(instance.lpt_order())

    # -- guarantees ------------------------------------------------------------
    def makespan_guarantee(self, instance: Instance, *, rho1: float | None = None) -> float:
        """Theorem 5: :math:`(1+\\Delta)\\alpha^2\\rho_1` at this Δ."""
        from repro.core.bounds import sabo_makespan_guarantee
        from repro.memory.model import pi1_rho

        r1 = rho1 if rho1 is not None else pi1_rho(self.pi1_method, instance.m)
        return sabo_makespan_guarantee(instance.alpha, r1, self.delta)

    def memory_guarantee(self, instance: Instance, *, rho2: float | None = None) -> float:
        """Theorem 6: :math:`(1+1/\\Delta)\\rho_2` at this Δ."""
        from repro.core.bounds import sabo_memory_guarantee
        from repro.memory.model import _rho_lpt

        r2 = rho2 if rho2 is not None else _rho_lpt(instance.m)
        return sabo_memory_guarantee(r2, self.delta)
