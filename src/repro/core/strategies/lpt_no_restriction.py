"""Strategy 2 — **LPT-No Restriction** (Section 5.2, Theorem 3).

Phase 1 replicates every task's data on every machine
(:math:`|M_j| = m`), buying maximum runtime flexibility at maximum
replication cost.  Phase 2 runs LPT *online*: tasks sorted by
non-increasing estimate; whenever a machine becomes idle (actual durations
drive idleness) it receives the next unscheduled task in that order.

Guarantee (Theorem 3 + the List-Scheduling fallback): :math:`\\min\\bigl(
1 + \\frac{m-1}{m}\\frac{\\alpha^2}{2},\\ 2 - \\frac1m\\bigr)` — better
than Graham's bound exactly when :math:`\\alpha^2 < 2`.
"""

from __future__ import annotations

from repro.core.model import Instance
from repro.core.placement import Placement, everywhere_placement
from repro.core.strategies.partition import Partition, PartitionStrategy
from repro.registry import Capabilities, SweepRule, register_strategy

__all__ = ["LPTNoRestriction"]


@register_strategy(
    "lpt_no_restriction",
    family="core",
    theorem="Theorem 3",
    capabilities=Capabilities(replication_factor="full", online_placement=True),
    sweep=SweepRule(order=1, enumerate=lambda m: ["lpt_no_restriction"]),
)
class LPTNoRestriction(PartitionStrategy):
    """Replicate everywhere; dispatch online in LPT order of the estimates.

    ``replication = m`` (the most expensive placement), guarantee
    :func:`repro.core.bounds.ub_lpt_no_restriction`.
    """

    name = "lpt_no_restriction"

    def group_count(self, instance: Instance) -> int:
        return 1

    def dispatch_order(self, instance: Instance) -> list[int]:
        return instance.lpt_order()

    def _placement(self, instance: Instance, partition: Partition) -> Placement:
        return everywhere_placement(instance, meta={"strategy": self.name})

    def guarantee(self, instance: Instance) -> float:
        """Combined Strategy-2 bound at this instance's parameters."""
        from repro.core.bounds import ub_lpt_no_restriction

        return ub_lpt_no_restriction(instance.alpha, instance.m)
