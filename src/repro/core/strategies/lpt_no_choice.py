"""Strategy 1 — **LPT-No Choice** (Section 5.1, Theorem 2).

Phase 1 places each task's data on exactly one machine using LPT on the
*estimated* processing times: tasks sorted by non-increasing
:math:`\\tilde p_j`, each assigned to the machine with the least estimated
load so far.  With :math:`|M_j| = 1` there is nothing left to decide in
Phase 2 — each machine simply runs its pinned tasks.

Guarantee (Theorem 2): :math:`C_{max}/C^*_{max} \\le
\\frac{2\\alpha^2 m}{2\\alpha^2 + m - 1}`, against the Theorem-1
impossibility of :math:`\\frac{\\alpha^2 m}{\\alpha^2 + m - 1}` for any
no-replication algorithm.
"""

from __future__ import annotations

from repro.core.model import Instance
from repro.core.placement import Placement, single_machine_placement
from repro.core.strategies.partition import Partition, PartitionStrategy
from repro.registry import Capabilities, SweepRule, register_strategy

__all__ = ["LPTNoChoice"]


@register_strategy(
    "lpt_no_choice",
    family="core",
    theorem="Theorem 2",
    capabilities=Capabilities(replication_factor="none", online_placement=True),
    sweep=SweepRule(order=0, enumerate=lambda m: ["lpt_no_choice"]),
)
class LPTNoChoice(PartitionStrategy):
    """LPT placement on estimates; no runtime flexibility.

    ``replication = 1`` (the cheapest possible placement), guarantee
    :func:`repro.core.bounds.ub_lpt_no_choice`.
    """

    name = "lpt_no_choice"

    def group_count(self, instance: Instance) -> int:
        # One group per machine: Phase 1 is LPT on the machines.
        return instance.m

    def dispatch_order(self, instance: Instance) -> list[int]:
        # Every task has a single allowed machine, so the dispatch order
        # cannot change the makespan; LPT order within each machine is used
        # for determinism and to match the paper's figures.
        return instance.lpt_order()

    def _placement(self, instance: Instance, partition: Partition) -> Placement:
        return single_machine_placement(
            instance, partition.group_of_task(), meta={"strategy": self.name}
        )

    def guarantee(self, instance: Instance) -> float:
        """Theorem 2's bound evaluated on this instance's parameters."""
        from repro.core.bounds import ub_lpt_no_choice

        return ub_lpt_no_choice(instance.alpha, instance.m)
