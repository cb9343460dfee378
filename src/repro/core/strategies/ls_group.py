"""Strategy 3 — **LS-Group** (Section 5.3, Theorem 4) and its LPT ablation.

The machines are partitioned into ``k`` equal groups of ``m/k`` machines.
Phase 1 distributes the tasks over the *groups* with List Scheduling on
the estimates (each group acting as one pseudo-machine of capacity
``m/k``); every task's data is replicated on all machines of its group, so
:math:`|M_j| = m/k`.  Phase 2 runs online List Scheduling *within* each
group: an idle machine takes the next unstarted task of its own group.

Guarantee (Theorem 4): :math:`\\frac{k\\alpha^2}{\\alpha^2+k-1}
\\bigl(1+\\frac{k-1}{m}\\bigr) + \\frac{m-k}{m}`.

``k = 1`` degenerates to one group containing all machines — full
replication with List Scheduling — and ``k = m`` to singleton groups — no
replication, LS placement.  Sweeping ``k`` over the divisors of ``m``
traces the replication/guarantee tradeoff of Figure 3.

:class:`LPTGroup` is the ablation the paper speculates about at the end of
§5.3 ("a LPT-based algorithm may have better guarantee"): identical group
structure but LPT order in both phases.  It carries no proven guarantee —
bench E3 measures it empirically.
"""

from __future__ import annotations

from repro._validation import check_group_count
from repro.core.bounds import divisors
from repro.core.model import Instance
from repro.core.placement import Placement, group_placement
from repro.core.strategies.partition import Partition, PartitionStrategy
from repro.registry import Capabilities, Int, SweepRule, register_strategy

__all__ = ["LSGroup", "LPTGroup", "equal_groups"]


def equal_groups(m: int, k: int) -> list[list[int]]:
    """Partition machines ``0..m-1`` into ``k`` contiguous equal groups."""
    kk = check_group_count(k, m)
    size = m // kk
    return [list(range(g * size, (g + 1) * size)) for g in range(kk)]


@register_strategy(
    "ls_group",
    params=(Int("k", ge=1, doc="number of machine groups; must divide m"),),
    family="core",
    theorem="Theorem 4",
    capabilities=Capabilities(replication_factor="group", online_placement=True),
    sweep=SweepRule(
        order=2, enumerate=lambda m: [f"ls_group[k={k}]" for k in divisors(m)]
    ),
)
class LSGroup(PartitionStrategy):
    """List Scheduling over groups (Phase 1), online LS within groups (Phase 2).

    Parameters
    ----------
    k:
        Number of groups; must divide the instance's ``m``.
    order:
        Task order used in *both* phases: ``"input"`` (the paper's List
        Scheduling, default) or ``"lpt"`` (the :class:`LPTGroup` ablation
        uses this through subclassing).
    """

    name = "ls_group"
    _order_kind = "input"

    def __init__(self, k: int) -> None:
        self.k = int(k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.name = f"{type(self).base_name()}[k={self.k}]"

    @classmethod
    def base_name(cls) -> str:
        return "ls_group"

    def group_count(self, instance: Instance) -> int:
        return check_group_count(self.k, instance.m)

    def dispatch_order(self, instance: Instance) -> list[int]:
        if self._order_kind == "lpt":
            return instance.lpt_order()
        return instance.input_order()

    def _placement(self, instance: Instance, partition: Partition) -> Placement:
        return group_placement(
            instance,
            partition.group_of_task(),
            equal_groups(instance.m, partition.k),
            meta={"strategy": self.name, "k": partition.k},
        )

    def guarantee(self, instance: Instance) -> float:
        """Theorem 4's bound at this instance's parameters."""
        from repro.core.bounds import ub_ls_group

        return ub_ls_group(instance.alpha, instance.m, self.k)


@register_strategy(
    "lpt_group",
    params=(Int("k", ge=1, doc="number of machine groups; must divide m"),),
    family="core",
    theorem="§5.3 ablation (no proven bound)",
    capabilities=Capabilities(replication_factor="group", online_placement=True),
    sweep=SweepRule(
        order=3,
        ablation=True,
        enumerate=lambda m: [f"lpt_group[k={k}]" for k in divisors(m)],
    ),
)
class LPTGroup(LSGroup):
    """Ablation: the group strategy with LPT order in both phases.

    No guarantee is proven in the paper; empirically (bench E3) it
    dominates LS-Group on random workloads, matching the paper's remark
    that an LPT variant "would likely not have a much more interesting
    guarantee" but may behave better in practice.
    """

    _order_kind = "lpt"

    @classmethod
    def base_name(cls) -> str:
        return "lpt_group"

    def guarantee(self, instance: Instance) -> float:
        """No proven guarantee; returns Theorem 4's (the LS analysis still applies
        to Phase 1 balance, but the paper proves nothing for this variant —
        treat the value as a conjecture when reporting)."""
        from repro.core.bounds import ub_ls_group

        return ub_ls_group(instance.alpha, instance.m, self.k)
