"""Non-clairvoyant baseline — the α → ∞ limit of the problem.

The paper's conclusion observes that as α grows "the problem converges to
the non-clairvoyant online problem": estimates carry no information, and
the best known strategy is Graham's List Scheduling in an arbitrary order
(still ``2 − 1/m`` competitive, estimate-free).  This baseline anchors the
E6 regime study: the α at which the estimate-aware strategies stop beating
it is the practical edge of the paper's model.

:class:`NonClairvoyantLS`
    Replicates everywhere (it needs runtime flexibility just like
    Strategy 2) and dispatches in a fixed *estimate-independent* order —
    task-id order by default, or a seeded shuffle — so its behaviour is a
    true "we know nothing" reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import Instance
from repro.core.placement import Placement, everywhere_placement
from repro.core.strategy import FixedOrderPolicy, OnlinePolicy, TwoPhaseStrategy
from repro.registry import Capabilities, Int, register_strategy

__all__ = ["NonClairvoyantLS"]


@register_strategy(
    "nonclairvoyant_ls",
    params=(
        Int(
            "shuffle",
            attr="seed",
            default=None,
            doc="optional seed for a random dispatch order (default: task-id order)",
        ),
    ),
    family="core",
    theorem="Graham LS bound 2−1/m (α→∞ limit)",
    capabilities=Capabilities(replication_factor="full"),
)
class NonClairvoyantLS(TwoPhaseStrategy):
    """Estimate-blind online List Scheduling over full replication.

    Parameters
    ----------
    seed:
        If given, dispatch order is a seeded random permutation; otherwise
        task-id (arrival) order.  Either way, estimates are never read.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed
        suffix = f"[shuffle={seed}]" if seed is not None else ""
        self.name = f"nonclairvoyant_ls{suffix}"

    def place(self, instance: Instance) -> Placement:
        return everywhere_placement(instance, meta={"strategy": self.name})

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        order = list(range(instance.n))
        if self.seed is not None:
            rng = np.random.default_rng(self.seed)
            rng.shuffle(order)
        return FixedOrderPolicy(order)

    def guarantee(self, instance: Instance) -> float:
        """Graham's bound ``2 − 1/m`` — independent of α, as befits a
        strategy that ignores the estimates."""
        from repro.core.bounds import ub_graham_ls

        return ub_graham_ls(instance.m)
