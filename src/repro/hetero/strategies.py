"""Risk-aware replication for heterogeneous uncertainty.

With per-task uncertainty, the right question is not "which tasks are
big?" but "which tasks can *move* the schedule?".
:class:`RiskAwareReplication` replicates by descending risk score
``p̃_j·(α_j − 1/α_j)`` — a long-but-profiled task stays pinned, a
short-but-wild one gets copies.  Structure mirrors
:class:`~repro.core.strategies.selective.SelectiveReplication` (same
pinning of the remainder, same pinned-aware Phase-2 dispatch) so bench
E14's comparison isolates the *selection criterion*.
"""

from __future__ import annotations

import heapq

from repro._validation import check_fraction
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategies.selective import PinnedAwarePolicy, pinned_tables
from repro.core.strategy import OnlinePolicy, TwoPhaseStrategy
from repro.hetero.uncertainty import HeteroUncertainty
from repro.registry import (
    Capabilities,
    Float,
    UnrepresentableStrategy,
    register_strategy,
)

__all__ = ["RiskAwareReplication"]


def _risk_aware_extract(strategy: RiskAwareReplication) -> dict[str, object]:
    if strategy.hetero is not None:
        raise UnrepresentableStrategy(
            "risk_aware built with an explicit HeteroUncertainty profile has "
            "no spec form; only the fraction-only constructor round-trips"
        )
    return {"fraction": strategy.fraction}


@register_strategy(
    "risk_aware",
    params=(
        Float(
            "fraction",
            positional=True,
            ge=0.0,
            le=1.0,
            doc="share of the total risk to replicate everywhere",
        ),
    ),
    family="hetero",
    theorem="§7 heterogeneous extension (bench E14)",
    capabilities=Capabilities(
        supports_releases=False,
        supports_hetero=True,
        replication_factor="selective",
    ),
    builder=lambda fraction: RiskAwareReplication(fraction),
    extract=_risk_aware_extract,
)
class RiskAwareReplication(TwoPhaseStrategy):
    """Replicate the riskiest tasks everywhere, pin the rest with LPT.

    Parameters
    ----------
    hetero:
        The per-task uncertainty profile (carries the instance).  May be
        omitted (spec form ``risk_aware[f]``): a uniform profile at the
        instance's α is derived at placement time, so the strategy stays
        instance-independent like the rest of the registry.
    fraction:
        Share of the *total risk* to replicate: riskiest tasks are
        replicated until they cover ``fraction`` of
        :math:`\\sum_j p̃_j(α_j − 1/α_j)`.
    """

    def __init__(
        self,
        hetero: HeteroUncertainty | float,
        fraction: float | None = None,
    ) -> None:
        if isinstance(hetero, HeteroUncertainty):
            if fraction is None:
                raise TypeError(
                    "RiskAwareReplication(hetero, fraction): fraction is required"
                )
            self.hetero: HeteroUncertainty | None = hetero
        else:
            if fraction is not None:
                raise TypeError(
                    "RiskAwareReplication(fraction) takes no second argument "
                    "without an uncertainty profile"
                )
            hetero, fraction = None, hetero
            self.hetero = None
        self.fraction = check_fraction(fraction, "fraction")
        self.name = f"risk_aware[{self.fraction:g}]"

    def _profile_for(self, instance: Instance) -> HeteroUncertainty:
        if self.hetero is None:
            return HeteroUncertainty(instance, (instance.alpha,) * instance.n)
        if instance != self.hetero.instance:
            raise ValueError(
                "RiskAwareReplication must be given the instance its "
                "uncertainty profile was built for"
            )
        return self.hetero

    def _critical_set(self, hetero: HeteroUncertainty) -> set[int]:
        target = self.fraction * hetero.total_risk()
        covered = 0.0
        chosen: set[int] = set()
        for j in hetero.risk_order():
            if covered >= target:
                break
            risk = hetero.risk(j)
            if risk <= 0.0:
                break  # remaining tasks are certain; nothing to insure
            chosen.add(j)
            covered += risk
        return chosen

    def place(self, instance: Instance) -> Placement:
        critical = self._critical_set(self._profile_for(instance))
        pinned = [j for j in range(instance.n) if j not in critical]
        all_machines = frozenset(range(instance.m))
        sets: list[frozenset[int]] = [all_machines] * instance.n
        if pinned:
            # LPT the pinned remainder (uniform offsets as in selective.py).
            order = sorted(pinned, key=lambda j: (-instance.tasks[j].estimate, j))
            heap = [(0.0, i) for i in range(instance.m)]
            heapq.heapify(heap)
            for j in order:
                load, i = heapq.heappop(heap)
                sets[j] = frozenset((i,))
                heapq.heappush(heap, (load + instance.tasks[j].estimate, i))
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
