"""The fleet tree that correlated faults follow.

:class:`FleetTopology` arranges machine ids ``0..m-1`` into a three-level
tree — machines → racks → zones with configurable fan-out — the smallest
structure that distinguishes the failure modes the paper's independence
assumption cannot express: a rack shares a top-of-rack switch and a power
feed, a zone shares cooling and a supply substation, so real outages take
*subtrees*, not uniform samples.

Placement groups :math:`M_j` (contiguous machine ranges, see
:class:`~repro.service.placement.OnlinePlacer`) are mapped onto the tree
so replica diversity is measurable: :func:`diversity_score` reports how
well a placement's replica sets spread over racks, which is exactly what
decides survival under a rack-sized blast radius.  The blast radius
itself is a :class:`~repro.chaos.soak.ChaosSchedule` action
(:meth:`~repro.chaos.soak.ChaosSchedule.rack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["FleetTopology", "diversity_score"]


@dataclass(frozen=True)
class FleetTopology:
    """A machines → racks → zones tree over machine ids ``0..m-1``.

    Machine ids are assigned depth-first: rack ``r`` holds the contiguous
    block ``[r*machines_per_rack, (r+1)*machines_per_rack)`` and zone
    ``z`` holds ``racks_per_zone`` consecutive racks.  Contiguity matches
    the service's placement groups (also contiguous ranges), so mapping a
    group onto the tree is pure arithmetic.

    Parameters
    ----------
    zones:
        Number of zones (≥ 1).
    racks_per_zone:
        Racks per zone (≥ 1).
    machines_per_rack:
        Machines per rack (≥ 1).
    """

    zones: int = 1
    racks_per_zone: int = 4
    machines_per_rack: int = 2

    def __post_init__(self) -> None:
        if self.zones < 1 or self.racks_per_zone < 1 or self.machines_per_rack < 1:
            raise ValueError(
                "zones, racks_per_zone and machines_per_rack must all be >= 1, "
                f"got {self.zones}/{self.racks_per_zone}/{self.machines_per_rack}"
            )

    # -- shape -------------------------------------------------------------
    @property
    def racks(self) -> int:
        """Total rack count."""
        return self.zones * self.racks_per_zone

    @property
    def m(self) -> int:
        """Total machine count."""
        return self.racks * self.machines_per_rack

    # -- tree lookups ------------------------------------------------------
    def rack_of(self, machine: int) -> int:
        """The rack holding ``machine``."""
        self._check_machine(machine)
        return machine // self.machines_per_rack

    def zone_of(self, machine: int) -> int:
        """The zone holding ``machine``."""
        return self.rack_of(machine) // self.racks_per_zone

    def rack_members(self, rack: int) -> tuple[int, ...]:
        """Machine ids in ``rack`` (contiguous, ascending)."""
        if not 0 <= rack < self.racks:
            raise ValueError(f"rack {rack} outside 0..{self.racks - 1}")
        lo = rack * self.machines_per_rack
        return tuple(range(lo, lo + self.machines_per_rack))

    def _check_machine(self, machine: int) -> None:
        if not 0 <= machine < self.m:
            raise ValueError(f"machine {machine} outside 0..{self.m - 1}")

    # -- diversity ---------------------------------------------------------
    def racks_spanned(self, machines: Iterable[int]) -> int:
        """Distinct racks a replica set touches."""
        return len({self.rack_of(i) for i in machines})

    def zones_spanned(self, machines: Iterable[int]) -> int:
        """Distinct zones a replica set touches."""
        return len({self.zone_of(i) for i in machines})

    def describe(self) -> str:
        """One-line human summary for labels and manifests."""
        return (
            f"{self.zones} zone(s) x {self.racks_per_zone} rack(s) x "
            f"{self.machines_per_rack} machine(s) = {self.m} machines"
        )

    def as_dict(self) -> dict[str, int]:
        """JSON form for manifests and reports."""
        return {
            "zones": self.zones,
            "racks_per_zone": self.racks_per_zone,
            "machines_per_rack": self.machines_per_rack,
            "racks": self.racks,
            "machines": self.m,
        }


def diversity_score(
    topology: FleetTopology, groups: Iterable[tuple[int, ...]], *, level: str = "rack"
) -> float:
    """Mean replica diversity of placement groups over the tree, in [0, 1].

    For one group :math:`M_j` the diversity at a level (``"rack"`` or
    ``"zone"``) is ``(spanned - 1) / (ceiling - 1)`` where ``ceiling`` is
    the most subtrees ``|M_j|`` replicas could possibly touch — 1.0 means
    maximally spread, 0.0 means every replica shares one failure domain
    (a single-replica group scores 0: it has nothing to spread).  The
    mean over groups is the placement's score; it is the quantity a
    rack-sized blast radius tests, and the soak report carries it beside
    the availability curve.
    """
    if level not in ("rack", "zone"):
        raise ValueError(f"level must be 'rack' or 'zone', got {level!r}")
    spanned_of = topology.racks_spanned if level == "rack" else topology.zones_spanned
    domains = topology.racks if level == "rack" else topology.zones
    scores = []
    for group in groups:
        members = tuple(group)
        if not members:
            raise ValueError("placement group is empty")
        ceiling = min(len(members), domains)
        if ceiling <= 1:
            scores.append(0.0)
            continue
        scores.append((spanned_of(members) - 1) / (ceiling - 1))
    if not scores:
        raise ValueError("no placement groups to score")
    return float(sum(scores) / len(scores))
