"""Overlapping-group replication — "more general replication policies".

The paper's conclusion notes that "while replicating data using groups of
machines proved effective, more general replication policies can certainly
lead to better guarantees."  This module implements the most natural
generalization: **overlapping groups**, where each task's replica set is a
window of machines and consecutive windows share machines.  Unlike
disjoint groups, load can *flow* between windows at runtime — a hot window
sheds work to its neighbors through the shared machines — at the same
per-task replication ``|M_j| = w``.

:class:`OverlappingWindows`
    ``k`` windows of width ``w = m/k · overlap`` laid out with constant
    stride ``m/k`` (so ``overlap = 1`` reproduces disjoint LS-Group
    windows, ``overlap = 2`` makes every machine serve two windows).
    Phase 1 distributes tasks to windows by List Scheduling on estimates;
    Phase 2 is the usual fixed-order online dispatch, which automatically
    exploits the overlap (an idle shared machine takes work from either
    window).

No guarantee is proven here — the point is the empirical question the
paper raises, measured in bench E5: does overlap beat disjoint groups at
equal replication?
"""

from __future__ import annotations

from repro._validation import check_group_count, check_positive_int
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import FixedOrderPolicy, OnlinePolicy, TwoPhaseStrategy
from repro.registry import Capabilities, Int, register_strategy
from repro.schedulers.list_scheduling import greedy_assign_heap

__all__ = ["OverlappingWindows", "window_machines"]


def window_machines(m: int, k: int, overlap: int) -> list[frozenset[int]]:
    """The ``k`` windows: window ``g`` covers ``overlap * m/k`` machines
    starting at ``g * m/k`` (wrapping around)."""
    check_group_count(k, m)
    check_positive_int(overlap, "overlap")
    if overlap > k:
        raise ValueError(f"overlap must be <= k (window would wrap fully), got {overlap} > {k}")
    stride = m // k
    width = stride * overlap
    return [
        frozenset((g * stride + off) % m for off in range(width)) for g in range(k)
    ]


@register_strategy(
    "overlap_windows",
    params=(
        Int("k", ge=1, doc="number of windows; must divide m"),
        Int(
            "w",
            attr="overlap",
            ge=1,
            default=2,
            omit_default=False,
            doc="strides per window: |M_j| = w·m/k",
        ),
    ),
    family="core",
    theorem="conclusion: 'more general replication policies' (bench E5)",
    capabilities=Capabilities(replication_factor="group"),
)
class OverlappingWindows(TwoPhaseStrategy):
    """Group replication with overlapping machine windows.

    Parameters
    ----------
    k:
        Number of windows; must divide the instance's ``m``.
    overlap:
        How many strides each window spans: ``|M_j| = overlap * m/k``.
        ``overlap = 1`` is exactly LS-Group.
    """

    def __init__(self, k: int, overlap: int = 2) -> None:
        self.k = check_positive_int(k, "k")
        self.overlap = check_positive_int(overlap, "overlap")
        self.name = f"overlap_windows[k={self.k},w={self.overlap}]"

    def place(self, instance: Instance) -> Placement:
        windows = window_machines(instance.m, self.k, self.overlap)
        result = greedy_assign_heap(
            instance.estimates, instance.input_order(), self.k
        )
        window_of_task = [0] * instance.n
        for pos, j in enumerate(result.order):
            window_of_task[j] = result.assignment[pos]
        sets = tuple(windows[window_of_task[j]] for j in range(instance.n))
        return Placement(
            instance,
            sets,
            meta={
                "strategy": self.name,
                "window_of_task": tuple(window_of_task),
                "windows": tuple(tuple(sorted(w)) for w in windows),
            },
        )

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        return FixedOrderPolicy(instance.input_order())
