"""MULTIFIT (Coffman, Garey & Johnson 1978).

MULTIFIT binary-searches a makespan deadline ``C`` and asks whether
First-Fit-Decreasing (FFD) packs all tasks into ``m`` bins of capacity
``C``.  With enough iterations it is a ``13/11``-approximation — better
than LPT — at the cost of more work per instance.

The paper does not use MULTIFIT directly, but the optional "π₁ = a
better makespan schedule" knob of the memory-aware algorithms does:
SABO/ABO are parameterized by a ρ₁-approximate makespan scheduler, and
sweeping ρ₁ ∈ {LPT, MULTIFIT} is one of our ablations.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._validation import check_machine_count, check_positive_int, check_times
from repro.schedulers.list_scheduling import AssignmentResult
from repro.schedulers.lower_bounds import lp_bound
from repro.schedulers.lpt import lpt_schedule

__all__ = ["ffd_pack", "multifit_schedule", "MULTIFIT_RATIO"]

#: Proven worst-case ratio of MULTIFIT with sufficiently many iterations.
MULTIFIT_RATIO = 13.0 / 11.0


def ffd_pack(times: Sequence[float], m: int, capacity: float) -> list[int] | None:
    """First-Fit-Decreasing into ``m`` bins of ``capacity``.

    Returns ``assignment[j] = bin of task j`` (task-id indexed) on success,
    or ``None`` if some task does not fit.  Tasks are considered in
    non-increasing size order; each goes to the *first* bin with room.
    """
    ts = check_times(times)
    check_machine_count(m)
    if capacity <= 0:
        return None
    order = sorted(range(len(ts)), key=lambda j: (-ts[j], j))
    loads = [0.0] * m
    assignment = [-1] * len(ts)
    # Tiny relative slack so capacities derived from sums of the same floats
    # (e.g. capacity == exact optimum) are not rejected by round-off.
    eps = 1e-12 * max(capacity, 1.0)
    for j in order:
        placed = False
        for i in range(m):
            if loads[i] + ts[j] <= capacity + eps:
                loads[i] += ts[j]
                assignment[j] = i
                placed = True
                break
        if not placed:
            return None
    return assignment


def multifit_schedule(
    times: Sequence[float],
    m: int,
    *,
    iterations: int = 40,
) -> AssignmentResult:
    """MULTIFIT: binary search on the FFD deadline.

    The search window is the classical
    ``[max(lp_bound, ...), lpt_makespan]``: FFD always succeeds at the LPT
    makespan, and no packing can beat the LP bound.  After the binary
    search, the best *feasible* deadline's packing is returned.  Falls back
    to the LPT schedule if (numerically) no tighter packing was found.

    ``iterations = 40`` drives the window below any practical float
    resolution; the ratio guarantee only needs ~10.
    """
    ts = check_times(times)
    check_machine_count(m)
    check_positive_int(iterations, "iterations")

    lpt_res = lpt_schedule(ts, m)
    lo = lp_bound(ts, m)
    hi = lpt_res.makespan
    best_assignment: list[int] | None = None

    for _ in range(iterations):
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        packed = ffd_pack(ts, m, mid)
        if packed is None:
            lo = mid
        else:
            hi = mid
            best_assignment = packed

    if best_assignment is None:
        return lpt_res

    loads = [0.0] * m
    for j, i in enumerate(best_assignment):
        loads[i] += ts[j]
    result = AssignmentResult(
        tuple(best_assignment), tuple(loads), tuple(range(len(ts)))
    )
    # FFD at a loose deadline can still be worse than LPT; keep the better.
    return result if result.makespan <= lpt_res.makespan else lpt_res
