"""Dynamic-programming exact solvers for :math:`P||C_{max}`.

Two complementary DPs, both exact:

``dp_two_machines``
    For ``m == 2`` the problem is PARTITION: minimize the larger side.
    A subset-sum bitset DP over scaled-integer durations runs in
    ``O(n * S)`` bit-operations (``S`` = scaled total) and handles hundreds
    of tasks, far beyond the branch-and-bound.

``dp_load_vector``
    For general ``m``: enumerate every reachable *sorted* load vector
    after each task (state = non-decreasing tuple of machine loads).
    Sorting collapses machine symmetry; nothing else is pruned, so the
    oracle shares no pruning logic with the branch-and-bound it
    cross-checks in the property tests.  At their sizes the frontier holds
    a few thousand vectors.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from repro._validation import check_machine_count, check_times

__all__ = ["dp_two_machines", "dp_load_vector", "scale_to_integers"]


def scale_to_integers(times: Sequence[float], *, max_denominator: int = 10**6) -> list[int]:
    """Scale float durations to exact integers via rational reconstruction.

    Durations produced by our workload generators are floats; to run an
    integer DP soundly we reconstruct each as a fraction (bounded
    denominator), put all on the common denominator, and return integer
    numerators.  Raises if the scale blows past ``10**9`` per task, which
    signals the durations are not "nice" enough for the bitset DP.
    """
    fracs = [Fraction(t).limit_denominator(max_denominator) for t in times]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // _gcd(denom, f.denominator)
    scaled = [int(f * denom) for f in fracs]
    if any(s > 10**9 for s in scaled):
        raise ValueError(
            "durations do not admit a small common denominator; "
            "use branch_and_bound instead of the integer DP"
        )
    for t, f in zip(times, fracs):
        if abs(float(f) - t) > 1e-9 * max(abs(t), 1.0):
            raise ValueError(
                f"duration {t} is not rational within tolerance; "
                "integer DP would silently change the instance"
            )
    return scaled


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def dp_two_machines(times: Sequence[float]) -> float:
    """Exact two-machine makespan via bitset subset-sum.

    The optimal two-machine makespan is ``total - best`` where ``best`` is
    the largest achievable subset sum that is ≤ ``total/2``.
    """
    ts = check_times(times)
    scaled = scale_to_integers(ts)
    total = sum(scaled)
    half = total // 2
    reachable = 1  # bit s set <=> subset sum s is achievable
    for v in scaled:
        reachable |= reachable << v
    mask = (1 << (half + 1)) - 1
    reachable &= mask
    best = reachable.bit_length() - 1
    scale = total / sum(ts)
    return (total - best) / scale


def dp_load_vector(times: Sequence[float], m: int, *, state_limit: int = 2_000_000) -> float:
    """Exact makespan by frontier search over sorted load vectors.

    Works on float durations directly.  States are the sorted tuples of
    machine loads reachable after placing a prefix of the tasks (largest
    first).  ``state_limit`` caps the frontier to keep the solver honest
    about its applicable range.
    """
    ts = check_times(times)
    check_machine_count(m)
    if m == 1:
        return sum(ts)
    if m >= len(ts):
        return max(ts)
    order = sorted(ts, reverse=True)
    frontier: set[tuple[float, ...]] = {tuple([0.0] * m)}
    for t in order:
        nxt: set[tuple[float, ...]] = set()
        for state in frontier:
            prev = None
            for i in range(m):
                if state[i] == prev:
                    continue  # identical load ⇒ same child
                prev = state[i]
                child = sorted(state[:i] + (state[i] + t,) + state[i + 1:])
                nxt.add(tuple(child))
        frontier = nxt
        if len(frontier) > state_limit:
            raise RuntimeError(
                f"dp_load_vector frontier exceeded {state_limit} states "
                f"(n={len(ts)}, m={m}); use branch_and_bound"
            )
    return min(max(state) for state in frontier)

