"""Lower bounds on the optimal makespan :math:`C^*_{max}`.

The paper's ratio proofs repeatedly bound the optimum from below; the
experiment harness needs the same bounds to *measure* competitive ratios on
instances too large for the exact solver (dividing by a lower bound can
only over-estimate a ratio, so a measured ratio below the guarantee remains
a sound check).

Bounds implemented (all classical):

``average_load``
    :math:`\\sum_j p_j / m` — work conservation.
``max_task``
    :math:`\\max_j p_j` — the longest task must run somewhere.
``pair_bound``
    If more than :math:`m` tasks exist, some machine runs two of the
    :math:`m+1` largest, so :math:`C^* \\ge p_{(m)} + p_{(m+1)}` (sorted
    non-increasing, 1-indexed).  This generalizes the two-task argument in
    Lemma 1 of the paper.
``kth_group_bound``
    Generalization: some machine runs :math:`q+1` of the :math:`qm+1`
    largest tasks, so :math:`C^* \\ge \\sum_{r=0}^{q} p_{(rm+1)}` is *not*
    valid in that exact form; the valid form used here is
    :math:`C^* \\ge (q+1) \\cdot p_{(qm+1)}` for every :math:`q \\ge 0`.
``lp_bound``
    The max of ``average_load`` and ``max_task`` — the standard LP
    relaxation value for :math:`P||C_{max}`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._validation import check_machine_count, check_times

__all__ = [
    "average_load_bound",
    "max_task_bound",
    "pair_bound",
    "kth_group_bound",
    "lp_bound",
    "combined_lower_bound",
    "bound_of_checked",
]


def average_load_bound(times: Sequence[float], m: int) -> float:
    """:math:`\\sum_j p_j / m`."""
    ts = check_times(times)
    check_machine_count(m)
    return sum(ts) / m


def max_task_bound(times: Sequence[float]) -> float:
    """:math:`\\max_j p_j`."""
    return max(check_times(times))


def pair_bound(times: Sequence[float], m: int) -> float:
    """:math:`p_{(m)} + p_{(m+1)}` when :math:`n > m`, else 0.

    With more than ``m`` tasks, by pigeonhole some machine receives two of
    the ``m+1`` largest; those two are each at least the ``(m+1)``-th
    largest and one is at least the ``m``-th largest.
    """
    ts = sorted(check_times(times), reverse=True)
    check_machine_count(m)
    if len(ts) <= m:
        return 0.0
    return ts[m - 1] + ts[m]


def kth_group_bound(times: Sequence[float], m: int) -> float:
    """:math:`\\max_{q \\ge 1} (q+1) \\cdot p_{(qm+1)}`.

    For every ``q``, the ``qm+1`` largest tasks cannot fit on ``m``
    machines with at most ``q`` of them each, so some machine runs ``q+1``
    tasks that are all at least :math:`p_{(qm+1)}`.
    """
    ts = sorted(check_times(times), reverse=True)
    check_machine_count(m)
    best = 0.0
    q = 1
    while q * m < len(ts):
        best = max(best, (q + 1) * ts[q * m])
        q += 1
    return best


def lp_bound(times: Sequence[float], m: int) -> float:
    """``max(average_load, max_task)`` — the LP relaxation of P||Cmax."""
    return max(average_load_bound(times, m), max_task_bound(times))


def combined_lower_bound(times: Sequence[float], m: int) -> float:
    """The best of all implemented bounds.

    This is the denominator the experiment harness uses when the exact
    optimum is out of reach.  It is always ≤ :math:`C^*_{max}`, so
    measured ratios computed against it are ≥ the true competitive ratio.
    """
    return bound_of_checked(check_times(times), check_machine_count(m))


def bound_of_checked(ts: list[float], m: int) -> float:
    """:func:`combined_lower_bound` of times that passed :func:`check_times`.

    One sort serves all four bounds, so the result equals
    ``max(average_load_bound, max_task_bound, pair_bound,
    kth_group_bound)`` bit for bit: the average load still sums ``ts`` in
    input order.
    """
    desc = sorted(ts, reverse=True)
    best = max(sum(ts) / m, desc[0])
    if len(desc) > m:
        # desc[m::m] holds p_(qm+1) for q = 1, 2, ...: the kth-group terms.
        kth = max(k * t for k, t in enumerate(desc[m::m], start=2))
        best = max(best, desc[m - 1] + desc[m], kth)
    return best
