"""Branch-and-bound exact solver for :math:`P||C_{max}`.

The clairvoyant optimum :math:`C^*_{max}` appears in every competitive
ratio of the paper; to *measure* ratios we must compute it exactly on the
instances where that is feasible.

Search design (standard, but each piece matters for the tests):

* tasks are branched in non-increasing duration order (the most
  constraining first), so each machine's load is summed in that order;
* the incumbent starts at the LPT makespan (a ``4/3``-approximation, so
  the gap to close is small), and the search stops once it meets the
  combined lower bound;
* fit bound: a node is cut when the remaining tasks cannot fit under the
  incumbent machine by machine.  A machine with room ``r`` can take at
  most ``c`` of them (as many of the shortest as fit in ``r``) and at
  most ``min(r, total of the c longest that are each <= r)`` of their
  work.  The node is cut when the ``c`` add up to fewer than the tasks
  left, or those amounts to less than the work left;
* symmetry breaking: a task may open at most one currently-empty machine
  (all empty machines are interchangeable);
* dominance: skip machines with identical current load (placing the task
  on either yields isomorphic subtrees).

A leaf improves on the incumbent only when every load is below
``incumbent - tol``, with ``tol = 1e-12 * max(1, incumbent)``.  The fit
bound measures room against ``incumbent + tol`` and forgives the work
test another ``tol``: it adds the same floats as the loads, in other
orders, and the slack absorbs the rounding.  Without it, exact decimal
ties (``k/10``, ``k/3``) cut optimal leaves.  The bound therefore never
cuts a subtree that holds an improving leaf, so the search visits a
subset of the nodes it would visit without the bound, in the same order,
and returns the same makespan float and assignment.  The bound cuts the
n = 20, m = 4 instance of the integration tests from 2.4M nodes to about
150k.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro._validation import check_machine_count, check_times
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule

__all__ = ["BnBResult", "branch_and_bound"]


@dataclass(frozen=True)
class BnBResult:
    """Exact solver output.

    Attributes
    ----------
    makespan:
        The optimal makespan :math:`C^*_{max}`.
    assignment:
        An optimal assignment, task-id indexed.
    nodes:
        Number of search nodes explored (exposed for the performance
        benches and for regression-testing the pruning).
    optimal:
        Always ``True`` for this solver; present so the facade in
        :mod:`repro.exact.optimal` can return bound-only results with
        ``optimal=False`` on oversized instances.
    """

    makespan: float
    assignment: tuple[int, ...]
    nodes: int
    optimal: bool = True


def branch_and_bound(
    times: Sequence[float],
    m: int,
    *,
    node_limit: int = 20_000_000,
) -> BnBResult:
    """Solve :math:`P||C_{max}` exactly.

    Raises ``RuntimeError`` if ``node_limit`` is exhausted — callers that
    want graceful degradation should use
    :func:`repro.exact.optimal.optimal_makespan`.
    """
    ts = check_times(times)
    check_machine_count(m)
    n = len(ts)

    if m >= n:
        # One task per machine is optimal.
        return BnBResult(max(ts), tuple(range(n)), nodes=1)
    if m == 1:
        return BnBResult(sum(ts), tuple(0 for _ in ts), nodes=1)

    order = sorted(range(n), key=lambda j: (-ts[j], j))
    sorted_times = [ts[j] for j in order]
    # Remaining work from position pos on, correctly rounded so that the
    # difference of two is accurate to an ulp or so of the total.
    suffix = [math.fsum(sorted_times[pos:]) for pos in range(n + 1)]
    smallest = suffix[::-1]  # smallest[k]: total of the k shortest tasks
    neg_times = [-t for t in sorted_times]  # ascending, for bisect
    shortest = sorted_times[-1]

    lb_root = combined_lower_bound(ts, m)
    lpt_res = lpt_schedule(ts, m)
    best_makespan = lpt_res.makespan
    best_by_task = [0] * n
    for pos, j in enumerate(lpt_res.order):
        best_by_task[j] = lpt_res.assignment[pos]

    if best_makespan <= lb_root * (1.0 + 1e-12):
        return BnBResult(best_makespan, tuple(best_by_task), nodes=1)

    loads = [0.0] * m
    current = [0] * n  # machine per *position* in sorted order
    nodes = 0
    # Small absolute tolerance so equal-to-incumbent branches are pruned.
    tol = 1e-12 * max(1.0, best_makespan)

    def rec(pos: int, max_load: float) -> None:
        nonlocal nodes, best_makespan, best_by_task, tol
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError(
                f"branch_and_bound exceeded node_limit={node_limit} "
                f"(n={n}, m={m}); use optimal_makespan() for graceful fallback"
            )
        if pos == n:
            if max_load < best_makespan - tol:
                best_makespan = max_load
                for p in range(n):
                    best_by_task[order[p]] = current[p]
                tol = 1e-12 * max(1.0, best_makespan)
            return
        if max(max_load, lb_root) >= best_makespan - tol:
            return
        # Fit bound: machine i takes at most c of the remaining tasks (the
        # most of the shortest that fit in its room r) and at most
        # min(r, total of the c longest that are each <= r) of their work.
        left = n - pos
        cap = best_makespan + tol
        fit_count = 0
        fit_work = 0.0
        for li in loads:
            r = cap - li
            if r < shortest:
                continue
            c = bisect_right(smallest, r, 0, left + 1) - 1
            q = bisect_left(neg_times, -r, pos)  # first remaining task <= r
            fit_count += c
            fit_work += min(r, suffix[q] - suffix[q + c])
        if fit_count < left or suffix[pos] > fit_work + tol:
            return
        t = sorted_times[pos]
        seen_loads: set[float] = set()
        opened_empty = False
        for i in range(m):
            li = loads[i]
            if li in seen_loads:
                continue  # dominance: identical load ⇒ isomorphic subtree
            if li == 0.0:
                if opened_empty:
                    continue  # symmetry: one empty machine suffices
                opened_empty = True
            seen_loads.add(li)
            new_load = li + t
            if new_load >= best_makespan - tol:
                continue
            loads[i] = new_load
            current[pos] = i
            rec(pos + 1, max(max_load, new_load))
            loads[i] = li

    rec(0, 0.0)
    return BnBResult(best_makespan, tuple(best_by_task), nodes=nodes)
