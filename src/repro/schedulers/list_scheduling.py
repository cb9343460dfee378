"""Graham's List Scheduling (LS) — offline assignment form.

LS takes the tasks one at a time, in a given order, and assigns each to the
machine with the smallest current load.  Graham (1966) proved it is a
``(2 - 1/m)``-approximation for makespan on identical machines, and the
paper leans on two of its structural properties:

* **greedy bound** — when a task is placed, every machine's load is at
  least the chosen machine's load, so
  ``C_max <= sum(p)/m + (m-1)/m * p_last`` (used in Th. 3 and Th. 4);
* **balance bound** — final loads of any two machines differ by at most
  the largest task (used for the Phase-1 group balance in Th. 4).

This module implements the *offline/assignment* view of LS: given
processing times (estimated or actual), return which machine each task
goes to and the resulting loads.  The *online/event-driven* view — where
"least loaded" means "first machine to become idle" and actual durations
are revealed over time — is :mod:`repro.simulation`; with all tasks
released at time 0 the two views coincide on the produced assignment when
fed the same durations, a fact the integration tests check.

A binary heap keeps each assignment ``O(n log m)``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro._validation import check_machine_count, check_times

__all__ = ["AssignmentResult", "list_schedule", "balance_gap", "greedy_assign_heap"]


@dataclass(frozen=True)
class AssignmentResult:
    """Output of an offline assignment algorithm.

    Attributes
    ----------
    assignment:
        ``assignment[j]`` is the machine of the ``j``-th task *in the order
        the algorithm received them* (callers who permuted the input must
        un-permute; :func:`repro.schedulers.lpt.lpt_schedule` does this).
    loads:
        Final load (sum of given processing times) of each machine.
    order:
        The order in which tasks were considered (indices into the caller's
        time array).
    """

    assignment: tuple[int, ...]
    loads: tuple[float, ...]
    order: tuple[int, ...]

    @property
    def makespan(self) -> float:
        """Maximum machine load."""
        return max(self.loads)

    @property
    def m(self) -> int:
        return len(self.loads)

    def machine_tasks(self) -> list[list[int]]:
        """Task indices grouped per machine, in assignment order."""
        per_machine: list[list[int]] = [[] for _ in range(self.m)]
        for j, i in zip(self.order, self.assignment):
            per_machine[i].append(j)
        return per_machine


def greedy_assign_heap(
    times: Sequence[float],
    order: Sequence[int],
    m: int,
    *,
    initial_loads: Sequence[float] | None = None,
) -> AssignmentResult:
    """Assign tasks (taken in ``order``) greedily to the least-loaded machine.

    This is the common core of LS and LPT.  Ties on load are broken by the
    smallest machine id, matching the deterministic tie-breaking used
    throughout the library (and required for reproducible experiments).

    Parameters
    ----------
    times:
        Processing time of each task (indexed by task id).
    order:
        The order in which tasks are taken; a permutation of a subset of
        ``range(len(times))``.
    m:
        Number of machines.
    initial_loads:
        Pre-existing load per machine (defaults to all-zero); lets callers
        schedule on a partially filled system, which ABO's Phase 2 needs.
    """
    check_machine_count(m)
    if initial_loads is None:
        start = [0.0] * m
    else:
        if len(initial_loads) != m:
            raise ValueError(f"initial_loads must have length {m}, got {len(initial_loads)}")
        start = [float(x) for x in initial_loads]
        for i, x in enumerate(start):
            if math.isnan(x) or math.isinf(x) or x < 0:
                raise ValueError(f"initial_loads[{i}] must be finite and >= 0, got {x}")
    heap: list[tuple[float, int]] = [(start[i], i) for i in range(m)]
    heapq.heapify(heap)
    assignment: list[int] = []
    append, replace = assignment.append, heapq.heapreplace
    for j in order:
        # Machine ids are distinct, so the least (load, id) is the same
        # whatever the heap's internal layout: one replace is a pop + push.
        load, i = heap[0]
        append(i)
        replace(heap, (load + float(times[j]), i))
    loads = start
    for load, i in heap:
        loads[i] = load
    return AssignmentResult(tuple(assignment), tuple(loads), tuple(order))


def list_schedule(
    times: Sequence[float],
    m: int,
    *,
    order: Sequence[int] | None = None,
    initial_loads: Sequence[float] | None = None,
) -> AssignmentResult:
    """Graham's List Scheduling on identical machines.

    Tasks are taken in ``order`` (input order by default) and each goes to
    the machine with the smallest current load.

    Returns an :class:`AssignmentResult` whose ``assignment`` is aligned
    with ``order``.

    Examples
    --------
    >>> r = list_schedule([3.0, 2.0, 2.0], m=2)
    >>> r.assignment
    (0, 1, 1)
    >>> r.makespan
    4.0
    """
    ts = check_times(times)
    if order is None:
        order = list(range(len(ts)))
    else:
        order = [int(j) for j in order]
        seen: set[int] = set()
        for j in order:
            if not 0 <= j < len(ts):
                raise ValueError(f"order contains {j}, outside 0..{len(ts) - 1}")
            if j in seen:
                raise ValueError(f"order repeats task {j}")
            seen.add(j)
    return greedy_assign_heap(ts, order, m, initial_loads=initial_loads)


def balance_gap(loads: Sequence[float]) -> float:
    """Max pairwise load difference ``max_i load_i - min_i load_i``.

    For any List-Scheduling output this is at most the largest task — the
    balance property Theorem 4's Phase-1 argument uses.
    """
    if not loads:
        raise ValueError("loads must be non-empty")
    return max(loads) - min(loads)
