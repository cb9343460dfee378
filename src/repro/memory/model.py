"""Memory-aware model basics (Section 6 of the paper).

In the memory-aware model each task :math:`j` has a size :math:`s_j`; a
replica of task :math:`j` on machine :math:`i` charges :math:`s_j` to
:math:`Mem_i`, and the secondary objective is
:math:`Mem_{max} = \\max_i Mem_i`.  The paper's algorithms are built from
two reference single-objective schedules:

* :math:`\\pi_1` — a :math:`\\rho_1`-approximate schedule for the
  *estimated makespan* (LPT on the estimates by default);
* :math:`\\pi_2` — a :math:`\\rho_2`-approximate schedule for the *memory*
  objective (LPT on the sizes; memory is "a secondary makespan objective
  (except it does not suffer from uncertainty)").

This module computes those reference schedules, their objective values,
and the memory lower bounds used to measure memory-approximation ratios.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.model import Instance
from repro.schedulers.lower_bounds import lp_bound
from repro.schedulers.lpt import lpt_assignment_by_task
from repro.schedulers.multifit import multifit_schedule

__all__ = [
    "ReferenceSchedule",
    "pi1_rho",
    "makespan_reference",
    "memory_reference",
    "memory_lower_bound",
    "PI1_METHODS",
]


@dataclass(frozen=True)
class ReferenceSchedule:
    """A single-objective reference schedule (π₁ or π₂).

    Attributes
    ----------
    assignment:
        Machine per task (task-id indexed).
    objective:
        The schedule's value of its own objective
        (:math:`\\tilde C^{\\pi_1}_{max}` or :math:`Mem^{\\pi_2}_{max}`).
    rho:
        The approximation guarantee of the method that produced it.
    method:
        Name of the scheduling method.
    """

    assignment: tuple[int, ...]
    objective: float
    rho: float
    method: str

    def loads(self, weights: Sequence[float], m: int) -> list[float]:
        """Per-machine totals of ``weights`` under this assignment."""
        out = [0.0] * m
        for j, i in enumerate(self.assignment):
            out[i] += float(weights[j])
        return out


def _rho_lpt(m: int) -> float:
    return 4.0 / 3.0 - 1.0 / (3.0 * m)


#: Available π₁ constructors: name -> (assignment function, rho function).
PI1_METHODS = {
    "lpt": (lambda ts, m: lpt_assignment_by_task(ts, m), _rho_lpt),
    "multifit": (
        lambda ts, m: list(multifit_schedule(ts, m).assignment),
        lambda m: 13.0 / 11.0,
    ),
}


def pi1_rho(method: str, m: int) -> float:
    """ρ₁ of the π₁ method ``method`` on ``m`` machines, without building π₁."""
    try:
        _, rho_fn = PI1_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown pi1 method {method!r}; known: {sorted(PI1_METHODS)}"
        ) from None
    return rho_fn(m)


def makespan_reference(instance: Instance, method: str = "lpt") -> ReferenceSchedule:
    """Build π₁: a ρ₁-approximate schedule of the *estimated* makespan."""
    rho = pi1_rho(method, instance.m)
    assignment = PI1_METHODS[method][0](list(instance.estimates), instance.m)
    loads = [0.0] * instance.m
    for j, i in enumerate(assignment):
        loads[i] += instance.tasks[j].estimate
    return ReferenceSchedule(tuple(assignment), max(loads), rho, method)


def memory_reference(instance: Instance) -> ReferenceSchedule:
    """Build π₂: LPT on the task sizes (ρ₂ = 4/3 − 1/(3m) on memory).

    Zero-size tasks carry no memory and are spread round-robin after the
    sized tasks are placed (they must still be *somewhere* for π₂ to be a
    complete assignment).
    """
    m = instance.m
    sized = [j for j in range(instance.n) if instance.tasks[j].size > 0.0]
    assignment = [0] * instance.n
    loads = [0.0] * m
    if sized:
        sizes = [instance.tasks[j].size for j in sized]
        sub_assign = lpt_assignment_by_task(sizes, m)
        for pos, j in enumerate(sized):
            assignment[j] = sub_assign[pos]
            loads[sub_assign[pos]] += instance.tasks[j].size
    zero = [j for j in range(instance.n) if instance.tasks[j].size == 0.0]
    for idx, j in enumerate(zero):
        assignment[j] = idx % m
    return ReferenceSchedule(tuple(assignment), max(loads), _rho_lpt(m), "lpt_on_sizes")


def memory_lower_bound(sizes: Sequence[float], m: int) -> float:
    """Lower bound on :math:`Mem^*_{max}`: ``max(sum s/m, max s)``.

    Memory is a makespan-shaped objective on the sizes, so the LP bound
    applies verbatim.  Returns 0 for all-zero sizes (memory is then free).
    """
    positive = [float(s) for s in sizes if s > 0.0]
    if not positive:
        return 0.0
    return lp_bound(positive, m)
