"""Task and instance model for uncertain scheduling.

This module implements the problem definition of Section 3 of the paper:
a set :math:`J` of :math:`n` independent tasks must be scheduled on a set
:math:`M` of :math:`m` identical machines.  The scheduler only knows an
*estimate* :math:`\\tilde p_j` of each task's processing time; the *actual*
processing time :math:`p_j` (revealed only when the task completes)
satisfies the multiplicative band

.. math::

    \\tilde p_j / \\alpha \\le p_j \\le \\alpha \\tilde p_j

for an uncertainty factor :math:`\\alpha \\ge 1` known to the scheduler.

:class:`Task` carries an estimate and an optional memory size (used by the
memory-aware model of Section 6); :class:`Instance` bundles the tasks with
``m`` and ``alpha`` and is the single input object every Phase-1 placement
strategy consumes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro._validation import (
    check_alpha,
    check_machine_count,
    check_non_negative_float,
    check_non_negative_int,
    check_positive_float,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Task", "Instance", "make_instance"]

#: Relative slack :meth:`Task.admits` grants each band edge, absorbing the
#: rounding of multiplying and dividing by ``alpha``.
BAND_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Task:
    """One independent task.

    Attributes
    ----------
    tid:
        Task identifier, an index in ``range(n)`` within its instance.
    estimate:
        The estimated processing time :math:`\\tilde p_j` available to the
        scheduler before execution.  Strictly positive.
    size:
        Memory footprint :math:`s_j` of the task's input data, used by the
        memory-aware model (Section 6).  Defaults to ``0.0`` for the
        replication-bound model where memory is not measured.
    """

    tid: int
    estimate: float
    size: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative_int(self.tid, "tid")
        check_positive_float(self.estimate, "estimate")
        check_non_negative_float(self.size, "size")

    def bounds(self, alpha: float) -> tuple[float, float]:
        """Return the ``(low, high)`` band of admissible actual times."""
        a = check_alpha(alpha)
        return (self.estimate / a, self.estimate * a)

    def admits(self, actual: float, alpha: float, *, rel_tol: float = BAND_REL_TOL) -> bool:
        """Whether ``actual`` is an admissible realization under ``alpha``.

        A small relative tolerance absorbs floating-point noise from
        multiplying and dividing by ``alpha``.
        """
        lo, hi = self.bounds(alpha)
        slack_lo = lo * (1.0 - rel_tol)
        slack_hi = hi * (1.0 + rel_tol)
        return slack_lo <= actual <= slack_hi


@dataclass(frozen=True)
class Instance:
    """A full problem instance: tasks, machine count and uncertainty factor.

    Instances are immutable; workload generators in :mod:`repro.workloads`
    build them, strategies consume them.  Tasks are stored in input order
    (``tasks[j].tid == j``), which matters for List Scheduling, whose output
    depends on the arrival order.
    """

    tasks: tuple[Task, ...]
    m: int
    alpha: float
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        check_machine_count(self.m)
        check_alpha(self.alpha)
        if not self.tasks:
            raise ValueError("an Instance must contain at least one task")
        for j, task in enumerate(self.tasks):
            if not isinstance(task, Task):
                raise TypeError(f"tasks[{j}] must be a Task, got {type(task).__name__}")
            if task.tid != j:
                raise ValueError(
                    f"tasks must be numbered contiguously: tasks[{j}].tid == {task.tid}"
                )

    # -- basic accessors ---------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def machines(self) -> range:
        """Machine identifiers ``0..m-1``."""
        return range(self.m)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def task(self, tid: int) -> Task:
        """Return the task with identifier ``tid``."""
        return self.tasks[tid]

    # -- aggregate estimate statistics --------------------------------------
    @cached_property
    def estimates(self) -> tuple[float, ...]:
        """All estimated processing times, in task order (built once)."""
        return tuple(t.estimate for t in self.tasks)

    @cached_property
    def estimate_array(self) -> np.ndarray:
        """:attr:`estimates` as a read-only float64 array (built once)."""
        import numpy as np  # lazily: a model-only import stays numpy-free

        array = np.array(self.estimates, dtype=np.float64)
        array.flags.writeable = False
        return array

    @property
    def sizes(self) -> tuple[float, ...]:
        """All task sizes, in task order."""
        return tuple(t.size for t in self.tasks)

    @property
    def total_estimate(self) -> float:
        """:math:`\\sum_j \\tilde p_j`."""
        return math.fsum(t.estimate for t in self.tasks)

    @property
    def max_estimate(self) -> float:
        """:math:`\\max_j \\tilde p_j`."""
        return max(t.estimate for t in self.tasks)

    @property
    def total_size(self) -> float:
        """:math:`\\sum_j s_j`."""
        return math.fsum(t.size for t in self.tasks)

    def average_estimated_load(self) -> float:
        """The trivial makespan lower bound :math:`\\sum_j \\tilde p_j / m`."""
        return self.total_estimate / self.m

    # -- ordering helpers used by LPT/LS -------------------------------------
    def lpt_order(self) -> list[int]:
        """Task ids sorted by non-increasing estimate (ties by id).

        This is the processing order of both LPT-No Choice (Phase 1) and
        LPT-No Restriction (Phase 2).  Sorted once per instance; each call
        returns a fresh list.
        """
        return list(self._lpt_order)

    @cached_property
    def _lpt_order(self) -> tuple[int, ...]:
        estimates = self.estimates
        return tuple(sorted(range(self.n), key=lambda j: (-estimates[j], j)))

    def spt_order(self) -> list[int]:
        """Task ids sorted by non-decreasing estimate (ties by id)."""
        return sorted(range(self.n), key=lambda j: (self.tasks[j].estimate, j))

    def input_order(self) -> list[int]:
        """Task ids in input (arrival) order — the order List Scheduling uses."""
        return list(range(self.n))

    # -- derivation ----------------------------------------------------------
    def with_alpha(self, alpha: float) -> "Instance":
        """A copy of this instance under a different uncertainty factor."""
        return Instance(self.tasks, self.m, check_alpha(alpha), name=self.name)

    def with_m(self, m: int) -> "Instance":
        """A copy of this instance with a different machine count."""
        return Instance(self.tasks, check_machine_count(m), self.alpha, name=self.name)

    def with_sizes(self, sizes: Sequence[float]) -> "Instance":
        """A copy where task ``j`` gets memory size ``sizes[j]``."""
        if len(sizes) != self.n:
            raise ValueError(f"sizes must have length {self.n}, got {len(sizes)}")
        tasks = tuple(
            Task(t.tid, t.estimate, check_non_negative_float(s, f"sizes[{t.tid}]"))
            for t, s in zip(self.tasks, sizes)
        )
        return Instance(tasks, self.m, self.alpha, name=self.name)

    def subset(self, tids: Iterable[int]) -> "Instance":
        """A new instance containing only ``tids``, renumbered contiguously.

        Useful for split-and-schedule algorithms (e.g. SABO/ABO schedule the
        memory-intensive and time-intensive subsets through different
        sub-schedulers).
        """
        chosen = sorted(set(tids))
        if not chosen:
            raise ValueError("subset must contain at least one task id")
        for tid in chosen:
            if not 0 <= tid < self.n:
                raise ValueError(f"task id {tid} out of range 0..{self.n - 1}")
        tasks = tuple(
            Task(new_id, self.tasks[old_id].estimate, self.tasks[old_id].size)
            for new_id, old_id in enumerate(chosen)
        )
        return Instance(tasks, self.m, self.alpha, name=self.name)


def make_instance(
    estimates: Sequence[float],
    m: int,
    alpha: float = 1.0,
    *,
    sizes: Sequence[float] | None = None,
    name: str = "",
) -> Instance:
    """Convenience constructor from plain sequences.

    Parameters
    ----------
    estimates:
        Estimated processing times :math:`\\tilde p_j`; one task per entry.
    m:
        Number of identical machines.
    alpha:
        Uncertainty factor (:math:`\\alpha \\ge 1`).
    sizes:
        Optional memory sizes :math:`s_j` (same length as ``estimates``).
    name:
        Optional label carried through analysis reports.
    """
    ests = [check_positive_float(e, f"estimates[{i}]") for i, e in enumerate(estimates)]
    if not ests:
        raise ValueError("estimates must be non-empty")
    if sizes is None:
        tasks = tuple(Task(j, e) for j, e in enumerate(ests))
    else:
        if len(sizes) != len(ests):
            raise ValueError(
                f"sizes must have the same length as estimates "
                f"({len(sizes)} != {len(ests)})"
            )
        tasks = tuple(
            Task(j, e, check_non_negative_float(s, f"sizes[{j}]"))
            for j, (e, s) in enumerate(zip(ests, sizes))
        )
    return Instance(tasks, check_machine_count(m), check_alpha(alpha), name=name)
