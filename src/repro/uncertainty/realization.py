"""Realizations: the actual processing times of an instance.

A :class:`Realization` fixes the actual time :math:`p_j` of every task of an
:class:`~repro.core.model.Instance`.  Phase-2 simulation consumes a
realization but only *reveals* each value when the task completes — the
semi-clairvoyant information model of the paper is enforced by the
simulator, not here.

Realizations validate the multiplicative band (Eq. 1) on construction, so an
inadmissible adversary is impossible to express by accident.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro._validation import check_alpha, check_positive_float
from repro.core.model import BAND_REL_TOL, Instance

__all__ = ["Realization", "factors_realization", "truthful_realization"]


@dataclass(frozen=True)
class Realization:
    """Actual processing times for one instance.

    Attributes
    ----------
    instance:
        The instance these actuals belong to.
    actuals:
        ``actuals[j]`` is :math:`p_j`.  Must respect
        :math:`\\tilde p_j/\\alpha \\le p_j \\le \\alpha\\tilde p_j`.
    label:
        Free-form description used in experiment reports
        (e.g. ``"adversarial"``, ``"uniform(seed=3)"``).
    """

    instance: Instance
    actuals: tuple[float, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        inst = self.instance
        if len(self.actuals) != inst.n:
            raise ValueError(
                f"realization must cover all {inst.n} tasks, got {len(self.actuals)} values"
            )
        if _all_admissible(inst, self.actuals):
            return
        # Only to raise: name the first inadmissible actual.
        for j, p in enumerate(self.actuals):
            check_positive_float(p, f"actuals[{j}]")
            if not inst.tasks[j].admits(p, inst.alpha):
                lo, hi = inst.tasks[j].bounds(inst.alpha)
                raise ValueError(
                    f"actuals[{j}]={p} violates the alpha-band "
                    f"[{lo}, {hi}] of estimate {inst.tasks[j].estimate} "
                    f"(alpha={inst.alpha})"
                )

    # -- accessors -------------------------------------------------------------
    def actual(self, tid: int) -> float:
        """Actual processing time of task ``tid``."""
        return self.actuals[tid]

    def __getitem__(self, tid: int) -> float:
        return self.actuals[tid]

    def __len__(self) -> int:
        return len(self.actuals)

    @property
    def total(self) -> float:
        """:math:`\\sum_j p_j` — the total actual work."""
        return math.fsum(self.actuals)

    @property
    def max(self) -> float:
        """:math:`\\max_j p_j` — a universal makespan lower bound."""
        return max(self.actuals)

    def average_load(self) -> float:
        """:math:`\\sum_j p_j / m` — the average-load makespan lower bound."""
        return self.total / self.instance.m

    def factor(self, tid: int) -> float:
        """The realized multiplier ``p_j / p̃_j`` of task ``tid``."""
        return self.actuals[tid] / self.instance.tasks[tid].estimate

    def factors(self) -> tuple[float, ...]:
        """All realized multipliers, in task order."""
        return tuple(self.factor(j) for j in range(len(self.actuals)))

    # -- derivation --------------------------------------------------------------
    def map_factors(self, fn: Callable[[int, float], float], label: str = "") -> "Realization":
        """A new realization with per-task multipliers ``fn(tid, old_factor)``.

        The returned multipliers are *not* clamped: an out-of-band result
        raises, which is the desired behaviour for catching buggy adversaries.
        """
        inst = self.instance
        actuals = tuple(
            inst.tasks[j].estimate * fn(j, self.factor(j)) for j in range(inst.n)
        )
        return Realization(inst, actuals, label=label or self.label)


def _all_admissible(instance: Instance, actuals: Sequence[float]) -> bool:
    """Whether every actual is finite, positive and inside its alpha-band.

    One pass over the expressions :func:`check_positive_float` and
    :meth:`Task.admits <repro.core.model.Task.admits>` evaluate, so it
    accepts exactly what they accept.  False also when a value cannot be
    compared; the caller's loop then raises the canonical error.
    """
    a = check_alpha(instance.alpha)
    slack_lo, slack_hi = 1.0 - BAND_REL_TOL, 1.0 + BAND_REL_TOL
    inf = math.inf
    try:
        for e, p in zip(instance.estimates, actuals):
            if not (0.0 < p < inf and (e / a) * slack_lo <= p <= (e * a) * slack_hi):
                return False
    except (TypeError, ValueError, ArithmeticError):
        return False
    return True


def truthful_realization(instance: Instance, label: str = "truthful") -> Realization:
    """The realization where every estimate is exact (:math:`p_j = \\tilde p_j`)."""
    return Realization(instance, instance.estimates, label=label)


def factors_realization(
    instance: Instance,
    factors: Sequence[float],
    label: str = "",
) -> Realization:
    """Build a realization from per-task multiplicative factors.

    ``factors[j]`` must lie in ``[1/alpha, alpha]``; the actual time becomes
    ``estimate[j] * factors[j]``.
    """
    if len(factors) != instance.n:
        raise ValueError(
            f"factors must cover all {instance.n} tasks, got {len(factors)}"
        )
    actuals = tuple(t.estimate * float(f) for t, f in zip(instance.tasks, factors))
    return Realization(instance, actuals, label=label)
