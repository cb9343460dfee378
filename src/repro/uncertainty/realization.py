"""Realizations: the actual processing times of an instance.

A :class:`Realization` fixes the actual time :math:`p_j` of every task of an
:class:`~repro.core.model.Instance`.  Phase-2 simulation consumes a
realization but only *reveals* each value when the task completes — the
semi-clairvoyant information model of the paper is enforced by the
simulator, not here.

Realizations validate the multiplicative band (Eq. 1) on construction, so an
inadmissible adversary is impossible to express by accident.  The band is
checked on a float64 array, in one NumPy pass (:func:`_all_admissible`);
only an inadmissible realization walks its actuals one by one, to name the
first bad index in the error.  :func:`factors_realization`, which every
stochastic model and adversary builds through, multiplies the factors by
:attr:`Instance.estimate_array <repro.core.model.Instance.estimate_array>`
and checks that product once, so the actuals are never walked in Python.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

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
        try:
            if _all_admissible(inst, np.asarray(self.actuals)):
                return
        except (TypeError, ValueError, ArithmeticError):
            pass  # a value that cannot be compared; the loop names it
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
        factors = [fn(j, self.factor(j)) for j in range(self.instance.n)]
        return factors_realization(self.instance, factors, label=label or self.label)


def _all_admissible(instance: Instance, actuals: np.ndarray) -> bool:
    """Whether every actual is finite, positive and inside its alpha-band.

    One array pass over the expressions :func:`check_positive_float` and
    :meth:`Task.admits <repro.core.model.Task.admits>` evaluate, so it
    accepts exactly what they accept (IEEE comparisons are false on NaN).
    The per-element loop in :meth:`Realization.__post_init__` runs only to
    raise the canonical error for what this refuses.
    """
    a = check_alpha(instance.alpha)
    e = instance.estimate_array
    p = actuals
    if p.shape != e.shape:
        return False
    ok = (0.0 < p) & (p < math.inf)
    ok &= (e / a) * (1.0 - BAND_REL_TOL) <= p
    ok &= p <= (e * a) * (1.0 + BAND_REL_TOL)
    return bool(ok.all())


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
    ``estimate[j] * factors[j]``, one float64 product per task (the same
    IEEE product as ``t.estimate * float(f)``).  ``factors`` may be any
    sequence of reals; it is read as one float64 array.
    """
    if len(factors) != instance.n:
        raise ValueError(
            f"factors must cover all {instance.n} tasks, got {len(factors)}"
        )
    product = instance.estimate_array * np.asarray(factors, dtype=np.float64)
    actuals = tuple(product.tolist())
    if not _all_admissible(instance, product):
        # Only to raise: the constructor's loop names the first bad index.
        return Realization(instance, actuals, label=label)
    # Checked above, so skip the constructor's second check.
    real = object.__new__(Realization)
    real.__dict__.update(instance=instance, actuals=actuals, label=label)
    return real
