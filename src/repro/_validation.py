"""Shared argument-validation helpers.

Every public entry point of :mod:`repro` validates its arguments eagerly so
that errors surface at the API boundary with a clear message instead of deep
inside a simulation loop.  The helpers here centralize the checks (positive
counts, probability-like floats, uncertainty factors, ...) so the rest of
the code base stays terse and the error messages stay uniform.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_positive_float",
    "check_non_negative_float",
    "check_alpha",
    "check_fraction",
    "check_delta",
    "check_machine_count",
    "check_group_count",
    "check_times",
    "check_sizes",
    "check_finite",
    "check_in_range",
]


def check_finite(value: float, name: str) -> float:
    """Return ``value`` as a float, rejecting NaN and infinities."""
    out = float(value)
    if math.isnan(out) or math.isinf(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


def _coerce_int(value: Any, name: str) -> int:
    """Coerce to int, accepting numpy integers via ``__index__`` but not bools."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if not isinstance(value, int):
        try:
            value = value.__index__()
        except AttributeError:
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None
    return int(value)


def check_positive_int(value: Any, name: str) -> int:
    """Return ``value`` as an int, requiring it to be >= 1."""
    out = _coerce_int(value, name)
    if out < 1:
        raise ValueError(f"{name} must be >= 1, got {out}")
    return out


def check_non_negative_int(value: Any, name: str) -> int:
    """Return ``value`` as an int, requiring it to be >= 0."""
    out = _coerce_int(value, name)
    if out < 0:
        raise ValueError(f"{name} must be >= 0, got {out}")
    return out


def check_positive_float(value: Any, name: str) -> float:
    """Return ``value`` as a float, requiring it to be finite and > 0."""
    out = check_finite(value, name)
    if out <= 0.0:
        raise ValueError(f"{name} must be > 0, got {out}")
    return out


def check_non_negative_float(value: Any, name: str) -> float:
    """Return ``value`` as a float, requiring it to be finite and >= 0."""
    out = check_finite(value, name)
    if out < 0.0:
        raise ValueError(f"{name} must be >= 0, got {out}")
    return out


def check_alpha(alpha: Any) -> float:
    """Validate an uncertainty factor.

    The paper's model (Eq. 1) requires ``p̃/α <= p <= α·p̃`` which only makes
    sense for ``α >= 1``; ``α = 1`` is the certain (clairvoyant) special
    case.
    """
    out = check_finite(alpha, "alpha")
    if out < 1.0:
        raise ValueError(f"alpha must be >= 1 (alpha=1 means no uncertainty), got {out}")
    return out


def check_fraction(value: Any, name: str) -> float:
    """Return ``value`` as a float in the closed interval [0, 1]."""
    out = check_finite(value, name)
    if not 0.0 <= out <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {out}")
    return out


def check_delta(delta: Any) -> float:
    """Validate the Δ threshold used by the memory-aware algorithms.

    Δ trades makespan guarantee against memory guarantee; both families of
    bounds ((1+Δ)·α²ρ₁ and (1+1/Δ)·ρ₂) require Δ > 0.
    """
    out = check_finite(delta, "delta")
    if out <= 0.0:
        raise ValueError(f"delta must be > 0, got {out}")
    return out


def check_machine_count(m: Any) -> int:
    """Validate a machine count (m >= 1)."""
    return check_positive_int(m, "m (machine count)")


def check_group_count(k: Any, m: int) -> int:
    """Validate a group count for the LS-Group strategy.

    The paper assumes ``k`` divides ``m`` so every group has exactly ``m/k``
    machines; we enforce the same for the faithful strategy (a relaxed
    variant lives in :mod:`repro.core.strategies.ls_group`).
    """
    kk = check_positive_int(k, "k (group count)")
    if kk > m:
        raise ValueError(f"k (group count) must be <= m, got k={kk} > m={m}")
    if m % kk != 0:
        raise ValueError(
            f"k must divide m for equal-size groups (paper assumption), got m={m}, k={kk}"
        )
    return kk


def check_times(times: Iterable[Any], name: str = "processing times") -> list[float]:
    """Validate a sequence of processing times: non-empty, finite, > 0.

    Valid input costs one ``float()`` pass plus ``min`` and ``sum``: the
    minimum is positive unless some ``t <= 0`` (or ``-inf``), and the sum
    is finite unless some ``t`` is NaN or ``+inf``.  Only a rejected input
    (or a sum that overflows) pays for the element-by-element loop, which
    names the first offending element.
    """
    values = list(times)
    try:
        out = [float(t) for t in values]
    except (TypeError, ValueError, ArithmeticError):
        out = []  # the loop below raises the canonical error
    if out and min(out) > 0.0 and sum(out) < math.inf:
        return out
    out = [check_finite(t, f"{name}[{i}]") for i, t in enumerate(values)]
    if not out:
        raise ValueError(f"{name} must be non-empty")
    for i, t in enumerate(out):
        if t <= 0.0:
            raise ValueError(f"{name}[{i}] must be > 0, got {t}")
    return out


def check_sizes(sizes: Sequence[Any], n: int, name: str = "sizes") -> list[float]:
    """Validate a sequence of task sizes: length ``n``, finite, >= 0."""
    out = [check_finite(s, f"{name}[{i}]") for i, s in enumerate(sizes)]
    if len(out) != n:
        raise ValueError(f"{name} must have length {n}, got {len(out)}")
    for i, s in enumerate(out):
        if s < 0.0:
            raise ValueError(f"{name}[{i}] must be >= 0, got {s}")
    return out


def check_in_range(value: Any, lo: float, hi: float, name: str) -> float:
    """Return ``value`` as a float, requiring ``lo <= value <= hi``."""
    out = check_finite(value, name)
    if not lo <= out <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {out}")
    return out
