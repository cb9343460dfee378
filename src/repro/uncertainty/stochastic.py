"""Stochastic realization models.

The paper's analysis is worst-case, but its empirical companion (our
benches E1/E2) needs random realizations that respect the band.  All
models here draw a multiplicative factor per task inside
``[1/alpha, alpha]`` and are fully deterministic given a seed
(``numpy.random.default_rng``).

Models
------
``uniform_factors``
    Factor uniform on ``[1/alpha, alpha]``.  Skews upward in expectation
    (the interval is asymmetric around 1 in log space for this sampling).
``log_uniform_factors``
    ``exp(U[-ln alpha, +ln alpha])`` — symmetric in log space; the natural
    "neutral" model for multiplicative error.
``lognormal_factors``
    Clipped lognormal: factor ``exp(N(0, sigma_frac * ln alpha))`` clamped
    to the band.  Models mostly-accurate estimates with rare large misses.
``bimodal_extreme_factors``
    Each task independently takes factor ``alpha`` with probability ``p_up``
    else ``1/alpha``.  The distributional cousin of the proofs' adversary,
    which only ever uses the two extreme factors.
``beta_factors``
    ``exp(ln alpha * (2*Beta(a,b) - 1))`` — tunable skew inside the band.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_fraction, check_positive_float
from repro.core.model import Instance
from repro.uncertainty.realization import Realization, factors_realization

__all__ = [
    "uniform_factors",
    "log_uniform_factors",
    "lognormal_factors",
    "bimodal_extreme_factors",
    "beta_factors",
    "STOCHASTIC_MODELS",
    "sample_realization",
    "check_model",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def uniform_factors(instance: Instance, seed: int | np.random.Generator | None = 0) -> Realization:
    """Factors drawn uniformly on ``[1/alpha, alpha]``."""
    rng = _rng(seed)
    a = instance.alpha
    factors = rng.uniform(1.0 / a, a, size=instance.n)
    return factors_realization(instance, factors, label="uniform")


def log_uniform_factors(
    instance: Instance, seed: int | np.random.Generator | None = 0
) -> Realization:
    """Factors log-uniform on ``[1/alpha, alpha]`` (symmetric in log space)."""
    rng = _rng(seed)
    log_a = np.log(instance.alpha)
    factors = np.exp(rng.uniform(-log_a, log_a, size=instance.n)) if log_a > 0 else np.ones(
        instance.n
    )
    return factors_realization(instance, factors, label="log_uniform")


def lognormal_factors(
    instance: Instance,
    seed: int | np.random.Generator | None = 0,
    *,
    sigma_frac: float = 0.5,
) -> Realization:
    """Clipped lognormal factors.

    ``sigma_frac`` scales the log-standard-deviation relative to
    ``ln alpha``; draws outside the band are clamped to its edges.
    """
    check_positive_float(sigma_frac, "sigma_frac")
    rng = _rng(seed)
    a = instance.alpha
    log_a = np.log(a)
    if log_a == 0.0:
        factors = np.ones(instance.n)
    else:
        factors = np.exp(rng.normal(0.0, sigma_frac * log_a, size=instance.n))
        factors = np.clip(factors, 1.0 / a, a)
    return factors_realization(instance, factors, label="lognormal")


def bimodal_extreme_factors(
    instance: Instance,
    seed: int | np.random.Generator | None = 0,
    *,
    p_up: float = 0.5,
) -> Realization:
    """Each factor is ``alpha`` w.p. ``p_up`` else ``1/alpha``.

    This is the stochastic analogue of the adversary in Theorem 1, which
    only ever uses the extreme factors; it tends to produce the largest
    empirical ratios among the random models.
    """
    check_fraction(p_up, "p_up")
    rng = _rng(seed)
    a = instance.alpha
    ups = rng.random(instance.n) < p_up
    factors = np.where(ups, a, 1.0 / a)
    return factors_realization(instance, factors, label="bimodal_extreme")


def beta_factors(
    instance: Instance,
    seed: int | np.random.Generator | None = 0,
    *,
    a: float = 2.0,
    b: float = 2.0,
) -> Realization:
    """Factors ``exp(ln alpha * (2*Beta(a,b) - 1))`` — tunable skew.

    ``a = b`` is symmetric; ``a > b`` skews toward overruns
    (factors above 1), ``a < b`` toward underruns.
    """
    check_positive_float(a, "a")
    check_positive_float(b, "b")
    rng = _rng(seed)
    log_alpha = np.log(instance.alpha)
    u = rng.beta(a, b, size=instance.n)
    factors = np.exp(log_alpha * (2.0 * u - 1.0))
    return factors_realization(instance, factors, label=f"beta({a},{b})")


#: Registry of named stochastic models with default parameters, used by the
#: experiment harness to sweep realization models by name.
STOCHASTIC_MODELS = {
    "uniform": uniform_factors,
    "log_uniform": log_uniform_factors,
    "lognormal": lognormal_factors,
    "bimodal_extreme": bimodal_extreme_factors,
    "beta": beta_factors,
}


def sample_realization(
    instance: Instance,
    model: str,
    seed: int | np.random.Generator | None = 0,
    **kwargs: float,
) -> Realization:
    """Draw a realization from a named stochastic model.

    Parameters
    ----------
    model:
        One of :data:`STOCHASTIC_MODELS` (e.g. ``"log_uniform"``).
    seed:
        Seed or generator; identical seeds give identical realizations.
    kwargs:
        Model-specific parameters (e.g. ``p_up`` for ``bimodal_extreme``).
    """
    return STOCHASTIC_MODELS[check_model(model)](instance, seed, **kwargs)


def check_model(model: str) -> str:
    """Return ``model`` if :data:`STOCHASTIC_MODELS` names it, else raise
    ``ValueError`` naming the known models."""
    if model not in STOCHASTIC_MODELS:
        raise ValueError(
            f"unknown stochastic model {model!r}; known: {sorted(STOCHASTIC_MODELS)}"
        )
    return model
