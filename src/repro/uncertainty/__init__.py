"""Uncertainty models: realizations in the α-band and stochastic errors."""

from repro.uncertainty.realization import (
    Realization,
    factors_realization,
    truthful_realization,
)
from repro.uncertainty.stochastic import (
    STOCHASTIC_MODELS,
    beta_factors,
    bimodal_extreme_factors,
    log_uniform_factors,
    lognormal_factors,
    sample_realization,
    uniform_factors,
)

__all__ = [
    "Realization",
    "truthful_realization",
    "factors_realization",
    "uniform_factors",
    "log_uniform_factors",
    "lognormal_factors",
    "bimodal_extreme_factors",
    "beta_factors",
    "sample_realization",
    "STOCHASTIC_MODELS",
]
