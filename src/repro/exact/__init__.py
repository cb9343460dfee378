"""Exact clairvoyant-optimum solvers (B&B, DP) and the graceful facade."""

from repro.exact.bnb import BnBResult, branch_and_bound
from repro.exact.dp import dp_load_vector, dp_two_machines, scale_to_integers
from repro.exact.optimal import OptimalValue, optimal_makespan

__all__ = [
    "branch_and_bound",
    "BnBResult",
    "dp_two_machines",
    "dp_load_vector",
    "scale_to_integers",
    "optimal_makespan",
    "OptimalValue",
]
