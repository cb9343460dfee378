"""Memory-aware model: SBO split, SABO and ABO algorithms, Pareto analysis."""

from repro.memory.abo import ABO
from repro.memory.capped import CappedReplication, min_feasible_capacity
from repro.memory.frontier import (
    FrontierPoint,
    abo_curve,
    delta_for_makespan_target,
    impossibility_curve,
    sabo_curve,
)
from repro.memory.model import (
    ReferenceSchedule,
    makespan_reference,
    memory_lower_bound,
    memory_reference,
)
from repro.memory.pareto import BiPoint, dominates, front_area, pareto_front, zenith_value
from repro.memory.sabo import SABO
from repro.memory.sbo import SBOSplit, sbo_split

__all__ = [
    "CappedReplication",
    "min_feasible_capacity",
    "sbo_split",
    "SBOSplit",
    "SABO",
    "ABO",
    "ReferenceSchedule",
    "makespan_reference",
    "memory_reference",
    "memory_lower_bound",
    "BiPoint",
    "dominates",
    "pareto_front",
    "zenith_value",
    "front_area",
    "sabo_curve",
    "abo_curve",
    "impossibility_curve",
    "delta_for_makespan_target",
    "FrontierPoint",
]
