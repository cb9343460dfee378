"""Classical scheduling substrate: LS, LPT, MULTIFIT and lower bounds."""

from repro.schedulers.list_scheduling import AssignmentResult, balance_gap, list_schedule
from repro.schedulers.lower_bounds import (
    average_load_bound,
    combined_lower_bound,
    kth_group_bound,
    lp_bound,
    max_task_bound,
    pair_bound,
)
from repro.schedulers.lpt import critical_task, lpt_assignment_by_task, lpt_order, lpt_schedule
from repro.schedulers.multifit import MULTIFIT_RATIO, ffd_pack, multifit_schedule

__all__ = [
    "AssignmentResult",
    "list_schedule",
    "balance_gap",
    "lpt_schedule",
    "lpt_order",
    "lpt_assignment_by_task",
    "critical_task",
    "multifit_schedule",
    "ffd_pack",
    "MULTIFIT_RATIO",
    "average_load_bound",
    "max_task_bound",
    "pair_bound",
    "kth_group_bound",
    "lp_bound",
    "combined_lower_bound",
]
