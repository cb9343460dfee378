"""The paper's replication strategies, ablations and future-work extensions."""

from repro.core.strategies.lpt_no_choice import LPTNoChoice
from repro.core.strategies.lpt_no_restriction import LPTNoRestriction
from repro.core.strategies.ls_group import LPTGroup, LSGroup, equal_groups
from repro.core.strategies.nonclairvoyant import NonClairvoyantLS
from repro.core.strategies.overlapping import OverlappingWindows, window_machines
from repro.core.strategies.selective import BudgetedReplication, SelectiveReplication

__all__ = [
    "LPTNoChoice",
    "LPTNoRestriction",
    "LSGroup",
    "LPTGroup",
    "equal_groups",
    "SelectiveReplication",
    "BudgetedReplication",
    "OverlappingWindows",
    "window_machines",
    "NonClairvoyantLS",
]
