"""The shared Phase 1 of the partition strategies (Theorems 2–4).

LPT-No Choice, LPT-No Restriction and LS-Group all split the ``m``
machines into ``k`` equal contiguous groups, put every task on one
group, and dispatch in one fixed order:

* LPT-No Choice: ``k = m`` groups of one machine, LPT order;
* LPT-No Restriction: ``k = 1`` group of every machine, LPT order;
* LS-Group: ``k`` groups of ``m/k`` machines, input order (LPT order for
  the :class:`~repro.core.strategies.ls_group.LPTGroup` ablation).

Phase 1 is List Scheduling over the groups on the estimates, in the
dispatch order, each group one pseudo-machine.  Its result, a
:class:`Partition`, is what both the per-cell path (:meth:`place`,
:meth:`make_policy`) and the batch compiler (which lays out a whole
stack of instances from their group ids, see
:func:`repro.simulation.batch.build_plan`) read.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import FixedOrderPolicy, OnlinePolicy, TwoPhaseStrategy
from repro.schedulers.list_scheduling import greedy_assign_heap

__all__ = ["Partition", "PartitionStrategy"]


class Partition(NamedTuple):
    """Phase 1 of a :class:`PartitionStrategy` on one instance.

    ``order`` is the fixed dispatch order, and ``groups[pos]`` the group
    of task ``order[pos]``: group ``g`` holds machines ``g * m // k`` to
    ``(g + 1) * m // k - 1``.
    """

    k: int
    order: list[int]
    groups: tuple[int, ...]

    def group_of_task(self) -> list[int]:
        """``groups`` indexed by task id instead of dispatch position."""
        by_task = [0] * len(self.order)
        for j, g in zip(self.order, self.groups):
            by_task[j] = g
        return by_task


class PartitionStrategy(TwoPhaseStrategy):
    """Tasks on ``k`` equal contiguous machine groups, one fixed order.

    A subclass names its group count and dispatch order, and builds its
    placement from the :class:`Partition`; :meth:`place` and
    :meth:`make_policy` derive from :meth:`partition`.  Phase 2 is a
    :class:`FixedOrderPolicy` over the dispatch order: an idle machine
    takes the first unstarted task of its own group, which is online
    List Scheduling within the group.
    """

    @abc.abstractmethod
    def group_count(self, instance: Instance) -> int:
        """``k``; raises ``ValueError`` when it does not divide ``m``."""

    @abc.abstractmethod
    def dispatch_order(self, instance: Instance) -> list[int]:
        """The order of both phases: Phase 1 places, Phase 2 dispatches."""

    @abc.abstractmethod
    def _placement(self, instance: Instance, partition: Partition) -> Placement:
        """The machine sets (and meta) of ``partition``."""

    def partition(self, instance: Instance) -> Partition:
        """Phase 1: List Scheduling over the ``k`` groups on the estimates."""
        k = self.group_count(instance)
        order = self.dispatch_order(instance)
        if k == 1:
            return Partition(1, order, (0,) * instance.n)
        result = greedy_assign_heap(instance.estimates, order, k)
        return Partition(k, order, result.assignment)

    def place(self, instance: Instance) -> Placement:
        return self._placement(instance, self.partition(instance))

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        return FixedOrderPolicy(self.dispatch_order(instance))
