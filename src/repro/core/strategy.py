"""The two-phase strategy interface (Phase 1 placement + Phase 2 policy).

The paper's problem is played in two phases and this module encodes that
split as the library's central abstraction:

* :class:`PlacementStrategy` — Phase 1.  Sees only estimates, ``m`` and
  ``alpha``; outputs a :class:`~repro.core.placement.Placement` (the sets
  :math:`M_j`).
* :class:`OnlinePolicy` — Phase 2.  Consulted by the discrete-event engine
  every time a machine becomes idle; sees a :class:`SchedulerView` that
  exposes *only* semi-clairvoyant information (estimates, the placement,
  which tasks completed and their now-revealed actual durations — never
  the actual duration of an unfinished task).
* :class:`TwoPhaseStrategy` — bundles both and is what the experiment
  harness runs.

The information hiding is structural: :class:`SchedulerView` simply has no
accessor for unrevealed durations, so a policy cannot cheat without
reaching into engine internals (tests monkeypatch-proof the public path).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.core.model import Instance
from repro.core.placement import Placement

__all__ = ["SchedulerView", "OnlinePolicy", "PlacementStrategy", "TwoPhaseStrategy"]


class SchedulerView:
    """What a Phase-2 policy is allowed to observe.

    Built and mutated by the simulation engine; read by policies.  All
    mutating methods are private-by-convention (engine only).
    """

    def __init__(self, instance: Instance, placement: Placement) -> None:
        self._instance = instance
        self._placement = placement
        self._started: set[int] = set()
        self._completed: dict[int, float] = {}  # tid -> revealed actual time
        self._running: dict[int, int] = {}  # tid -> machine
        self._now = 0.0
        # None = no release tracking (everything available at time 0);
        # otherwise the set of already-released task ids.
        self._released: set[int] | None = None
        # Bumped whenever a task is aborted (machine failure); policies
        # with cached dispatch state use it to invalidate their caches.
        self._abort_epoch = 0

    # -- static problem data (always visible) ----------------------------------
    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def estimate(self, tid: int) -> float:
        """Estimated processing time :math:`\\tilde p_j` (always known)."""
        return self._instance.tasks[tid].estimate

    def allowed_machines(self, tid: int) -> frozenset[int]:
        return self._placement.machines_for(tid)

    # -- dynamic, semi-clairvoyant data ------------------------------------------
    def is_started(self, tid: int) -> bool:
        return tid in self._started

    def is_completed(self, tid: int) -> bool:
        return tid in self._completed

    def is_released(self, tid: int) -> bool:
        """Whether task ``tid`` has been released (always True without
        release-time tracking — the paper's model)."""
        return self._released is None or tid in self._released

    @property
    def abort_epoch(self) -> int:
        """Number of task aborts so far (machine-failure extension).

        A policy that caches "which tasks have started" must re-read on
        epoch change: an aborted task becomes unstarted again.
        """
        return self._abort_epoch

    def revealed_actual(self, tid: int) -> float:
        """Actual time of a *completed* task.

        Raises ``KeyError`` for running or unstarted tasks — that
        information does not exist yet in the paper's model.
        """
        return self._completed[tid]

    def running_on(self, machine: int) -> int | None:
        """Task currently running on ``machine``, if any."""
        for tid, i in self._running.items():
            if i == machine:
                return tid
        return None

    def pending_tasks(self) -> list[int]:
        """Released-but-unstarted task ids, ascending."""
        return [
            j
            for j in range(self._instance.n)
            if j not in self._started and self.is_released(j)
        ]

    def pending_on(self, machine: int) -> list[int]:
        """Released, unstarted tasks whose data is on ``machine``."""
        return [j for j in self.pending_tasks() if self._placement.allows(j, machine)]

    # -- engine-side mutation (single underscore: internal API) ---------------------
    def _advance(self, time: float) -> None:
        self._now = time

    def _enable_release_tracking(self, initially_released: set[int]) -> None:
        self._released = set(initially_released)

    def _mark_released(self, tid: int) -> None:
        if self._released is not None:
            self._released.add(tid)

    def _mark_started(self, tid: int, machine: int) -> None:
        self._started.add(tid)
        self._running[tid] = machine

    def _mark_completed(self, tid: int, actual: float) -> None:
        self._running.pop(tid, None)
        self._completed[tid] = actual

    def _mark_aborted(self, tid: int) -> None:
        """A running task's machine failed; the task reverts to unstarted."""
        self._running.pop(tid, None)
        self._started.discard(tid)
        self._abort_epoch += 1


@runtime_checkable
class OnlinePolicy(Protocol):
    """Phase-2 dispatch policy.

    ``select`` is called whenever ``machine`` becomes idle; it must return
    the id of an unstarted task whose placement allows ``machine``, or
    ``None`` to leave the machine idle.  With all tasks released at time 0
    a ``None`` retires the machine permanently (our policies only return
    ``None`` when they have nothing left for that machine).
    """

    def select(self, machine: int, view: SchedulerView) -> int | None:
        """Pick the next task for ``machine``, or ``None``."""
        ...


class PlacementStrategy(abc.ABC):
    """Phase 1: place task data using only estimates, ``m`` and ``alpha``."""

    #: Human-readable name used in tables and plots.
    name: str = "placement"

    @abc.abstractmethod
    def place(self, instance: Instance) -> Placement:
        """Compute the data placement (the sets :math:`M_j`)."""


class TwoPhaseStrategy(PlacementStrategy):
    """A complete strategy: placement + the policy that schedules within it."""

    @abc.abstractmethod
    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        """Build the Phase-2 policy for a placement produced by :meth:`place`.

        Called once per simulation; policies may carry mutable dispatch
        state (e.g. a cursor into the LPT order) that lives for one run.
        """

    def replication_of(self, instance: Instance) -> int:
        """Convenience: ``max_j |M_j|`` of this strategy's placement."""
        return self.place(instance).max_replication()


class FixedOrderPolicy:
    """Reusable Phase-2 policy: dispatch pending tasks in a fixed order.

    When ``machine`` idles, scan ``order`` for the first unstarted task
    allowed on it.  With an everywhere-placement and LPT order this *is*
    the paper's LPT-No Restriction Phase 2; with group placements it is
    within-group List Scheduling in the given order.

    A per-machine cursor would be wrong here: an earlier task may still be
    waiting because its machine set excludes the machines that idled so
    far, so the scan must restart from the first unstarted task.  The scan
    keeps a global low-water mark to stay near O(1) amortized for
    everywhere-placements; an abort or a new run (a new view) resets it.
    """

    def __init__(self, order: Sequence[int]) -> None:
        self._order = list(order)
        self._first_unstarted = 0  # low-water mark into _order
        self._view: SchedulerView | None = None
        self._seen_abort_epoch = 0

    @property
    def order(self) -> tuple[int, ...]:
        """The fixed dispatch order (read-only view).

        The batch backend (:mod:`repro.simulation.batch`) replays this
        order as a vectorized completion sweep instead of event-by-event.
        """
        return tuple(self._order)

    def select(self, machine: int, view: SchedulerView) -> int | None:
        order = self._order
        if view is not self._view or view.abort_epoch != self._seen_abort_epoch:
            # A new run, or an abort that reverted some task to unstarted:
            # the low-water mark may have passed it, so rescan from the top.
            self._first_unstarted = 0
            self._view = view
            self._seen_abort_epoch = view.abort_epoch
        # Advance the low-water mark past globally started tasks.
        while self._first_unstarted < len(order) and view.is_started(
            order[self._first_unstarted]
        ):
            self._first_unstarted += 1
        for pos in range(self._first_unstarted, len(order)):
            tid = order[pos]
            if (
                not view.is_started(tid)
                and view.is_released(tid)
                and view.placement.allows(tid, machine)
            ):
                return tid
        return None
