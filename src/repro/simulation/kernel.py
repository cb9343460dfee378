"""The event kernel behind :func:`repro.simulation.engine.simulate`.

:class:`EventKernel` plays releases, completions, idle polls and the
faults of an optional :class:`~repro.faults.plan.FaultPlan`: crash-stop,
crash-recover and degraded-speed intervals, with attempt tokens so an
aborted or rescheduled completion is ignored when it surfaces.  A
fault-free run is simply the ``plan=None`` case: no failure or speed
event is ever queued, every completion's token is current, and every
machine runs at its base speed.

The kernel narrates its run through the :mod:`repro.obs` tracer it is
given (counters and events at fixed points, only when
``tracer.enabled``).  The event-queue discipline is part of the trace
contract: seeding order (pending releases, then the plan's crashes, then
its slowdowns, then the ``t = 0`` idle polls) and the
:class:`~repro.simulation.events.EventKind` priorities fix the ``seq``
tie-break, so traces are reproducible to the byte.

Events are plain tuples that the heap compares in C.  :meth:`EventKernel.run`
pops the queue's heap itself and calls each event's handler from a
table indexed by its kind, so the loop does no per-event branching on
the kind.
"""

from __future__ import annotations

import heapq
import math

from repro.core.placement import Placement
from repro.core.strategy import OnlinePolicy, SchedulerView
from repro.faults.plan import FaultPlan
from repro.obs.tracer import Tracer
from repro.simulation.events import EventKind, EventQueue
from repro.simulation.trace import TaskRun
from repro.uncertainty.realization import Realization

__all__ = ["SimulationError", "EventKernel"]


class SimulationError(RuntimeError):
    """Raised when a policy misbehaves or the run cannot complete."""


class EventKernel:
    """Discrete-event kernel: one Phase-2 run, with or without faults.

    Parameters
    ----------
    placement, realization, policy:
        The Phase-1 placement, the actual durations, and the Phase-2
        dispatch policy.
    releases:
        Per-task release times (already validated by the engine).
    machine_speed:
        Per-machine speed factors (already validated by the engine).
    tracer:
        The :mod:`repro.obs` tracer the run reports to.
    plan:
        The validated :class:`~repro.faults.plan.FaultPlan` driving the
        failure, recovery and speed events; ``None`` for a fault-free run.
    """

    def __init__(
        self,
        placement: Placement,
        realization: Realization,
        policy: OnlinePolicy,
        *,
        releases: list[float],
        machine_speed: list[float],
        tracer: Tracer,
        plan: FaultPlan | None = None,
    ) -> None:
        instance = placement.instance
        self.placement = placement
        self.realization = realization
        self.policy = policy
        self.releases = releases
        self.machine_speed = machine_speed
        self.tracer = tracer
        self.n = instance.n
        self.m = instance.m

        self.view = SchedulerView(instance, placement)
        self.queue = EventQueue()
        self.released: set[int] = set()
        self.busy: dict[int, int] = {}  # machine -> running tid
        self.task_start: dict[int, float] = {}  # tid -> start of current attempt
        self.runs: list[TaskRun | None] = [None] * self.n
        self.aborted: list[TaskRun] = []
        # When each failed machine comes back (inf = permanent); a machine
        # is down exactly while it has an entry.  Overlapping outages —
        # e.g. merged plans hitting one machine — keep it down for the
        # *union* of the windows instead of letting the first (possibly
        # shorter) outage's recovery resurrect it.
        self.down_until: dict[int, float] = {}
        # Effective speed per machine: base speed × the active degraded
        # factor (``s * 1.0 == s`` exactly, so a healthy machine runs at
        # its base speed bit for bit).
        self.speed: list[float] = list(machine_speed)
        # Each dispatch and each speed change bumps its machine's token,
        # so a superseded completion event is ignored when it surfaces.
        self.attempt_token: list[int] = [0] * self.m
        # Completion time of each busy machine's current attempt.
        self.scheduled_end: list[float] = [0.0] * self.m

        # Seeding order is part of the trace contract: pending releases,
        # then the plan's crashes and slowdowns, then the t=0 idle polls —
        # the queue's seq tie-break preserves this order forever.
        self.pending_releases = sorted(
            (r, j) for j, r in enumerate(releases) if r > 0.0
        )
        for j, r in enumerate(releases):
            if r == 0.0:
                self.released.add(j)
        if self.pending_releases:
            self.view._enable_release_tracking(self.released)
        for r, j in self.pending_releases:
            self.queue.push(r, EventKind.TASK_RELEASE, j)
        if plan is not None:
            for at, machine, downtime in plan.crashes():
                self.queue.push(at, EventKind.MACHINE_FAILURE, (machine, downtime))
            for slow in plan.slowdowns():
                self.queue.push(
                    slow.start, EventKind.MACHINE_SPEED, (slow.machine, slow.factor)
                )
                if math.isfinite(slow.end):
                    self.queue.push(
                        slow.end, EventKind.MACHINE_SPEED, (slow.machine, 1.0)
                    )
        for i in range(self.m):
            self.queue.push(0.0, EventKind.MACHINE_IDLE, i)

    # -- the event loop ----------------------------------------------------
    def run(self) -> tuple[list[TaskRun], list[TaskRun]]:
        """Drain the queue; returns the completed and the aborted runs.

        Pops the queue's heap directly and dispatches each event through
        a table of handlers indexed by its kind.
        """
        handlers: list = [None] * len(EventKind)
        for kind, handler in (
            (EventKind.TASK_RELEASE, self._on_release),
            (EventKind.TASK_COMPLETION, self._on_completion),
            (EventKind.MACHINE_FAILURE, self._on_failure),
            (EventKind.MACHINE_RECOVERY, self._on_recovery),
            (EventKind.MACHINE_SPEED, self._on_speed),
            (EventKind.MACHINE_IDLE, self._on_idle),
        ):
            handlers[kind] = handler
        heap, pop = self.queue._heap, heapq.heappop
        advance = self.view._advance
        traced, tracer = self.tracer.enabled, self.tracer
        while heap:
            ev = pop(heap)
            advance(ev.time)
            if traced:
                tracer.count("sim.events_processed")
            handlers[ev.kind](ev)
        self._check_complete()
        return self.runs, self.aborted  # type: ignore[return-value]

    # -- handlers ----------------------------------------------------------
    def _on_release(self, ev) -> None:
        self.released.add(ev.payload)
        self.view._mark_released(ev.payload)
        if self.tracer.enabled:
            self.tracer.count("sim.releases")

    def _on_completion(self, ev) -> None:
        tid, machine, token = ev.payload
        if self.busy.get(machine) != tid or self.attempt_token[machine] != token:
            # Stale: the attempt was aborted by a failure, or a speed
            # change rescheduled its completion.
            return
        self.view._mark_completed(tid, self.realization.actual(tid))
        self.runs[tid] = TaskRun(tid, machine, self.task_start.pop(tid), ev.time)
        del self.busy[machine]
        self.queue.push(ev.time, EventKind.MACHINE_IDLE, machine)
        if self.tracer.enabled:
            self.tracer.count("sim.completions")
            self.tracer.event("completion", task=tid, machine=machine, t=ev.time)

    def _on_failure(self, ev) -> None:
        machine, downtime = ev.payload
        until = ev.time + downtime if math.isfinite(downtime) else math.inf
        if machine in self.down_until:
            # Overlapping outage on an already-down machine (merged plans
            # can produce these): extend the downtime to the union of the
            # windows.  The superseded recovery event is ignored by
            # :meth:`_on_recovery`'s ``down_until`` check.
            if until > self.down_until[machine]:
                self.down_until[machine] = until
                if math.isfinite(until):
                    self.queue.push(until, EventKind.MACHINE_RECOVERY, machine)
            return
        self.down_until[machine] = until
        if math.isfinite(downtime):
            self.queue.push(ev.time + downtime, EventKind.MACHINE_RECOVERY, machine)
        if self.tracer.enabled:
            self.tracer.count("sim.machine_failures")
            self.tracer.event("machine_failure", machine=machine, t=ev.time)
        running = self.busy.pop(machine, None)
        if running is not None:
            # Abort the attempt: the task reverts to unstarted and must
            # rerun from scratch elsewhere.
            self.aborted.append(
                TaskRun(running, machine, self.task_start.pop(running), ev.time)
            )
            self.view._mark_aborted(running)
            if self.tracer.enabled:
                self.tracer.count("sim.restarts")
                self.tracer.event("restart", task=running, machine=machine, t=ev.time)
            # Wake every healthy idle machine: one of them must pick the
            # orphaned task up (they may have retired with None before
            # the abort existed).
            for i in range(self.m):
                if i not in self.down_until and i not in self.busy:
                    self.queue.push(ev.time, EventKind.MACHINE_IDLE, i)

    def _on_recovery(self, ev) -> None:
        machine = ev.payload
        if ev.time < self.down_until.get(machine, math.inf):
            return  # already up, or superseded by a longer overlapping outage
        del self.down_until[machine]
        if self.tracer.enabled:
            self.tracer.count("sim.machine_recoveries")
            self.tracer.event("machine_recovery", machine=machine, t=ev.time)
        self.queue.push(ev.time, EventKind.MACHINE_IDLE, machine)

    def _on_speed(self, ev) -> None:
        machine, factor = ev.payload
        old_eff = self.speed[machine]
        new_eff = self.speed[machine] = self.machine_speed[machine] * factor
        if self.tracer.enabled:
            if factor != 1.0:
                self.tracer.count("sim.machine_degraded")
            self.tracer.event(
                "machine_degraded", machine=machine, factor=factor, t=ev.time
            )
        running = self.busy.get(machine)
        if running is not None and new_eff != old_eff:
            # Rescale the remaining work onto the new speed and supersede
            # the previously scheduled completion.
            remaining_work = (self.scheduled_end[machine] - ev.time) * old_eff
            new_end = ev.time + remaining_work / new_eff
            self.attempt_token[machine] += 1
            self.scheduled_end[machine] = new_end
            self.queue.push(
                new_end,
                EventKind.TASK_COMPLETION,
                (running, machine, self.attempt_token[machine]),
            )

    def _on_idle(self, ev) -> None:
        machine = ev.payload
        if machine in self.busy or machine in self.down_until:
            # Stale poll (a dispatch or failure raced this event).
            return
        choice = self.policy.select(machine, self.view)
        if choice is None:
            self._repoll(machine, ev.time)
            return
        self._dispatch(choice, machine, ev.time)

    def _repoll(self, machine: int, now: float) -> None:
        """Work-conserving re-poll: if unreleased tasks could later run on
        ``machine``, wake it at the next release time.

        Kept out of :meth:`_on_idle` so that handler's locals are not
        closure cells: a comprehension there would make every idle poll
        build them, though only a ``None`` selection needs it.
        """
        future = [
            r
            for r, j in self.pending_releases
            if j not in self.released
            and self.placement.allows(j, machine)
            and r > now
        ]
        if future:
            self.queue.push(min(future), EventKind.MACHINE_IDLE, machine)

    def _dispatch(self, tid: int, machine: int, now: float) -> None:
        if not 0 <= tid < self.n:
            raise SimulationError(f"policy selected invalid task id {tid}")
        if self.view.is_started(tid):
            raise SimulationError(f"policy selected already-started task {tid}")
        if tid not in self.released:
            raise SimulationError(
                f"policy selected task {tid} before its release time "
                f"{self.releases[tid]}"
            )
        if not self.placement.allows(tid, machine):
            raise SimulationError(
                f"policy sent task {tid} to machine {machine}, but its data is only on "
                f"{sorted(self.placement.machines_for(tid))}"
            )
        end = now + self.realization.actual(tid) / self.speed[machine]
        self.task_start[tid] = now
        self.view._mark_started(tid, machine)
        self.busy[machine] = tid
        token = self.attempt_token[machine] + 1
        self.attempt_token[machine] = token
        self.scheduled_end[machine] = end
        self.queue.push(end, EventKind.TASK_COMPLETION, (tid, machine, token))
        if self.tracer.enabled:
            self.tracer.count("sim.dispatches")
            self.tracer.event("dispatch", task=tid, machine=machine, t=now)

    # -- post-loop invariants ----------------------------------------------
    def _check_complete(self) -> None:
        missing = [j for j, r in enumerate(self.runs) if r is None]
        if not missing:
            return
        stranded = [
            j
            for j in missing
            if all(i in self.down_until for i in self.placement.machines_for(j))
        ]
        if stranded:
            raise SimulationError(
                f"{len(stranded)} tasks lost to machine failures (first few: "
                f"{stranded[:5]}): every machine holding their data failed — "
                "replication would have kept them runnable"
            )
        raise SimulationError(
            f"simulation ended with {len(missing)} unscheduled tasks "
            f"(first few: {missing[:5]}); the policy retired machines "
            "that still had eligible work"
        )
