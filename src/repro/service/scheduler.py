"""The deterministic core of the placement service.

Everything stateful about the daemon lives here, synchronously, with no
I/O — the asyncio shell (:mod:`repro.service.daemon`) only translates
HTTP into these calls.  That split keeps the online scheduler testable
the same way the kernels are: feed admissions, pump events, assert the
trace.

The core replays the event kernel's discipline in **virtual time**:

* Admissions run Phase 1 immediately (:class:`~repro.service.placement.
  OnlinePlacer`), stamp the task with the current virtual clock, and
  dispatch it at once if a machine of its replica set is idle.
* Machine completions live in a :class:`~repro.simulation.events.
  EventQueue` keyed ``(time, kind, seq)``.  A completion at time *t*
  enqueues the machine's idle poll at the same *t*; because
  ``TASK_COMPLETION`` outranks ``MACHINE_IDLE``, *every* completion at an
  instant is revealed before *any* dispatch decision at that instant —
  the same same-instant contract :class:`~repro.simulation.kernel.
  EventKernel` enforces, and the semi-clairvoyant model's "durations are
  known once tasks complete".
* Phase-2 dispatch is List Scheduling in admission order: an idle
  machine takes the earliest admitted still-queued task whose replica
  set contains it (:class:`~repro.core.strategy.FixedOrderPolicy`
  semantics, including the low-water-mark scan).

Consequence, asserted by ``tests/test_service.py``: admitting a batch of
tasks and draining reproduces the offline
:func:`~repro.simulation.engine.simulate` run of the same strategy task
for task — machines, start times, completion times, makespan.

Actual durations are drawn per task from a seeded model inside the
α-band (hidden until completion, like the kernel's realization).  One
generator call draws the uniforms of a block of :data:`DRAW_BLOCK` task
ids, keyed ``[seed, _DURATION_STREAM, tid // DRAW_BLOCK]``, so each
task's actual is a function of ``(seed, tid)`` alone and does not depend
on draw order.

The scheduler is also **failure-aware** (the chaos subsystem's
substrate, see ``docs/chaos.md``): :meth:`~ServiceScheduler.
inject_failure` schedules ``MACHINE_FAILURE``/``MACHINE_RECOVERY``
events with the same same-instant discipline as the event kernel's
fault plans (:class:`~repro.simulation.kernel.EventKernel`) — completions
beat failures, overlapping outages union via ``down_until`` tracking, and
attempt tokens invalidate completions of aborted attempts.  A task
running on a failing machine goes back to ``QUEUED`` and is re-placed
onto a surviving replica of its group (its data lives only on
:math:`M_j`); admissions whose every candidate group is fully down are
shed with a typed 503 instead of erroring.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro._validation import check_alpha, check_non_negative_int
from repro.obs import get_tracer
from repro.service.placement import OnlinePlacer
from repro.service.protocol import (
    DEFAULT_PAGE_LIMIT,
    MAX_PAGE_LIMIT,
    AdmissionError,
    TaskRecord,
    TaskState,
    encode_page_token,
)
from repro.simulation.events import EventKind, EventQueue

__all__ = ["ServiceScheduler", "DURATION_MODELS", "DRAW_BLOCK"]

#: Actual-duration models the service can draw from, all confined to the
#: α-band by construction.  ``truthful`` makes actuals equal estimates
#: (α plays no role), ``log_uniform`` matches the stochastic suite's
#: default shape, ``bimodal_extreme`` stresses the band's endpoints.
DURATION_MODELS = ("truthful", "log_uniform", "bimodal_extreme")

#: Task ids whose duration uniforms one generator call draws.
DRAW_BLOCK = 256

#: Domain word of the duration streams.  It is above 2**32, so the key
#: ``[seed, _DURATION_STREAM, block]`` has a nonzero third uint32 word
#: and equals no two-word key ``[seed, i]`` (loadgen's tenants, the
#: soak's arrivals), which ``SeedSequence`` pads with zeros.
_DURATION_STREAM = 2**32 + 1


def _admission_number(field: str, value: Any, *, positive: bool) -> float:
    """``value`` as a finite float (``> 0`` or ``>= 0``), else ``bad_<field>``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise AdmissionError(f"bad_{field}", f"{field} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise AdmissionError(f"bad_{field}", f"{field} must be finite and {bound}, got {value}")
    return value


class ServiceScheduler:
    """Online admission + placement + dispatch over a simulated cluster.

    Parameters
    ----------
    strategy:
        Registry spec selecting the placement family (must be
        partition-structured; see :class:`~repro.service.placement.
        OnlinePlacer`).
    m:
        Machine count of the simulated cluster.
    alpha:
        Uncertainty factor; actual durations are drawn within
        :math:`[\\tilde p/\\alpha, \\alpha\\tilde p]`.
    model:
        One of :data:`DURATION_MODELS`.
    seed:
        Seed for the duration draws; each task's draw is a function of
        ``(seed, tid)``, so identical admission sequences give identical
        runs.
    health:
        Optional health tracker (duck-typed to
        :class:`repro.chaos.policy.HealthTracker`): machine failures feed
        ``observe_failure``, completions feed ``observe_completion``, and
        every step ticks its clock — the policy engine sees the cluster
        without the scheduler importing it.
    """

    def __init__(
        self,
        strategy: str = "ls_group[k=2]",
        *,
        m: int = 8,
        alpha: float = 1.5,
        model: str = "log_uniform",
        seed: int = 0,
        health: Any | None = None,
    ) -> None:
        alpha = check_alpha(alpha)
        if model not in DURATION_MODELS:
            raise ValueError(
                f"unknown duration model {model!r}; known: {DURATION_MODELS}"
            )
        self.placer = OnlinePlacer(strategy, m)
        self.m = m
        self.alpha = alpha
        self.model = model
        self.seed = check_non_negative_int(seed, "seed")
        self.clock = 0.0
        self.records: list[TaskRecord] = []
        self.busy: dict[int, int] = {}  # machine -> running tid
        self.queue = EventQueue()
        self.completed = 0
        self.deduplicated = 0
        self.health = health
        # Chaos bookkeeping: machine -> down_until (inf = permanent), the
        # same union-of-outages discipline as the event kernel.
        self.down: dict[int, float] = {}
        self.shed = 0
        self.replaced = 0
        self.machine_failures = 0
        self.machine_recoveries = 0
        self._token: dict[int, int] = {}  # machine -> attempt token
        self._by_key: dict[str, int] = {}
        self._actuals: dict[int, float] = {}  # hidden until completion
        self._block = -1  # duration block whose factors are cached
        self._factors: list[float] = []
        self._first_queued = 0  # low-water mark into self.records
        self._draining = False

    # -- admission (Phase 1) ----------------------------------------------
    def admit(
        self,
        tenant: str,
        estimate: float,
        *,
        size: float = 0.0,
        key: str | None = None,
    ) -> tuple[TaskRecord, bool]:
        """Admit one task; returns ``(record, created)``.

        ``created`` is ``False`` when ``key`` replays an earlier
        admission — the original record is returned unchanged and no new
        task exists (at-most-once admission for retrying clients).
        Raises :class:`AdmissionError` on invalid input or after
        :meth:`begin_drain`.
        """
        tracer = get_tracer()
        if key is not None:
            prior = self._by_key.get(key)
            if prior is not None:
                self.deduplicated += 1
                if tracer.enabled:
                    tracer.count("service.admissions_deduped")
                return self.records[prior], False
        if self._draining:
            raise AdmissionError(
                "draining", "the service is draining and admits no new tasks"
            )
        estimate = _admission_number("estimate", estimate, positive=True)
        size = _admission_number("size", size, positive=False)

        tid = len(self.records)
        exclude: frozenset[int] = frozenset()
        if self.down:
            exclude = frozenset(self.degraded_groups())
            if len(exclude) >= self.placer.k:
                self.shed += 1
                if tracer.enabled:
                    tracer.count("service.admissions_shed")
                    tracer.event(
                        "service.shed",
                        tenant=str(tenant),
                        reason="degraded",
                        t=self.clock,
                    )
                raise AdmissionError(
                    "degraded",
                    "every placement group is fully down; admission shed",
                )
        group, machines = self.placer.assign(estimate, exclude=exclude)
        record = TaskRecord(
            tid=tid,
            # Records live as long as the daemon and tenants repeat:
            # interning keeps one copy of each tenant name.
            tenant=sys.intern(str(tenant)),
            key=key,
            estimate=estimate,
            size=size,
            group=group,
            machines=machines,
            admitted_at=self.clock,
        )
        self.records.append(record)
        if key is not None:
            self._by_key[key] = tid
        self._actuals[tid] = self._draw_actual(tid, estimate)
        if tracer.enabled:
            tracer.count("service.admissions")
            tracer.event(
                "service.admit",
                task=tid,
                tenant=record.tenant,
                group=group,
                replication=len(machines),
                t=self.clock,
            )
            tracer.registry.gauge("service.queue_depth").set(float(self.queued))
        # Work-conserving: an idle *live* replica holder takes the task now.
        for machine in machines:
            if machine not in self.busy and machine not in self.down:
                self._dispatch(tid, machine, self.clock)
                break
        return record, True

    def _draw_actual(self, tid: int, estimate: float) -> float:
        """Seeded duration inside the α-band, independent of draw order.

        The factors of ``tid``'s whole block come from one generator
        call and are cached until an admission leaves the block.
        """
        if self.model == "truthful" or self.alpha == 1.0:
            return estimate
        block, offset = divmod(tid, DRAW_BLOCK)
        if block != self._block:
            rng = np.random.default_rng([self.seed, _DURATION_STREAM, block])
            u = rng.random(DRAW_BLOCK)
            if self.model == "bimodal_extreme":
                factors = np.where(u < 0.5, self.alpha, 1.0 / self.alpha)
            else:  # log_uniform: alpha ** U(-1, 1)
                factors = self.alpha ** (-1.0 + 2.0 * u)
            self._block, self._factors = block, factors.tolist()
        return estimate * self._factors[offset]

    # -- Phase-2 dispatch --------------------------------------------------
    def _select(self, machine: int) -> int | None:
        """Earliest admitted queued task with a replica on ``machine``.

        The same scan as :class:`~repro.core.strategy.FixedOrderPolicy`
        over admission order, low-water mark included — Phase 2 is List
        Scheduling within the placement.
        """
        records = self.records
        while (
            self._first_queued < len(records)
            and records[self._first_queued].state is not TaskState.QUEUED
        ):
            self._first_queued += 1
        for pos in range(self._first_queued, len(records)):
            record = records[pos]
            if record.state is TaskState.QUEUED and machine in record.machines:
                return record.tid
        return None

    def _dispatch(self, tid: int, machine: int, now: float) -> None:
        record = self.records[tid]
        record.state = TaskState.RUNNING
        record.machine = machine
        record.started_at = now
        self.busy[machine] = tid
        # Attempt token: a failure-aborted attempt's completion event must
        # not fire when it surfaces (the event kernel's staleness idiom).
        token = self._token.get(machine, 0) + 1
        self._token[machine] = token
        # Unit-speed cluster: duration == actual, the kernel's p/1.0.
        self.queue.push(
            now + self._actuals[tid], EventKind.TASK_COMPLETION, (tid, machine, token)
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("service.dispatches")
            tracer.event("service.dispatch", task=tid, machine=machine, t=now)
            tracer.registry.timer("service.task_wait").observe(now - record.admitted_at)

    # -- the event pump ----------------------------------------------------
    def step(self) -> dict[str, Any] | None:
        """Process one virtual-time event; ``None`` when nothing is queued.

        Returns a small description of what happened (for the daemon's
        pacing loop and for tests); the same-instant ordering guarantees
        are inherited from :class:`~repro.simulation.events.EventKind`.
        """
        if not self.queue:
            return None
        ev = self.queue.pop()
        self.clock = ev.time
        tracer = get_tracer()
        if self.health is not None:
            self.health.tick(ev.time)
        if ev.kind == EventKind.TASK_COMPLETION:
            tid, machine, token = ev.payload
            if self.busy.get(machine) != tid or self._token.get(machine) != token:
                # The attempt this event belongs to was aborted by a
                # machine failure; the rerun carries a fresh token.
                return {
                    "kind": "completion",
                    "task": tid,
                    "machine": machine,
                    "t": ev.time,
                    "stale": True,
                }
            record = self.records[tid]
            record.state = TaskState.DONE
            record.finished_at = ev.time
            record.actual = self._actuals.pop(tid)
            del self.busy[machine]
            self.completed += 1
            if self.health is not None:
                self.health.observe_completion(machine, ev.time)
            self.queue.push(ev.time, EventKind.MACHINE_IDLE, machine)
            if tracer.enabled:
                tracer.count("service.completions")
                tracer.event("service.complete", task=tid, machine=machine, t=ev.time)
                tracer.registry.timer("service.task_response").observe(
                    ev.time - record.admitted_at
                )
            return {"kind": "completion", "task": tid, "machine": machine, "t": ev.time}
        if ev.kind == EventKind.MACHINE_FAILURE:
            return self._on_failure(ev)
        if ev.kind == EventKind.MACHINE_RECOVERY:
            return self._on_recovery(ev)
        if ev.kind == EventKind.MACHINE_IDLE:
            machine = ev.payload
            if machine in self.busy or machine in self.down:
                return {"kind": "idle", "machine": machine, "t": ev.time, "stale": True}
            tid = self._select(machine)
            if tid is not None:
                self._dispatch(tid, machine, ev.time)
            if tracer.enabled:
                tracer.registry.gauge("service.queue_depth").set(float(self.queued))
            return {"kind": "idle", "machine": machine, "t": ev.time, "dispatched": tid}
        raise AssertionError(f"unexpected service event kind {ev.kind!r}")

    def _on_failure(self, ev) -> dict[str, Any]:
        """Process one ``MACHINE_FAILURE``: abort, re-place, schedule recovery."""
        machine, downtime = ev.payload
        until = ev.time + downtime if math.isfinite(downtime) else math.inf
        tracer = get_tracer()
        if machine in self.down:
            # Overlapping outage: union the windows (never shorten).
            if until > self.down[machine]:
                self.down[machine] = until
                if math.isfinite(until):
                    self.queue.push(until, EventKind.MACHINE_RECOVERY, machine)
            return {"kind": "failure", "machine": machine, "t": ev.time, "absorbed": True}
        self.down[machine] = until
        self.machine_failures += 1
        if self.health is not None:
            self.health.observe_failure(machine, ev.time)
        if math.isfinite(until):
            self.queue.push(until, EventKind.MACHINE_RECOVERY, machine)
        requeued: int | None = None
        tid = self.busy.pop(machine, None)
        if tid is not None:
            # Re-place onto a surviving replica: the task reverts to
            # QUEUED and any idle live member of its group re-selects it
            # (its data exists nowhere else).
            record = self.records[tid]
            record.state = TaskState.QUEUED
            record.machine = None
            record.started_at = None
            record.restarts += 1
            self.replaced += 1
            self._first_queued = min(self._first_queued, tid)
            requeued = tid
            for member in record.machines:
                if member not in self.busy and member not in self.down:
                    self.queue.push(ev.time, EventKind.MACHINE_IDLE, member)
            if tracer.enabled:
                tracer.count("chaos.tasks_replaced")
                tracer.event("service.replaced", task=tid, machine=machine, t=ev.time)
        if tracer.enabled:
            tracer.count("chaos.machine_failures")
            tracer.event("service.machine_failure", machine=machine, t=ev.time)
            tracer.registry.gauge("chaos.machines_down").set(float(len(self.down)))
            tracer.registry.gauge("chaos.groups_degraded").set(
                float(len(self.degraded_groups()))
            )
        return {"kind": "failure", "machine": machine, "t": ev.time, "requeued": requeued}

    def _on_recovery(self, ev) -> dict[str, Any]:
        """Process one ``MACHINE_RECOVERY``; superseded recoveries are stale."""
        machine = ev.payload
        until = self.down.get(machine)
        if until is None or ev.time < until:
            return {"kind": "recovery", "machine": machine, "t": ev.time, "stale": True}
        del self.down[machine]
        self.machine_recoveries += 1
        self.queue.push(ev.time, EventKind.MACHINE_IDLE, machine)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("chaos.machine_recoveries")
            tracer.event("service.machine_recovery", machine=machine, t=ev.time)
            tracer.registry.gauge("chaos.machines_down").set(float(len(self.down)))
            tracer.registry.gauge("chaos.groups_degraded").set(
                float(len(self.degraded_groups()))
            )
        return {"kind": "recovery", "machine": machine, "t": ev.time}

    # -- chaos injection ---------------------------------------------------
    def inject_failure(
        self,
        machines: Iterable[int],
        *,
        at: float | None = None,
        downtime: float = math.inf,
    ) -> float:
        """Schedule a correlated failure of ``machines``; returns its instant.

        ``at`` defaults to the current virtual clock and may not lie in
        the past (events must be causally injectable).  ``downtime`` is
        shared by the group (``inf`` = permanent); the same-instant
        contract applies — tasks completing exactly at ``at`` complete.
        """
        when = self.clock if at is None else float(at)
        if when < self.clock:
            raise ValueError(
                f"cannot inject a failure at {when} before the clock ({self.clock})"
            )
        if not downtime > 0:
            raise ValueError(f"downtime must be > 0, got {downtime}")
        targets = [int(i) for i in machines]
        for machine in targets:
            if not 0 <= machine < self.m:
                raise ValueError(f"machine {machine} outside 0..{self.m - 1}")
        for machine in targets:
            self.queue.push(when, EventKind.MACHINE_FAILURE, (machine, float(downtime)))
        return when

    def inject_recovery(self, machines: Iterable[int], *, at: float | None = None) -> float:
        """Schedule an operator-forced recovery of ``machines``.

        Lowers each machine's ``down_until`` to the recovery instant so
        the pushed event is not treated as superseded — an explicit
        recovery always wins over a longer scheduled outage.
        """
        when = self.clock if at is None else float(at)
        if when < self.clock:
            raise ValueError(
                f"cannot inject a recovery at {when} before the clock ({self.clock})"
            )
        for machine in machines:
            machine = int(machine)
            if not 0 <= machine < self.m:
                raise ValueError(f"machine {machine} outside 0..{self.m - 1}")
            if machine in self.down:
                self.down[machine] = min(self.down[machine], when)
                self.queue.push(when, EventKind.MACHINE_RECOVERY, machine)
        return when

    def degraded_groups(self) -> list[int]:
        """Groups with *no* live machine (cannot serve new admissions)."""
        return [
            g
            for g, members in enumerate(self.placer.groups)
            if all(machine in self.down for machine in members)
        ]

    def availability(self) -> float:
        """Fraction of placement groups with at least one live machine."""
        return 1.0 - len(self.degraded_groups()) / self.placer.k

    def drain(self) -> int:
        """Pump events until the cluster is quiet; returns events processed.

        Graceful-shutdown semantics: every admitted task completes (there
        is no drop path), so after ``drain`` the queue depth and the busy
        set are both empty.  The one exception is a *permanently* lost
        replica set: a queued task whose every group member is down with
        infinite downtime has no machine to run on, so ``drain`` returns
        with it still queued and ``stats()`` shows the stranding — the
        same data-loss regime :class:`~repro.simulation.kernel.EventKernel`
        reports as "lost to machine failures".
        """
        steps = 0
        while self.step() is not None:
            steps += 1
        return steps

    def begin_drain(self) -> None:
        """Stop admitting; already-admitted tasks still run to completion."""
        self._draining = True

    # -- queries -----------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` was called."""
        return self._draining

    @property
    def queued(self) -> int:
        """Tasks admitted but not yet dispatched."""
        return len(self.records) - self.completed - len(self.busy)

    def get(self, tid: int) -> TaskRecord | None:
        """The record for ``tid``, or ``None``."""
        if 0 <= tid < len(self.records):
            return self.records[tid]
        return None

    def page(
        self, cursor: int = 0, limit: int | None = None
    ) -> tuple[list[TaskRecord], str | None]:
        """A stable listing page: records from ``cursor``, plus next token.

        Cursors are task ids, so concurrent admissions only ever append
        *after* an open cursor — a client walking pages sees each task
        exactly once.
        """
        if limit is None:
            limit = DEFAULT_PAGE_LIMIT
        limit = max(1, min(int(limit), MAX_PAGE_LIMIT))
        cursor = max(0, int(cursor))
        chunk = self.records[cursor : cursor + limit]
        next_token = (
            encode_page_token(cursor + limit)
            if cursor + limit < len(self.records)
            else None
        )
        return list(chunk), next_token

    def stats(self) -> dict[str, Any]:
        """Live counters for the status/queue endpoints."""
        return {
            "clock": self.clock,
            "strategy": self.placer.canonical_spec,
            "replication": self.placer.replication,
            "groups": self.placer.k,
            "machines": self.m,
            "alpha": self.alpha,
            "model": self.model,
            "seed": self.seed,
            "admitted": len(self.records),
            "deduplicated": self.deduplicated,
            "queued": self.queued,
            "running": len(self.busy),
            "done": self.completed,
            "draining": self._draining,
            "down": len(self.down),
            "degraded_groups": len(self.degraded_groups()),
            "availability": self.availability(),
            "shed": self.shed,
            "replaced": self.replaced,
            "machine_failures": self.machine_failures,
            "machine_recoveries": self.machine_recoveries,
        }
