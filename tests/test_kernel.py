"""Tests for the simulation kernel (repro.simulation.kernel).

:class:`EventKernel` is one class for every run: a fault-free run is its
``plan=None`` case.  It replaced a fault-free kernel and a fault-aware
subclass wired in through hook methods, which reported through an
observer layer over the tracer.  Those classes are kept below as
``_Reference*`` and a hypothesis property asserts that the one kernel
reproduces them exactly: completed and aborted runs, the error type and
message, and the traced event stream and counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.placement import Placement
from repro.core.strategies.selective import PinnedAwarePolicy
from repro.core.strategy import FixedOrderPolicy, OnlinePolicy, SchedulerView
from repro.faults import (
    CorrelatedFailure,
    CrashRecover,
    CrashStop,
    DegradedInterval,
    FaultPlan,
)
from repro.obs import JsonlSink, MemorySink, observed
from repro.obs.validate import validate_trace
from repro.registry import make_strategy
from repro.simulation import EventKernel, SimulationError
from repro.simulation.events import EventKind, EventQueue
from repro.simulation.trace import TaskRun
from repro.uncertainty.realization import Realization
from repro.workloads.memory_workloads import independent_sizes


# ---------------------------------------------------------------------------
# The reference: the two kernel classes and the observer layer it replaced
# ---------------------------------------------------------------------------


class _ReferenceSimulationObserver:
    """No-op observation hook."""

    enabled = False

    def count(self, name: str) -> None:
        pass

    def event(self, name: str, **fields: object) -> None:
        pass


class _ReferenceTracerObserver(_ReferenceSimulationObserver):
    """Forwards kernel observations to a :mod:`repro.obs` tracer."""

    enabled = True

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def count(self, name: str) -> None:
        self._tracer.count(name)

    def event(self, name: str, **fields: object) -> None:
        self._tracer.event(name, **fields)


@dataclass
class _ReferenceKernelResult:
    runs: list[TaskRun]
    aborted: list[TaskRun]


class _ReferenceEventKernel:
    """The fault-free fast path: releases, completions and idle polls."""

    def __init__(
        self,
        placement: Placement,
        realization: Realization,
        policy: OnlinePolicy,
        *,
        releases: list[float],
        machine_speed: list[float],
        observer: _ReferenceSimulationObserver,
    ) -> None:
        instance = placement.instance
        self.placement = placement
        self.realization = realization
        self.policy = policy
        self.releases = releases
        self.machine_speed = machine_speed
        self.observer = observer
        self.n = instance.n
        self.m = instance.m

        self.view = SchedulerView(instance, placement)
        self.queue = EventQueue()
        self.released: set[int] = set()
        self.busy: dict[int, int] = {}
        self.task_start: dict[int, float] = {}
        self.runs: list[TaskRun | None] = [None] * self.n
        self.aborted: list[TaskRun] = []

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
        self._seed_plan()
        for i in range(self.m):
            self.queue.push(0.0, EventKind.MACHINE_IDLE, i)

    def _seed_plan(self) -> None:
        pass

    def _machine_down(self, machine: int) -> bool:
        return False

    def _effective_speed(self, machine: int) -> float:
        return self.machine_speed[machine]

    def _begin_attempt(self, tid: int, machine: int, end: float) -> tuple:
        return (tid, machine)

    def _completion_is_stale(self, payload: tuple) -> bool:
        tid, machine = payload[0], payload[1]
        return self.busy.get(machine) != tid

    def _end_attempt(self, machine: int) -> None:
        pass

    def run(self) -> _ReferenceKernelResult:
        obs = self.observer.enabled
        observer = self.observer
        queue = self.queue
        view = self.view
        while queue:
            ev = queue.pop()
            view._advance(ev.time)
            if obs:
                observer.count("sim.events_processed")

            if ev.kind == EventKind.TASK_RELEASE:
                self._on_release(ev)
            elif ev.kind == EventKind.TASK_COMPLETION:
                self._on_completion(ev)
            elif ev.kind == EventKind.MACHINE_FAILURE:
                self._on_failure(ev)
            elif ev.kind == EventKind.MACHINE_RECOVERY:
                self._on_recovery(ev)
            elif ev.kind == EventKind.MACHINE_SPEED:
                self._on_speed(ev)
            else:
                self._on_idle(ev)
        self._check_complete()
        return _ReferenceKernelResult(self.runs, self.aborted)  # type: ignore[arg-type]

    def _on_release(self, ev) -> None:
        self.released.add(ev.payload)
        self.view._mark_released(ev.payload)
        if self.observer.enabled:
            self.observer.count("sim.releases")

    def _on_completion(self, ev) -> None:
        if self._completion_is_stale(ev.payload):
            return
        tid, machine = ev.payload[0], ev.payload[1]
        self.view._mark_completed(tid, self.realization.actual(tid))
        self.runs[tid] = TaskRun(tid, machine, self.task_start.pop(tid), ev.time)
        del self.busy[machine]
        self._end_attempt(machine)
        self.queue.push(ev.time, EventKind.MACHINE_IDLE, machine)
        if self.observer.enabled:
            self.observer.count("sim.completions")
            self.observer.event("completion", task=tid, machine=machine, t=ev.time)

    def _on_failure(self, ev) -> None:
        raise SimulationError(
            "machine-failure event in a fault-free run (kernel selection bug)"
        )

    def _on_recovery(self, ev) -> None:
        raise SimulationError(
            "machine-recovery event in a fault-free run (kernel selection bug)"
        )

    def _on_speed(self, ev) -> None:
        raise SimulationError(
            "machine-speed event in a fault-free run (kernel selection bug)"
        )

    def _on_idle(self, ev) -> None:
        machine = ev.payload
        if machine in self.busy or self._machine_down(machine):
            return
        choice = self.policy.select(machine, self.view)
        if choice is None:
            future = [
                r
                for r, j in self.pending_releases
                if j not in self.released
                and self.placement.allows(j, machine)
                and r > ev.time
            ]
            if future:
                self.queue.push(min(future), EventKind.MACHINE_IDLE, machine)
            return
        self._dispatch(choice, machine, ev.time)

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
        duration = self.realization.actual(tid) / self._effective_speed(machine)
        end = now + duration
        self.task_start[tid] = now
        self.view._mark_started(tid, machine)
        self.busy[machine] = tid
        payload = self._begin_attempt(tid, machine, end)
        self.queue.push(end, EventKind.TASK_COMPLETION, payload)
        if self.observer.enabled:
            self.observer.count("sim.dispatches")
            self.observer.event("dispatch", task=tid, machine=machine, t=now)

    def _check_complete(self) -> None:
        missing = [j for j, r in enumerate(self.runs) if r is None]
        if missing:
            self._raise_incomplete(missing)

    def _raise_incomplete(self, missing: list[int]) -> None:
        raise SimulationError(
            f"simulation ended with {len(missing)} unscheduled tasks "
            f"(first few: {missing[:5]}); the policy retired machines "
            "that still had eligible work"
        )


class _ReferenceFaultAwareKernel(_ReferenceEventKernel):
    """The full path: crash-stop, crash-recover and degraded intervals."""

    def __init__(
        self,
        placement: Placement,
        realization: Realization,
        policy: OnlinePolicy,
        *,
        releases: list[float],
        machine_speed: list[float],
        observer: _ReferenceSimulationObserver,
        plan: FaultPlan,
    ) -> None:
        self.plan = plan
        self.failed: set[int] = set()
        self.down_until: dict[int, float] = {}
        self.degrade: list[float] = [1.0] * placement.instance.m
        self.attempt_token: dict[int, int] = {}
        self.scheduled_end: dict[int, float] = {}
        super().__init__(
            placement,
            realization,
            policy,
            releases=releases,
            machine_speed=machine_speed,
            observer=observer,
        )

    def _seed_plan(self) -> None:
        for at, machine, downtime in self.plan.crashes():
            self.queue.push(at, EventKind.MACHINE_FAILURE, (machine, downtime))
        for slow in self.plan.slowdowns():
            self.queue.push(
                slow.start, EventKind.MACHINE_SPEED, (slow.machine, slow.factor)
            )
            if math.isfinite(slow.end):
                self.queue.push(slow.end, EventKind.MACHINE_SPEED, (slow.machine, 1.0))

    def _machine_down(self, machine: int) -> bool:
        return machine in self.failed

    def _effective_speed(self, machine: int) -> float:
        return self.machine_speed[machine] * self.degrade[machine]

    def _begin_attempt(self, tid: int, machine: int, end: float) -> tuple:
        self.attempt_token[machine] = self.attempt_token.get(machine, 0) + 1
        self.scheduled_end[machine] = end
        return (tid, machine, self.attempt_token[machine])

    def _completion_is_stale(self, payload: tuple) -> bool:
        tid, machine, token = payload
        return (
            self.busy.get(machine) != tid
            or self.attempt_token.get(machine) != token
        )

    def _end_attempt(self, machine: int) -> None:
        self.scheduled_end.pop(machine, None)

    def _on_failure(self, ev) -> None:
        machine, downtime = ev.payload
        until = ev.time + downtime if math.isfinite(downtime) else math.inf
        if machine in self.failed:
            if until > self.down_until.get(machine, math.inf):
                self.down_until[machine] = until
                if math.isfinite(until):
                    self.queue.push(until, EventKind.MACHINE_RECOVERY, machine)
            return
        self.failed.add(machine)
        self.down_until[machine] = until
        if math.isfinite(downtime):
            self.queue.push(ev.time + downtime, EventKind.MACHINE_RECOVERY, machine)
        if self.observer.enabled:
            self.observer.count("sim.machine_failures")
            self.observer.event("machine_failure", machine=machine, t=ev.time)
        running = self.busy.pop(machine, None)
        if running is not None:
            self.aborted.append(
                TaskRun(running, machine, self.task_start.pop(running), ev.time)
            )
            self.scheduled_end.pop(machine, None)
            self.view._mark_aborted(running)
            if self.observer.enabled:
                self.observer.count("sim.restarts")
                self.observer.event(
                    "restart", task=running, machine=machine, t=ev.time
                )
            for i in range(self.m):
                if i not in self.failed and i not in self.busy:
                    self.queue.push(ev.time, EventKind.MACHINE_IDLE, i)

    def _on_recovery(self, ev) -> None:
        machine = ev.payload
        if machine not in self.failed:
            return
        if ev.time < self.down_until.get(machine, 0.0):
            return
        self.failed.discard(machine)
        self.down_until.pop(machine, None)
        if self.observer.enabled:
            self.observer.count("sim.machine_recoveries")
            self.observer.event("machine_recovery", machine=machine, t=ev.time)
        self.queue.push(ev.time, EventKind.MACHINE_IDLE, machine)

    def _on_speed(self, ev) -> None:
        machine, factor = ev.payload
        old_eff = self.machine_speed[machine] * self.degrade[machine]
        self.degrade[machine] = factor
        new_eff = self.machine_speed[machine] * factor
        if self.observer.enabled:
            if factor != 1.0:
                self.observer.count("sim.machine_degraded")
            self.observer.event(
                "machine_degraded", machine=machine, factor=factor, t=ev.time
            )
        running = self.busy.get(machine)
        if running is not None and new_eff != old_eff:
            remaining_work = (self.scheduled_end[machine] - ev.time) * old_eff
            new_end = ev.time + remaining_work / new_eff
            self.attempt_token[machine] += 1
            self.scheduled_end[machine] = new_end
            self.queue.push(
                new_end,
                EventKind.TASK_COMPLETION,
                (running, machine, self.attempt_token[machine]),
            )

    def _raise_incomplete(self, missing: list[int]) -> None:
        stranded = [
            j
            for j in missing
            if all(i in self.failed for i in self.placement.machines_for(j))
        ]
        if stranded:
            raise SimulationError(
                f"{len(stranded)} tasks lost to machine failures (first few: "
                f"{stranded[:5]}): every machine holding their data failed — "
                "replication would have kept them runnable"
            )
        super()._raise_incomplete(missing)


# ---------------------------------------------------------------------------
# The equivalence property
# ---------------------------------------------------------------------------


def _divisors(m: int) -> list[int]:
    return [k for k in range(1, m + 1) if m % k == 0]


@st.composite
def _specs(draw, m: int) -> str:
    """One of seven placement shapes, with parameters that fit ``m``."""
    k = draw(st.sampled_from(_divisors(m)))
    return draw(
        st.sampled_from(
            [
                f"ls_group[k={k}]",  # group
                "lpt_no_restriction",  # everywhere
                "lpt_no_choice",  # single machine
                f"overlap_windows[k={k},w={draw(st.integers(1, k))}]",
                "selective[0.5]",
                f"capped[C={draw(st.sampled_from([15, 30, 1000]))}]",
                "abo[delta=1,barrier]",
            ]
        )
    )


_TIMES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 5.0]), st.floats(0.0, 15.0))
_DOWNTIMES = st.one_of(st.sampled_from([0.5, 2.0, math.inf]), st.floats(0.1, 8.0))
_FACTORS = st.one_of(st.sampled_from([0.25, 0.5, 2.0]), st.floats(0.1, 3.0))


@st.composite
def _faults(draw, m: int) -> FaultPlan:
    """0–3 faults of every kind; outages may overlap on one machine."""
    machines = st.integers(0, m - 1)
    kinds = st.one_of(
        st.builds(CrashStop, machines, _TIMES),
        st.builds(CrashRecover, machines, _TIMES, _DOWNTIMES),
        st.builds(
            lambda i, start, length, factor: DegradedInterval(
                i, start, start + length, factor
            ),
            machines,
            _TIMES,
            st.one_of(st.just(math.inf), st.floats(0.5, 6.0)),
            _FACTORS,
        ),
        st.builds(
            CorrelatedFailure,
            st.lists(machines, min_size=1, max_size=m, unique=True).map(tuple),
            _TIMES,
            _DOWNTIMES,
        ),
    )
    faults: list = []
    for fault in draw(st.lists(kinds, max_size=3)):
        # The engine admits one active degraded factor per machine.
        if isinstance(fault, DegradedInterval) and any(
            isinstance(f, DegradedInterval)
            and f.machine == fault.machine
            and f.start < fault.end
            and fault.start < f.end
            for f in faults
        ):
            continue
        faults.append(fault)
    return FaultPlan(tuple(faults))


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    releases = draw(
        st.one_of(
            st.just([0.0] * n),
            st.lists(
                st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5]), st.floats(0.0, 10.0)),
                min_size=n,
                max_size=n,
            ),
        )
    )
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=m, max_size=m))
    return n, m, seed, draw(_specs(m)), releases, speeds, draw(_faults(m))


def _observe(run):
    """``run(tracer)`` traced: its (runs, aborted) or error, events, counters."""
    with observed(MemorySink()) as tracer:
        try:
            runs, aborted = run(tracer)
            outcome = (list(runs), list(aborted))
        except Exception as exc:  # compared, not swallowed
            outcome = (type(exc), str(exc))
        events = [(e.kind, e.name, e.depth, e.payload) for e in tracer.sinks[0].events]
        counters = {name: c.value for name, c in tracer.registry.counters.items()}
    return outcome, events, counters


def _reference_kernel(tracer, placement, realization, policy, releases, speeds, plan):
    observer = (
        _ReferenceTracerObserver(tracer)
        if tracer.enabled
        else _ReferenceSimulationObserver()
    )
    common = dict(releases=releases, machine_speed=speeds, observer=observer)
    if plan:
        return _ReferenceFaultAwareKernel(
            placement, realization, policy, plan=plan, **common
        )
    return _ReferenceEventKernel(placement, realization, policy, **common)


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(_scenarios())
    def test_one_kernel_equals_the_two_reference_kernels(self, scenario):
        n, m, seed, spec, releases, speeds, plan = scenario
        plan.validate(m)
        inst = independent_sizes(n, m, 1.5, seed)
        strategy = make_strategy(spec)
        try:
            placement = strategy.place(inst)
        except ValueError:
            return  # e.g. a memory cap below the instance's needs
        realization = repro.sample_realization(inst, "log_uniform", seed=seed + 1)

        def new(tracer):
            kernel = EventKernel(
                placement,
                realization,
                strategy.make_policy(inst, placement),
                releases=list(releases),
                machine_speed=list(speeds),
                tracer=tracer,
                plan=plan,
            )
            return kernel.run()

        def reference(tracer):
            result = _reference_kernel(
                tracer,
                placement,
                realization,
                strategy.make_policy(inst, placement),
                list(releases),
                list(speeds),
                plan,
            ).run()
            return result.runs, result.aborted

        assert _observe(new) == _observe(reference)


# ---------------------------------------------------------------------------
# A fault-free run is the empty-plan case
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    inst = repro.uniform_instance(n=16, m=4, alpha=1.5, seed=11)
    real = repro.sample_realization(inst, "log_uniform", seed=2)
    strategy = repro.LSGroup(k=2)
    placement = strategy.place(inst)
    return inst, real, strategy, placement


def _run_kernel(setup, plan=None):
    inst, real, strategy, placement = setup
    kernel = EventKernel(
        placement,
        real,
        strategy.make_policy(inst, placement),
        releases=[0.0] * inst.n,
        machine_speed=[1.0] * inst.m,
        tracer=repro.get_tracer(),
        plan=plan,
    )
    return kernel.run()


class TestKernelEquivalence:
    """No plan, an empty plan and a plan that fires too late run alike.

    ("Fast kernel" in the names is the kernel without a plan, "fault
    kernel" the kernel with one.)
    """

    def test_fault_kernel_with_empty_plan_matches_fast_kernel(self, setup):
        runs, aborted = _run_kernel(setup)
        empty_runs, empty_aborted = _run_kernel(setup, plan=repro.FaultPlan.of())
        assert runs == empty_runs
        assert aborted == empty_aborted == []

    def test_fault_kernel_with_late_crash_matches_fast_kernel(self, setup):
        # A crash scheduled after completion perturbs nothing.
        runs, _ = _run_kernel(setup)
        plan = repro.FaultPlan.of(repro.CrashStop(machine=0, at=1e9))
        late_runs, late_aborted = _run_kernel(setup, plan=plan)
        assert runs == late_runs
        assert late_aborted == []

    def test_simulate_trace_identical_with_and_without_empty_faults(self, setup):
        inst, real, strategy, placement = setup
        a = repro.simulate(placement, real, strategy.make_policy(inst, placement))
        b = repro.simulate(
            placement,
            real,
            strategy.make_policy(inst, placement),
            faults=repro.FaultPlan.of(),
        )
        assert a.runs == b.runs


class TestObservabilityParity:
    def _events(self, setup, **simulate_kwargs):
        inst, real, strategy, placement = setup
        with observed(MemorySink()) as tracer:
            repro.simulate(
                placement,
                real,
                strategy.make_policy(inst, placement),
                **simulate_kwargs,
            )
            sink = tracer.sinks[0]
            counters = {
                name: counter.value
                for name, counter in tracer.registry.counters.items()
            }
        events = [(e.name, e.kind) for e in sink.events]
        return events, counters

    def test_event_stream_identical_across_kernel_paths(self, setup):
        fast_events, fast_counters = self._events(setup)
        full_events, full_counters = self._events(
            setup, faults=repro.FaultPlan.of(repro.CrashStop(machine=0, at=1e9))
        )
        # The late crash adds exactly its own machine_down processing.
        assert fast_counters["sim.events_processed"] + 1 == (
            full_counters["sim.events_processed"]
        )
        assert fast_counters["sim.completions"] == full_counters["sim.completions"]
        assert fast_counters["sim.dispatches"] == full_counters["sim.dispatches"]
        names = {name for name, _ in fast_events}
        assert "simulate" in names


class TestTracedRunValidates:
    def test_fault_free_traced_run_passes_schema_validation(self, setup, tmp_path):
        inst, real, strategy, _ = setup
        path = tmp_path / "trace.jsonl"
        with observed(JsonlSink(path)):
            repro.run_strategy(strategy, inst, real)
        stats, errors = validate_trace(path)
        assert errors == []
        assert stats["spans"] > 0

    def test_faulted_traced_run_passes_schema_validation(self, setup, tmp_path):
        inst, real, strategy, placement = setup
        path = tmp_path / "trace.jsonl"
        plan = repro.FaultPlan.of(repro.CrashRecover(machine=1, at=2.0, downtime=1.0))
        with observed(JsonlSink(path)):
            repro.simulate(
                placement,
                real,
                strategy.make_policy(inst, placement),
                faults=plan,
                capabilities=repro.capabilities_of(strategy),
            )
        stats, errors = validate_trace(path)
        assert errors == []


class TestHotPathsBuildNoCells:
    """The kernel's per-event handlers and the compiled policies' ``select``
    run once per event or poll.  None of them may turn its locals into
    closure cells (a comprehension or nested function reading a local
    does, before 3.12), or every call builds the cells, whichever branch
    it takes."""

    @pytest.mark.parametrize(
        "func",
        [
            EventKernel._on_idle,
            EventKernel._dispatch,
            EventKernel.run,
            PinnedAwarePolicy.select,
            FixedOrderPolicy.select,
        ],
        ids=lambda func: func.__qualname__,
    )
    def test_no_cell_variables(self, func):
        assert func.__code__.co_cellvars == ()
