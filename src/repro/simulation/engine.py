"""The discrete-event cluster simulator (Phase 2 executor).

:func:`simulate` plays the paper's second phase: given a Phase-1 placement,
a realization of the actual times, and an online policy, it executes the
tasks on ``m`` machines and returns the full
:class:`~repro.simulation.trace.ScheduleTrace`.

The information model is the paper's semi-clairvoyant one and is enforced
mechanically:

* the policy decides from a :class:`~repro.core.strategy.SchedulerView`
  that reveals a task's actual duration only after its completion event
  has been processed;
* completions at time ``t`` are processed before dispatch decisions at
  ``t`` (see :class:`~repro.simulation.events.EventKind`), so "the
  scheduler can wait for a machine to become idle to place the next one"
  holds exactly;
* a dispatched task must be unstarted and placed on the dispatching
  machine, else the engine raises — a buggy policy cannot silently cheat.

This module is the *orchestrator*: input validation, capability
enforcement, and observability.  The event loop itself is
:class:`~repro.simulation.kernel.EventKernel`; a fault-free run is its
``plan=None`` case.

Optional ``release_times`` extend the model beyond the paper (all paper
experiments use release 0); a machine that finds nothing to run re-polls
at the next release instead of retiring, so the extension preserves the
work-conserving property.

Fault injection (the Hadoop fault-tolerance motivation for replication)
is driven by a :class:`~repro.faults.plan.FaultPlan` via ``faults=``:
machines can crash permanently, crash and recover after a downtime, or
straggle through degraded-speed intervals (a running task's *remaining
work* is rescaled at each speed boundary — no lost progress, no free
speedup).

Pass ``capabilities=`` (a :class:`~repro.registry.Capabilities`, normally
looked up via :func:`repro.registry.capabilities_of`) to enforce the
strategy's declared envelope *structurally*: a fault plan given to a
strategy whose policy cannot survive aborts, or release times given to a
policy that never re-checks availability, raise
:class:`~repro.registry.CapabilityError` before the simulation starts —
instead of silently producing a schedule the strategy's analysis does not
cover.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._validation import check_non_negative_float, check_positive_float
from repro.core.placement import Placement
from repro.core.strategy import OnlinePolicy
from repro.faults.plan import FaultPlan
from repro.obs.provenance import run_manifest
from repro.obs.tracer import get_tracer
from repro.registry.capabilities import Capabilities, CapabilityError
from repro.simulation.kernel import EventKernel, SimulationError
from repro.simulation.trace import ScheduleTrace
from repro.uncertainty.realization import Realization

__all__ = ["simulate", "SimulationError"]


def simulate(
    placement: Placement,
    realization: Realization,
    policy: OnlinePolicy,
    *,
    release_times: Sequence[float] | None = None,
    speeds: Sequence[float] | None = None,
    faults: FaultPlan | None = None,
    capabilities: Capabilities | None = None,
    label: str = "",
) -> ScheduleTrace:
    """Run Phase 2 and return the resulting trace.

    Parameters
    ----------
    placement:
        Phase-1 output; dispatches outside it raise.
    realization:
        Actual durations (hidden from the policy until completion).
    policy:
        The Phase-2 dispatch policy.
    release_times:
        Optional per-task release times (default: all zero, the paper's
        model).
    speeds:
        Optional per-machine speed factors (uniform-machines extension):
        task ``j`` on machine ``i`` runs for ``p_j / speeds[i]``.  The
        paper's model is all-ones; a wrong *global* speed estimate is
        exactly the throughput-inaccuracy reading of α in Section 4.
        Completion events still reveal the *work* :math:`p_j` (durations
        are machine-dependent, work is not).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` of crash-stop,
        crash-recover, degraded-speed, and correlated faults.  A machine
        that fails aborts its running task (the task reverts to unstarted
        and must restart from scratch on a machine holding its data), a
        recovered machine polls for work again, and degraded intervals
        rescale the remaining work of whatever is running.  A task whose
        replicas are all on *permanently* failed machines makes the run
        raise — exactly the availability argument for replication.
    capabilities:
        The strategy's declared capability envelope (see
        :func:`repro.registry.capabilities_of`).  When given, a fault
        plan against ``supports_faults=False`` or release times against
        ``supports_releases=False`` raise
        :class:`~repro.registry.CapabilityError` up front.  ``None``
        (default) skips the check — existing callers are unaffected.
    label:
        Annotation stored on the returned trace.

    Raises
    ------
    SimulationError
        If the policy dispatches an invalid task, the fault plan is
        malformed, or the run cannot complete (tasks stranded on failed
        machines, or machines retired while eligible work remains).
    CapabilityError
        If ``capabilities`` is given and the run requires a capability
        the strategy does not declare.
    """
    instance = placement.instance
    if realization.instance is not instance and realization.instance != instance:
        raise SimulationError("realization belongs to a different instance than placement")
    n, m = instance.n, instance.m
    if speeds is not None and len(speeds) != m:
        raise SimulationError(f"speeds must have length {m}, got {len(speeds)}")
    if release_times is not None and len(release_times) != n:
        raise SimulationError(
            f"release_times must cover all {n} tasks, got {len(release_times)}"
        )
    plan = faults or None
    try:
        machine_speed = (
            [1.0] * m
            if speeds is None
            else [check_positive_float(s, f"speeds[{i}]") for i, s in enumerate(speeds)]
        )
        releases = (
            [0.0] * n
            if release_times is None
            else [
                check_non_negative_float(r, f"release_times[{j}]")
                for j, r in enumerate(release_times)
            ]
        )
        if plan:
            plan.validate(m)
    except ValueError as exc:
        raise SimulationError(str(exc)) from exc

    if capabilities is not None:
        if plan is not None and not capabilities.supports_faults:
            raise CapabilityError(
                "this strategy's policy does not survive machine faults "
                "(supports_faults=False); running it under a FaultPlan would "
                "produce schedules its analysis does not cover"
            )
        if not capabilities.supports_releases and any(r > 0.0 for r in releases):
            raise CapabilityError(
                "this strategy's policy never re-checks task availability "
                "(supports_releases=False); it cannot run with nonzero "
                "release times"
            )

    tracer = get_tracer()
    obs = tracer.enabled
    kernel = EventKernel(
        placement,
        realization,
        policy,
        releases=releases,
        machine_speed=machine_speed,
        tracer=tracer,
        plan=plan,
    )
    with tracer.span("simulate", label=label, n=n, m=m) as sim_span:
        runs, aborted = kernel.run()
        trace = ScheduleTrace(tuple(runs), label=label, aborted=tuple(aborted))
        if obs:
            sim_span.set(makespan=trace.makespan)
            _record_run_telemetry(tracer, trace, instance, label)
    if obs:
        tracer.manifest(
            run_manifest(
                "simulate",
                label or instance.name,
                params={"n": n, "m": m, "alpha": instance.alpha, "label": label},
                timing={"simulate_s": sim_span.duration},
            )
        )
    return trace


def _record_run_telemetry(tracer, trace: ScheduleTrace, instance, label: str) -> None:
    """Post-run gauges: makespan and per-machine idle time.

    Idle time here is ``makespan − busy time`` per machine — the quantity
    load-balancing work will want to watch shrink.
    """
    registry = tracer.registry
    registry.gauge("sim.makespan").set(trace.makespan)
    idle = registry.timer("sim.idle_time")
    for load in trace.loads(instance.m):
        idle.observe(trace.makespan - load)
