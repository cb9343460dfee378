"""Tests for the machine-failure (fault-injection) extension.

The paper motivates replication partly by Hadoop's fault tolerance; this
extension lets the simulator demonstrate that argument: replicated tasks
survive machine failures by restarting elsewhere, pinned tasks die with
their machine.
"""

from __future__ import annotations

import pytest

from repro.analysis.ratios import run_strategy
from repro.core.model import make_instance
from repro.core.placement import everywhere_placement, single_machine_placement
from repro.core.strategy import FixedOrderPolicy
from repro.core.strategies import LPTNoChoice, LPTNoRestriction, LSGroup
from repro.memory.abo import ABO
from repro.faults import CrashStop, FaultPlan
from repro.simulation.engine import SimulationError, simulate
from repro.uncertainty.realization import truthful_realization
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance
from repro.workloads.memory_workloads import planted_two_class


@pytest.fixture
def inst():
    return make_instance([4.0, 3.0, 2.0, 2.0, 1.0], m=2, alpha=1.5)


class TestReplicatedSurvival:
    def test_running_task_restarts_elsewhere(self, inst):
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        # Machine 0 fails at t=1 while running task 0 (duration 4).
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashStop(0, 1.0)),
        )
        trace.validate(p, real)
        assert trace.machine_of(0) == 1  # restarted on the survivor
        assert len(trace.aborted) == 1
        assert trace.aborted[0].tid == 0
        assert trace.aborted[0].end == pytest.approx(1.0)
        # Everything ends up on machine 1.
        assert all(r.machine == 1 for r in trace.runs)

    def test_full_duration_after_restart(self, inst):
        """Restarts run from scratch — no partial credit."""
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashStop(0, 3.9)),
        )
        run0 = trace.runs[0]
        assert run0.duration == pytest.approx(4.0)
        assert run0.start >= 3.9

    def test_failure_of_idle_machine(self, inst):
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        # Fails long after all work is done.
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashStop(0, 100.0)),
        )
        assert not trace.aborted

    def test_failure_at_t0(self, inst):
        """A machine failing at t=0 never runs anything."""
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashStop(0, 0.0)),
        )
        assert all(r.machine == 1 for r in trace.runs)
        assert not trace.aborted

    def test_makespan_inflates_but_completes(self, inst):
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        healthy = simulate(p, real, FixedOrderPolicy(range(5)))
        degraded = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashStop(0, 2.0)),
        )
        assert degraded.makespan >= healthy.makespan
        degraded.validate(p, real)


class TestPinnedDeath:
    def test_unstarted_pinned_task_is_lost(self, inst):
        p = single_machine_placement(inst, [0, 1, 0, 1, 0])
        real = truthful_realization(inst)
        with pytest.raises(SimulationError, match="lost to machine failures"):
            simulate(
                p, real, FixedOrderPolicy(range(5)),
                faults=FaultPlan.of(CrashStop(0, 1.0)),
            )

    def test_all_machines_fail(self, inst):
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        with pytest.raises(SimulationError, match="lost to machine failures"):
            simulate(
                p, real, FixedOrderPolicy(range(5)),
                faults=FaultPlan.of(CrashStop(0, 1.0), CrashStop(1, 1.0)),
            )

    def test_bad_failure_spec(self, inst):
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        with pytest.raises(SimulationError, match="outside"):
            simulate(
                p, real, FixedOrderPolicy(range(5)),
                faults=FaultPlan.of(CrashStop(9, 1.0)),
            )
        with pytest.raises(SimulationError, match=">= 0"):
            simulate(
                p, real, FixedOrderPolicy(range(5)),
                faults=FaultPlan.of(CrashStop(0, -1.0)),
            )


class TestStrategyLevelSurvival:
    def test_group_strategy_survives_in_group_failure(self):
        inst = uniform_instance(20, 6, alpha=1.5, seed=1)
        real = sample_realization(inst, "log_uniform", 2)
        strategy = LSGroup(2)  # groups of 3 machines
        placement = strategy.place(inst)
        policy = strategy.make_policy(inst, placement)
        trace = simulate(
            placement, real, policy,
            faults=FaultPlan.of(CrashStop(0, 5.0)),
        )
        trace.validate(placement, real)
        assert all(r.machine != 0 or r.end <= 5.0 for r in trace.runs)

    def test_no_choice_generally_dies(self):
        inst = uniform_instance(20, 4, alpha=1.5, seed=3)
        real = sample_realization(inst, "log_uniform", 4)
        strategy = LPTNoChoice()
        placement = strategy.place(inst)
        policy = strategy.make_policy(inst, placement)
        with pytest.raises(SimulationError):
            simulate(placement, real, policy, faults=FaultPlan.of(CrashStop(0, 0.5)))

    def test_full_replication_survives_any_single_failure(self):
        inst = uniform_instance(20, 4, alpha=1.5, seed=5)
        real = sample_realization(inst, "uniform", 6)
        strategy = LPTNoRestriction()
        for machine in range(4):
            placement = strategy.place(inst)
            policy = strategy.make_policy(inst, placement)
            trace = simulate(
                placement, real, policy,
                faults=FaultPlan.of(CrashStop(machine, 3.0)),
            )
            trace.validate(placement, real)

    def test_abo_replicated_tasks_survive(self):
        """ABO's time-intensive tasks are replicated, so a failure only
        kills pinned tasks that were stranded on the failed machine."""
        inst = planted_two_class(4, 4, m=3, alpha=1.2)
        strategy = ABO(1.0)
        placement = strategy.place(inst)
        real = truthful_realization(inst)
        s2_on_2 = [
            j
            for j in placement.meta["s2"]
            if placement.machines_for(j) == frozenset({2})
        ]
        policy = strategy.make_policy(inst, placement)
        if s2_on_2:
            # Failing machine 2 before its pinned tasks run strands them.
            with pytest.raises(SimulationError):
                simulate(
                    placement, real, policy,
                    faults=FaultPlan.of(CrashStop(2, 0.0)),
                )
        # Failing *late* (after pinned tasks are done) always survives:
        # replicated tasks restart elsewhere.
        late = 1e6
        trace = simulate(
            placement, real, policy,
            faults=FaultPlan.of(CrashStop(2, late)),
        )
        trace.validate(placement, real)


class TestAbortEpoch:
    def test_policy_rescans_after_abort(self, inst):
        """Regression: FixedOrderPolicy's low-water mark must reset on
        abort, or the aborted task would be skipped forever."""
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        # Task 0 (first in order) aborts after the mark passed it.
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashStop(0, 1.0)),
        )
        assert trace.runs[0].end > 1.0  # it did rerun
