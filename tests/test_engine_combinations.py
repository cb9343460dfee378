"""Property tests combining the engine extensions.

Release times, machine speeds and failure injection each have their own
tests; real deployments combine them.  These tests drive the engine with
all extensions at once and check the global invariants still hold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import everywhere_placement
from repro.core.strategy import FixedOrderPolicy
from repro.core.strategies import LPTNoRestriction, LSGroup
from repro.faults import CrashStop, FaultPlan
from repro.simulation.engine import SimulationError, simulate
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance
from tests.conftest import instances


class TestSpeedsPlusReleases:
    @given(instances(min_n=2, max_n=10, max_m=4), st.integers(0, 2))
    @settings(max_examples=20)
    def test_feasible_and_release_respected(self, inst, seed):
        real = sample_realization(inst, "log_uniform", seed)
        releases = [0.0 if j % 2 == 0 else float(j) for j in range(inst.n)]
        speeds = [1.0 + 0.5 * (i % 3) for i in range(inst.m)]
        p = everywhere_placement(inst)
        trace = simulate(
            p,
            real,
            FixedOrderPolicy(inst.lpt_order()),
            release_times=releases,
            speeds=speeds,
        )
        trace.validate(p, real, speeds=speeds)
        for j, r in enumerate(releases):
            assert trace.runs[j].start >= r - 1e-9


class TestSpeedsPlusFailures:
    def test_restart_duration_uses_new_machine_speed(self):
        from repro.core.model import make_instance
        from repro.uncertainty.realization import truthful_realization

        inst = make_instance([4.0, 1.0], m=2, alpha=1.5)
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        # Machine 0 runs at speed 2 (task 0 would take 2s), fails at t=1.
        trace = simulate(
            p,
            real,
            FixedOrderPolicy(range(2)),
            speeds=[2.0, 1.0],
            faults=FaultPlan.of(CrashStop(0, 1.0)),
        )
        trace.validate(p, real, speeds=[2.0, 1.0])
        run0 = trace.runs[0]
        assert run0.machine == 1
        assert run0.duration == pytest.approx(4.0)  # full speed-1 duration


class TestAllThreeExtensions:
    @given(st.integers(0, 4))
    @settings(max_examples=10)
    def test_full_stack(self, seed):
        inst = uniform_instance(16, 4, alpha=1.6, seed=seed)
        real = sample_realization(inst, "uniform", seed)
        strategy = LPTNoRestriction()
        placement = strategy.place(inst)
        releases = [0.0] * 12 + [5.0] * 4
        speeds = [1.0, 1.5, 0.75, 1.25]
        trace = simulate(
            placement,
            real,
            strategy.make_policy(inst, placement),
            release_times=releases,
            speeds=speeds,
            faults=FaultPlan.of(CrashStop(2, 8.0)),
        )
        trace.validate(placement, real, speeds=speeds)
        # No run on the failed machine extends past its failure time.
        for r in trace.runs + trace.aborted:
            if r.machine == 2:
                assert r.end <= 8.0 + 1e-9
        # Total successful work equals the realization's total.
        work = sum(
            r.duration * speeds[r.machine] for r in trace.runs
        )
        assert work == pytest.approx(real.total)

    def test_group_strategy_full_stack(self):
        inst = uniform_instance(18, 6, alpha=1.5, seed=7)
        real = sample_realization(inst, "log_uniform", 8)
        strategy = LSGroup(2)
        placement = strategy.place(inst)
        # Fail one machine of group 0; its work must stay inside group 0.
        trace = simulate(
            placement,
            real,
            strategy.make_policy(inst, placement),
            speeds=[1.0] * 6,
            faults=FaultPlan.of(CrashStop(1, 4.0)),
        )
        trace.validate(placement, real)
        groups = placement.meta["groups"]
        group_of_task = placement.meta["group_of_task"]
        for j in range(inst.n):
            assert trace.machine_of(j) in groups[group_of_task[j]]
