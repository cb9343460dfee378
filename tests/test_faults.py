"""Tests for the unified fault-injection subsystem (repro.faults).

Covers the fault-plan value objects and validation, the seeded scenario
generators, crash-stop trace identity across fault kinds, and the
engine semantics of recovery, degraded speed, and
correlated failures — including the same-instant event-ordering edge
cases the completion-token machinery exists for.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.model import make_instance
from repro.core.placement import everywhere_placement, single_machine_placement
from repro.core.strategy import FixedOrderPolicy
from repro.faults import (
    CorrelatedFailure,
    CrashRecover,
    CrashStop,
    DegradedInterval,
    FaultPlan,
    RandomCrashes,
    StragglerSlowdowns,
    merge_plans,
)
from repro.simulation.engine import SimulationError, simulate
from repro.uncertainty.realization import truthful_realization


@pytest.fixture
def inst():
    return make_instance([4.0, 3.0, 2.0, 2.0, 1.0], m=2, alpha=1.5)


@pytest.fixture
def inst3():
    return make_instance([4.0, 3.0, 2.0, 2.0, 1.0], m=3, alpha=1.5)


def _run(inst, **kwargs):
    p = everywhere_placement(inst)
    real = truthful_realization(inst)
    trace = simulate(p, real, FixedOrderPolicy(range(inst.n)), **kwargs)
    return p, real, trace


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_fault_free(self, inst):
        assert not FaultPlan()
        assert FaultPlan().describe() == "fault-free"
        _, _, healthy = _run(inst)
        _, _, trace = _run(inst, faults=FaultPlan())
        assert trace.runs == healthy.runs

    def test_crashes_keep_declaration_order(self):
        plan = FaultPlan.of(CrashStop(3, 2.0), CrashStop(1, 1.0))
        assert plan.crashes() == [(2.0, 3, math.inf), (1.0, 1, math.inf)]

    def test_crashes_expand_correlated(self):
        plan = FaultPlan.of(CorrelatedFailure((2, 0), 5.0, 1.5))
        assert plan.crashes() == [(5.0, 2, 1.5), (5.0, 0, 1.5)]

    def test_machines_and_counts(self):
        plan = FaultPlan.of(
            CrashStop(0, 1.0),
            CrashRecover(1, 2.0, 3.0),
            DegradedInterval(2, 0.0, 4.0, 0.5),
            CorrelatedFailure((3, 4), 6.0),
        )
        assert plan.machines() == {0, 1, 2, 3, 4}
        assert plan.counts() == {
            "crash_stop": 1, "crash_recover": 1, "degraded": 1, "correlated": 1,
        }
        assert "degraded=1" in plan.describe()

    def test_merge_plans_concatenates(self):
        a = FaultPlan.of(CrashStop(0, 1.0))
        b = FaultPlan.of(DegradedInterval(1, 0.0, 2.0, 0.5))
        merged = merge_plans([a, b])
        assert merged.faults == a.faults + b.faults

    def test_plan_is_hashable_and_picklable(self):
        import pickle

        plan = FaultPlan.of(CrashStop(0, 1.0), CorrelatedFailure((1, 2), 3.0))
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))


class TestValidation:
    @pytest.mark.parametrize(
        "plan, match",
        [
            (FaultPlan.of(CrashStop(9, 1.0)), "outside"),
            (FaultPlan.of(CrashStop(0, -1.0)), ">= 0"),
            (FaultPlan.of(CrashRecover(0, 1.0, 0.0)), "downtime"),
            (FaultPlan.of(DegradedInterval(0, -1.0, 2.0, 0.5)), "start"),
            (FaultPlan.of(DegradedInterval(0, 2.0, 2.0, 0.5)), "empty"),
            (FaultPlan.of(DegradedInterval(0, 0.0, 2.0, 0.0)), "factor"),
            (
                FaultPlan.of(
                    DegradedInterval(0, 0.0, 3.0, 0.5),
                    DegradedInterval(0, 2.0, 4.0, 0.7),
                ),
                "overlap",
            ),
            # NaN breaks the event heap's order; an infinite failure time
            # or factor has no meaning.
            (FaultPlan.of(CrashStop(0, math.nan)), "failure time for machine 0 must be finite"),
            (FaultPlan.of(CrashStop(0, math.inf)), "failure time for machine 0 must be finite"),
            (FaultPlan.of(CrashRecover(1, math.nan, 2.0)), "failure time for machine 1 must be finite"),
            (
                FaultPlan.of(CorrelatedFailure((0, 1), math.nan)),
                "failure time for machine 0 must be finite",
            ),
            (
                FaultPlan.of(DegradedInterval(0, 0.0, 2.0, math.inf)),
                "degraded factor on machine 0 must be finite",
            ),
        ],
    )
    def test_rejects_malformed(self, plan, match):
        with pytest.raises(ValueError, match=match):
            plan.validate(2)

    def test_accepts_well_formed(self):
        FaultPlan.of(
            CrashRecover(0, 1.0, 2.0),
            DegradedInterval(1, 0.0, 2.0, 0.5),
            DegradedInterval(1, 2.0, 4.0, 0.7),  # touching is not overlap
            CorrelatedFailure((0, 1), 3.0),
        ).validate(2)

    def test_engine_wraps_validation_errors(self, inst):
        with pytest.raises(SimulationError, match="outside"):
            _run(inst, faults=FaultPlan.of(CrashStop(9, 1.0)))


class TestBackCompatEquivalence:
    """Fault kinds that mean a permanent crash play identical traces."""

    def test_infinite_downtime_recover_is_crash_stop(self, inst):
        _, _, crash = _run(inst, faults=FaultPlan.of(CrashStop(0, 1.0)))
        _, _, recover = _run(
            inst, faults=FaultPlan.of(CrashRecover(0, 1.0, math.inf))
        )
        assert recover.runs == crash.runs
        assert recover.aborted == crash.aborted

    def test_stranding_matches_legacy(self, inst):
        p = single_machine_placement(inst, [0, 1, 0, 1, 0])
        real = truthful_realization(inst)
        with pytest.raises(SimulationError, match="lost to machine failures"):
            simulate(
                p, real, FixedOrderPolicy(range(5)),
                faults=FaultPlan.of(CrashStop(0, 1.0)),
            )


class TestCrashRecover:
    def test_recovered_machine_takes_work_again(self, inst):
        """Machine 0 dies at t=1 and rejoins at t=1.5; FixedOrder re-picks
        the aborted task 0 on it.  The superseded completion event from the
        first attempt must not fire (completion-token staleness)."""
        p, real, trace = _run(
            inst, faults=FaultPlan.of(CrashRecover(0, 1.0, 0.5))
        )
        trace.validate(p, real)
        run0 = trace.runs[0]
        assert run0.machine == 0
        assert run0.start == pytest.approx(1.5)
        assert run0.duration == pytest.approx(4.0)  # full rerun, no stale credit
        assert trace.aborted[0].tid == 0

    def test_recovery_saves_pinned_placement(self, inst):
        p = single_machine_placement(inst, [0, 1, 0, 1, 0])
        real = truthful_realization(inst)
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CrashRecover(0, 1.0, 2.0)),
        )
        trace.validate(p, real)
        assert {r.machine for r in trace.runs if r.tid in (0, 2, 4)} == {0}

    def test_recovery_beats_permanent_loss(self, inst):
        _, _, stop = _run(inst, faults=FaultPlan.of(CrashStop(0, 1.0)))
        _, _, recover = _run(inst, faults=FaultPlan.of(CrashRecover(0, 1.0, 0.5)))
        assert recover.makespan <= stop.makespan


class TestDegradedSpeed:
    def test_remaining_work_rescales_at_boundary(self, inst):
        """Machine 0 at half speed on [0, 2): task 0 (work 4) does 1 unit
        by t=2 and the remaining 3 at full speed — ends at exactly 5."""
        p, real, trace = _run(
            inst, faults=FaultPlan.of(DegradedInterval(0, 0.0, 2.0, 0.5))
        )
        trace.validate(p, real, check_durations=False)
        assert trace.runs[0].machine == 0
        assert trace.runs[0].end == pytest.approx(5.0)
        # The healthy machine is untouched.
        assert trace.runs[1].duration == pytest.approx(3.0)

    def test_duration_check_flags_degraded_runs(self, inst):
        p, real, trace = _run(
            inst, faults=FaultPlan.of(DegradedInterval(0, 0.0, 2.0, 0.5))
        )
        with pytest.raises(ValueError, match="realization says"):
            trace.validate(p, real)

    def test_dispatch_inside_interval_runs_slow(self, inst):
        """A whole-run degradation stretches every task on that machine."""
        p, real, trace = _run(
            inst, faults=FaultPlan.of(DegradedInterval(0, 0.0, math.inf, 0.5))
        )
        trace.validate(p, real, check_durations=False)
        for run in trace.runs:
            if run.machine == 0:
                assert run.duration == pytest.approx(2 * real.actual(run.tid))

    def test_burst_factor_speeds_up(self, inst):
        _, _, healthy = _run(inst)
        _, _, burst = _run(
            inst, faults=FaultPlan.of(DegradedInterval(0, 0.0, math.inf, 2.0))
        )
        assert burst.makespan < healthy.makespan

    def test_no_free_speedup_from_late_interval(self, inst):
        """An interval that starts after the machine went idle changes
        nothing retroactively."""
        _, _, healthy = _run(inst)
        _, _, late = _run(
            inst, faults=FaultPlan.of(DegradedInterval(0, 50.0, 60.0, 0.1))
        )
        assert late.runs == healthy.runs


class TestCorrelatedFailure:
    def test_rack_loss_strands_rack_pinned_tasks(self, inst3):
        p = single_machine_placement(inst3, [0, 1, 0, 1, 2])
        real = truthful_realization(inst3)
        with pytest.raises(SimulationError, match="lost to machine failures"):
            simulate(
                p, real, FixedOrderPolicy(range(5)),
                faults=FaultPlan.of(CorrelatedFailure((0, 1), 0.0)),
            )

    def test_replication_survives_rack_loss(self, inst3):
        p, real, trace = _run(
            inst3, faults=FaultPlan.of(CorrelatedFailure((0, 1), 1.0))
        )
        trace.validate(p, real)
        assert all(r.machine == 2 for r in trace.runs if r.end > 1.0)

    def test_rack_with_downtime_recovers(self, inst3):
        p = single_machine_placement(inst3, [0, 1, 0, 1, 2])
        real = truthful_realization(inst3)
        trace = simulate(
            p, real, FixedOrderPolicy(range(5)),
            faults=FaultPlan.of(CorrelatedFailure((0, 1), 0.0, downtime=2.0)),
        )
        trace.validate(p, real)


class TestSameInstantEdgeCases:
    def test_completion_wins_failure_tie(self, inst):
        """A failure at exactly a task's completion instant processes the
        completion first (EventKind order) — no spurious abort."""
        _, real, trace = _run(inst, faults=FaultPlan.of(CrashStop(0, 4.0)))
        assert not any(a.end == pytest.approx(4.0) for a in trace.aborted) or (
            trace.runs[0].end == pytest.approx(4.0)
        )
        assert trace.runs[0].machine == 0
        assert trace.runs[0].end == pytest.approx(4.0)

    def test_two_machines_fail_same_instant_survivable(self, inst3):
        p, real, trace = _run(
            inst3,
            faults=FaultPlan.of(CrashStop(0, 1.0), CrashStop(1, 1.0)),
        )
        trace.validate(p, real)
        assert len(trace.aborted) == 2
        assert all(r.machine == 2 for r in trace.runs)

    def test_two_machines_fail_same_instant_stranded(self, inst):
        with pytest.raises(SimulationError, match="lost to machine failures"):
            _run(inst, faults=FaultPlan.of(CrashStop(0, 1.0), CrashStop(1, 1.0)))

    def test_failure_at_t0_before_dispatch(self, inst):
        """MACHINE_FAILURE (priority 2) beats MACHINE_IDLE (priority 5) at
        t=0: the doomed machine never dispatches anything."""
        p, real, trace = _run(inst, faults=FaultPlan.of(CrashStop(0, 0.0)))
        trace.validate(p, real)
        assert all(r.machine == 1 for r in trace.runs)
        assert not trace.aborted

    def test_duplicate_crash_on_down_machine_absorbed(self, inst):
        _, _, once = _run(inst, faults=FaultPlan.of(CrashStop(0, 1.0)))
        _, _, twice = _run(
            inst, faults=FaultPlan.of(CrashStop(0, 1.0), CrashStop(0, 2.0))
        )
        assert twice.runs == once.runs
        assert twice.aborted == once.aborted


class TestMergedPlanOutages:
    """Merged plans hitting one machine behave as the union of outages.

    Regression suite for the ``merge_plans`` / ``CorrelatedFailure``
    interaction audit: overlapping or same-instant outages on one machine
    must extend its downtime (never shorten it), and the documented
    same-instant ordering — completion beats failure, failure beats
    recovery — must survive merging.
    """

    def test_merged_same_instant_takes_longest_downtime(self, inst):
        merged = merge_plans(
            [
                FaultPlan.of(CrashRecover(0, 1.0, 0.5)),
                FaultPlan.of(CrashRecover(0, 1.0, 3.0)),
            ]
        )
        _, _, got = _run(inst, faults=merged)
        _, _, want = _run(inst, faults=FaultPlan.of(CrashRecover(0, 1.0, 3.0)))
        assert got.runs == want.runs
        assert got.aborted == want.aborted

    def test_crash_at_recovery_instant_extends_outage(self, inst):
        """A crash landing exactly when an earlier outage ends is NOT
        absorbed: MACHINE_FAILURE outranks MACHINE_RECOVERY at the tie, so
        the downtime extends and the stale recovery is discarded."""
        merged = merge_plans(
            [
                FaultPlan.of(CrashRecover(0, 1.0, 1.0)),
                FaultPlan.of(CrashRecover(0, 2.0, 2.0)),
            ]
        )
        _, _, got = _run(inst, faults=merged)
        _, _, want = _run(inst, faults=FaultPlan.of(CrashRecover(0, 1.0, 3.0)))
        assert got.runs == want.runs

    def test_overlapping_outages_union(self, inst):
        merged = merge_plans(
            [
                FaultPlan.of(CrashRecover(0, 1.0, 2.0)),
                FaultPlan.of(CrashRecover(0, 2.0, 5.0)),
            ]
        )
        _, _, got = _run(inst, faults=merged)
        _, _, want = _run(inst, faults=FaultPlan.of(CrashRecover(0, 1.0, 6.0)))
        assert got.runs == want.runs

    def test_shorter_nested_outage_never_shortens(self, inst):
        merged = merge_plans(
            [
                FaultPlan.of(CrashRecover(0, 1.0, 5.0)),
                FaultPlan.of(CrashRecover(0, 2.0, 1.0)),
            ]
        )
        _, _, got = _run(inst, faults=merged)
        _, _, want = _run(inst, faults=FaultPlan.of(CrashRecover(0, 1.0, 5.0)))
        assert got.runs == want.runs

    def test_permanent_crash_during_outage_wins(self, inst):
        merged = merge_plans(
            [
                FaultPlan.of(CrashRecover(0, 1.0, 2.0)),
                FaultPlan.of(CrashStop(0, 2.0)),
            ]
        )
        _, _, got = _run(inst, faults=merged)
        _, _, want = _run(inst, faults=FaultPlan.of(CrashStop(0, 1.0)))
        assert got.runs == want.runs

    def test_completion_beats_failure_tie_after_merge(self, inst):
        """Task 0 (work 4) completes at exactly t=4; two merged correlated
        plans both killing machine 0 at t=4 must still lose the tie."""
        merged = merge_plans(
            [
                FaultPlan.of(CorrelatedFailure((0,), 4.0, 2.0)),
                FaultPlan.of(CorrelatedFailure((0,), 4.0)),
            ]
        )
        p, real, trace = _run(inst, faults=merged)
        trace.validate(p, real)
        assert trace.runs[0].machine == 0
        assert trace.runs[0].end == pytest.approx(4.0)
        assert not any(a.tid == 0 for a in trace.aborted)


class TestFaultModels:
    def test_random_crashes_reproducible(self):
        model = RandomCrashes(m=6, count=(0, 3), window=(0.0, 10.0))
        a = model.sample(np.random.default_rng(42))
        b = model.sample(np.random.default_rng(42))
        assert a == b

    def test_random_crashes_includes_control_arm(self):
        model = RandomCrashes(m=4, count=(0, 0))
        assert not model.sample(np.random.default_rng(0))

    def test_random_crashes_distinct_machines(self):
        model = RandomCrashes(m=4, count=(4, 4), window=(0.0, 5.0))
        plan = model.sample(np.random.default_rng(1))
        machines = [m for _, m, _ in plan.crashes()]
        assert sorted(machines) == [0, 1, 2, 3]
        plan.validate(4)

    def test_random_crashes_downtime_range(self):
        model = RandomCrashes(m=4, count=(2, 2), downtime=(1.0, 2.0))
        plan = model.sample(np.random.default_rng(3))
        assert all(isinstance(f, CrashRecover) for f in plan.faults)
        assert all(1.0 <= f.downtime <= 2.0 for f in plan.faults)

    def test_straggler_bounds(self):
        model = StragglerSlowdowns(
            m=5, prob=1.0, factors=(0.3, 0.8), window=(0.0, 10.0), durations=(2.0, 8.0)
        )
        plan = model.sample(np.random.default_rng(7))
        slows = plan.slowdowns()
        assert len(slows) == 5
        for s in slows:
            assert 0.3 <= s.factor <= 0.8
            assert 0.0 <= s.start <= 10.0
            assert 2.0 <= s.end - s.start <= 8.0
        plan.validate(5)

    def test_sampled_plans_run_end_to_end(self, inst3):
        rng = np.random.default_rng(11)
        model = RandomCrashes(m=3, count=(0, 1), window=(0.0, 6.0), downtime=(0.5, 2.0))
        for _ in range(5):
            p, real, trace = _run(inst3, faults=model.sample(rng))
            trace.validate(p, real)
