"""Unit tests for the discrete-event engine (repro.simulation.engine)."""

from __future__ import annotations

import math

import pytest

from repro.core.model import make_instance
from repro.core.placement import everywhere_placement, single_machine_placement
from repro.core.strategies import LSGroup
from repro.core.strategy import FixedOrderPolicy, SchedulerView
from repro.faults import CrashStop, DegradedInterval, FaultPlan
from repro.simulation.engine import SimulationError, simulate
from repro.uncertainty.realization import factors_realization, truthful_realization
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance


@pytest.fixture
def inst():
    return make_instance([4.0, 3.0, 2.0, 1.0], m=2, alpha=2.0)


class TestBasicExecution:
    def test_pinned_tasks_run_where_pinned(self, inst):
        p = single_machine_placement(inst, [0, 1, 0, 1])
        trace = simulate(p, truthful_realization(inst), FixedOrderPolicy(range(4)))
        assert trace.assignment() == [0, 1, 0, 1]
        assert trace.makespan == 6.0  # machine0: 4+2, machine1: 3+1

    def test_everywhere_greedy_matches_online_ls(self, inst):
        p = everywhere_placement(inst)
        trace = simulate(p, truthful_realization(inst), FixedOrderPolicy(range(4)))
        # LS in input order with actual times 4,3,2,1:
        # t=0: M0<-0, M1<-1; t=3: M1<-2; t=4: M0<-3 -> loads (5, 5)
        assert trace.makespan == 5.0

    def test_trace_validates(self, inst):
        p = everywhere_placement(inst)
        real = truthful_realization(inst)
        trace = simulate(p, real, FixedOrderPolicy(range(4)))
        trace.validate(p, real)

    def test_deterministic(self, inst):
        p = everywhere_placement(inst)
        real = factors_realization(inst, [1.5, 0.8, 1.0, 2.0])
        t1 = simulate(p, real, FixedOrderPolicy(inst.lpt_order()))
        t2 = simulate(p, real, FixedOrderPolicy(inst.lpt_order()))
        assert t1.runs == t2.runs

    def test_label_propagated(self, inst):
        p = everywhere_placement(inst)
        trace = simulate(p, truthful_realization(inst), FixedOrderPolicy(range(4)), label="xyz")
        assert trace.label == "xyz"


class TestSemiClairvoyance:
    def test_actual_durations_drive_dispatch(self, inst):
        """A machine whose task finishes early gets the next task —
        the adaptivity that full replication buys."""
        p = everywhere_placement(inst)
        # Estimates 4,3,2,1 but actuals invert machines: task0 takes 2, task1 takes 6.
        real = factors_realization(inst, [0.5, 2.0, 1.0, 1.0])
        trace = simulate(p, real, FixedOrderPolicy(range(4)))
        # t=0: M0<-0 (2), M1<-1 (6); t=2: M0<-2 (2); t=4: M0<-3 (1) -> M0 load 5, M1 6
        assert trace.machine_of(2) == 0
        assert trace.machine_of(3) == 0
        assert trace.makespan == 6.0

    def test_view_hides_unfinished_durations(self, inst):
        """The policy cannot read an unfinished task's actual time."""
        seen: list[Exception] = []

        class Spy:
            def select(self, machine: int, view: SchedulerView) -> int | None:
                for tid in view.pending_tasks():
                    try:
                        view.revealed_actual(tid)
                    except KeyError as exc:
                        seen.append(exc)
                for tid in view.pending_on(machine):
                    return tid
                return None

        p = everywhere_placement(inst)
        simulate(p, truthful_realization(inst), Spy())
        assert seen  # every pre-completion peek raised

    def test_completed_durations_revealed(self, inst):
        revealed: dict[int, float] = {}

        class Spy:
            def select(self, machine: int, view: SchedulerView) -> int | None:
                for tid in range(view.instance.n):
                    if view.is_completed(tid):
                        revealed[tid] = view.revealed_actual(tid)
                for tid in view.pending_on(machine):
                    return tid
                return None

        p = everywhere_placement(inst)
        real = factors_realization(inst, [0.5, 1.0, 1.0, 1.0])
        simulate(p, real, Spy())
        assert revealed[0] == pytest.approx(2.0)


class TestPolicyErrors:
    def test_invalid_task_id(self, inst):
        class Bad:
            def select(self, machine, view):
                return 99

        with pytest.raises(SimulationError, match="invalid task id"):
            simulate(everywhere_placement(inst), truthful_realization(inst), Bad())

    def test_placement_violation(self, inst):
        class Bad:
            def select(self, machine, view):
                # Ignores the placement: hands the first pending task to any
                # machine; all tasks are pinned to machine 0.
                pending = view.pending_tasks()
                return pending[0] if pending else None

        p = single_machine_placement(inst, [0, 0, 0, 0])
        with pytest.raises(SimulationError, match="data is only on"):
            simulate(p, truthful_realization(inst), Bad())

    def test_double_start_rejected(self, inst):
        class Bad:
            def select(self, machine, view):
                return 0  # always task 0, even after it started

        with pytest.raises(SimulationError, match="already-started"):
            simulate(everywhere_placement(inst), truthful_realization(inst), Bad())

    def test_deadlock_detected(self, inst):
        class Lazy:
            def select(self, machine, view):
                return None

        with pytest.raises(SimulationError, match="unscheduled tasks"):
            simulate(everywhere_placement(inst), truthful_realization(inst), Lazy())

    def test_realization_instance_mismatch(self, inst):
        other = make_instance([1.0, 1.0, 1.0, 1.0], m=2, alpha=2.0)
        with pytest.raises(SimulationError, match="different instance"):
            simulate(
                everywhere_placement(inst),
                truthful_realization(other),
                FixedOrderPolicy(range(4)),
            )


class TestReleaseTimes:
    def test_release_delays_start(self, inst):
        p = everywhere_placement(inst)
        trace = simulate(
            p,
            truthful_realization(inst),
            FixedOrderPolicy(range(4)),
            release_times=[0.0, 0.0, 10.0, 0.0],
        )
        assert trace.runs[2].start >= 10.0
        trace.validate(p, truthful_realization(inst))

    def test_machine_wakes_for_release(self):
        """With one machine and one late task, the machine must re-poll at
        the release time instead of retiring."""
        inst = make_instance([1.0, 1.0], m=1, alpha=1.0)
        p = everywhere_placement(inst)
        trace = simulate(
            p,
            truthful_realization(inst),
            FixedOrderPolicy(range(2)),
            release_times=[0.0, 5.0],
        )
        assert trace.runs[1].start == pytest.approx(5.0)

    def test_release_times_validated(self, inst):
        p = everywhere_placement(inst)
        with pytest.raises(SimulationError, match="cover all"):
            simulate(p, truthful_realization(inst), FixedOrderPolicy(range(4)), release_times=[0.0])
        with pytest.raises(SimulationError, match=">= 0"):
            simulate(
                p,
                truthful_realization(inst),
                FixedOrderPolicy(range(4)),
                release_times=[-1.0, 0.0, 0.0, 0.0],
            )

    def test_early_selection_rejected(self, inst):
        class Eager:
            def select(self, machine, view):
                return 2  # released at t=10, machine idles at t=0

        with pytest.raises(SimulationError, match="before its release"):
            simulate(
                everywhere_placement(inst),
                truthful_realization(inst),
                Eager(),
                release_times=[0.0, 0.0, 10.0, 0.0],
            )


class TestNonFiniteInputs:
    """NaN and infinite inputs raise instead of giving a wrong makespan."""

    @staticmethod
    def _run(**kwargs):
        inst = uniform_instance(n=8, m=3, alpha=1.5, seed=1)
        real = sample_realization(inst, "log_uniform", seed=2)
        strategy = LSGroup(k=1)
        placement = strategy.place(inst)
        return simulate(placement, real, strategy.make_policy(inst, placement), **kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"release_times": [0.0] * 3 + [math.inf] + [0.0] * 4}, r"release_times\[3\] must be finite"),
            ({"release_times": [0.0] * 3 + [math.nan] + [0.0] * 4}, r"release_times\[3\] must be finite"),
            ({"speeds": [1.0, math.inf, 1.0]}, r"speeds\[1\] must be finite"),
            ({"faults": FaultPlan.of(CrashStop(0, math.nan))}, "failure time for machine 0 must be finite"),
            (
                {"faults": FaultPlan.of(DegradedInterval(0, 1.0, 5.0, math.inf))},
                "degraded factor on machine 0 must be finite",
            ),
        ],
        ids=["inf-release", "nan-release", "inf-speed", "nan-crash", "inf-factor"],
    )
    def test_rejected_as_simulation_error(self, kwargs, match):
        with pytest.raises(SimulationError, match=match):
            self._run(**kwargs)
