"""Integration tests: full two-phase pipelines across module boundaries.

These tests exercise placement → simulation → trace → ratio end to end and
cross-check the event-driven engine against direct load computations, so a
regression in any layer shows up here even if that layer's unit tests were
too narrow.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiment import run_grid
from repro.analysis.ratios import measured_ratio, run_strategy
from repro.core.strategies import LPTNoChoice, LPTNoRestriction, LSGroup
from repro.exact.optimal import optimal_makespan
from repro.memory.abo import ABO
from repro.memory.sabo import SABO
from repro.registry import full_sweep
from repro.schedulers.list_scheduling import greedy_assign_heap
from repro.simulation.engine import simulate
from repro.uncertainty.realization import truthful_realization
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import generate, uniform_instance
from repro.workloads.memory_workloads import independent_sizes
from repro.workloads.suites import small_exact_suite


class TestEngineVsDirectComputation:
    """The event-driven engine must agree with closed-form load math."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pinned_strategy_equals_max_load(self, seed):
        inst = uniform_instance(25, 4, alpha=1.8, seed=seed)
        real = sample_realization(inst, "log_uniform", seed + 100)
        strategy = LPTNoChoice()
        outcome = run_strategy(strategy, inst, real)
        assignment = outcome.placement.fixed_assignment()
        loads = [0.0] * inst.m
        for j in range(inst.n):
            loads[assignment[j]] += real.actual(j)
        assert outcome.makespan == pytest.approx(max(loads))

    @pytest.mark.parametrize("seed", range(4))
    def test_online_lpt_equals_offline_ls_on_actuals(self, seed):
        """With all tasks at time 0, event-driven LPT dispatch on actual
        durations produces the same makespan as offline list-scheduling the
        actuals in LPT-estimate order."""
        inst = uniform_instance(30, 5, alpha=1.6, seed=seed)
        real = sample_realization(inst, "uniform", seed + 50)
        outcome = run_strategy(LPTNoRestriction(), inst, real)
        offline = greedy_assign_heap(list(real.actuals), inst.lpt_order(), inst.m)
        assert outcome.makespan == pytest.approx(offline.makespan)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_group_strategy_decomposes_into_group_ls(self, k):
        """LS-Group's makespan equals the max over groups of the online-LS
        makespan of that group's tasks on m/k machines."""
        inst = uniform_instance(40, 10, alpha=1.5, seed=3)
        real = sample_realization(inst, "log_uniform", 7)
        strategy = LSGroup(k)
        placement = strategy.place(inst)
        outcome = run_strategy(strategy, inst, real)
        group_of_task = placement.meta["group_of_task"]
        per_group_makespans = []
        for g in range(k):
            tids = [j for j in range(inst.n) if group_of_task[j] == g]
            if not tids:
                per_group_makespans.append(0.0)
                continue
            times = [real.actual(j) for j in tids]
            offline = greedy_assign_heap(times, list(range(len(times))), inst.m // k)
            per_group_makespans.append(offline.makespan)
        assert outcome.makespan == pytest.approx(max(per_group_makespans))


class TestFullSweepFeasibility:
    def test_every_strategy_every_realization_model(self):
        inst = generate("bimodal", 24, 6, 1.7, seed=2)
        for strategy in full_sweep(6, include_ablation=True):
            for model in ("uniform", "bimodal_extreme", "log_uniform"):
                real = sample_realization(inst, model, 11)
                outcome = run_strategy(strategy, inst, real)
                outcome.trace.validate(outcome.placement, real)
                assert outcome.makespan >= real.max - 1e-9


class TestSuitePipeline:
    def test_small_suite_all_within_guarantees(self):
        """Run a slice of the exact suite end to end: every strategy's
        measured ratio (vs exact optimum) is within its guarantee."""
        cases = [c for c in small_exact_suite(alphas=(1.5,), seeds=1)][:10]
        for case in cases:
            for strategy in (LPTNoChoice(), LPTNoRestriction()):
                real = sample_realization(case.instance, "bimodal_extreme", case.seed)
                rec = measured_ratio(strategy, case.instance, real, exact_limit=16)
                if rec.optimum.optimal:
                    assert rec.within_guarantee, (
                        f"{strategy.name} ratio {rec.ratio} > {rec.guarantee} on "
                        f"{case.instance.name}"
                    )

    def test_grid_runner_matches_direct_measurement(self):
        inst = uniform_instance(12, 3, alpha=1.4, seed=0)
        records = run_grid([LPTNoChoice()], [inst], ["uniform"], seeds=(5,))
        direct = measured_ratio(
            LPTNoChoice(), inst, sample_realization(inst, "uniform", 5)
        )
        assert records[0].ratio == pytest.approx(direct.ratio)


class TestMemoryPipeline:
    @pytest.mark.parametrize("delta", [0.3, 1.0, 3.0])
    def test_sabo_abo_full_pipeline(self, delta):
        inst = independent_sizes(20, 4, alpha=1.5, seed=1)
        real = sample_realization(inst, "lognormal", 9)
        for strategy in (SABO(delta), ABO(delta)):
            outcome = run_strategy(strategy, inst, real)
            outcome.trace.validate(outcome.placement, real)
            opt = optimal_makespan(real.actuals, inst.m, exact_limit=22)
            if opt.optimal:
                assert outcome.makespan <= strategy.makespan_guarantee(inst) * opt.value * (
                    1 + 1e-9
                )

    def test_memory_accounting_consistent(self):
        inst = independent_sizes(15, 3, alpha=1.3, seed=2)
        abo = ABO(1.0)
        p = abo.place(inst)
        s1, s2 = p.meta["s1"], p.meta["s2"]
        expected_total = inst.m * sum(inst.tasks[j].size for j in s1) + sum(
            inst.tasks[j].size for j in s2
        )
        assert p.total_memory() == pytest.approx(expected_total)


class TestDeterminismEndToEnd:
    def test_identical_runs_identical_traces(self):
        inst = generate("bounded_pareto", 30, 6, 2.0, seed=4)
        real = sample_realization(inst, "bimodal_extreme", 13)
        for strategy in (LPTNoRestriction(), LSGroup(2), LSGroup(3)):
            p1 = strategy.place(inst)
            t1 = simulate(p1, real, strategy.make_policy(inst, p1))
            p2 = strategy.place(inst)
            t2 = simulate(p2, real, strategy.make_policy(inst, p2))
            assert t1.runs == t2.runs
