"""Tests for the robust pinned placement (repro.robust)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ratios import run_strategy
from repro.core.adversary import theorem1_instance, theorem1_realization
from repro.core.bounds import lb_no_replication
from repro.core.strategies import LPTNoChoice
from repro.exact.optimal import optimal_makespan
from repro.robust import RobustPinnedPlacement
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance
from repro.workloads.suites import memory_suite


class TestPlacementBasics:
    def test_no_replication(self):
        inst = uniform_instance(12, 3, alpha=2.0, seed=0)
        p = RobustPinnedPlacement().place(inst)
        assert p.is_no_replication()
        assert p.meta["strategy"].startswith("robust_pinned")

    def test_deterministic(self):
        inst = uniform_instance(12, 3, alpha=2.0, seed=1)
        a = RobustPinnedPlacement(seed=5).place(inst).fixed_assignment()
        b = RobustPinnedPlacement(seed=5).place(inst).fixed_assignment()
        assert a == b

    def test_training_objective_not_worse_than_lpt(self):
        """The local search starts from LPT, so its trained worst-case is at
        most LPT's worst-case over the same scenarios."""
        inst = uniform_instance(14, 4, alpha=2.0, seed=2)
        strategy = RobustPinnedPlacement(scenarios=10, seed=3)
        durations = strategy._scenario_matrix(inst)
        p_robust = strategy.place(inst)
        p_lpt = LPTNoChoice().place(inst)
        def worst(assignment):
            loads = np.zeros((durations.shape[0], inst.m))
            for j, i in enumerate(assignment):
                loads[:, i] += durations[:, j]
            return loads.max()
        assert worst(p_robust.fixed_assignment()) <= worst(p_lpt.fixed_assignment()) + 1e-9

    def test_recorded_worst_makespan_is_the_final_assignments(self):
        """``trained_worst_makespan`` is the worst makespan of the final
        assignment over the training scenarios, summed afresh in task
        order: rejected moves leave no drift in the loads it is read from."""
        strategy = RobustPinnedPlacement()
        for case in memory_suite(seeds=1):
            inst = case.instance
            durations = strategy._scenario_matrix(inst)
            placement = strategy.place(inst)
            loads = np.zeros((durations.shape[0], inst.m))
            for j, i in enumerate(placement.fixed_assignment()):
                loads[:, i] += durations[:, j]
            assert placement.meta["trained_worst_makespan"] == loads.max(), inst.name

    def test_feasible_end_to_end(self):
        inst = uniform_instance(15, 4, alpha=1.6, seed=4)
        real = sample_realization(inst, "bimodal_extreme", 5)
        outcome = run_strategy(RobustPinnedPlacement(), inst, real)
        outcome.trace.validate(outcome.placement, real)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RobustPinnedPlacement(scenarios=0)
        with pytest.raises(ValueError):
            RobustPinnedPlacement(iterations=0)


class TestNoFreeLunch:
    def test_adaptive_adversary_still_wins(self):
        """Against the Theorem-1 adversary (which sees the placement), the
        robust pinned placement cannot beat the impossibility bound on the
        identical-task construction — foresight is not flexibility."""
        m, lam, alpha = 3, 4, 2.0
        inst = theorem1_instance(lam, m, alpha)
        strategy = RobustPinnedPlacement(scenarios=16, seed=7)
        placement = strategy.place(inst)
        real = theorem1_realization(placement)
        outcome = run_strategy(strategy, inst, real)
        opt = optimal_makespan(real.actuals, m, exact_limit=lam * m)
        ratio = outcome.makespan / opt.value
        bound = lb_no_replication(alpha, m)
        # Finite-lambda: the forced ratio is already a large fraction of
        # the asymptotic bound, exactly as for LPT-No Choice.
        assert ratio >= 0.8 * bound
