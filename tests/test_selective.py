"""Tests for SelectiveReplication and BudgetedReplication (future-work model)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ratios import measured_ratio, run_strategy
from repro.core.strategies import BudgetedReplication, SelectiveReplication
from repro.core.strategies.lpt_no_choice import LPTNoChoice
from repro.core.model import make_instance
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance
from tests.conftest import instances


class TestSelectiveEndpoints:
    def test_fraction_zero_is_no_replication(self, small_instance):
        p = SelectiveReplication(0.0).place(small_instance)
        assert p.is_no_replication()
        # And the pinned layout matches LPT-No Choice's.
        base = LPTNoChoice().place(small_instance)
        assert p.fixed_assignment() == base.fixed_assignment()

    def test_fraction_one_is_full_replication(self, small_instance):
        p = SelectiveReplication(1.0).place(small_instance)
        assert p.is_full_replication()

    def test_intermediate_replicates_largest(self, small_instance):
        # estimates 5,4,3,3,2,1 -> top 1/3 by count = tasks 0,1.
        p = SelectiveReplication(1 / 3).place(small_instance)
        assert p.replication_count(0) == small_instance.m
        assert p.replication_count(1) == small_instance.m
        for j in (2, 3, 4, 5):
            assert p.replication_count(j) == 1

    def test_by_work_selects_until_coverage(self, small_instance):
        # Total work 18; fraction 0.5 -> cover >= 9: tasks 0 (5) + 1 (4).
        p = SelectiveReplication(0.5, by_work=True).place(small_instance)
        assert set(p.meta["critical"]) == {0, 1}

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            SelectiveReplication(1.5)

    def test_name_round_trip(self):
        from repro.registry import make_strategy

        s = SelectiveReplication(0.25)
        assert make_strategy(s.name).name == s.name
        s2 = SelectiveReplication(0.25, by_work=True)
        assert make_strategy(s2.name).name == s2.name


class TestSelectiveBehaviour:
    @given(instances(min_n=2, max_n=10, max_m=4), st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    def test_always_feasible(self, inst, fraction):
        real = sample_realization(inst, "bimodal_extreme", 1)
        outcome = run_strategy(SelectiveReplication(fraction), inst, real)
        outcome.trace.validate(outcome.placement, real)

    def test_total_replicas_monotone_in_fraction(self):
        inst = uniform_instance(20, 4, alpha=2.0, seed=0)
        counts = [
            SelectiveReplication(f).place(inst).total_replicas()
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 20 and counts[-1] == 80

    def test_helps_under_extreme_uncertainty(self):
        """Replicating half the work should beat pinning on average under
        extreme realizations."""
        wins = 0
        for seed in range(6):
            inst = uniform_instance(24, 4, alpha=2.0, seed=seed)
            real = sample_realization(inst, "bimodal_extreme", 100 + seed)
            sel = run_strategy(SelectiveReplication(0.5, by_work=True), inst, real)
            pin = run_strategy(LPTNoChoice(), inst, real)
            if sel.makespan <= pin.makespan + 1e-9:
                wins += 1
        assert wins >= 4


class TestBudgeted:
    def test_minimum_budget_is_lpt_no_choice(self, small_instance):
        p = BudgetedReplication(small_instance.n).place(small_instance)
        assert p.is_no_replication()
        assert p.total_replicas() == small_instance.n

    def test_full_budget_is_everywhere(self, small_instance):
        n, m = small_instance.n, small_instance.m
        p = BudgetedReplication(n * m).place(small_instance)
        assert p.is_full_replication()

    def test_budget_respected_exactly(self):
        inst = uniform_instance(10, 4, alpha=1.5, seed=1)
        for budget in (10, 14, 23, 40):
            p = BudgetedReplication(budget).place(inst)
            assert p.total_replicas() == budget

    def test_excess_budget_clamped(self, small_instance):
        p = BudgetedReplication(10_000).place(small_instance)
        assert p.total_replicas() == small_instance.n * small_instance.m

    def test_budget_below_n_rejected(self, small_instance):
        with pytest.raises(ValueError, match="one replica per task"):
            BudgetedReplication(2).place(small_instance)

    def test_extra_replicas_favor_largest(self):
        inst = make_instance([9.0, 1.0, 1.0, 1.0], m=2, alpha=1.5)
        p = BudgetedReplication(5).place(inst)  # one extra replica
        assert p.replication_count(0) == 2
        for j in (1, 2, 3):
            assert p.replication_count(j) == 1

    @given(instances(min_n=2, max_n=10, max_m=4), st.integers(0, 3))
    def test_feasible_and_within_trivial_bounds(self, inst, seed):
        budget = inst.n + (inst.n * (inst.m - 1)) // 2
        real = sample_realization(inst, "log_uniform", seed)
        rec = measured_ratio(BudgetedReplication(budget), inst, real, exact_limit=12)
        rec.outcome.trace.validate(rec.outcome.placement, real)
        assert rec.ratio >= 1.0 - 1e-9 or not rec.optimum.optimal

    def test_more_budget_no_worse_on_average(self):
        """Aggregate sanity: quadrupling the budget should not hurt the mean
        makespan under extreme realizations."""
        totals = {10: 0.0, 40: 0.0}
        for seed in range(6):
            inst = uniform_instance(10, 4, alpha=2.0, seed=seed)
            real = sample_realization(inst, "bimodal_extreme", 300 + seed)
            for budget in totals:
                totals[budget] += run_strategy(
                    BudgetedReplication(budget), inst, real
                ).makespan
        assert totals[40] <= totals[10] * (1 + 1e-9)
