"""Tests for the MILP exact solver (cross-validation oracle)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.bnb import branch_and_bound
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule
from tests.conftest import estimates_strategy
from tests.milp_oracle import milp_makespan


class TestClosedForms:
    def test_single_machine(self):
        r = milp_makespan([1.0, 2.0], 1)
        assert r.makespan == 3.0

    def test_one_task_per_machine(self):
        r = milp_makespan([5.0, 1.0], 3)
        assert r.makespan == 5.0


class TestKnownInstances:
    def test_lpt_suboptimal_instance(self):
        assert milp_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2).makespan == pytest.approx(6.0)

    def test_three_machines(self):
        assert milp_makespan([5.0, 4.0, 3.0, 3.0, 3.0], 3).makespan == pytest.approx(7.0)

    def test_assignment_is_consistent(self):
        times = [4.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        r = milp_makespan(times, 3)
        loads = [0.0] * 3
        for j, i in enumerate(r.assignment):
            loads[i] += times[j]
        assert max(loads) == pytest.approx(r.makespan)

    def test_without_symmetry_breaking(self):
        r = milp_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2, symmetry_breaking=False)
        assert r.makespan == pytest.approx(6.0)

    def test_beyond_branch_and_bound_sizes(self):
        """n = 26 with heavy value ties: the optimum lies between the
        combined lower bound and LPT (agreement with B&B is covered at
        smaller n, where its node budget survives the ties)."""
        times = [float(3 + (j * 13) % 7) for j in range(26)]
        r = milp_makespan(times, 4, time_limit=5.0)
        assert combined_lower_bound(times, 4) <= r.makespan * (1 + 1e-9)
        assert r.makespan <= lpt_schedule(times, 4).makespan * (1 + 1e-9)


class TestCrossValidation:
    @given(estimates_strategy(1, 10), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25)
    def test_agrees_with_branch_and_bound(self, times, m):
        """Two independently implemented exact solvers must agree."""
        assert milp_makespan(times, m).makespan == pytest.approx(
            branch_and_bound(times, m).makespan, rel=1e-6
        )
