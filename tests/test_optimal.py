"""Unit and property tests for repro.exact.optimal."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exact.optimal import optimal_makespan
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule
from tests.conftest import estimates_strategy


class TestMethodSelection:
    def test_single_machine_closed_form(self):
        r = optimal_makespan([1.0, 2.0], 1)
        assert r.value == 3.0
        assert r.method == "closed_form"
        assert r.optimal

    def test_n_le_m_closed_form(self):
        r = optimal_makespan([4.0, 2.0], 5)
        assert r.value == 4.0
        assert r.method == "closed_form"

    def test_two_machines_partition_dp(self):
        r = optimal_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert r.value == 6.0
        assert r.method == "partition_dp"

    def test_bnb_for_general(self):
        r = optimal_makespan([3.0, 3.0, 2.0, 2.0, 2.0, 1.0], 3)
        assert r.method == "bnb"
        assert r.optimal

    def test_fallback_to_lower_bound(self):
        times = [float(j % 7 + 1) for j in range(200)]
        r = optimal_makespan(times, 5, exact_limit=10)
        assert r.method == "lower_bound"
        assert not r.optimal
        assert r.value == pytest.approx(combined_lower_bound(times, 5))

    def test_node_limit_fallback(self):
        times = [float(17 + (j * 7919) % 101) / 10 + 0.0137 * j for j in range(20)]
        r = optimal_makespan(times, 4, exact_limit=22, node_limit=10)
        assert r.method == "lower_bound"
        assert not r.optimal


class TestSoundness:
    @given(estimates_strategy(1, 10), st.integers(min_value=1, max_value=4))
    def test_value_between_bounds(self, times, m):
        r = optimal_makespan(times, m, exact_limit=12)
        assert combined_lower_bound(times, m) <= r.value * (1 + 1e-9)
        assert r.value <= lpt_schedule(times, m).makespan * (1 + 1e-9)

    @given(estimates_strategy(1, 10), st.integers(min_value=1, max_value=4))
    def test_exact_flag_means_methods_agree(self, times, m):
        """When two exact paths apply, they must agree."""
        r = optimal_makespan(times, m, exact_limit=12)
        if r.optimal and m == 2 and len(times) > m:
            from repro.exact.bnb import branch_and_bound

            assert r.value == pytest.approx(branch_and_bound(times, 2).makespan)
