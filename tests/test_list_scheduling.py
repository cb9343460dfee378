"""Unit and property tests for repro.schedulers.list_scheduling."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.schedulers.list_scheduling import (
    AssignmentResult,
    balance_gap,
    greedy_assign_heap,
    list_schedule,
)
from tests.conftest import estimates_strategy


class TestListSchedule:
    def test_docstring_example(self):
        r = list_schedule([3.0, 2.0, 2.0], m=2)
        assert r.assignment == (0, 1, 1)
        assert r.makespan == 4.0

    def test_single_machine(self):
        r = list_schedule([1.0, 2.0, 3.0], m=1)
        assert r.assignment == (0, 0, 0)
        assert r.makespan == 6.0

    def test_more_machines_than_tasks(self):
        r = list_schedule([2.0, 1.0], m=4)
        assert r.makespan == 2.0
        assert set(r.assignment) == {0, 1}

    def test_tie_breaks_to_lowest_machine(self):
        r = list_schedule([1.0, 1.0, 1.0], m=3)
        assert r.assignment == (0, 1, 2)

    def test_custom_order(self):
        # Taking the big task last reproduces the classic LS worst case.
        r = list_schedule([1.0, 1.0, 2.0], m=2, order=[0, 1, 2])
        assert r.makespan == 3.0
        r2 = list_schedule([1.0, 1.0, 2.0], m=2, order=[2, 0, 1])
        assert r2.makespan == 2.0

    def test_order_validates_range(self):
        with pytest.raises(ValueError, match="outside"):
            list_schedule([1.0], 1, order=[5])

    def test_order_validates_duplicates(self):
        with pytest.raises(ValueError, match="repeats"):
            list_schedule([1.0, 2.0], 1, order=[0, 0])

    def test_initial_loads(self):
        r = list_schedule([1.0], m=2, initial_loads=[5.0, 0.0])
        assert r.assignment == (1,)
        assert r.loads == (5.0, 1.0)

    def test_initial_loads_validated(self):
        with pytest.raises(ValueError, match="length"):
            list_schedule([1.0], m=2, initial_loads=[1.0])
        with pytest.raises(ValueError, match="finite"):
            list_schedule([1.0], m=2, initial_loads=[-1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            list_schedule([], m=2)

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            list_schedule([1.0], m=0)


class TestAssignmentResult:
    def test_machine_tasks(self):
        r = list_schedule([3.0, 2.0, 2.0], m=2)
        assert r.machine_tasks() == [[0], [1, 2]]

    def test_m_property(self):
        assert list_schedule([1.0], m=3).m == 3


class TestGrahamProperties:
    @given(estimates_strategy(1, 15), st.integers(min_value=1, max_value=5))
    def test_graham_bound(self, times, m):
        """LS makespan <= sum/m + (m-1)/m * max — the classical guarantee
        against the LP lower bound."""
        r = list_schedule(times, m)
        bound = sum(times) / m + (m - 1) / m * max(times)
        assert r.makespan <= bound * (1 + 1e-9)

    @given(estimates_strategy(1, 15), st.integers(min_value=1, max_value=5))
    def test_loads_sum_to_total(self, times, m):
        r = list_schedule(times, m)
        assert sum(r.loads) == pytest.approx(sum(times))

    @given(estimates_strategy(2, 15), st.integers(min_value=2, max_value=5))
    def test_balance_property(self, times, m):
        """Final loads of any two machines differ by at most the largest task.

        This is the Phase-1 group-balance fact used in Theorem 4's proof.
        """
        r = list_schedule(times, m)
        assert balance_gap(r.loads) <= max(times) * (1 + 1e-9)

    @given(estimates_strategy(1, 15), st.integers(min_value=1, max_value=5))
    def test_assignment_in_range(self, times, m):
        r = list_schedule(times, m)
        assert all(0 <= i < m for i in r.assignment)

    @given(estimates_strategy(1, 12), st.integers(min_value=1, max_value=4))
    def test_no_machine_idle_while_another_overloaded(self, times, m):
        """Greedy invariant: when task t was placed on machine i, i had the
        minimum load; so the final min load >= final max load - max task."""
        r = list_schedule(times, m)
        if len(times) >= m:
            assert min(r.loads) >= r.makespan - max(times) - 1e-9


class TestHeapMatchesScan:
    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_choices_and_loads_equal_a_least_load_scan(self, times, start, rng):
        """Tie-dense integral times and start loads: every choice is the
        least load, ties to the lowest machine, as a linear scan picks,
        and the loads are the same IEEE sums (compared by ``float.hex``)."""
        times = [float(t) for t in times]
        order = list(range(len(times)))
        rng.shuffle(order)
        loads = [float(x) for x in start]
        choices = []
        for j in order:
            i = min(range(len(loads)), key=lambda i: (loads[i], i))
            choices.append(i)
            loads[i] += times[j]
        r = greedy_assign_heap(times, order, len(start), initial_loads=start)
        assert list(r.assignment) == choices
        assert [x.hex() for x in r.loads] == [x.hex() for x in loads]


class TestBalanceGap:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            balance_gap([])

    def test_simple(self):
        assert balance_gap([3.0, 1.0, 2.0]) == 2.0


class TestGreedyAssignHeap:
    def test_partial_order(self):
        r = greedy_assign_heap([10.0, 1.0, 2.0], order=[1, 2], m=2)
        assert r.order == (1, 2)
        assert sum(r.loads) == pytest.approx(3.0)

    def test_result_type(self):
        assert isinstance(greedy_assign_heap([1.0], [0], 1), AssignmentResult)
