"""Unit and property tests for repro.exact.bnb."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.bnb import BnBResult, branch_and_bound
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.memory_workloads import independent_sizes
from tests.conftest import estimates_strategy


class TestClosedForms:
    def test_single_machine(self):
        r = branch_and_bound([1.0, 2.0, 3.0], 1)
        assert r.makespan == 6.0
        assert r.assignment == (0, 0, 0)

    def test_one_task_per_machine(self):
        r = branch_and_bound([5.0, 1.0], 4)
        assert r.makespan == 5.0

    def test_optimal_flag(self):
        assert branch_and_bound([1.0], 1).optimal


class TestKnownOptima:
    def test_lpt_suboptimal_instance(self):
        # LPT gives 7 here; OPT is 6 (3+3 | 2+2+2).
        r = branch_and_bound([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert r.makespan == 6.0

    def test_partition_instance(self):
        r = branch_and_bound([7.0, 5.0, 4.0, 3.0, 1.0], 2)
        assert r.makespan == 10.0

    def test_three_machines(self):
        r = branch_and_bound([5.0, 4.0, 3.0, 3.0, 3.0], 3)
        assert r.makespan == 7.0

    def test_identical_tasks(self):
        r = branch_and_bound([1.0] * 7, 3)
        assert r.makespan == 3.0

    def test_assignment_achieves_makespan(self):
        times = [4.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        r = branch_and_bound(times, 3)
        loads = [0.0] * 3
        for j, i in enumerate(r.assignment):
            loads[i] += times[j]
        assert max(loads) == pytest.approx(r.makespan)


class TestAgainstBounds:
    @given(estimates_strategy(1, 11), st.integers(min_value=1, max_value=4))
    def test_sandwiched_by_bounds(self, times, m):
        r = branch_and_bound(times, m)
        lb = combined_lower_bound(times, m)
        ub = lpt_schedule(times, m).makespan
        assert lb <= r.makespan * (1 + 1e-9)
        assert r.makespan <= ub * (1 + 1e-9)

    @given(estimates_strategy(1, 11), st.integers(min_value=1, max_value=4))
    def test_assignment_feasible(self, times, m):
        r = branch_and_bound(times, m)
        assert len(r.assignment) == len(times)
        assert all(0 <= i < m for i in r.assignment)
        loads = [0.0] * m
        for j, i in enumerate(r.assignment):
            loads[i] += times[j]
        assert max(loads) == pytest.approx(r.makespan)

    @given(estimates_strategy(2, 9))
    def test_monotone_in_machines(self, times):
        """Adding machines can only decrease the optimal makespan."""
        prev = None
        for m in (1, 2, 3):
            cur = branch_and_bound(times, m).makespan
            if prev is not None:
                assert cur <= prev * (1 + 1e-9)
            prev = cur


class TestNodeLimit:
    def test_limit_raises(self):
        times = [float(17 + (j * 7919) % 101) / 10 for j in range(18)]
        with pytest.raises(RuntimeError, match="node_limit"):
            branch_and_bound(times, 4, node_limit=10)

    def test_nodes_reported(self):
        r = branch_and_bound([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert r.nodes >= 1


def _reference_branch_and_bound(ts: list[float], m: int) -> BnBResult:
    """``branch_and_bound`` before the fit bound, less its node limit.

    Its balance bound always equals total/m, so past the root only the
    incumbent cuts.  Kept as the reference the fit bound must match float
    for float: the bound may only skip subtrees that hold no improving
    leaf.
    """
    n = len(ts)
    if m >= n:
        return BnBResult(max(ts), tuple(range(n)), nodes=1)
    if m == 1:
        return BnBResult(sum(ts), tuple(0 for _ in ts), nodes=1)
    order = sorted(range(n), key=lambda j: (-ts[j], j))
    sorted_times = [ts[j] for j in order]
    suffix = [0.0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + sorted_times[pos]
    lb_root = combined_lower_bound(ts, m)
    lpt_res = lpt_schedule(ts, m)
    best = lpt_res.makespan
    best_by_task = [0] * n
    for pos, j in enumerate(lpt_res.order):
        best_by_task[j] = lpt_res.assignment[pos]
    if best <= lb_root * (1.0 + 1e-12):
        return BnBResult(best, tuple(best_by_task), nodes=1)
    loads = [0.0] * m
    current = [0] * n
    nodes = 0
    tol = 1e-12 * max(1.0, best)

    def rec(pos: int, max_load: float) -> None:
        nonlocal nodes, best, tol
        nodes += 1
        if pos == n:
            if max_load < best - tol:
                best = max_load
                for p in range(n):
                    best_by_task[order[p]] = current[p]
                tol = 1e-12 * max(1.0, best)
            return
        balance_lb = (suffix[pos] + sum(loads)) / m
        if max(max_load, balance_lb, lb_root) >= best - tol:
            return
        t = sorted_times[pos]
        seen_loads: set[float] = set()
        opened_empty = False
        for i in range(m):
            li = loads[i]
            if li in seen_loads:
                continue
            if li == 0.0:
                if opened_empty:
                    continue
                opened_empty = True
            seen_loads.add(li)
            new_load = li + t
            if new_load >= best - tol:
                continue
            loads[i] = new_load
            current[pos] = i
            rec(pos + 1, max(max_load, new_load))
            loads[i] = li

    rec(0, 0.0)
    return BnBResult(best, tuple(best_by_task), nodes=nodes)


# Random floats, small integers and decimal steps.  The last two make ties;
# decimal steps also make sums that round differently by summation order,
# where a bound without slack cuts optimal leaves.
_DURATIONS = (
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=9).map(float),
    st.one_of(
        st.integers(min_value=1, max_value=30).map(lambda k: k / 10),
        st.integers(min_value=1, max_value=12).map(lambda k: k / 3),
    ),
)
_tie_heavy_times = st.sampled_from(_DURATIONS).flatmap(
    lambda d: st.lists(d, min_size=1, max_size=12)
)

# LPT gives 5.133333333333333 here; a fit bound without its slack returns
# that instead of the optimum.
_TIE_INSTANCE = [
    1.3333333333333333, 2.0999999999999996, 1.3333333333333333, 0.1, 2.8,
    0.3333333333333333, 2.0999999999999996, 0.7, 0.6000000000000001, 2.8,
    0.6666666666666666, 0.3333333333333333,
]


class TestFitBound:
    @settings(max_examples=200, deadline=None)
    @given(_tie_heavy_times, st.integers(min_value=2, max_value=5))
    def test_equals_search_without_it(self, times, m):
        got = branch_and_bound(times, m)
        ref = _reference_branch_and_bound(times, m)
        assert got.makespan == ref.makespan
        assert got.assignment == ref.assignment
        assert got.nodes <= ref.nodes

    def test_decimal_tie_keeps_the_optimum(self):
        assert branch_and_bound(_TIE_INSTANCE, 3).makespan == 5.1000000000000005
        assert _reference_branch_and_bound(_TIE_INSTANCE, 3).makespan == 5.1000000000000005

    def test_prunes_the_integration_instance(self):
        """The n = 20, m = 4 optimum of the SABO/ABO pipeline test: 2.44M
        nodes when only the incumbent cuts."""
        inst = independent_sizes(20, 4, alpha=1.5, seed=1)
        times = sample_realization(inst, "lognormal", 9).actuals
        r = branch_and_bound(times, 4)
        assert r.makespan == 27.824835785984764
        assert r.nodes <= 400_000
