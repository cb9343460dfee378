"""Unit and property tests for repro.schedulers.lower_bounds."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exact.optimal import optimal_makespan
from repro.schedulers.lower_bounds import (
    average_load_bound,
    combined_lower_bound,
    kth_group_bound,
    lp_bound,
    max_task_bound,
    pair_bound,
)
from tests.conftest import estimates_strategy

_TIMES = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _bound_inputs(draw: st.DrawFn) -> tuple[list[float], int]:
    """(times, m): any n, or n next to a multiple of m (n <= m included);
    times free, a few repeated values, or the identical family's units."""
    m = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        q = draw(st.integers(min_value=0, max_value=4))
        n = max(1, q * m + draw(st.sampled_from((-1, 0, 1))))
    else:
        n = draw(st.integers(min_value=1, max_value=3 * m + 2))
    shape = draw(st.sampled_from(("free", "ties", "identical")))
    if shape == "ties":
        values = st.sampled_from(draw(st.lists(_TIMES, min_size=1, max_size=3)))
    elif shape == "identical":
        values = st.just(1.0)
    else:
        values = _TIMES
    return draw(st.lists(values, min_size=n, max_size=n)), m


def _max_of_parts(times: list[float], m: int) -> float:
    return max(
        average_load_bound(times, m),
        max_task_bound(times),
        pair_bound(times, m),
        kth_group_bound(times, m),
    )


class TestIndividualBounds:
    def test_average_load(self):
        assert average_load_bound([4.0, 4.0], 2) == 4.0

    def test_max_task(self):
        assert max_task_bound([1.0, 9.0, 3.0]) == 9.0

    def test_pair_bound_applies(self):
        # m=2, sorted desc: 5,4,3 -> p_(2)+p_(3) = 4+3.
        assert pair_bound([5.0, 4.0, 3.0], 2) == 7.0

    def test_pair_bound_zero_when_n_le_m(self):
        assert pair_bound([5.0, 4.0], 2) == 0.0

    def test_kth_group_bound(self):
        # m=2, 5 equal tasks: q=1 -> 2*t[2], q=2 -> 3*t[4].
        assert kth_group_bound([2.0] * 5, 2) == 6.0

    def test_kth_group_bound_zero_when_small(self):
        assert kth_group_bound([1.0, 2.0], 2) == 0.0

    def test_lp_bound(self):
        assert lp_bound([10.0, 1.0], 2) == 10.0
        assert lp_bound([3.0, 3.0, 3.0, 3.0], 2) == 6.0


class TestSoundness:
    """Every bound must be <= the exact optimum."""

    @given(estimates_strategy(1, 11), st.integers(min_value=1, max_value=4))
    def test_all_bounds_below_optimum(self, times, m):
        opt = optimal_makespan(times, m, exact_limit=12)
        if not opt.optimal:
            return
        tol = 1 + 1e-9
        assert average_load_bound(times, m) <= opt.value * tol
        assert max_task_bound(times) <= opt.value * tol
        assert pair_bound(times, m) <= opt.value * tol
        assert kth_group_bound(times, m) <= opt.value * tol
        assert combined_lower_bound(times, m) <= opt.value * tol

    @given(_bound_inputs())
    def test_combined_is_max_of_parts(self, case):
        """The one-sort bound equals the four reference bounds' max, bit
        for bit, including m = 1, n <= m, n at q*m boundaries and ties."""
        times, m = case
        assert _max_of_parts(times, m).hex() == combined_lower_bound(times, m).hex()

    def test_combined_reads_its_input_once(self):
        times = [3.0, 1.0, 2.5, 2.0]
        assert combined_lower_bound(iter(times), 2) == combined_lower_bound(times, 2)

    def test_combined_tight_on_identical_tasks(self):
        # q*m+1 structure: 7 unit tasks on 3 machines -> ceil(7/3)=3 per
        # machine at best... combined bound must reach 3 via kth_group(q=2).
        assert combined_lower_bound([1.0] * 7, 3) == 3.0
        assert optimal_makespan([1.0] * 7, 3).value == 3.0
