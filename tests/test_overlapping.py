"""Tests for OverlappingWindows (generalized group replication)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ratios import run_strategy
from repro.core.strategies import LSGroup, OverlappingWindows, window_machines
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance
from tests.conftest import instances


class TestWindowMachines:
    def test_disjoint_when_overlap_one(self):
        windows = window_machines(6, 3, 1)
        assert windows == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]

    def test_overlap_two_wraps(self):
        windows = window_machines(6, 3, 2)
        assert windows[0] == frozenset({0, 1, 2, 3})
        assert windows[2] == frozenset({4, 5, 0, 1})

    def test_every_machine_covered_overlap_times(self):
        for k, overlap in ((2, 2), (5, 2), (5, 3)):
            m = 10
            windows = window_machines(m, k, overlap)
            counts = [sum(1 for w in windows if i in w) for i in range(m)]
            # Each machine appears in exactly `overlap` of the k windows.
            assert all(c == overlap for c in counts)

    def test_overlap_above_k_rejected(self):
        with pytest.raises(ValueError, match="overlap must be <= k"):
            window_machines(6, 2, 3)

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            window_machines(6, 4, 1)


class TestStrategy:
    def test_replication_is_overlap_times_stride(self):
        inst = uniform_instance(20, 6, alpha=1.5, seed=0)
        p = OverlappingWindows(3, overlap=2).place(inst)
        assert p.max_replication() == 4  # 2 * (6/3)

    def test_overlap_one_equals_ls_group_placement(self):
        inst = uniform_instance(20, 6, alpha=1.5, seed=1)
        p_overlap = OverlappingWindows(3, overlap=1).place(inst)
        p_group = LSGroup(3).place(inst)
        assert p_overlap.machine_sets == p_group.machine_sets

    @given(instances(min_n=2, max_n=12, max_m=4), st.integers(0, 2))
    def test_feasible(self, inst, seed):
        for k in range(1, inst.m + 1):
            if inst.m % k:
                continue
            overlap = min(2, k)
            real = sample_realization(inst, "bimodal_extreme", seed)
            outcome = run_strategy(OverlappingWindows(k, overlap), inst, real)
            outcome.trace.validate(outcome.placement, real)

    def test_overlap_no_worse_than_disjoint_on_average(self):
        """The empirical question the paper raises: shared machines let load
        flow between windows, so at equal k the overlapping variant should
        not lose on average (it has strictly more runtime freedom)."""
        totals = {"disjoint": 0.0, "overlap": 0.0}
        for seed in range(6):
            inst = uniform_instance(36, 6, alpha=2.0, seed=seed)
            real = sample_realization(inst, "bimodal_extreme", 700 + seed)
            totals["disjoint"] += run_strategy(LSGroup(3), inst, real).makespan
            totals["overlap"] += run_strategy(
                OverlappingWindows(3, overlap=2), inst, real
            ).makespan
        assert totals["overlap"] <= totals["disjoint"] * 1.02

    def test_registry_round_trip(self):
        from repro.registry import make_strategy

        s = OverlappingWindows(3, overlap=2)
        assert make_strategy(s.name).name == s.name
