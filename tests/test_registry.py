"""Unit tests for spec parsing and sweeps in repro.registry."""

from __future__ import annotations

import pytest

from repro.core.strategies import LPTGroup, LPTNoChoice, LPTNoRestriction, LSGroup
from repro.registry import full_sweep, make_strategy, strategy_names


class TestMakeStrategy:
    def test_bare_names(self):
        assert isinstance(make_strategy("lpt_no_choice"), LPTNoChoice)
        assert isinstance(make_strategy("lpt_no_restriction"), LPTNoRestriction)

    def test_group_specs(self):
        s = make_strategy("ls_group[k=3]")
        assert isinstance(s, LSGroup)
        assert s.k == 3
        a = make_strategy("lpt_group[k=2]")
        assert isinstance(a, LPTGroup)
        assert a.k == 2

    def test_round_trip_through_name(self):
        for spec in ("lpt_no_choice", "lpt_no_restriction", "ls_group[k=5]"):
            assert make_strategy(spec).name == spec

    @pytest.mark.parametrize(
        "bad", ["nope", "ls_group", "ls_group[k=]", "ls_group[k=x]", "LS_GROUP[k=1]"]
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError, match="unknown strategy spec"):
            make_strategy(bad)


class TestStrategyNames:
    def test_divisor_sweep(self):
        names = strategy_names(6)
        assert "ls_group[k=1]" in names
        assert "ls_group[k=2]" in names
        assert "ls_group[k=3]" in names
        assert "ls_group[k=6]" in names
        assert "ls_group[k=4]" not in names

    def test_ablation_flag(self):
        names = strategy_names(4, include_ablation=True)
        assert "lpt_group[k=2]" in names
        assert "lpt_group[k=2]" not in strategy_names(4)


class TestFullSweep:
    def test_all_constructible(self):
        sweep = full_sweep(12, include_ablation=True)
        assert len(sweep) == 2 + 2 * 6  # 6 divisors of 12
        assert {s.name for s in sweep} == set(strategy_names(12, include_ablation=True))
