"""Unit tests for repro.memory.model (π₁/π₂ reference schedules)."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.memory import model
from repro.memory.abo import ABO
from repro.memory.model import (
    PI1_METHODS,
    makespan_reference,
    memory_lower_bound,
    memory_reference,
)
from repro.memory.sabo import SABO
from repro.schedulers.lpt import lpt_schedule
from tests.conftest import sized_instances


class TestMakespanReference:
    def test_lpt_default(self, sized_instance):
        ref = makespan_reference(sized_instance)
        assert ref.method == "lpt"
        assert ref.objective == pytest.approx(
            lpt_schedule(sized_instance.estimates, sized_instance.m).makespan
        )
        assert ref.rho == pytest.approx(4 / 3 - 1 / (3 * sized_instance.m))

    @pytest.mark.parametrize("method", sorted(PI1_METHODS))
    def test_all_methods_produce_valid_assignments(self, sized_instance, method):
        ref = makespan_reference(sized_instance, method)
        assert len(ref.assignment) == sized_instance.n
        assert all(0 <= i < sized_instance.m for i in ref.assignment)
        loads = ref.loads(sized_instance.estimates, sized_instance.m)
        assert max(loads) == pytest.approx(ref.objective)

    def test_better_methods_have_better_rho(self, sized_instance):
        rhos = {m: makespan_reference(sized_instance, m).rho for m in PI1_METHODS}
        assert rhos["multifit"] < rhos["lpt"]

    def test_unknown_method_rejected(self, sized_instance):
        with pytest.raises(ValueError, match="unknown pi1 method"):
            makespan_reference(sized_instance, "magic")


class TestMemoryReference:
    def test_objective_is_max_memory(self, sized_instance):
        ref = memory_reference(sized_instance)
        mem = [0.0] * sized_instance.m
        for j, i in enumerate(ref.assignment):
            mem[i] += sized_instance.tasks[j].size
        assert max(mem) == pytest.approx(ref.objective)

    def test_balances_sizes_not_times(self):
        from repro.core.model import make_instance

        # One huge-size quick task + small-size slow tasks.
        inst = make_instance(
            [1.0, 10.0, 10.0], m=2, sizes=[8.0, 1.0, 1.0]
        )
        ref = memory_reference(inst)
        # The size-8 task must sit alone memory-wise as far as possible.
        mem = [0.0, 0.0]
        for j, i in enumerate(ref.assignment):
            mem[i] += inst.tasks[j].size
        assert max(mem) == pytest.approx(8.0)

    def test_zero_sizes_spread(self):
        from repro.core.model import make_instance

        inst = make_instance([1.0] * 4, m=2, sizes=[0.0] * 4)
        ref = memory_reference(inst)
        assert ref.objective == 0.0
        assert len(set(ref.assignment)) == 2  # round-robin spread

    @given(sized_instances(min_n=2, max_n=10, max_m=4))
    def test_within_rho_of_optimal_memory(self, inst):
        """π₂ is LPT on sizes, so it is within ρ₂ of the *optimal* memory
        (the guarantee is relative to OPT, not to the LP bound)."""
        from repro.exact.optimal import optimal_makespan

        ref = memory_reference(inst)
        positive = [s for s in inst.sizes if s > 0]
        if not positive:
            assert ref.objective == 0.0
            return
        opt = optimal_makespan(positive, inst.m, exact_limit=12)
        if opt.optimal:
            assert ref.objective <= ref.rho * opt.value * (1 + 1e-9)


class TestMemoryLowerBound:
    def test_lp_shape(self):
        assert memory_lower_bound([4.0, 4.0], 2) == 4.0
        assert memory_lower_bound([10.0, 1.0], 2) == 10.0

    def test_all_zero(self):
        assert memory_lower_bound([0.0, 0.0], 2) == 0.0

    def test_zeros_ignored(self):
        assert memory_lower_bound([0.0, 6.0], 3) == 6.0


class TestGuaranteeRhos:
    """SABO's and ABO's guarantees read ρ₁ and ρ₂ from the method tables:
    the same floats the reference schedules carry, without building one."""

    @pytest.mark.parametrize("method", sorted(PI1_METHODS))
    @pytest.mark.parametrize("cls", [SABO, ABO])
    def test_same_floats_without_a_reference_schedule(
        self, sized_instance, cls, method, monkeypatch
    ):
        strategy = cls(1.5, pi1_method=method)
        rho1 = makespan_reference(sized_instance, method).rho
        rho2 = memory_reference(sized_instance).rho
        expected = (
            strategy.makespan_guarantee(sized_instance, rho1=rho1),
            strategy.memory_guarantee(sized_instance, rho2=rho2),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a guarantee built a reference schedule")

        monkeypatch.setattr(model, "makespan_reference", refuse)
        monkeypatch.setattr(model, "memory_reference", refuse)
        got = (
            strategy.makespan_guarantee(sized_instance),
            strategy.memory_guarantee(sized_instance),
        )
        assert got == expected

    @pytest.mark.parametrize("cls", [SABO, ABO])
    def test_unknown_method_rejected(self, sized_instance, cls):
        with pytest.raises(ValueError, match="unknown pi1 method"):
            cls(1.0, pi1_method="magic").makespan_guarantee(sized_instance)
