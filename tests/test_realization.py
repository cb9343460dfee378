"""Unit and property tests for repro.uncertainty.realization."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.model import make_instance
from repro.uncertainty import stochastic
from repro.uncertainty.realization import (
    Realization,
    factors_realization,
    truthful_realization,
)
from repro.uncertainty.stochastic import STOCHASTIC_MODELS, sample_realization
from tests.conftest import factor_vectors, instances


class TestConstruction:
    def test_truthful(self, small_instance):
        real = truthful_realization(small_instance)
        assert real.actuals == small_instance.estimates
        assert real.label == "truthful"

    def test_factors(self, small_instance):
        real = factors_realization(small_instance, [1.5, 1.0, 1.0, 1.0, 1.0, 1 / 1.5])
        assert math.isclose(real.actual(0), 7.5)
        assert math.isclose(real.actual(5), 1.0 / 1.5)

    def test_rejects_wrong_length(self, small_instance):
        with pytest.raises(ValueError, match="cover all"):
            Realization(small_instance, (1.0, 2.0))

    def test_rejects_band_violation_high(self, small_instance):
        actuals = list(small_instance.estimates)
        actuals[0] = actuals[0] * 1.6  # alpha is 1.5
        with pytest.raises(ValueError, match="alpha-band"):
            Realization(small_instance, tuple(actuals))

    def test_rejects_band_violation_low(self, small_instance):
        actuals = list(small_instance.estimates)
        actuals[3] = actuals[3] / 1.6
        with pytest.raises(ValueError, match="alpha-band"):
            Realization(small_instance, tuple(actuals))

    def test_rejects_non_positive_actual(self):
        inst = make_instance([1.0], 1, alpha=2.0)
        with pytest.raises(ValueError):
            Realization(inst, (0.0,))

    def test_factors_rejects_out_of_band(self, small_instance):
        with pytest.raises(ValueError):
            factors_realization(small_instance, [2.0] * 6)  # alpha = 1.5


class TestAccessors:
    def test_getitem_and_len(self, small_instance):
        real = truthful_realization(small_instance)
        assert real[0] == 5.0
        assert len(real) == 6

    def test_total_and_max(self, small_instance):
        real = truthful_realization(small_instance)
        assert real.total == 18.0
        assert real.max == 5.0

    def test_average_load(self, small_instance):
        real = truthful_realization(small_instance)
        assert real.average_load() == 9.0

    def test_factor_round_trip(self, small_instance):
        real = factors_realization(small_instance, [1.2] * 6)
        for j in range(6):
            assert math.isclose(real.factor(j), 1.2)
        assert all(math.isclose(f, 1.2) for f in real.factors())


class TestMapFactors:
    def test_identity_map(self, small_instance):
        real = truthful_realization(small_instance)
        real2 = real.map_factors(lambda j, f: f)
        assert real2.actuals == real.actuals

    def test_scaling_map(self, small_instance):
        real = truthful_realization(small_instance)
        real2 = real.map_factors(lambda j, f: 1.4, label="scaled")
        assert real2.label == "scaled"
        assert math.isclose(real2.actual(0), 7.0)

    def test_out_of_band_map_raises(self, small_instance):
        real = truthful_realization(small_instance)
        with pytest.raises(ValueError):
            real.map_factors(lambda j, f: 10.0)


class TestProperties:
    @given(instances())
    def test_truthful_always_valid(self, inst):
        real = truthful_realization(inst)
        assert real.total == pytest.approx(sum(inst.estimates))

    @given(instances(min_n=2, max_n=8).flatmap(
        lambda inst: factor_vectors(inst).map(lambda fs: (inst, fs))
    ))
    def test_admissible_factors_accepted(self, inst_and_factors):
        inst, factors = inst_and_factors
        real = factors_realization(inst, factors)
        for j in range(inst.n):
            lo, hi = inst.tasks[j].bounds(inst.alpha)
            assert lo * (1 - 1e-9) <= real.actual(j) <= hi * (1 + 1e-9)


@st.composite
def _tied_instances(draw: st.DrawFn):
    """Instances with n = 1 included, alpha = 1 included, and estimates
    that are often tied integers."""
    n = draw(st.integers(min_value=1, max_value=30))
    value = st.one_of(
        st.sampled_from([1.0, 2.0, 3.0, 7.0]),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    estimates = draw(st.lists(value, min_size=n, max_size=n))
    alpha = draw(st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.0]))
    return make_instance(estimates, draw(st.integers(min_value=1, max_value=4)), alpha)


_MODEL_KWARGS = {
    "uniform": st.just({}),
    "log_uniform": st.just({}),
    "lognormal": st.fixed_dictionaries(
        {}, optional={"sigma_frac": st.floats(min_value=0.05, max_value=5.0)}
    ),
    "bimodal_extreme": st.fixed_dictionaries(
        {}, optional={"p_up": st.floats(min_value=0.0, max_value=1.0)}
    ),
    "beta": st.fixed_dictionaries(
        {},
        optional={
            "a": st.floats(min_value=0.2, max_value=8.0),
            "b": st.floats(min_value=0.2, max_value=8.0),
        },
    ),
}


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestFactorsPath:
    """The array product and band check equal the per-task Python form."""

    def test_every_model_has_parameters_drawn(self):
        assert set(_MODEL_KWARGS) == set(STOCHASTIC_MODELS)

    @given(
        _tied_instances(),
        st.sampled_from(sorted(STOCHASTIC_MODELS)).flatmap(
            lambda model: st.tuples(st.just(model), _MODEL_KWARGS[model])
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(make_instance([2.0], 1, 1.0), ("log_uniform", {}), 0)
    @example(make_instance([3.0, 3.0, 1.0], 2, 1.0), ("lognormal", {"sigma_frac": 2.0}), 1)
    def test_actuals_are_the_per_task_products(self, inst, model_kwargs, seed):
        model, kwargs = model_kwargs
        drawn: list[np.ndarray] = []

        def spy(instance, factors, label=""):
            drawn.append(np.array(factors, dtype=np.float64))
            return factors_realization(instance, factors, label)

        with mock.patch.object(stochastic, "factors_realization", spy):
            real = sample_realization(inst, model, seed, **kwargs)
        (factors,) = drawn
        reference = [t.estimate * float(f) for t, f in zip(inst.tasks, factors)]
        assert _hexes(real.actuals) == _hexes(reference)
        assert all(type(p) is float for p in real.actuals)
        listed = factors_realization(inst, factors.tolist(), real.label)
        assert listed == real and listed.label == real.label
        assert _hexes(listed.actuals) == _hexes(real.actuals)

    @given(_tied_instances(), st.data())
    def test_a_bad_factor_names_the_first_bad_index(self, inst, data):
        positions = data.draw(
            st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=3, unique=True)
        )
        kinds = data.draw(
            st.lists(
                st.sampled_from(["nan", "inf", "zero", "high", "low"]),
                min_size=len(positions),
                max_size=len(positions),
            )
        )
        a = inst.alpha
        bad = {
            "nan": math.nan, "inf": math.inf, "zero": 0.0,
            "high": 2.0 * a, "low": 0.5 / a,
        }
        factors = [1.0] * inst.n
        for j, kind in zip(positions, kinds):
            factors[j] = bad[kind]
        j = min(positions)
        e, p = inst.tasks[j].estimate, inst.tasks[j].estimate * factors[j]
        expected = {
            "nan": f"actuals[{j}] must be finite, got nan",
            "inf": f"actuals[{j}] must be finite, got inf",
            "zero": f"actuals[{j}] must be > 0, got 0.0",
        }.get(
            kinds[positions.index(j)],
            f"actuals[{j}]={p} violates the alpha-band [{e / a}, {e * a}] "
            f"of estimate {e} (alpha={a})",
        )
        for given_factors in (factors, np.array(factors)):
            with pytest.raises(ValueError) as info:
                factors_realization(inst, given_factors)
            assert str(info.value) == expected
