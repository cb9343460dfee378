"""Tests for the unified strategy-plugin registry (repro.registry).

Covers the tentpole guarantees: spec round-tripping for every registered
family, back-compat with every pre-registry spec form, registry-generated
error messages, capability queries and enforcement, canonical-spec cache
fingerprints, the documented Figure-3 sweep overlaps, and registry
completeness.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.cache import cell_fingerprint
from repro.analysis.parallel import CellSpec
from repro.core.strategies import (
    BudgetedReplication,
    LPTGroup,
    LPTNoChoice,
    LPTNoRestriction,
    LSGroup,
    NonClairvoyantLS,
    OverlappingWindows,
    SelectiveReplication,
)
from repro.registry import (
    REQUIRED,
    Capabilities,
    CapabilityError,
    Choice,
    Flag,
    Float,
    Int,
    StrategyRef,
    canonical_spec,
    capabilities_of,
    describe_strategy,
    entry_for,
    make_strategy,
    select_strategies,
    strategy_entries,
    try_describe_strategy,
)


@pytest.fixture(scope="module")
def inst():
    return repro.uniform_instance(n=18, m=6, alpha=1.5, seed=3)


@pytest.fixture(scope="module")
def real(inst):
    return repro.sample_realization(inst, "log_uniform", seed=5)


def _sample_value(param):
    """A schema-valid sample value for one declared parameter."""
    if isinstance(param, StrategyRef):
        return make_strategy("ls_group[k=2]")
    if isinstance(param, Choice):
        return next((v for v in param.values if v != param.default), param.values[0])
    if isinstance(param, Flag):
        return True
    if isinstance(param, Int):
        value = param.ge if param.ge is not None else 2
        if param.le is not None:
            value = min(value, param.le)
        return value
    if isinstance(param, Float):
        if param.gt is not None:
            return param.gt + 0.5
        low = param.ge if param.ge is not None else 0.0
        high = param.le if param.le is not None else low + 1.0
        return (low + high) / 2
    raise AssertionError(f"unhandled param type {type(param).__name__}")


class TestRoundTrip:
    """parse(describe(s)) reconstructs an equivalent strategy, every family."""

    @pytest.mark.parametrize(
        "entry", [pytest.param(e, id=e.name) for e in strategy_entries()]
    )
    def test_explicit_values_round_trip(self, entry):
        values = {p.key: _sample_value(p) for p in entry.params}
        strategy = entry.construct(values)
        spec = describe_strategy(strategy)
        rebuilt = make_strategy(spec)
        assert type(rebuilt) is type(strategy)
        assert describe_strategy(rebuilt) == spec
        assert rebuilt.name == strategy.name

    @pytest.mark.parametrize(
        "entry", [pytest.param(e, id=e.name) for e in strategy_entries()]
    )
    def test_default_values_round_trip(self, entry):
        values = {p.key: _sample_value(p) for p in entry.params if p.required}
        strategy = entry.construct(values)
        spec = describe_strategy(strategy)
        rebuilt = make_strategy(spec)
        assert type(rebuilt) is type(strategy)
        assert describe_strategy(rebuilt) == spec

    @pytest.mark.parametrize(
        "entry", [pytest.param(e, id=e.name) for e in strategy_entries()]
    )
    def test_canonical_spec_matches_display_name(self, entry):
        """The canonical rendered spec IS the strategy's display name."""
        values = {p.key: _sample_value(p) for p in entry.params if p.required}
        strategy = entry.construct(values)
        assert describe_strategy(strategy) == strategy.name


class TestBackCompat:
    """Every pre-registry documented spec form still parses identically."""

    @pytest.mark.parametrize(
        ("spec", "cls", "attrs"),
        [
            ("lpt_no_choice", LPTNoChoice, {}),
            ("lpt_no_restriction", LPTNoRestriction, {}),
            ("nonclairvoyant_ls", NonClairvoyantLS, {}),
            ("ls_group[k=3]", LSGroup, {"k": 3}),
            ("lpt_group[k=2]", LPTGroup, {"k": 2}),
            ("selective[0.4]", SelectiveReplication, {"fraction": 0.4, "by_work": False}),
            ("selective[0.4,work]", SelectiveReplication, {"by_work": True}),
            ("selective[0.4,count]", SelectiveReplication, {"by_work": False}),
            ("budgeted[B=7]", BudgetedReplication, {"budget": 7}),
            ("overlap_windows[k=3,w=2]", OverlappingWindows, {"k": 3, "overlap": 2}),
        ],
    )
    def test_legacy_spec_forms(self, spec, cls, attrs):
        strategy = make_strategy(spec)
        assert type(strategy) is cls
        for attr, expected in attrs.items():
            assert getattr(strategy, attr) == expected

    @pytest.mark.parametrize(
        "spec",
        [
            "sabo[delta=0.5]",
            "sabo[delta=0.5,pi1=multifit]",
            "abo[delta=1,barrier]",
            "capped[C=4]",
            "capped[C=4,time]",
            "risk_aware[0.3]",
            "robust_pinned",
            "robust_pinned[s=8,iters=10,seed=2]",
            "refined[ls_group[k=3]]",
            "refined[abo[delta=1],eta=0.25]",
        ],
    )
    def test_extension_families_parse(self, spec):
        strategy = make_strategy(spec)
        assert describe_strategy(strategy) == canonical_spec(spec)

    def test_noncanonical_spellings_canonicalize(self):
        assert canonical_spec("selective[0.50]") == canonical_spec("selective[0.5,count]")
        assert canonical_spec("ls_group[k=03]") == "ls_group[k=3]"
        assert canonical_spec("sabo[delta=0.50]") == "sabo[delta=0.5]"


class TestErrorMessages:
    """make_strategy errors are generated from the registry, not hard-coded."""

    def test_unknown_spec_lists_registered_forms(self):
        with pytest.raises(ValueError, match="unknown strategy spec") as exc:
            make_strategy("nope")
        message = str(exc.value)
        # One accepted-form template per registered family, automatically.
        for entry in strategy_entries():
            assert entry.name in message

    def test_bad_parameter_names_entry_template(self):
        with pytest.raises(ValueError, match="unknown strategy spec"):
            make_strategy("ls_group[q=3]")

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="missing required parameter"):
            make_strategy("sabo")


class TestCapabilities:
    def test_memory_aware_query(self):
        names = {e.name for e in select_strategies(memory_aware=True)}
        assert names == {"sabo", "abo", "capped"}

    def test_hetero_query(self):
        names = {e.name for e in select_strategies(supports_hetero=True)}
        assert names == {"risk_aware"}

    def test_family_query(self):
        core = {e.name for e in select_strategies(family="core")}
        assert {"lpt_no_choice", "ls_group", "selective"} <= core

    def test_instance_capabilities(self):
        caps = capabilities_of(make_strategy("selective[0.4]"))
        assert caps.supports_faults
        assert not caps.supports_releases

    def test_refined_delegates_to_base(self):
        caps = capabilities_of(make_strategy("refined[abo[delta=1]]"))
        assert caps.memory_aware
        assert not caps.supports_releases
        caps = capabilities_of(make_strategy("refined[ls_group[k=2]]"))
        assert caps.supports_releases
        assert not caps.memory_aware

    def test_unregistered_class_is_unrepresentable(self):
        class Anon(LSGroup):
            pass

        assert entry_for(Anon(2)) is None
        assert capabilities_of(Anon(2)) is None
        assert try_describe_strategy(Anon(2)) is None


class TestCapabilityEnforcement:
    def test_release_times_rejected_for_incapable_strategy(self, inst, real):
        strategy = make_strategy("selective[0.4]")
        releases = [0.1] * inst.n
        with pytest.raises(CapabilityError):
            repro.run_strategy(strategy, inst, real, release_times=releases)

    def test_zero_release_times_allowed(self, inst, real):
        strategy = make_strategy("selective[0.4]")
        outcome = repro.run_strategy(
            strategy, inst, real, release_times=[0.0] * inst.n
        )
        assert outcome.makespan > 0

    def test_fault_plan_rejected_without_supports_faults(self, inst, real):
        strategy = make_strategy("lpt_no_restriction")
        placement = strategy.place(inst)
        plan = repro.FaultPlan.of(repro.CrashStop(machine=0, at=1.0))
        with pytest.raises(CapabilityError):
            repro.simulate(
                placement,
                real,
                strategy.make_policy(inst, placement),
                faults=plan,
                capabilities=Capabilities(supports_faults=False),
            )

    def test_capability_error_is_a_typeerror(self):
        # Harness layers catch SimulationError (a RuntimeError) to record
        # non-survival; CapabilityError must never be swallowed by them.
        assert issubclass(CapabilityError, TypeError)
        assert not issubclass(CapabilityError, RuntimeError)


class TestCacheCanonicalization:
    def _cell(self, inst, strategy):
        return CellSpec(
            index=0,
            group=0,
            strategy=strategy,
            instance=inst,
            model="log_uniform",
            model_name="log_uniform",
            seed=0,
            exact_limit=22,
        )

    def test_noncanonical_spellings_share_fingerprint(self, inst):
        a = self._cell(inst, make_strategy("selective[0.50]"))
        b = self._cell(inst, make_strategy("selective[0.5,count]"))
        assert cell_fingerprint(a) == cell_fingerprint(b)

    def test_distinct_parameters_do_not_collide(self, inst):
        a = self._cell(inst, make_strategy("selective[0.5]"))
        b = self._cell(inst, make_strategy("selective[0.4]"))
        assert cell_fingerprint(a) != cell_fingerprint(b)


class TestSweepOverlap:
    """The documented intentional endpoint overlaps of the ablation sweep."""

    @pytest.mark.parametrize(
        ("ablation", "reference"),
        [("lpt_group[k=1]", "lpt_no_restriction"), ("lpt_group[k=6]", "lpt_no_choice")],
    )
    def test_lpt_group_endpoints_coincide(self, inst, real, ablation, reference):
        sa, sb = make_strategy(ablation), make_strategy(reference)
        assert sa.place(inst).machine_sets == sb.place(inst).machine_sets
        assert (
            repro.run_strategy(sa, inst, real).makespan
            == repro.run_strategy(sb, inst, real).makespan
        )

    def test_ls_group_endpoints_are_not_duplicates(self):
        # Input order vs LPT order: the default sweep has no overlap.
        names = repro.strategy_names(6)
        assert len(names) == len(set(names))


class TestNewFamilies:
    def test_refined_matches_base_before_observations(self, inst, real):
        base = make_strategy("ls_group[k=2]")
        refined = make_strategy("refined[ls_group[k=2]]")
        assert refined.place(inst).machine_sets == base.place(inst).machine_sets
        assert (
            repro.run_strategy(refined, inst, real).makespan
            == repro.run_strategy(base, inst, real).makespan
        )

    def test_refined_observe_changes_estimates(self, inst, real):
        refined = make_strategy("refined[ls_group[k=2],eta=1]")
        refined.observe(real)
        effective = refined._effective(inst)
        assert effective.estimates != inst.estimates
        outcome = repro.run_strategy(refined, inst, real)
        assert outcome.placement.instance is inst  # rebuilt on the original


class TestCompleteness:
    def test_every_shipped_strategy_is_registered(self):
        from repro.tools.check_registry import unregistered_strategies

        assert unregistered_strategies() == []

    def test_required_sentinel_repr(self):
        assert repr(REQUIRED) == "<required>"

    def test_entry_order_ignores_import_order(self):
        """A family module imported before the registry keeps its place:
        entries list in name order, whatever a process imported first."""
        from tests.conftest import run_python

        out = run_python(
            "import repro.memory.abo\n"
            "from repro.registry import strategy_entries\n"
            "print(' '.join(e.name for e in strategy_entries()))\n"
        )
        names = out.split()
        assert names == sorted(names)
        assert names == [e.name for e in strategy_entries()]

    def test_catalog_is_fresh(self):
        from pathlib import Path

        from repro.tools.strategy_docs import render_catalog

        catalog = Path(__file__).resolve().parent.parent / "docs" / "strategies.md"
        assert catalog.read_text(encoding="utf-8") == render_catalog(), (
            "docs/strategies.md is stale — regenerate with "
            "`python -m repro.tools.strategy_docs`"
        )
