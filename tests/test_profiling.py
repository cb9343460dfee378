"""Tests for opt-in per-cell profiling (repro.obs.profiling) and its
grid integration: ``--profile`` puts cProfile top-N rows into cell span
attributes and ``profile.<func>`` registry timers, which the grid
manifest ranks into a ``profile`` block.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MemorySink, observed
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    ENV_VAR,
    ProfileSpec,
    active_spec,
    configure,
    fold_rows,
    profile_call,
    reset,
)


@pytest.fixture(autouse=True)
def clean_profiling_state(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset()
    yield
    reset()


class TestProfileSpecParse:
    @pytest.mark.parametrize("text", ["1", "on", "true", "yes", "ON", "True"])
    def test_bare_switch_arms_defaults(self, text):
        assert ProfileSpec.parse(text) == ProfileSpec()

    def test_top_key(self):
        assert ProfileSpec.parse("top=8").top == 8

    def test_trailing_comma_tolerated(self):
        assert ProfileSpec.parse("top=3,").top == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown profiling key"):
            ProfileSpec.parse("depth=2")

    def test_non_positive_top_rejected(self):
        with pytest.raises(ValueError, match="top must be"):
            ProfileSpec.parse("top=0")


class TestActivation:
    def test_nothing_armed_by_default(self):
        assert active_spec() is None

    def test_configure_wins(self):
        configure(ProfileSpec(top=2))
        assert active_spec() == ProfileSpec(top=2)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "top=7")
        assert active_spec() == ProfileSpec(top=7)

    def test_configure_shadows_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "top=7")
        configure(ProfileSpec(top=3))
        assert active_spec().top == 3

    def test_reset_restores_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "on")
        configure(ProfileSpec(top=3))
        reset()
        assert active_spec() == ProfileSpec()


def busy(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


class TestProfileCall:
    def test_result_passes_through(self):
        result, rows = profile_call(busy, 1000)
        assert result == busy(1000)
        assert rows

    def test_rows_ranked_by_cumulative_time_and_capped(self):
        _, rows = profile_call(busy, 50_000, top=3)
        assert len(rows) <= 3
        cums = [row["cum_s"] for row in rows]
        assert cums == sorted(cums, reverse=True)

    def test_rows_are_json_scalars(self):
        _, rows = profile_call(busy, 1000)
        for row in json.loads(json.dumps(rows)):
            assert set(row) == {"func", "calls", "cum_s", "self_s"}
            assert isinstance(row["calls"], int)

    def test_exception_propagates_with_profiler_disabled(self):
        def bad():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            profile_call(bad)
        # The profiler was disabled on the way out: profiling again works.
        assert profile_call(busy, 100)[1]


class TestFoldRows:
    def test_rows_become_profile_timers(self):
        registry = MetricsRegistry()
        fold_rows(registry, [{"func": "a.py:1:f", "calls": 2, "cum_s": 0.5,
                              "self_s": 0.1}])
        timer = registry.timers["profile.a.py:1:f"]
        assert timer.count == 1
        assert timer.total == pytest.approx(0.5)

    def test_repeat_folds_aggregate_across_cells(self):
        registry = MetricsRegistry()
        for cum in (0.5, 0.25):
            fold_rows(registry, [{"func": "a.py:1:f", "cum_s": cum,
                                  "calls": 1, "self_s": cum}])
        timer = registry.timers["profile.a.py:1:f"]
        assert timer.count == 2  # cells where the function was hot
        assert timer.total == pytest.approx(0.75)
        assert timer.max == pytest.approx(0.5)


class TestGridIntegration:
    def run_profiled_grid(self):
        import repro
        from repro.analysis.experiment import ExperimentGrid

        configure(ProfileSpec(top=3))
        sink = MemorySink()
        with observed(sink) as tracer:
            ExperimentGrid(
                strategies=[repro.LPTNoChoice()],
                instances=[repro.uniform_instance(8, 2, alpha=1.5, seed=0)],
                realization_models=["log_uniform"],
                seeds=(0,),
                batch=False,
            ).run()
            registry = tracer.registry
        return sink, registry

    def test_cell_spans_carry_profile_rows(self):
        sink, _ = self.run_profiled_grid()
        ends = [e for e in sink.by_kind("span_end") if e.name == "grid.cell"]
        assert ends
        for end in ends:
            rows = end.payload["profile"]
            assert 1 <= len(rows) <= 3
            assert all("cum_s" in row for row in rows)

    def test_registry_aggregates_profile_timers(self):
        _, registry = self.run_profiled_grid()
        hot = {n: t for n, t in registry.timers.items()
               if n.startswith("profile.")}
        assert hot
        assert all(t.count >= 1 for t in hot.values())

    def test_grid_manifest_ranks_hot_functions(self):
        sink, _ = self.run_profiled_grid()
        (manifest,) = [e for e in sink.by_kind("manifest")
                       if e.payload.get("kind") == "grid"]
        profile = manifest.payload["params"]["profile"]
        assert profile
        cums = [row["cum_s"] for row in profile]
        assert cums == sorted(cums, reverse=True)
        assert all(set(row) == {"func", "cells", "cum_s"} for row in profile)

    def test_batched_grid_profiles_its_sweep(self):
        """The default, batched path profiles each stack's sweep, and a
        profiled run returns the records an unprofiled one does."""
        import repro
        from repro.analysis.experiment import ExperimentGrid

        def grid():
            return ExperimentGrid(
                strategies=["lpt_no_choice", "ls_group[k=2]"],
                instances=[repro.uniform_instance(8, 2, alpha=1.5, seed=0)],
                realization_models=["log_uniform"],
                seeds=(0, 1),
            )

        plain = grid().run()
        configure(ProfileSpec(top=3))
        sink = MemorySink()
        with observed(sink) as tracer:
            profiled = grid().run()
            hot = [n for n in tracer.registry.timers if n.startswith("profile.")]
        assert profiled == plain
        assert hot
        ends = [e for e in sink.by_kind("span_end") if e.name == "grid.batch"]
        assert ends
        assert all(1 <= len(e.payload["profile"]) <= 3 for e in ends)

    def test_unprofiled_grid_has_no_profile_attrs(self):
        import repro
        from repro.analysis.experiment import ExperimentGrid

        sink = MemorySink()
        with observed(sink):
            ExperimentGrid(
                strategies=[repro.LPTNoChoice()],
                instances=[repro.uniform_instance(8, 2, alpha=1.5, seed=0)],
                realization_models=["log_uniform"],
                seeds=(0,),
                batch=False,
            ).run()
        ends = [e for e in sink.by_kind("span_end") if e.name == "grid.cell"]
        assert ends
        assert all("profile" not in e.payload for e in ends)
