"""Tests for the on-disk cell cache (repro.analysis.cache)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.cache import CACHE_SCHEMA_VERSION, CellCache, cell_fingerprint
from repro.analysis.experiment import run_grid
from repro.analysis.parallel import CellSpec, GroupMemo, enumerate_cells, run_cell
from repro.core.strategies import LPTNoChoice, LPTNoRestriction, LSGroup
from repro.uncertainty.realization import truthful_realization
from repro.workloads.generators import generate, uniform_instance


@pytest.fixture
def instance():
    return uniform_instance(8, 2, alpha=1.5, seed=0)


def _spec(instance, **overrides) -> CellSpec:
    base = dict(
        index=0,
        group=0,
        strategy=LPTNoChoice(),
        instance=instance,
        model="uniform",
        model_name="uniform",
        seed=0,
        exact_limit=22,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestFingerprint:
    def test_stable_across_equal_specs(self, instance):
        assert cell_fingerprint(_spec(instance)) == cell_fingerprint(_spec(instance))

    def test_index_and_group_do_not_matter(self, instance):
        # Position in the grid is not an input to the measurement.
        a = cell_fingerprint(_spec(instance))
        b = cell_fingerprint(_spec(instance, index=7, group=3))
        assert a == b

    @pytest.mark.parametrize(
        "override",
        [
            {"strategy": LPTNoRestriction()},
            {"strategy": LSGroup(2)},
            {"model": "log_uniform", "model_name": "log_uniform"},
            {"seed": 1},
            {"exact_limit": 10},
        ],
    )
    def test_changes_on_each_key_component(self, instance, override):
        assert cell_fingerprint(_spec(instance)) != cell_fingerprint(
            _spec(instance, **override)
        )

    def test_changes_on_strategy_params(self, instance):
        assert cell_fingerprint(_spec(instance, strategy=LSGroup(2))) != cell_fingerprint(
            _spec(instance, strategy=LSGroup(4))
        )

    def test_changes_on_instance_content(self, instance):
        other = uniform_instance(8, 2, alpha=1.5, seed=1)
        assert cell_fingerprint(_spec(instance)) != cell_fingerprint(_spec(other))

    def test_changes_on_schema_version(self, instance, monkeypatch):
        before = cell_fingerprint(_spec(instance))
        monkeypatch.setattr(
            "repro.analysis.cache.CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert cell_fingerprint(_spec(instance)) != before

    def test_callable_model_is_uncacheable(self, instance):
        factory = lambda inst, seed: truthful_realization(inst)  # noqa: E731
        spec = _spec(instance, model=factory, model_name="truthful")
        assert cell_fingerprint(spec) is None

    def test_pinned_value(self):
        # Pinned: a change here turns every stored cell into a miss.
        spec = _spec(
            generate("uniform", 20, 4, 1.5, 0),
            strategy=LSGroup(2),
            model="log_uniform",
            model_name="log_uniform",
            seed=1000,
            exact_limit=22,
        )
        assert cell_fingerprint(spec) == (
            "1854fa2686bddddbc477ccdeb5538bb52af5953be17db17f279884a2b65a0f0c"
        )


class TestCellCache:
    def test_miss_then_hit_returns_identical_record(self, instance, tmp_path):
        cache = CellCache(tmp_path / "cache")
        spec = _spec(instance)
        assert cache.get(spec) is None
        outcome = run_cell(spec)
        assert cache.put(spec, outcome)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.record == outcome.record
        assert cached.index == spec.index
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert cache.hit_rate() == 0.5

    def test_hit_preserves_none_fields(self, instance, tmp_path):
        # guarantee/within_guarantee may be None and must survive the round
        # trip unchanged (as_dict would flatten None to "").
        cache = CellCache(tmp_path)
        spec = _spec(instance)
        outcome = run_cell(spec)
        record = outcome.record._replace(guarantee=None, within_guarantee=None)
        cache.put(spec, outcome._replace(record=record))
        cached = cache.get(spec).record
        assert cached == record
        assert cached.guarantee is None and cached.within_guarantee is None

    def test_skipped_cell_round_trips(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance, strategy=LSGroup(4))  # cannot split m=2
        outcome = run_cell(spec)
        assert outcome.skipped is not None
        cache.put(spec, outcome)
        cached = cache.get(spec)
        assert cached.skipped == outcome.skipped
        assert cached.record is None

    def test_corrupt_entry_recomputes_not_crashes(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance)
        cache.put(spec, run_cell(spec))
        path = cache._path(cell_fingerprint(spec))
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        # A fresh put overwrites the corrupt entry and the hit comes back.
        cache.put(spec, run_cell(spec))
        assert cache.get(spec) is not None

    def test_schema_drift_treated_as_corrupt(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance)
        cache.put(spec, run_cell(spec))
        path = cache._path(cell_fingerprint(spec))
        payload = json.loads(path.read_text())
        payload["v"] = CACHE_SCHEMA_VERSION + 99
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert cache.corrupt == 1

    def test_uncacheable_spec_is_a_silent_bypass(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        factory = lambda inst, seed: truthful_realization(inst)  # noqa: E731
        spec = _spec(instance, model=factory, model_name="truthful")
        assert cache.get(spec) is None
        assert not cache.put(spec, run_cell(spec))
        assert cache.lookups == 0 and cache.stores == 0

    def test_stats_shape(self, tmp_path):
        stats = CellCache(tmp_path).stats()
        assert set(stats) == {
            "dir", "hits", "misses", "stores", "corrupt", "quarantined",
            "hit_rate",
        }


class TestCorruptionQuarantine:
    """Corrupt shards are moved aside and can never poison a warm rerun."""

    def test_corrupt_shard_is_moved_aside(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance)
        cache.put(spec, run_cell(spec))
        path = cache._path(cell_fingerprint(spec))
        path.write_text("\x00garbage\x00", encoding="utf-8")
        assert cache.get(spec) is None
        assert cache.corrupt == 1 and cache.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        # The shard is gone, so the next probe is a plain miss, not
        # another corruption event.
        assert cache.get(spec) is None
        assert cache.corrupt == 1

    def test_truncated_shard_counts_as_miss(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance)
        cache.put(spec, run_cell(spec))
        path = cache._path(cell_fingerprint(spec))
        path.write_text(path.read_text()[: 10], encoding="utf-8")
        assert cache.get(spec) is None
        assert cache.misses == 1 and cache.quarantined == 1

    def test_warm_rerun_clean_after_corruption(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance)
        outcome = run_cell(spec)
        cache.put(spec, outcome)
        path = cache._path(cell_fingerprint(spec))
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(spec) is None
        cache.put(spec, outcome)
        fresh = CellCache(tmp_path)
        cached = fresh.get(spec)
        assert cached is not None and cached.record == outcome.record
        assert fresh.corrupt == 0

    def test_quarantined_skip_is_refused(self, instance, tmp_path):
        from repro.analysis.records import SkippedCell
        from repro.analysis.parallel import CellOutcome

        cache = CellCache(tmp_path)
        spec = _spec(instance)
        poisoned = CellOutcome(
            spec.index,
            None,
            SkippedCell("s", "i", "boom", kind="quarantined", attempts=3),
            0.0,
        )
        assert not cache.put(spec, poisoned)
        assert cache.stores == 0
        assert cache.get(spec) is None

    def test_incompatible_skip_round_trips_kind_fields(self, instance, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(instance, strategy=LSGroup(4))  # cannot split m=2
        outcome = run_cell(spec)
        cache.put(spec, outcome)
        cached = cache.get(spec).skipped
        assert cached.kind == "incompatible" and cached.attempts == 1


class TestGridIntegration:
    def _grid_args(self):
        strategies = [LPTNoChoice(), LPTNoRestriction()]
        instances = [uniform_instance(8, 2, alpha=1.5, seed=s) for s in range(2)]
        return strategies, instances, ["log_uniform"]

    def test_warm_rerun_computes_nothing(self, tmp_path, monkeypatch):
        args = self._grid_args()
        cache = CellCache(tmp_path / "grid-cache")
        cold = run_grid(*args, seeds=(0,), cache=cache)
        assert (cache.hits, cache.misses) == (0, 4)
        assert cache.stores == 4

        # Warm rerun: every cell must come from disk — no realization is
        # sampled, on the batch or the kernel path — and the records must
        # be identical.
        def _boom(*a, **k):  # pragma: no cover - failure mode
            raise AssertionError("a cell was recomputed on a warm-cache rerun")

        monkeypatch.setattr(GroupMemo, "realization", _boom)
        warm_cache = CellCache(tmp_path / "grid-cache")
        warm = run_grid(*args, seeds=(0,), cache=warm_cache)
        assert warm == cold
        assert warm_cache.hits == 4 and warm_cache.misses == 0
        assert warm_cache.hit_rate() == 1.0

    def test_warm_rerun_parallel_matches(self, tmp_path):
        args = self._grid_args()
        cache = CellCache(tmp_path / "cache")
        cold = run_grid(*args, seeds=(0, 1), cache=cache)
        warm = run_grid(
            *args, seeds=(0, 1), cache=CellCache(tmp_path / "cache"), workers=2
        )
        assert warm == cold

    def test_cache_invalidated_by_exact_limit(self, tmp_path):
        args = self._grid_args()
        cache = CellCache(tmp_path / "cache")
        run_grid(*args, seeds=(0,), cache=cache)
        probe = CellCache(tmp_path / "cache")
        run_grid(*args, seeds=(0,), exact_limit=5, cache=probe)
        assert probe.hits == 0 and probe.misses == 4

    def test_manifest_records_cache_stats(self, tmp_path):
        from repro.obs import MemorySink, observed

        sink = MemorySink()
        with observed(sink):
            run_grid(*self._grid_args(), seeds=(0,), cache=CellCache(tmp_path))
        manifest = next(
            e for e in sink.by_kind("manifest") if e.payload["kind"] == "grid"
        )
        stats = manifest.payload["params"]["cache"]
        assert stats["misses"] == 4 and stats["stores"] == 4


class TestEnumerationCompatibility:
    def test_enumerated_specs_are_cacheable(self):
        strategies = [LPTNoChoice()]
        instances = [uniform_instance(6, 2, seed=0)]
        cells = enumerate_cells(strategies, instances, ["uniform"], (0,), 22)
        assert all(cell_fingerprint(c) for c in cells)

    def test_specs_are_hash_stable_dataclasses(self, instance):
        spec = _spec(instance)
        assert dataclasses.is_dataclass(spec)
        clone = dataclasses.replace(spec, index=9)
        assert cell_fingerprint(spec) == cell_fingerprint(clone)
