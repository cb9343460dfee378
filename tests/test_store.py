"""Tests for the content-addressed artifact store (repro.store)."""

from __future__ import annotations

import json
from pathlib import Path, PurePosixPath, PureWindowsPath

import pytest

from repro.store import (
    Artifact,
    ArtifactRef,
    ArtifactStore,
    LocalDirBackend,
    Stage,
    canonical_json,
    code_ref,
    compute_artifact_id,
    config_ref,
    content_hash,
    publish_curated,
    recording,
    ref_from_dict,
    spec_for,
)


class TestCanonicalHashing:
    """Artifact IDs must be identical across platforms and processes."""

    def test_dict_ordering_does_not_matter(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_tuple_and_list_are_the_same_content(self):
        assert content_hash((1, 2, 3)) == content_hash([1, 2, 3])

    def test_path_separators_normalize(self):
        # A manifest hashed on Windows equals one hashed on Linux.
        assert content_hash({"p": PureWindowsPath("a\\b\\c.txt")}) == content_hash(
            {"p": PurePosixPath("a/b/c.txt")}
        )

    def test_float_repr_is_shortest_round_trip(self):
        # 0.1 + 0.2 and 0.30000000000000004 are the same IEEE-754 double.
        assert content_hash(0.1 + 0.2) == content_hash(0.30000000000000004)
        assert content_hash(0.3) != content_hash(0.1 + 0.2)

    def test_int_and_float_hash_differently(self):
        assert content_hash(1) != content_hash(1.0)

    def test_non_finite_floats_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            content_hash({"x": float("nan")})
        with pytest.raises(ValueError, match="non-finite"):
            content_hash([float("inf")])

    def test_non_string_keys_rejected_with_path(self):
        with pytest.raises(ValueError, match=r"\$\.outer"):
            content_hash({"outer": {1: "x"}})

    def test_unencodable_type_rejected(self):
        with pytest.raises(ValueError, match="object"):
            content_hash({"x": object()})

    def test_canonical_json_is_compact_sorted_ascii(self):
        assert canonical_json({"b": "é", "a": 1}) == '{"a":1,"b":"\\u00e9"}'

    def test_artifact_id_stable_value(self):
        # Pinned: a change here invalidates every stored artifact ID.
        aid = compute_artifact_id("curated", "bench", "e1", {"k": 1}, {"e1.txt": "ab"})
        assert aid == "5abf190f9c5469d88622f298a13f0670340e1da4d3f17350d5a8537349490c6f"


class TestRefs:
    def test_round_trip_through_dicts(self):
        refs = [
            code_ref("repro.reporting"),
            config_ref({"alpha": 1.5, "m": 4}),
            ArtifactRef("raw", "abc", "0" * 64),
        ]
        for ref in refs:
            assert ref_from_dict(ref.as_dict()) == ref

    def test_config_ref_digest_matches_canonical_hash(self):
        ref = config_ref({"b": 2, "a": 1})
        assert ref.sha256 == content_hash({"a": 1, "b": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ref kind"):
            ref_from_dict({"kind": "martian"})

    def test_refs_excluded_from_artifact_id(self):
        plain = Artifact.build("curated", "e1", kind="bench", payload={"x": 1})
        with_refs = Artifact.build(
            "curated", "e1", kind="bench", payload={"x": 1},
            refs=(config_ref({"seed": 0}),),
        )
        assert plain.artifact_id == with_refs.artifact_id


class TestStoreRoundTrip:
    def test_put_get_resolve_blob(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = store.put(
            Stage.CURATED, "e1", kind="bench",
            payload={"title": "E1"}, files={"e1.txt": b"table\n"},
            refs=(config_ref({"n": 8}),),
        )
        loaded = store.get(Stage.CURATED, "e1")
        assert loaded == artifact
        assert store.file_bytes(loaded, "e1.txt") == b"table\n"
        ref = ArtifactRef(Stage.CURATED.value, "e1", artifact.artifact_id)
        assert store.resolve(ref) == artifact
        assert store.resolve(ArtifactRef("curated", "e1", "f" * 64)) is None

    def test_identical_put_is_a_dedupe_noop(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(Stage.CURATED, "e1", kind="bench", files={"a": b"x"})
        manifest = store.manifest_path(Stage.CURATED, "e1")
        mtime = manifest.stat().st_mtime_ns
        again = store.put(Stage.CURATED, "e1", kind="bench", files={"a": b"x"})
        assert store.counters.deduped == 1
        assert manifest.stat().st_mtime_ns == mtime
        assert again == store.get(Stage.CURATED, "e1")

    def test_new_content_supersedes_same_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        old = store.put(Stage.CURATED, "e1", kind="bench", files={"a": b"x"})
        new = store.put(Stage.CURATED, "e1", kind="bench", files={"a": b"y"})
        assert new.artifact_id != old.artifact_id
        assert store.get(Stage.CURATED, "e1") == new

    def test_blobs_dedupe_across_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(Stage.CURATED, "e1", kind="bench", files={"a.txt": b"shared"})
        store.put(Stage.CURATED, "e2", kind="bench", files={"b.txt": b"shared"})
        blobs = list(store.backend.list("blobs/"))
        assert len(blobs) == 1

    def test_tampered_manifest_quarantined_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(Stage.CURATED, "e1", kind="bench", payload={"v": 1})
        path = store.manifest_path(Stage.CURATED, "e1")
        doc = json.loads(path.read_text())
        doc["payload"]["v"] = 2  # content no longer matches artifact_id
        path.write_text(json.dumps(doc))
        assert store.get(Stage.CURATED, "e1") is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.counters.corrupt == 1

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = store.put(Stage.CURATED, "e1", kind="bench", files={"a": b"x"})
        sha = artifact.files["a"]
        store.backend.path(f"blobs/{sha[:2]}/{sha}").write_bytes(b"flipped")
        assert store.file_bytes(artifact, "a") is None

    def test_names_sorted_per_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for name in ("b", "a", "c"):
            store.put(Stage.CURATED, name, kind="bench")
        assert store.names(Stage.CURATED) == ["a", "b", "c"]
        assert store.names(Stage.RAW) == []

    def test_unsafe_keys_rejected(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        with pytest.raises(ValueError, match="unsafe"):
            backend.path("../escape")


class TestStoreCounters:
    def test_counters_mirror_into_metrics_registry(self, tmp_path):
        from repro.obs import MemorySink, observed

        with observed(MemorySink()):
            from repro.obs.tracer import get_tracer

            store = ArtifactStore(tmp_path)
            store.get(Stage.CURATED, "absent")
            store.put(Stage.CURATED, "e1", kind="bench")
            store.get(Stage.CURATED, "e1")
            counters = get_tracer().registry.summary()["counters"]
        assert counters["store.misses"] == 1
        assert counters["store.stores"] == 1
        assert counters["store.hits"] == 1


class TestGc:
    def _store_with_debris(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keep = store.put(Stage.CURATED, "keep", kind="bench", files={"k": b"keep"})
        store.put(Stage.CURATED, "drop", kind="bench", files={"d": b"drop"})
        store.put(Stage.CURATED, "drop", kind="bench", files={"d": b"drop2"})  # orphans "drop"
        store.backend.path("curated/keep.json.corrupt").write_bytes(b"junk")
        return store, keep

    def test_collects_orphans_and_corrupt(self, tmp_path):
        store, keep = self._store_with_debris(tmp_path)
        report = store.gc()
        assert report.orphan_blobs == 1
        assert report.swept_corrupt == 1
        assert report.reclaimed_bytes > 0
        # Referenced blobs survive.
        assert store.file_bytes(keep, "k") == b"keep"

    def test_dry_run_removes_nothing(self, tmp_path):
        store, _ = self._store_with_debris(tmp_path)
        report = store.gc(dry_run=True)
        assert report.removed > 0 and report.dry_run
        assert store.gc(dry_run=True).removed == report.removed

    def test_max_age_evicts_raw_entries(self, tmp_path):
        import os

        store = ArtifactStore(tmp_path)
        store.put(Stage.RAW, "ab" * 32, kind="cell", payload={"kind": "record"})
        path = store.manifest_path(Stage.RAW, "ab" * 32)
        old = path.stat().st_mtime - 10 * 86400
        os.utime(path, (old, old))
        report = store.gc(max_age_days=5.0)
        assert report.expired_raw == 1
        assert not store.contains(Stage.RAW, "ab" * 32)

    def test_empty_directories_removed(self, tmp_path):
        store, _ = self._store_with_debris(tmp_path)
        store.gc()
        dirs = [p for p in Path(tmp_path).rglob("*") if p.is_dir()]
        assert all(any(d.iterdir()) for d in dirs)


class TestPublishRegistry:
    def test_every_spec_is_well_formed(self):
        from repro.store import SPECS

        names = [s.name for s in SPECS]
        assert len(names) == len(set(names))
        for spec in SPECS:
            assert spec.patterns and spec.title

    def test_unknown_name_gets_deterministic_default(self):
        spec = spec_for("brand_new_artifact")
        assert not spec.volatile
        assert "brand_new_artifact.txt" in spec.patterns

    def test_publish_snapshots_files_and_refs(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "e1_empirical_ratios.txt").write_text("T\n")
        (results / "e1_empirical_ratios.csv").write_text("a\n1\n")
        store = ArtifactStore(tmp_path / "store")
        artifact = publish_curated(
            "e1_empirical_ratios", store=store, base=results,
            refs=(config_ref({"seed": 0}),),
        )
        assert set(artifact.files) == {"e1_empirical_ratios.txt", "e1_empirical_ratios.csv"}
        assert store.file_bytes(artifact, "e1_empirical_ratios.txt") == b"T\n"
        assert artifact.refs[0].params == {"seed": 0}

    def test_publish_missing_artifact_returns_none(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        store = ArtifactStore(tmp_path / "store")
        assert publish_curated("e1_empirical_ratios", store=store, base=results) is None


class TestRawRefRecording:
    def test_scoped_recorder_sees_cache_traffic(self, tmp_path):
        from repro.analysis.cache import CellCache, cell_fingerprint
        from repro.analysis.parallel import run_cell
        from repro.uncertainty import realization  # noqa: F401  (import check)
        from repro.workloads.generators import uniform_instance
        from tests.test_cache import _spec

        instance = uniform_instance(8, 2, alpha=1.5, seed=0)
        spec = _spec(instance)
        cache = CellCache(tmp_path)
        with recording() as recorder:
            cache.put(spec, run_cell(spec))
            cache.get(spec)
        refs = recorder.drain()
        assert len(refs) == 1
        assert refs[0].name == cell_fingerprint(spec)
        assert cache.store.resolve(refs[0]) is not None
