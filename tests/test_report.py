"""Tests for the store-backed reproduction report pipeline."""

from __future__ import annotations

import pytest

from repro.analysis.csvio import write_csv
from repro.analysis.report import (
    UnresolvableArtifactError,
    artifact_inventory,
    check_report,
    generate_report,
)
from repro.store import ArtifactStore, Stage, publish_curated


@pytest.fixture
def populated(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig1_adversary.txt").write_text("FIG1 RENDERING\n")
    (results / "e1_empirical_ratios.txt").write_text("E1 TABLE\n")
    write_csv(
        results / "e1_empirical_ratios.csv",
        [{"strategy": "x", "ratio": 1.2}, {"strategy": "y", "ratio": 1.1}],
    )
    return results


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _generate(results, store, **kw):
    return generate_report(results, store=store, adopt=True, **kw)


class TestInventory:
    def test_groups_txt_and_csv(self, populated):
        inv = artifact_inventory(populated)
        assert set(inv["e1_empirical_ratios"]) == {"txt", "csv"}
        assert set(inv["fig1_adversary"]) == {"txt"}

    def test_report_itself_excluded(self, populated, store):
        (populated / "REPORT.txt").write_text("x")
        _generate(populated, store)
        inv = artifact_inventory(populated)
        assert "REPORT" not in inv


class TestGenerateReport:
    def test_contains_artifacts_in_order(self, populated, store):
        path = _generate(populated, store)
        text = path.read_text()
        assert text.index("Figure 1") < text.index("E1 —")
        assert "FIG1 RENDERING" in text
        assert "E1 TABLE" in text

    def test_csv_summarized(self, populated, store):
        text = _generate(populated, store).read_text()
        assert "2 rows" in text
        assert "strategy" in text

    def test_fingerprint_header_no_wall_clock(self, populated, store):
        text = _generate(populated, store).read_text()
        assert "Input fingerprint: `" in text
        assert "Generated " not in text  # the old timestamp header is gone
        # Identical inputs render identical bytes.
        assert _generate(populated, store).read_text() == text

    def test_unknown_curated_artifact_gets_a_section(self, populated, store):
        (populated / "custom_artifact.txt").write_text("CUSTOM\n")
        publish_curated("custom_artifact", store=store, base=populated)
        text = _generate(populated, store).read_text()
        assert "CUSTOM" in text
        assert text.index("E1 —") < text.index("custom_artifact")

    def test_retired_artifact_with_no_files_is_dropped(self, populated, tmp_path):
        # A store written before an artifact's spec was removed still holds
        # it; with none of its files under results/ it renders, checks and
        # adopts exactly as a fresh store does.
        _generate(populated, ArtifactStore(tmp_path / "fresh"))
        expected = (populated / "REPORT.md").read_bytes()
        before = {p.name: p.stat().st_mtime_ns for p in populated.iterdir()}
        stale = ArtifactStore(tmp_path / "stale")
        stale.put(
            Stage.CURATED,
            "BENCH_history",
            kind="bench",
            payload={"title": "BENCH_history", "volatile": False},
            files={"BENCH_history.jsonl": b'{"batch_speedup_x": 8.0}\n'},
        )
        _generate(populated, stale)
        assert (populated / "REPORT.md").read_bytes() == expected
        assert {p.name: p.stat().st_mtime_ns for p in populated.iterdir()} == before
        assert check_report(populated, store=stale) == []

    def test_unadopted_stray_file_is_flagged(self, populated, store):
        (populated / "stray_dropping.svg").write_text("<svg/>")
        text = _generate(populated, store).read_text()
        assert "Unregistered files" in text
        assert "stray_dropping.svg" in text

    def test_empty_dir_raises(self, tmp_path, store):
        with pytest.raises(FileNotFoundError, match="artifacts"):
            generate_report(tmp_path / "empty", store=store)

    def test_refuses_unresolvable_known_artifact(self, populated, store):
        # Registered artifacts on disk but an empty store: refuse rather
        # than render unattributable content.
        with pytest.raises(UnresolvableArtifactError, match="e1_empirical_ratios"):
            generate_report(populated, store=store)

    def test_second_run_writes_nothing(self, populated, store):
        _generate(populated, store)
        before = {
            p.name: p.stat().st_mtime_ns for p in populated.iterdir() if p.is_file()
        }
        _generate(populated, store)
        after = {
            p.name: p.stat().st_mtime_ns for p in populated.iterdir() if p.is_file()
        }
        assert after == before

    def test_materializes_deleted_files_from_the_store(self, populated, store):
        _generate(populated, store)
        original = (populated / "e1_empirical_ratios.csv").read_bytes()
        (populated / "e1_empirical_ratios.csv").unlink()
        generate_report(populated, store=store)  # no adopt: store is the source
        assert (populated / "e1_empirical_ratios.csv").read_bytes() == original

    def test_report_artifact_carries_resolvable_refs(self, populated, store):
        _generate(populated, store)
        report = store.get(Stage.REPORT, "REPORT")
        assert report is not None
        artifact_refs = [r for r in report.refs if getattr(r, "stage", None)]
        assert {r.name for r in artifact_refs} >= {
            "fig1_adversary", "e1_empirical_ratios",
        }
        for ref in artifact_refs:
            assert store.resolve(ref) is not None


class TestCheckReport:
    def test_clean_after_generate(self, populated, store):
        _generate(populated, store)
        assert check_report(populated, store=store) == []

    def test_detects_hand_edited_artifact(self, populated, store):
        _generate(populated, store)
        (populated / "e1_empirical_ratios.csv").write_text("strategy,ratio\nz,9\n")
        problems = check_report(populated, store=store)
        assert any("e1_empirical_ratios.csv" in p for p in problems)

    def test_detects_hand_edited_report(self, populated, store):
        _generate(populated, store)
        path = populated / "REPORT.md"
        path.write_text(path.read_text() + "tampered\n")
        problems = check_report(populated, store=store)
        assert any("REPORT.md" in p for p in problems)

    def test_detects_stray_file(self, populated, store):
        _generate(populated, store)
        (populated / "stray.svg").write_text("<svg/>")
        problems = check_report(populated, store=store)
        assert any("REPORT.md" in p for p in problems)

    def test_volatile_artifact_may_drift(self, populated, store):
        (populated / "e7_slo_report.txt").write_text("latency p99 12ms\n")
        _generate(populated, store)
        assert check_report(populated, store=store) == []
        (populated / "e7_slo_report.txt").write_text("latency p99 99ms\n")
        assert check_report(populated, store=store) == []

    def test_adopt_mode_validates_committed_tree(self, populated, store):
        # --check --adopt: the committed REPORT.md is the reference; a
        # results file clobbered after the report was rendered fails.
        _generate(populated, store)
        (populated / "e1_empirical_ratios.csv").write_text("strategy,ratio\nz,9\n")
        fresh = ArtifactStore(store.root.parent / "fresh-store")
        problems = check_report(populated, store=fresh, adopt=True)
        assert any("REPORT.md" in p for p in problems)
