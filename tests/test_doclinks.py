"""The doc-link lint: extraction, slugging, and the repo's own docs."""

from pathlib import Path

from repro.tools.check_doclinks import (
    _default_paths,
    check_file,
    check_hub,
    extract_links,
    heading_slugs,
    main,
)

REPO = Path(__file__).resolve().parents[1]


def test_extract_links_finds_inline_and_skips_fences():
    text = (
        "See [guide](docs/guide.md) and ![img](pic.png).\n"
        "```python\n"
        "x = '[not a link](nope.md)'\n"
        "```\n"
        "External [site](https://example.com) and [anchor](#section).\n"
        "Code `table[k][1](m)` and ``a `[b](c)` d`` is not a link; "
        "[`code` text](code.md) is.\n"
    )
    targets = [t for _, t in extract_links(text)]
    assert targets == [
        "docs/guide.md", "pic.png", "https://example.com", "#section", "code.md"
    ]


def test_heading_slugs_follow_github_rules():
    text = (
        "# The perf-trajectory artifact (`BENCH_perf.json`)\n"
        "## Phase 2: dispatch!\n"
        "## Phase 2: dispatch!\n"
        "### `abo` — ABO\n"
        "### Decision structures → plan tiers\n"
    )
    slugs = heading_slugs(text)
    assert "the-perf-trajectory-artifact-bench_perfjson" in slugs
    assert "phase-2-dispatch" in slugs
    assert "phase-2-dispatch-1" in slugs  # duplicate headings dedup
    # Every space is one hyphen, even where punctuation between two went.
    assert "abo--abo" in slugs
    assert "decision-structures--plan-tiers" in slugs


def test_broken_link_and_anchor_detected(tmp_path):
    (tmp_path / "a.md").write_text(
        "# A\n[ok](b.md)\n[missing](c.md)\n[bad](b.md#nope)\n[good](b.md#b)\n"
    )
    (tmp_path / "b.md").write_text("# B\n")
    violations = check_file(tmp_path / "a.md", tmp_path)
    assert len(violations) == 2
    assert any("c.md does not exist" in v for v in violations)
    assert any("#nope" in v for v in violations)


def test_hub_completeness_check(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "architecture.md").write_text("# Hub\n[one](one.md)\n")
    (docs / "one.md").write_text("# One\n")
    (docs / "two.md").write_text("# Two\n")
    violations = check_hub(docs / "architecture.md", docs, tmp_path)
    assert len(violations) == 1 and "two.md" in violations[0]


def test_repo_docs_are_link_clean(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert main([]) == 0


def test_default_run_covers_the_top_level_docs():
    linted = {path.relative_to(REPO).as_posix() for path in _default_paths(REPO)}
    top = {"README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
    assert top | {"bench/README.md", "docs/architecture.md"} <= linted


def test_architecture_hub_links_every_doc():
    docs = REPO / "docs"
    assert not check_hub(docs / "architecture.md", docs, REPO)
