"""Reproduction report pipeline over the content-addressed artifact store.

``repro report`` no longer scrapes whatever happens to sit under
``results/``: it renders ``REPORT.md`` — and re-materializes every
table, CSV series, and SVG figure — purely from fingerprinted CURATED
artifacts in the store (:mod:`repro.store`).  Three consequences:

* **Byte-reproducible.**  The report header carries an *input
  fingerprint* (SHA-256 over the content IDs of its deterministic
  inputs) instead of a wall-clock stamp; identical inputs render an
  identical report, so a second ``repro report`` writes nothing.
* **Self-verifying.**  Every section lists its files with their SHA-256,
  making the committed REPORT.md a lockfile for ``results/``:
  :func:`check_report` re-renders from the store and byte-compares
  everything against the working tree (CI's clobber guard).
* **Refuses guesswork.**  A registered deterministic artifact that
  exists on disk but cannot be resolved from the store aborts the
  render — ``repro report --adopt`` (:func:`adopt_results`) blesses a
  committed tree into the store first (the fresh-clone bootstrap).

Volatile artifacts (wall-clock timings, SLO latencies, the perf
trajectory) are listed from the registry but excluded from the
fingerprint and the byte comparison; see docs/artifacts.md.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.analysis.csvio import results_dir
from repro.store.artifact import Artifact, Stage
from repro.store.canonical import content_hash
from repro.store.publish import SPECS, adopt_results, artifact_files, publish_curated, spec_for
from repro.store.refs import ArtifactRef, code_ref
from repro.store.store import ArtifactStore

__all__ = [
    "generate_report",
    "check_report",
    "render_report",
    "report_fingerprint",
    "artifact_inventory",
    "UnresolvableArtifactError",
]

#: Report files the store does not manage (sidecars, the report itself).
_UNMANAGED_SUFFIXES = (".manifest.json",)


class UnresolvableArtifactError(LookupError):
    """A registered artifact exists on disk but cannot be resolved from the store."""


def artifact_inventory(base: str | Path | None = None) -> dict[str, dict[str, Path]]:
    """Map artifact stem -> available files (``txt`` and/or ``csv``)."""
    d = results_dir(base)
    inventory: dict[str, dict[str, Path]] = {}
    for path in sorted(d.glob("*.txt")):
        if path.stem == "REPORT":
            continue
        inventory.setdefault(path.stem, {})["txt"] = path
    for path in sorted(d.glob("*.csv")):
        inventory.setdefault(path.stem, {})["csv"] = path
    return inventory


def _csv_summary(name: str, data: bytes, *, max_preview: int = 3) -> str:
    """Rows × columns summary with a short preview, from stored bytes."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        return f"`{name}`: empty"
    cols = list(rows[0].keys())
    lines = [
        f"`{name}`: {len(rows)} rows × {len(cols)} columns "
        f"({', '.join(cols[:8])}{', ...' if len(cols) > 8 else ''})"
    ]
    for r in rows[:max_preview]:
        cells = ", ".join(f"{k}={v}" for k, v in list(r.items())[:6])
        lines.append(f"  - {cells}")
    if len(rows) > max_preview:
        lines.append(f"  - ... {len(rows) - max_preview} more rows")
    return "\n".join(lines)


def _resolved(store: ArtifactStore, base: str | Path | None) -> list[Artifact]:
    """CURATED artifacts in registry order, then unknown names alphabetically.

    An unknown name none of whose files is under ``results/`` is retired:
    its spec was removed (a store written before then still holds it), so
    it is not rendered, fingerprinted or written back.  An unknown
    artifact whose files are on disk keeps its section.
    """
    present = store.names(Stage.CURATED)
    known = {spec.name for spec in SPECS}
    ordered = [spec.name for spec in SPECS if spec.name in present]
    ordered += sorted(name for name in present if name not in known)
    d = results_dir(base)
    artifacts = []
    for name in ordered:
        artifact = store.get(Stage.CURATED, name)
        if artifact is None:
            continue
        if name in known or any((d / fname).is_file() for fname in artifact.files):
            artifacts.append(artifact)
    return artifacts


def report_fingerprint(artifacts: list[Artifact]) -> str:
    """SHA-256 over the deterministic inputs' names and content IDs."""
    deterministic = [a for a in artifacts if not spec_for(a.name).volatile]
    return content_hash(
        {"inputs": [{"name": a.name, "artifact_id": a.artifact_id} for a in deterministic]}
    )


def _unregistered(store_files: set[str], base: str | Path | None) -> list[str]:
    """On-disk results files no curated artifact claims (stale droppings)."""
    strays = []
    for path in sorted(results_dir(base).glob("*")):
        if not path.is_file() or path.name == "REPORT.md":
            continue
        if path.name.endswith(_UNMANAGED_SUFFIXES):
            continue
        if path.name not in store_files:
            strays.append(path.name)
    return strays


def render_report(
    store: ArtifactStore, base: str | Path | None = None
) -> tuple[str, dict[str, bytes]]:
    """Render REPORT.md text plus the deterministic files to materialize.

    Returns ``(markdown, files)`` where ``files`` maps results/ file
    names to the exact bytes the store holds for them.  Raises
    :class:`UnresolvableArtifactError` when a registered deterministic
    artifact is on disk but absent from (or corrupt in) the store, and
    ``FileNotFoundError`` when the store has nothing to render at all.
    """
    artifacts = _resolved(store, base)
    by_name = {a.name: a for a in artifacts}

    unresolvable = []
    for spec in SPECS:
        if spec.volatile or spec.name in by_name:
            continue
        if artifact_files(spec, base):
            unresolvable.append(spec.name)
    if unresolvable:
        raise UnresolvableArtifactError(
            "registered artifacts exist under results/ but cannot be resolved "
            f"from the artifact store: {', '.join(unresolvable)}; run their "
            "benches or bless the committed tree with `repro report --adopt`"
        )
    if not artifacts:
        raise FileNotFoundError(
            f"no curated artifacts in the store ({store.root}); "
            "run `pytest benchmarks/ --benchmark-only` or `repro report --adopt`"
        )

    deterministic = [a for a in artifacts if not spec_for(a.name).volatile]
    fingerprint = report_fingerprint(artifacts)

    files: dict[str, bytes] = {}
    lines = [
        "# Reproduction report",
        "",
        f"Input fingerprint: `{fingerprint}`",
        "",
        f"SHA-256 over the content IDs of the {len(deterministic)} deterministic "
        "artifacts below; identical inputs render an identical report "
        "(volatile timing artifacts are listed but excluded).",
        "Regenerate with `repro report`; verify the working tree against it "
        "with `repro report --check`. See docs/artifacts.md.",
        "",
    ]
    for artifact in deterministic:
        spec = spec_for(artifact.name)
        lines.append(f"## {spec.title}")
        lines.append("")
        txt_name = f"{artifact.name}.txt"
        csv_name = f"{artifact.name}.csv"
        for fname in artifact.files:
            data = store.file_bytes(artifact, fname)
            if data is None:
                raise UnresolvableArtifactError(
                    f"blob for {fname!r} of artifact {artifact.name!r} is missing "
                    "or corrupt in the store; rerun its bench or `repro report --adopt`"
                )
            files[fname] = data
        if txt_name in artifact.files:
            lines.append("```")
            lines.append(files[txt_name].decode("utf-8").rstrip())
            lines.append("```")
        if csv_name in artifact.files:
            lines.append("")
            lines.append(_csv_summary(csv_name, files[csv_name]))
        lines.append("")
        lines.append("Files:")
        lines.append("")
        for fname, sha in sorted(artifact.files.items()):
            lines.append(f"- `{fname}` — sha256 `{sha}`")
        lines.append("")

    lines.append("## Volatile artifacts")
    lines.append("")
    lines.append(
        "Wall-clock measurements whose bytes legitimately differ between "
        "runs; stored with full provenance in the artifact store but "
        "excluded from the input fingerprint and from `--check`:"
    )
    lines.append("")
    for spec in SPECS:
        if spec.volatile:
            lines.append(f"- `{spec.name}` — {spec.title}")
    lines.append("")

    volatile_files = set(files)
    for artifact in artifacts:
        volatile_files.update(artifact.files)
    strays = _unregistered(volatile_files, base)
    if strays:
        lines.append("## Unregistered files")
        lines.append("")
        lines.append(
            "Files under `results/` no curated artifact claims — stale "
            "droppings or a bench missing its registry entry "
            "(`repro.store.publish.SPECS`):"
        )
        lines.append("")
        for name in strays:
            lines.append(f"- `{name}`")
        lines.append("")

    return "\n".join(lines), files


def _auto_adopt_volatile(store: ArtifactStore, base: str | Path | None) -> None:
    """Bless on-disk volatile artifacts absent from the store.

    Volatile bytes are not fingerprinted, so adopting them silently is
    safe — it only records provenance for files already in the tree
    (e.g. a committed ``perf_batch_backend_speedup.txt`` on a machine
    that never ran its bench).
    """
    for spec in SPECS:
        if not spec.volatile or store.contains(Stage.CURATED, spec.name):
            continue
        if artifact_files(spec, base):
            publish_curated(spec.name, store=store, base=base)


def generate_report(
    base: str | Path | None = None,
    *,
    store: ArtifactStore | None = None,
    adopt: bool = False,
) -> Path:
    """Render and materialize ``results/`` from the store; returns the path.

    Every managed file (tables, CSVs, SVGs, REPORT.md) is written only
    when its bytes differ from what the store renders — a second run
    writes nothing.  ``adopt=True`` first blesses the committed tree
    into the store (fresh-clone bootstrap).
    """
    store = store if store is not None else ArtifactStore()
    if adopt:
        adopt_results(store, base)
    _auto_adopt_volatile(store, base)
    markdown, files = render_report(store, base)
    d = results_dir(base)
    text = markdown if markdown.endswith("\n") else markdown + "\n"
    for fname, data in sorted(files.items()):
        path = d / fname
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
    out = d / "REPORT.md"
    payload = text.encode("utf-8")
    if not out.exists() or out.read_bytes() != payload:
        out.write_bytes(payload)
    artifacts = _resolved(store, base)
    store.put(
        Stage.REPORT,
        "REPORT",
        kind="report",
        payload={"fingerprint": report_fingerprint(artifacts)},
        files={"REPORT.md": payload},
        refs=tuple(
            [ArtifactRef(Stage.CURATED.value, a.name, a.artifact_id) for a in artifacts]
            + [code_ref("repro.analysis.report")]
        ),
    )
    return out


def check_report(
    base: str | Path | None = None,
    *,
    store: ArtifactStore | None = None,
    adopt: bool = False,
) -> list[str]:
    """Byte-verify the working tree against the store; [] when clean.

    Renders the report in memory and compares every deterministic file
    plus REPORT.md against disk without writing anything.  Returns a
    human-readable problem list (drifted/missing files, strays).  With
    ``adopt=True`` the on-disk artifacts are blessed first, which turns
    the committed REPORT.md into the reference: the check then fails
    exactly when the tree is internally inconsistent (a results file was
    clobbered after REPORT.md was last rendered, or a stray appeared).
    """
    store = store if store is not None else ArtifactStore()
    if adopt:
        adopt_results(store, base)
    _auto_adopt_volatile(store, base)
    markdown, files = render_report(store, base)
    d = results_dir(base)
    problems = []
    for fname, data in sorted(files.items()):
        path = d / fname
        if not path.exists():
            problems.append(f"missing: {fname}")
        elif path.read_bytes() != data:
            problems.append(f"drifted: {fname}")
    text = (markdown if markdown.endswith("\n") else markdown + "\n").encode("utf-8")
    report_path = d / "REPORT.md"
    if not report_path.exists():
        problems.append("missing: REPORT.md")
    elif report_path.read_bytes() != text:
        problems.append("drifted: REPORT.md (inputs or stray files changed)")
    return problems
