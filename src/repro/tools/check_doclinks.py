"""Doc-link lint: every relative markdown link and anchor must resolve.

Documentation rots through its links first: a renamed doc, a reworded
heading, and the cross-reference silently points nowhere.  This lint
walks ``README.md``, ``docs/*.md`` and the other top-level docs
(``CONTRIBUTING.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, ``ROADMAP.md``,
``bench/README.md``) — or only the paths given — extracts every inline
markdown link outside code, and checks:

* **relative file targets exist** (``docs/service.md``, ``../README.md``
  — resolved from the linking file's directory; external ``http(s)://``
  and ``mailto:`` targets are out of scope);
* **anchors resolve**: ``file.md#some-heading`` (and same-file
  ``#heading``) must match a heading in the target, using GitHub's
  slugging rules (lowercase, punctuation stripped, each space to one
  hyphen, duplicate slugs suffixed ``-1``, ``-2``, ...);
* **the architecture hub is complete**: ``docs/architecture.md`` must
  link every other file in ``docs/`` — it is the documented entry point,
  so a doc it misses is unreachable from the front door.

Usage::

    python -m repro.tools.check_doclinks             # lint the docs above
    python -m repro.tools.check_doclinks PATH ...    # lint specific files

Exit code 0 when clean, 1 with one ``path:line: message`` per violation —
CI runs it in the lint stage.  Pure text processing; nothing is imported
or rendered.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Sequence
from pathlib import Path

__all__ = ["extract_links", "heading_slugs", "check_file", "check_hub", "main"]

#: Inline markdown links/images: ``[text](target)`` — title suffixes
#: (``[x](y "title")``) are split off, nested parens are not supported
#: (GitHub requires escaping them anyway).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*(<[^>]*>|[^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
#: An inline code span: a run of backticks, then text up to the same run.
_CODE_RE = re.compile(r"(`+).+?\1")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def extract_links(text: str) -> list[tuple[int, str]]:
    """All inline link targets in ``text`` as ``(line_number, target)``.

    Fenced code blocks and inline code spans are skipped — a ``[x](y)``
    inside an example snippet is content, not a cross-reference.
    """
    links: list[tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK_RE.finditer(_CODE_RE.sub("", line)):
            target = match.group(1).strip()
            if target.startswith("<") and target.endswith(">"):
                target = target[1:-1].strip()
            links.append((lineno, target))
    return links


def _slugify(heading: str) -> str:
    """GitHub's anchor slug for one heading text."""
    # Inline code/emphasis markers and links render away before slugging.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = text.replace("`", "").replace("*", "").strip().lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    # Each space is one hyphen, "a — b" is "a--b", and nothing is trimmed
    # once the punctuation is gone.
    return text.replace(" ", "-")


def heading_slugs(text: str) -> set[str]:
    """Every anchor a markdown file exposes (GitHub slugging + dedup)."""
    counts: dict[str, int] = {}
    slugs: set[str] = set()
    in_fence = False
    for line in text.splitlines():
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = _slugify(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def check_file(path: Path, root: Path) -> list[str]:
    """Lint one markdown file; returns ``path:line: message`` violations."""
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    violations: list[str] = []
    for lineno, target in extract_links(text):
        if target.startswith(_EXTERNAL) or not target:
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                violations.append(
                    f"{rel}:{lineno}: broken link '{target}' "
                    f"({file_part} does not exist)"
                )
                continue
            anchor_host = resolved
        else:
            anchor_host = path  # same-file '#anchor'
        if anchor and anchor_host.suffix == ".md":
            if anchor not in heading_slugs(anchor_host.read_text(encoding="utf-8")):
                violations.append(
                    f"{rel}:{lineno}: broken anchor '#{anchor}' "
                    f"(no such heading in {anchor_host.name})"
                )
    return violations


def check_hub(hub: Path, docs_dir: Path, root: Path) -> list[str]:
    """Verify the architecture hub links every doc in ``docs/``."""
    if not hub.exists():
        return [f"{hub.relative_to(root)}:1: architecture hub is missing"]
    linked = {
        (hub.parent / target.partition("#")[0]).resolve()
        for _, target in extract_links(hub.read_text(encoding="utf-8"))
        if target and not target.startswith(_EXTERNAL)
    }
    violations = []
    for doc in sorted(docs_dir.glob("*.md")):
        if doc.resolve() == hub.resolve():
            continue
        if doc.resolve() not in linked:
            violations.append(
                f"{hub.relative_to(root)}:1: does not link {doc.relative_to(root)} "
                "(the hub must reach every doc)"
            )
    return violations


def _default_paths(root: Path) -> list[Path]:
    top = ("README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")
    paths = [root / name for name in (*top, "bench/README.md")]
    paths += sorted((root / "docs").glob("*.md"))
    return [p for p in paths if p.exists()]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check_doclinks",
        description="check that relative markdown links and anchors resolve",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files/dirs to lint (default: the docs)"
    )
    parser.add_argument(
        "--root", type=Path, default=Path.cwd(), help="repository root (default: cwd)"
    )
    parser.add_argument(
        "--no-hub-check",
        action="store_true",
        help="skip the 'architecture.md links every doc' completeness check",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.paths:
        files: list[Path] = []
        for path in args.paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.md")))
            else:
                files.append(path)
    else:
        files = _default_paths(root)
    violations: list[str] = []
    for path in files:
        violations.extend(check_file(path.resolve(), root))
    if not args.no_hub_check and not args.paths:
        violations.extend(check_hub(root / "docs" / "architecture.md", root / "docs", root))
    for violation in violations:
        print(violation)
    if violations:
        print(f"\n{len(violations)} doc-link violation(s)", file=sys.stderr)
        return 1
    count = len(files)
    print(f"doc links OK ({count} file(s) checked)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
