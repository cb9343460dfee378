"""Generate ``docs/strategies.md`` from the strategy-plugin registry.

The catalog is *derived*, never hand-edited: every registered entry
contributes its spec template, parameter schema, capability flags, and
paper anchor, so the document cannot drift from the code the way a
hand-maintained table would.  CI regenerates it in ``--check`` mode and
fails when the checked-in file is stale.

Usage::

    python -m repro.tools.strategy_docs            # rewrite docs/strategies.md
    python -m repro.tools.strategy_docs --check    # fail if the file is stale
    python -m repro.tools.strategy_docs --output PATH

The overlap notes at the bottom document the *intentional* duplicate
specs in the Figure-3 ablation sweep (``lpt_group`` at its endpoint group
counts coincides with the two LPT reference strategies).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

__all__ = ["render_catalog", "main"]

_HEADER = """\
# Strategy catalog

<!-- Generated by `python -m repro.tools.strategy_docs`. Do not edit by hand:
     CI runs the generator in --check mode and fails on drift. -->

Every strategy family registers itself with
[`repro.registry`](../src/repro/registry/__init__.py) — one declaration
per family carrying the typed parameter schema, the capability flags the
simulation engine enforces, and the paper anchor.  This catalog is
generated from those declarations.

Build any strategy from its spec string:

```python
import repro
s = repro.make_strategy("ls_group[k=3]")
repro.describe_strategy(s)   # -> "ls_group[k=3]"  (canonical round-trip)
repro.capabilities_of(s)     # -> Capabilities(...)
```

or explore from the command line: `repro strategies` lists the table
below, `repro strategies SPEC` describes one entry.
"""

_CAPABILITY_LEGEND = """\
Capability flags (see `repro.registry.Capabilities`):

* **faults** — the Phase-2 policy stays correct under fault injection
  (task aborts, machine recoveries, degraded speeds).
* **releases** — the policy consults `SchedulerView.is_released` and
  behaves under non-zero release times.
* **hetero** — Phase 1 can exploit a per-task uncertainty profile.
* **memory** — Phase 1 reads task sizes (the Section-6 memory model).

Running a strategy outside its declared envelope raises
`repro.CapabilityError` instead of silently misbehaving.
"""

_OVERLAPS = """\
## Intentional spec overlaps in the Figure-3 sweep

`strategy_names(m, include_ablation=True)` enumerates the `lpt_group`
ablation over every divisor `k` of `m`, and its endpoints coincide with
the two LPT reference strategies:

* `lpt_group[k=1]` ≡ `lpt_no_restriction` — one group containing all
  machines is full replication with LPT order in both phases.
* `lpt_group[k=m]` ≡ `lpt_no_choice` — singleton groups pin each task to
  its LPT machine.

The overlap is kept deliberately: the ablation sweep must trace the
*whole* replication axis of Figure 3 (including its endpoints) without
special-casing, and the duplicate cells are nearly free because the cell
cache fingerprints canonical specs.  The `ls_group` endpoints are **not**
equivalent to the reference strategies — LS-Group uses input (List
Scheduling) order, while `lpt_no_choice`/`lpt_no_restriction` use LPT
order — so the default (non-ablation) sweep contains no duplicates.
"""


def _cell(text: str) -> str:
    """Escape pipes so Choice templates survive inside markdown tables."""
    return text.replace("|", "\\|")


def _flag_cell(caps) -> str:
    """Compact capability cell: short names of the set boolean flags."""
    short = {
        "supports_faults": "faults",
        "supports_releases": "releases",
        "supports_hetero": "hetero",
        "memory_aware": "memory",
        "online_placement": "online",
    }
    names = [short[f] for f in caps.flags()]
    return ", ".join(names) if names else "—"


def _param_rows(entry) -> list[str]:
    rows = []
    for p in entry.params:
        if p.required:
            default = "*required*"
        elif isinstance(p.default, bool):
            default = f"`{str(p.default).lower()}`"
        else:
            default = f"`{p.default}`"
        doc = p.doc or ""
        rows.append(f"| `{p.key}` | {_cell(p.describe())} | {default} | {_cell(doc)} |")
    return rows


def render_catalog() -> str:
    """The full markdown catalog for the current registry contents."""
    from repro.registry import strategy_entries

    entries = strategy_entries()
    lines: list[str] = [_HEADER]

    lines.append("## All registered strategies\n")
    lines.append("| spec | family | capabilities | replication | paper anchor |")
    lines.append("|---|---|---|---|---|")
    for e in entries:
        lines.append(
            f"| `{_cell(e.template())}` | {e.family} | {_flag_cell(e.capabilities)} "
            f"| {e.capabilities.replication_factor} | {_cell(e.theorem or '—')} |"
        )
    lines.append("")
    lines.append(_CAPABILITY_LEGEND)

    families: dict[str, list] = {}
    for e in entries:
        families.setdefault(e.family, []).append(e)
    for family, members in families.items():
        lines.append(f"## Family: {family}\n")
        for e in members:
            lines.append(f"### `{e.name}` — {e.cls.__qualname__}\n")
            lines.append(f"{e.summary}\n")
            lines.append(f"* **Spec**: `{e.template()}`")
            lines.append(f"* **Paper anchor**: {e.theorem or '—'}")
            lines.append(
                f"* **Capabilities**: {_flag_cell(e.capabilities)} "
                f"(replication: {e.capabilities.replication_factor})"
            )
            if e.instance_capabilities is not None:
                lines.append(
                    "* **Note**: capabilities specialize per instance "
                    "(delegating wrapper)."
                )
            if e.sweep is not None:
                gate = " (ablation-gated)" if e.sweep.ablation else ""
                lines.append(
                    f"* **Figure-3 sweep**: position {e.sweep.order}{gate}"
                )
            if e.params:
                lines.append("")
                lines.append("| parameter | type | default | description |")
                lines.append("|---|---|---|---|")
                lines.extend(_param_rows(e))
            lines.append("")

    lines.append(_OVERLAPS)
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: write or verify the generated catalog."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.strategy_docs",
        description="Generate docs/strategies.md from the strategy registry.",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("docs/strategies.md"),
        help="catalog path (default: docs/strategies.md)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the checked-in catalog matches the registry; do not write",
    )
    args = parser.parse_args(argv)
    content = render_catalog()
    if args.check:
        on_disk = args.output.read_text(encoding="utf-8") if args.output.exists() else ""
        if on_disk != content:
            print(
                f"{args.output}: stale — regenerate with "
                "`python -m repro.tools.strategy_docs`",
                file=sys.stderr,
            )
            return 1
        print(f"strategy catalog: OK ({args.output})")
        return 0
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(content, encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
