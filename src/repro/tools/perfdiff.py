"""Markdown diff of two perfbench result files, for CI step summaries.

``repro.tools.perfbench --check`` is the *gate*: it fails the build when
the fresh run misses one of its objectives.  This module is the
*report*: given the committed ``BENCH_perf.json`` baseline and a freshly
measured file, it renders a GitHub-flavoured markdown table of scenario
medians and derived ratios so the perf-smoke job's step summary shows
**what moved**, not just pass/fail.  CI appends the output to
``$GITHUB_STEP_SUMMARY``::

    python -m repro.tools.perfdiff BENCH_perf.json /tmp/BENCH_perf.fresh.json

Scenarios present on only one side are reported as *new* / *removed*
rather than erroring, so the summary stays useful on the very PR that
introduces a scenario.  The tool never fails the build: exit code is 0
whenever both files parse (2 on unreadable input).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path

__all__ = ["diff_markdown", "main"]

# Flag a scenario row when its fresh median drifts more than this factor
# from the baseline — purely cosmetic (the enforced objectives live in
# perfbench.objectives), but it makes the summary scannable.
DRIFT_FLAG = 0.30


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "—"
    if value < 1e-3:
        return f"{value * 1e6:.0f} µs"
    if value < 1.0:
        return f"{value * 1e3:.2f} ms"
    return f"{value:.3f} s"


def _fmt_derived(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return f"{value:.3f}"
    return json.dumps(value, sort_keys=True)


def _median(block: Mapping[str, object] | None) -> float | None:
    if isinstance(block, Mapping):
        value = block.get("median_s")
        if isinstance(value, (int, float)):
            return float(value)
    return None


def _scenario_rows(
    baseline: Mapping[str, object], fresh: Mapping[str, object]
) -> list[str]:
    base_sc = baseline.get("scenarios", {})
    fresh_sc = fresh.get("scenarios", {})
    names = sorted(set(base_sc) | set(fresh_sc))
    rows = []
    for name in names:
        old = _median(base_sc.get(name))
        new = _median(fresh_sc.get(name))
        if old is None:
            note = "🆕 new scenario"
        elif new is None:
            note = "removed"
        else:
            ratio = new / old if old > 0 else float("inf")
            note = f"{ratio:.2f}x"
            if ratio > 1.0 + DRIFT_FLAG:
                note += " ⚠️ slower"
            elif ratio < 1.0 - DRIFT_FLAG:
                note += " 🚀 faster"
        rows.append(f"| `{name}` | {_fmt_seconds(old)} | {_fmt_seconds(new)} | {note} |")
    return rows


def _derived_rows(
    baseline: Mapping[str, object], fresh: Mapping[str, object]
) -> list[str]:
    base_d = baseline.get("derived", {})
    fresh_d = fresh.get("derived", {})
    rows = []
    for key in sorted(set(base_d) | set(fresh_d)):
        old = base_d.get(key)
        new = fresh_d.get(key)
        if isinstance(old, Mapping) or isinstance(new, Mapping):
            continue  # nested blobs (tracer call counts) don't table well
        mark = "" if old == new or old is None or new is None else " ±"
        rows.append(
            f"| `{key}` | {_fmt_derived(old) if key in base_d else '—'} "
            f"| {_fmt_derived(new) if key in fresh_d else '—'} |{mark}"
        )
    return rows


def diff_markdown(
    baseline: Mapping[str, object], fresh: Mapping[str, object]
) -> str:
    """Render the baseline-vs-fresh comparison as a markdown document."""
    lines = ["## Perf bench: fresh vs committed baseline", ""]
    base_host = baseline.get("host", {})
    fresh_host = fresh.get("host", {})
    lines.append(
        f"Baseline `{base_host.get('git_describe', '?')}` → "
        f"fresh `{fresh_host.get('git_describe', '?')}` "
        f"(repeats={fresh.get('repeats', '?')})"
    )
    lines += ["", "| scenario | baseline median | fresh median | fresh/baseline |"]
    lines.append("|---|---:|---:|---|")
    lines += _scenario_rows(baseline, fresh)
    lines += ["", "| derived | baseline | fresh |", "|---|---:|---:|"]
    lines += _derived_rows(baseline, fresh)
    lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; prints markdown, returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_perf.json")
    parser.add_argument("fresh", type=Path, help="freshly measured results file")
    args = parser.parse_args(argv)
    try:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfdiff: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    print(diff_markdown(baseline, fresh))
    return 0


if __name__ == "__main__":
    sys.exit(main())
