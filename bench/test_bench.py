"""Self-test of the benchmark at smoke sizes: ``python -m pytest bench -q``.

Runs all five workloads once untraced and once traced (the two runs at
once, so the test takes about twenty seconds) and checks what a caller
of the benchmark relies on: every metric of ``BENCHMARK.json`` printed with its
unit, a final JSON line, every correctness check passing (record digests,
the cold/warm table, zero-drop service, an unchanged repository) and every
layer shim seeing the calls its workload should make.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def runs() -> dict[int, tuple[int, list[str]]]:
    """Untraced and traced smoke runs of every workload: (exit code, lines)."""
    procs = {
        trace: subprocess.Popen(
            [sys.executable, "bench/run.py", "--smoke", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        for trace in (0, 1)
    }
    return {trace: (proc.wait(timeout=300), proc.stdout.read().strip().splitlines()) for trace, proc in procs.items()}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, trace, section):
    code, lines = runs[trace]
    summary = json.loads(lines[-1])
    assert code == 0, "\n".join(lines)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert not [line for line in lines if "FAILED" in line]
    printed = {tuple(line.split()[:2]): line.split()[-1] for line in lines[:-1]}
    for workload in workloads.WORKLOADS:
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            assert printed[(f"{workload}:", name)] == unit
            entry = summary["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            if section == "end_to_end":
                assert entry["value"] > 0


def test_a_layer_without_calls_names_its_shim():
    tallies = {"simulation.batch": layers.Tally(calls=3, self_s=0.1, wall_s=0.1)}
    _, problems, _ = workloads.layer_metrics("memory_sweep", tallies, 1, {})
    assert any("repro.analysis.ratios.simulate" in p for p in problems)
    assert not any("simulation.batch" in p for p in problems)


def test_refuses_to_run_outside_a_checkout():
    bare = ROOT / ".bench_run" / "bare"  # only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "exact_sweep", "--seed", "0",
             "--seconds", "15", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
