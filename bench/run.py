"""The repository benchmark: five workloads, measured from outside.

Run from the root of a checkout::

    python3 bench/run.py                      # all five workloads
    python3 bench/run.py --workload exact_sweep --seed 3 --seconds 15
    python3 bench/run.py --traced             # per-layer pass (--trace 1)
    python3 bench/run.py --smoke              # tiny sizes, for the self-test

One workload prints its findings, every metric with its unit, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` the per-layer ones.  The exit code is 0
when every correctness check passed, 1 when one failed, 2 when the
directory is not a checkout with ``src/repro``.

The run must leave the repository as it found it: the files a user's own
sweeps and benches write (``.repro-store/``, ``results/``,
``BENCH_perf.json``) are hashed before and after, and any change fails
the run.  Scratch files live under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
#: Paths a benchmark run must not change.
WATCHED = (".repro-store", "results", "BENCH_perf.json")


def fingerprint(root: Path) -> str:
    """SHA-256 over the names and bytes of every watched file."""
    digest = hashlib.sha256()
    for name in WATCHED:
        path = root / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(root)).encode())
            digest.update(file.read_bytes() if file.is_file() else b"<absent>")
    return digest.hexdigest()


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                        help="one workload (default: all five, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer pass instead of the end-to-end metrics")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample (self-test sizes)")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, spec: dict) -> int:
    section = spec["per_layer" if args.trace else "end_to_end"]
    tmp = ROOT / ".bench_run" / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    ctx = workloads.Ctx(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, tmp)
    before = fingerprint(ROOT)
    try:
        outcome = workloads.run(args.workload, ctx)
    except (workloads.ChildFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"{args.workload}: FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if fingerprint(ROOT) != before:
        outcome.problems.append(f"the run changed {', '.join(WATCHED)}")
    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    for problem in outcome.problems:
        print(f"{args.workload}: CHECK FAILED: {problem}")
    metrics = {}
    for metric in section:
        value = outcome.metrics[metric["name"]]
        print(f"{args.workload}: {metric['name']:34s} {value:14.6g} {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not outcome.problems
    failed = outcome.failed if correct else max(1, outcome.failed)
    print(json.dumps({"correct": correct, "attempted": max(1, outcome.attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own ``run.py`` process; one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print("\n".join(lines))
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a repro checkout (no src/repro)", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # children and the service socket use checkout-relative paths
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if args.workload is None:
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
