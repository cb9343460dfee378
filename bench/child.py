"""Child-process entry points of the benchmark (one fresh process each).

``python3 bench/child.py setup WORKLOAD SEED [--smoke]``
    Import ``repro``, build the workload's inputs, print ``READY`` and
    exit: one set-up sample.
``python3 bench/child.py grid WORKLOAD SEED BUDGET_S [--smoke] [--trace]``
    Set up as above, then run sweeps back to back (a closed loop) until
    ``BUDGET_S`` has passed, and print ``RESULT`` with per-sweep timings
    and correctness findings.  With ``--trace`` sweeps come in pairs over
    the same inputs, one with the layer shims installed and one without.
``python3 bench/child.py repro OUT ARGS...``
    Run ``python -m repro ARGS...`` with the layer shims installed (each
    SIGUSR1 removes or restores them); when it returns, write the tallies
    to ``OUT.json`` and the spans to ``OUT.spans.jsonl``.

Every line the parent parses starts with ``READY `` or ``RESULT `` and
carries one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import time
from pathlib import Path

import layers
import speed

SRC = Path.cwd() / "src"

#: ``repro sweep --family --n --m --alpha`` of the ``cli_resweep`` workload.
CLI_INSTANCE = ("uniform", 200, 30, 1.5)

#: Memory-family strategies of the ``memory_sweep`` workload: one per
#: plan tier plus the kernel fallbacks (``abo[...,barrier]`` and
#: ``refined[...]`` always take the event kernel).
MEMORY_STRATEGIES = (
    "sabo[delta=1]",
    "abo[delta=1]",
    "abo[delta=1,barrier]",
    "capped[C=1000]",
    "robust_pinned",
    "risk_aware[0.5]",
    "selective[0.25,count]",
    "nonclairvoyant_ls[shuffle=1]",
    "overlap_windows[k=5,w=2]",
    "refined[ls_group[k=5],eta=0.5]",
)


class Sweeps:
    """A workload's stream of sweeps; sweep ``j`` has its own inputs.

    Each sweep runs one :class:`~repro.analysis.ExperimentGrid` per
    machine count (strategy lists depend on ``m``).  Sweep ``j`` uses
    realization seeds ``seed*1000 + j*per_sweep + i``, so a run that
    gets through more sweeps averages over more inputs.
    """

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        from repro.registry import full_sweep, make_strategy
        from repro.workloads.generators import generate
        from repro.workloads.suites import medium_suite, memory_suite

        self.seed = seed
        self.exact_limit = 22
        self.strategies = full_sweep
        if workload == "replication_sweep":
            fixed = [c.instance for c in medium_suite(seeds=1)]
            self.models = ["log_uniform", "bimodal_extreme"]
            self.per_sweep = 6
            if smoke:
                fixed, self.per_sweep = fixed[::6], 1
            self.instances = lambda j: fixed
        elif workload == "exact_sweep":
            # E1's exact grid where branch-and-bound does the work: m = 2
            # goes to the partition DP and n <= 12 costs nothing, while
            # these families have the steadiest per-solve cost.  Solve
            # cost depends on the instance, so every sweep draws its own.
            shapes = [
                (family, n, m, alpha)
                for family in ("uniform", "identical")
                for n in ((14,) if smoke else (14, 15))
                for m in (3, 4)
                for alpha in (1.5, 2.0)
            ]
            self.models = ["log_uniform"]
            self.per_sweep = 1
            self.instances = lambda j: [generate(*shape, seed * 1000 + j) for shape in shapes]
        elif workload == "memory_sweep":
            fixed = [c.instance for c in memory_suite(seeds=1)]
            self.models = ["log_uniform"]
            self.per_sweep = 4 if smoke else 40
            self.exact_limit = 0
            built = [make_strategy(s) for s in MEMORY_STRATEGIES]
            self.strategies = lambda m: built
            self.instances = lambda j: fixed
        else:
            raise SystemExit(f"unknown grid workload {workload!r}")
        #: Realization groups (instance, model, seed) per sweep: the
        #: number of distinct optima a sweep needs.
        self.groups = len(self.instances(0)) * len(self.models) * self.per_sweep

    def grids(self, j: int) -> list:
        """Sweep ``j``'s inputs: one grid per machine count."""
        from repro.analysis import ExperimentGrid

        by_m: dict[int, list] = {}
        for inst in self.instances(j):
            by_m.setdefault(inst.m, []).append(inst)
        seeds = [self.seed * 1000 + j * self.per_sweep + i for i in range(self.per_sweep)]
        return [
            ExperimentGrid(
                strategies=self.strategies(m),
                instances=insts,
                realization_models=self.models,
                seeds=seeds,
                exact_limit=self.exact_limit,
            )
            for m, insts in sorted(by_m.items())
        ]


def sweep(grids: list) -> tuple[list, list, int]:
    """Run one sweep's grids; returns (records, skipped cells, cells)."""
    records: list = []
    skipped: list = []
    for grid in grids:
        records.extend(grid.run())
        skipped.extend(grid.skipped)
    return records, skipped, sum(grid.total_cells() for grid in grids)


def digest(records: list) -> str:
    """SHA-256 of the canonical JSON of a record list."""
    payload = json.dumps(
        [r.to_cache_dict() for r in records], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def check(records: list, skipped: list) -> list[str]:
    """Correctness findings for one sweep (empty when all is well)."""
    problems = [f"skipped cell: {s}" for s in skipped]
    problems += [
        f"exact ratio above guarantee: {r.strategy} on {r.instance_name} seed {r.seed}"
        for r in records
        if r.optimum_exact and r.within_guarantee is False
    ]
    return problems


def _import_repro(extra: str) -> float:
    """Import ``repro`` (and ``extra``) from the checkout; returns seconds."""
    start = time.perf_counter()
    import importlib

    import repro

    importlib.import_module(extra)
    if Path(repro.__file__).resolve() != (SRC / "repro" / "__init__.py").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")
    return time.perf_counter() - start


def _emit(tag: str, payload: dict) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def _setup(workload: str, seed: int, smoke: bool) -> tuple[dict, object]:
    if workload == "cli_resweep":
        import_s = _import_repro("repro.cli")
        start = time.perf_counter()
        from repro.registry import full_sweep
        from repro.workloads.generators import generate

        # What `repro sweep` builds from the cli_resweep workload's flags.
        family, n, m, alpha = CLI_INSTANCE
        inputs = (generate(family, n, m, alpha, seed), full_sweep(m))
    else:
        import_s = _import_repro("repro.analysis")
        start = time.perf_counter()
        inputs = Sweeps(workload, seed, smoke)
    timing = {"import_s": import_s, "inputs_s": time.perf_counter() - start}
    if isinstance(inputs, Sweeps):
        timing["groups"] = inputs.groups
    return timing, inputs


def grid_main(workload: str, seed: int, budget: float, smoke: bool, trace: bool) -> None:
    timing, sweeps = _setup(workload, seed, smoke)
    _emit("READY", timing)
    tracer = layers.Tracer()
    clock = speed.Clock()
    rows: list[list] = []  # [sweep index, cells, wall_s, traced, speed factor]
    problems: list[str] = []
    first_digest = ""
    digests: list[str] = []
    failed = attempted = 0
    deadline = time.perf_counter() + budget
    j = 0
    while True:
        began = time.perf_counter()
        # Traced runs repeat each sweep's inputs with and without shims,
        # alternating which goes first, so the pair measures the overhead.
        order = ((False, True) if j % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            if traced:
                tracer.run_id = j
                tracer.install()
            grids = sweeps.grids(j)
            start = time.perf_counter()
            try:
                records, skipped, cells = sweep(grids)
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            rows.append([j, cells, wall, traced, clock.factor()])
            found = check(records, skipped)
            if trace:
                # Tracing is read-only: both halves of a pair must agree.
                digests.append(digest(records))
                if len(digests) % 2 == 0 and digests[-1] != digests[-2]:
                    found.append(f"records of sweep {j} differ with the shims installed")
            attempted += cells
            failed += len(found)
            problems.extend(found[: max(0, 20 - len(problems))])
            if j == 0 and not first_digest:
                first_digest = digest(records)
        j += 1
        # Stop when another round would overrun the budget; a traced run
        # needs two pairs (the first pays first-call costs).
        now = time.perf_counter()
        if j >= (2 if trace else 1) and now + (now - began) > deadline:
            break
    if trace:
        tracer.write_spans(Path(".bench_run") / "spans" / f"{workload}-seed{seed}-grid.spans.jsonl")
    _emit(
        "RESULT",
        {
            "sweeps": rows,
            "digest": first_digest,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "tallies": tracer.snapshot(),
        },
    )


def repro_main(out_prefix: str, argv: list[str]) -> int:
    import_s = _import_repro("repro.cli")
    from repro.cli import main

    tracer = layers.Tracer()
    tracer.install()
    # SIGUSR1 toggles the shims, so one process can be measured with and
    # without them (the service's trace overhead).
    signal.signal(signal.SIGUSR1, lambda *_: tracer.uninstall() if tracer.installed else tracer.install())
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
        out = Path(out_prefix)
        tracer.write_spans(out.with_name(out.name + ".spans.jsonl"))
        out.with_name(out.name + ".json").write_text(
            json.dumps({"import_s": import_s, "tallies": tracer.snapshot()}), encoding="utf-8"
        )
    return code or 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "repro":
        return repro_main(argv[1], argv[2:])
    flags = {a for a in argv if a.startswith("--")}
    args = [a for a in argv[1:] if not a.startswith("--")]
    smoke = "--smoke" in flags
    if mode == "setup":
        timing, _ = _setup(args[0], int(args[1]), smoke)
        _emit("READY", timing)
        return 0
    if mode == "grid":
        grid_main(args[0], int(args[1]), float(args[2]), smoke, "--trace" in flags)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
