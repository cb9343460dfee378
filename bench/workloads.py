"""The five workloads, driven from outside: spawn, time, check, summarize.

Every workload runs the program in fresh child processes and measures it
from here.  ``run(name, ctx)`` returns an :class:`Outcome` whose
``metrics`` holds the end-to-end metrics (``ctx.trace`` false) or the
per-layer metrics (``ctx.trace`` true), keyed by the names in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import child
import layers
import loadgen
import speed

PY = sys.executable
#: Set-up samples per run (their median is ``setup_s``).
SETUPS = 3
#: Per-child time limit beyond its measuring budget.
GRACE_S = 60.0

WORKLOADS = (
    "replication_sweep",
    "exact_sweep",
    "memory_sweep",
    "cli_resweep",
    "service_open_loop",
)

#: Layers that must see calls on each workload's traced run.  A layer at
#: zero here means a call site moved and the shim no longer sees it.
EXPECTED_LAYERS = {
    "replication_sweep": (
        "exact.optimum", "simulation.batch", "simulation.plan",
        "uncertainty.realize", "analysis.cell",
    ),
    "exact_sweep": (
        "exact.optimum", "simulation.batch", "simulation.plan",
        "uncertainty.realize", "analysis.cell",
    ),
    "memory_sweep": (
        "exact.optimum", "simulation.batch", "simulation.plan", "simulation.kernel",
        "registry.phase1", "uncertainty.realize", "analysis.cell",
    ),
    "cli_resweep": ("analysis.cache.probe", "analysis.cache.store", "analysis.pool"),
    "service_open_loop": ("service.admit", "service.place", "service.dispatch", "service.read"),
}

#: ``repro sweep`` arguments of the ``cli_resweep`` workload (the CI
#: form, ``--workers 2``); ``--seed`` and ``--cache-dir`` are per run.
_FAMILY, _N, _M, _ALPHA = child.CLI_INSTANCE
CLI_ARGS = ("--family", _FAMILY, "--n", str(_N), "--m", str(_M), "--alpha", str(_ALPHA), "--workers", "2")
CLI_SEEDS = 40
CLI_SMOKE_SEEDS = 4
_CACHE_LINE = re.compile(r"cell cache: (\d+) hits / (\d+) misses")


class ChildFailed(RuntimeError):
    """A child process exited badly or printed nothing parseable."""


@dataclass
class Ctx:
    """One benchmark run: where, which inputs, how long, which pass."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    tmp: Path
    children: list[subprocess.Popen] = field(default_factory=list)
    clock: speed.Clock = field(default_factory=speed.Clock)

    @property
    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.tmp)
        return env

    @property
    def setups(self) -> int:
        """Set-up samples to take (the traced pass reports none)."""
        if self.trace:
            return 0
        return 1 if self.smoke else SETUPS

    def spawn(self, argv: list[str], name: str) -> subprocess.Popen:
        """Start a child in the checkout; stderr goes to a log under tmp."""
        log = (self.tmp / f"{name}.err").open("w")
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=log, text=True
        )
        log.close()
        proc.log_name = name  # type: ignore[attr-defined]
        self.children.append(proc)
        return proc

    def trace_out(self, name: str) -> Path:
        """Where a shimmed ``repro`` process writes its tallies and spans."""
        out = self.root / ".bench_run" / "spans" / f"{self.workload}-seed{self.seed}-{name}"
        out.parent.mkdir(parents=True, exist_ok=True)
        return out

    def stderr_tail(self, proc: subprocess.Popen) -> str:
        path = self.tmp / f"{proc.log_name}.err"  # type: ignore[attr-defined]
        lines = path.read_text(errors="replace").strip().splitlines() if path.exists() else []
        return " | ".join(lines[-5:])

    def stop_all(self) -> None:
        """Kill whatever is still running and reap every child."""
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout:
                proc.stdout.close()


@dataclass
class Outcome:
    """A workload run's metrics, operation counts and findings."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]


class Watchdog:
    """Kills ``proc`` if it is still running after ``seconds``."""

    def __init__(self, proc: subprocess.Popen, seconds: float) -> None:
        self.timer = threading.Timer(seconds, proc.kill)

    def __enter__(self) -> "Watchdog":
        self.timer.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.timer.cancel()


def read_tagged(ctx: Ctx, proc: subprocess.Popen, tag: str) -> dict:
    """The JSON payload of the child's next ``TAG {...}`` line."""
    assert proc.stdout is not None
    for line in proc.stdout:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1 :])
    proc.wait()
    raise ChildFailed(f"{proc.log_name} exited {proc.returncode} before {tag}: {ctx.stderr_tail(proc)}")


def finish(ctx: Ctx, proc: subprocess.Popen, timeout: float = GRACE_S) -> str:
    """Wait for a child; returns the rest of its stdout, raises on failure."""
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise ChildFailed(f"{proc.log_name} exited {proc.returncode}: {ctx.stderr_tail(proc)}")
    return out


def peak_rss_mb() -> float:
    """Largest resident set among the children reaped so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def smoke_flag(ctx: Ctx) -> list[str]:
    return ["--smoke"] if ctx.smoke else []


def setup_sample(ctx: Ctx, workload: str, i: int) -> float:
    """Spawn a child that only sets up; seconds from spawn to ready."""
    start = time.perf_counter()
    proc = ctx.spawn([PY, "bench/child.py", "setup", workload, str(ctx.seed), *smoke_flag(ctx)], f"setup{i}")
    with Watchdog(proc, GRACE_S):
        read_tagged(ctx, proc, "READY")
        ready = time.perf_counter() - start
        finish(ctx, proc)
    return ready * ctx.clock.factor()


# -- grid workloads ---------------------------------------------------------


def grid_workload(ctx: Ctx, workload: str) -> Outcome:
    # The sweeping child is the last set-up sample.
    setups = [setup_sample(ctx, workload, i) for i in range(ctx.setups - 1)]
    start = time.perf_counter()
    argv = [PY, "bench/child.py", "grid", workload, str(ctx.seed), str(ctx.seconds), *smoke_flag(ctx)]
    proc = ctx.spawn(argv + (["--trace"] if ctx.trace else []), "grid")
    with Watchdog(proc, ctx.seconds + GRACE_S):
        ready = read_tagged(ctx, proc, "READY")
        setups.append((time.perf_counter() - start) * ctx.clock.factor())
        result = read_tagged(ctx, proc, "RESULT")
        finish(ctx, proc)
    problems = list(result["problems"])
    problems += digest_problems(ctx, workload, result["digest"])
    sweeps = result["sweeps"]
    notes = [
        f"{len(sweeps)} sweeps, {result['attempted']} cells; median sweep "
        f"{statistics.median(s[2] for s in sweeps):.3f} s as measured, host speed factor "
        f"{statistics.median(s[4] for s in sweeps):.3f}"
    ]
    if ctx.trace:
        traced = [s for s in sweeps if s[3]]
        tallies = layers.merge([result["tallies"]])
        metrics, more, note = layer_metrics(workload, tallies, len(traced), ready)
        metrics["obs.trace_overhead_frac"] = pair_overhead(sweeps)
        problems += more
        notes.append(note)
    else:
        # Medians over sweeps: a burst of outside load slows a few
        # sweeps, not the median.
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(s[1] / (s[2] * s[4]) for s in sweeps),
            "latency_p50_ms": statistics.median(s[2] * s[4] for s in sweeps) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    return Outcome(metrics, result["attempted"], result["failed"], problems, notes)


def pair_overhead(sweeps: list[list]) -> float:
    """Median traced / untraced wall over same-input pairs, minus one.

    The first pair is dropped when there are others: its untraced sweep
    pays the process's first-call costs.
    """
    by_index: dict[int, dict[bool, float]] = {}
    for j, _cells, wall, traced, factor in sweeps:
        by_index.setdefault(j, {})[traced] = wall * factor
    ratios = [p[True] / p[False] for p in by_index.values() if len(p) == 2]
    return statistics.median(ratios[1:] or ratios) - 1.0


def digest_problems(ctx: Ctx, workload: str, got: str) -> list[str]:
    """Seed 0's first sweep must reproduce the committed record digest."""
    if ctx.seed != 0:
        return []
    table = json.loads((ctx.root / "bench" / "digests.json").read_text())
    want = table.get(workload, {}).get("smoke" if ctx.smoke else "full")
    if want == got:
        return []
    return [f"record digest of {workload} at seed 0 is {got}, committed {want}"]


# -- layer metrics ----------------------------------------------------------


def layer_metrics(
    workload: str, tallies: dict[str, layers.Tally], units: int, ready: dict
) -> tuple[dict[str, float], list[str], str]:
    """Per-layer metrics per unit of work (a traced sweep or pair).

    Also runs the two trace validity checks: every layer the workload
    should stress saw calls, and self times telescope to the root wall.
    Returns the metrics, the failed checks and a one-line share summary.
    """
    units = max(1, units)
    t = {name: tallies.get(name, layers.Tally()) for name in {s[0] for s in layers.SHIMS}}

    def per(value: float) -> float:
        return value / units

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    opt, batch, plan = t["exact.optimum"], t["simulation.batch"], t["simulation.plan"]
    probe, pool, root = t["analysis.cache.probe"], t["analysis.pool"], t[layers.ROOT]
    metrics = {
        "exact.optimum.calls": per(opt.calls),
        "exact.optimum.busy_s": per(opt.self_s),
        "exact.optimum.exact_frac": frac(opt.hits, opt.calls),
        "exact.optimum.calls_per_group": frac(opt.calls, units * ready.get("groups", 0)),
        "simulation.batch.calls": per(batch.calls),
        "simulation.batch.busy_s": per(batch.self_s),
        "simulation.batch.rows": per(batch.rows),
        "simulation.plan.calls": per(plan.calls),
        "simulation.plan.busy_s": per(plan.self_s),
        "simulation.plan.refused": per(plan.hits),
        "analysis.cell.busy_s": per(t["analysis.cell"].self_s),
        "analysis.cache.probe.calls": per(probe.calls),
        "analysis.cache.probe.busy_s": per(probe.self_s),
        "analysis.cache.probe.hit_frac": frac(probe.hits, probe.calls),
        "analysis.cache.store.calls": per(t["analysis.cache.store"].calls),
        "analysis.cache.store.busy_s": per(t["analysis.cache.store"].self_s),
        "analysis.cache.bytes": 0.0,
        "analysis.pool.calls": per(pool.calls),
        "analysis.pool.wall_s": per(pool.wall_s),
        "analysis.pool.busy_s": per(pool.busy_s),
        "analysis.pool.efficiency": frac(pool.busy_s, pool.capacity_s),
        "setup.import_s": ready.get("import_s", 0.0),
        "setup.inputs_s": ready.get("inputs_s", 0.0),
        "service.dedup_frac": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "grid.unattributed_s": per(root.self_s),
    }
    for layer in ("simulation.kernel", "registry.phase1", "uncertainty.realize",
                  "service.admit", "service.place", "service.dispatch", "service.read"):
        metrics[f"{layer}.calls"] = per(t[layer].calls)
        metrics[f"{layer}.busy_s"] = per(t[layer].self_s)

    busy = {name: x.self_s for name, x in t.items() if name != layers.ROOT and x.self_s > 0}
    if root.wall_s:
        note = "share of in-process sweep time: " + ", ".join(
            f"{name} {share / root.wall_s:.0%}" for name, share in sorted(busy.items(), key=lambda kv: -kv[1])
        )
    else:
        note = "busy time: " + ", ".join(f"{name} {share:.3f}s" for name, share in sorted(busy.items(), key=lambda kv: -kv[1]))
    problems = []
    for layer in EXPECTED_LAYERS[workload]:
        if t[layer].calls == 0:
            shims = ", ".join(f"{m}.{a}" for name, m, a in layers.SHIMS if name == layer)
            problems.append(f"shim coverage: layer {layer} ({shims}) saw no calls on {workload}")
    self_total = sum(x.self_s for x in t.values())
    if root.calls and abs(self_total - root.wall_s) > 0.01 * root.wall_s:
        problems.append(
            f"self times sum to {self_total:.4f}s but the sweeps took {root.wall_s:.4f}s"
        )
    return metrics, problems, note


# -- cli_resweep ------------------------------------------------------------


def cli_workload(ctx: Ctx) -> Outcome:
    setups = [setup_sample(ctx, "cli_resweep", i) for i in range(ctx.setups)]
    seeds = CLI_SMOKE_SEEDS if ctx.smoke else CLI_SEEDS
    base = ["sweep", *CLI_ARGS, "--seed", str(ctx.seed), "--seeds", str(seeds)]
    pairs: list[tuple[float, float, int, bool]] = []  # cold_s, warm_s, cells, traced
    raw: list[tuple[float, float]] = []  # cold_s, warm_s as measured
    tallies: list[dict] = []
    imports: list[float] = []
    store_bytes: list[int] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + ctx.seconds
    while True:
        # Traced runs alternate plain and shimmed pairs for the overhead.
        traced = ctx.trace and len(pairs) % 2 == 1
        cache = ctx.tmp / f"cache{len(pairs)}"
        runs = []
        for phase in ("cold", "warm"):
            argv = [*base, "--cache-dir", str(cache.relative_to(ctx.root))]
            trace_out = ctx.trace_out(f"{phase}{len(pairs)}")
            if traced:
                argv = [PY, "bench/child.py", "repro", str(trace_out), *argv]
            else:
                argv = [PY, "-m", "repro", *argv]
            start = time.perf_counter()
            proc = ctx.spawn(argv, f"{phase}{len(pairs)}")
            with Watchdog(proc, GRACE_S):
                out = finish(ctx, proc)
            runs.append((time.perf_counter() - start, ctx.clock.factor(), out))
            if traced:
                payload = json.loads(trace_out.with_name(trace_out.name + ".json").read_text())
                tallies.append(payload["tallies"])
                imports.append(payload["import_s"])
            if phase == "cold":
                store_bytes.append(sum(f.stat().st_size for f in cache.rglob("*") if f.is_file()))
        shutil.rmtree(cache, ignore_errors=True)
        (cold_s, cold_f, cold_out), (warm_s, warm_f, warm_out) = runs
        cells, found = check_resweep(cold_out, warm_out)
        attempted += 2 * cells
        failed += 2 * cells if found else 0
        problems.extend(found)
        raw.append((cold_s, warm_s))
        pairs.append((cold_s * cold_f, warm_s * warm_f, cells, traced))
        left = deadline - time.perf_counter()
        if left < cold_s + warm_s and (not ctx.trace or len(pairs) >= 2):
            break
    notes = [
        f"{len(pairs)} cold+warm pairs of {pairs[0][2]} cells; as measured, cold "
        + " ".join(f"{c:.2f}" for c, _ in raw) + " s, warm " + " ".join(f"{w:.2f}" for _, w in raw) + " s"
    ]
    if ctx.trace:
        plain = [p for p in pairs if not p[3]]
        shimmed = [p for p in pairs if p[3]]
        merged = layers.merge(tallies)
        ready = {"import_s": statistics.median(imports), "groups": seeds}
        metrics, more, note = layer_metrics("cli_resweep", merged, len(shimmed), ready)
        notes.append(note)
        metrics["analysis.cache.bytes"] = float(statistics.median(store_bytes))
        metrics["obs.trace_overhead_frac"] = (
            statistics.median(p[0] + p[1] for p in shimmed) / statistics.median(p[0] + p[1] for p in plain) - 1.0
        )
        problems += more
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(2 * p[2] / (p[0] + p[1]) for p in pairs),
            "latency_p50_ms": statistics.median(p[1] for p in pairs) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    return Outcome(metrics, attempted, failed, problems, notes)


def check_resweep(cold: str, warm: str) -> tuple[int, list[str]]:
    """Cells swept, and what is wrong with a cold/warm pair of outputs."""
    problems = []
    cold_cache = _CACHE_LINE.search(cold)
    warm_cache = _CACHE_LINE.search(warm)
    if not cold_cache or not warm_cache:
        return 0, ["repro sweep printed no cell-cache line"]
    cold_hits, cells = map(int, cold_cache.groups())
    warm_hits, warm_misses = map(int, warm_cache.groups())
    if cold_hits:
        problems.append(f"cold sweep hit {cold_hits} cells in a fresh store")
    if warm_misses or warm_hits != cells:
        problems.append(f"warm resweep: {warm_hits} hits / {warm_misses} misses of {cells} cells")
    if cold.split("\ncell cache:")[0] != warm.split("\ncell cache:")[0]:
        problems.append("warm resweep printed a different ratio table than the cold sweep")
    if "quarantined" in cold + warm:
        problems.append("repro sweep quarantined cells")
    return cells, problems


# -- service_open_loop ------------------------------------------------------


def pin(proc: subprocess.Popen) -> None:
    """Give the daemon a CPU of its own when there are two or more.

    The generator and the single-threaded daemon otherwise share CPUs at
    the scheduler's whim, which makes latency bimodal run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(proc.pid, {cpus[-1]})
        os.sched_setaffinity(0, set(cpus[:-1]))


def start_daemon(ctx: Ctx, sock: str, name: str, out: Path | None = None) -> tuple[subprocess.Popen, float]:
    """Start ``repro serve`` (shimmed when ``out`` is given); seconds to ready."""
    argv = ["serve", "--socket", sock]
    if out is None:
        argv = [PY, "-m", "repro", *argv]
    else:
        argv = [PY, "bench/child.py", "repro", str(out), *argv]
    start = time.perf_counter()
    proc = ctx.spawn(argv, name)
    pin(proc)
    assert proc.stdout is not None
    with Watchdog(proc, GRACE_S):
        line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line.startswith("repro service listening"):
        proc.wait()
        raise ChildFailed(f"{name} did not start: {ctx.stderr_tail(proc)}")
    return proc, ready * ctx.clock.factor()


def stop_daemon(ctx: Ctx, proc: subprocess.Popen, sock: str) -> dict:
    """``POST /v1/shutdown`` and wait; returns the daemon's final stats."""
    conn = loadgen.Connection(sock)
    try:
        status, body = conn.request("POST", "/v1/shutdown", close=True)
    finally:
        conn.close()
    finish(ctx, proc)
    if status != 200:
        raise ChildFailed(f"shutdown answered {status}")
    return json.loads(body)


@dataclass
class Daemon:
    """One daemon's life under load: its phases and its final stats."""

    phases: list[loadgen.PhaseResult] = field(default_factory=list)
    windows: list[float] = field(default_factory=list)  # saturation rps, corrected
    plain_windows: list[float] = field(default_factory=list)  # the same, shims removed
    window_p50: list[float] = field(default_factory=list)  # request p50 s, corrected
    stats: dict = field(default_factory=dict)

    def problems(self) -> list[str]:
        """Zero-error, zero-drop and dedup checks against the final stats."""
        out = [f"{r.errors} failed requests, statuses {r.statuses}" for r in self.phases if r.errors]
        created = sum(r.created for r in self.phases)
        dedup = sum(r.deduplicated for r in self.phases)
        stats = self.stats
        if stats["admitted"] != stats["done"]:
            out.append(f"daemon finished {stats['done']} of {stats['admitted']} admitted tasks")
        if stats["admitted"] != created or stats["deduplicated"] != dedup:
            out.append(
                f"daemon admitted {stats['admitted']} / deduplicated {stats['deduplicated']}, "
                f"generator saw {created} created / {dedup} deduplicated"
            )
        if stats.get("shed"):
            out.append(f"daemon shed {stats['shed']} admissions")
        return out


def drive(
    ctx: Ctx, proc: subprocess.Popen, sock: str, rng: random.Random,
    open_s: tuple[float, float], saturate_s: float, toggle: bool = False,
) -> Daemon:
    """Closed-loop saturation, open loop at 500 then 1000 rps, shutdown.

    Saturation runs first, on a fresh daemon, in 0.5-s windows whose
    rates are kept separately; ``open_s`` gives the two open-loop phase
    lengths.  With ``toggle`` (a shimmed daemon) every other window runs
    with the shims removed, and they are back for the open loop.
    """
    run = Daemon()
    acked: list[int] = []
    conns = [loadgen.Connection(sock) for _ in range(loadgen.CONNECTIONS)]
    windows = max(1, round(saturate_s / 0.5))
    if toggle:
        windows += windows % 2
    try:
        for i in range(windows):
            if toggle and i:
                os.kill(proc.pid, signal.SIGUSR1)
            res = loadgen.run_closed_loop(conns, rng, 0.5, f"s{i}", acked)
            run.phases.append(res)
            factor = ctx.clock.factor()
            if toggle and i % 2:
                run.plain_windows.append(len(res.latencies) / (res.wall_s * factor))
            else:
                run.windows.append(len(res.latencies) / (res.wall_s * factor))
                run.window_p50.append(loadgen.percentile(res.latencies, 50) * factor)
        if toggle:
            os.kill(proc.pid, signal.SIGUSR1)
        for rate, seconds in zip((500.0, 1000.0), open_s):
            schedule = loadgen.make_schedule(rng, rate, seconds, f"r{rate:.0f}")
            run.phases.append(loadgen.run_open_loop(conns, schedule, acked))
    finally:
        for conn in conns:
            conn.close()
    run.stats = stop_daemon(ctx, proc, sock)
    return run


def service_workload(ctx: Ctx) -> Outcome:
    sock = str((ctx.tmp / "svc.sock").relative_to(ctx.root))
    rng = random.Random(ctx.seed)
    s = ctx.seconds
    if ctx.trace:
        out = ctx.trace_out("daemon")
        proc, _ = start_daemon(ctx, sock, "traced", out)
        main = drive(ctx, proc, sock, rng, (0.15 * s, 0.35 * s), 0.5 * s, toggle=True)
    else:
        setups = []
        for i in range(ctx.setups):
            proc, ready = start_daemon(ctx, sock, f"daemon{i}")
            setups.append(ready)
            if i < ctx.setups - 1:
                stop_daemon(ctx, proc, sock)
        main = drive(ctx, proc, sock, rng, (0.2 * s, 0.2 * s), 0.6 * s)
    at500, at1000 = main.phases[-2:]
    notes = [
        f"{rate} rps as measured: {len(res.latencies)} requests, p50 {loadgen.percentile(res.latencies, 50) * 1e3:.3f} ms, "
        f"p99 {loadgen.percentile(res.latencies, 99) * 1e3:.3f} ms, "
        f"generator late p99 {loadgen.percentile(res.late, 99) * 1e3:.3f} ms"
        for rate, res in (("500", at500), ("1000", at1000))
    ]
    notes.append("saturation rps per window, corrected: " + " ".join(f"{w:.0f}" for w in main.windows))
    if main.plain_windows:
        notes.append("without shims: " + " ".join(f"{w:.0f}" for w in main.plain_windows))
    attempted = sum(len(r.latencies) for r in main.phases)
    failed = sum(r.errors for r in main.phases)
    problems = main.problems()
    if ctx.trace:
        payload = json.loads(out.with_name(out.name + ".json").read_text())
        ready = {"import_s": payload["import_s"]}
        metrics, more, note = layer_metrics("service_open_loop", layers.merge([payload["tallies"]]), 1, ready)
        notes.append(note)
        problems += more
        stats = main.stats
        metrics["service.dedup_frac"] = stats["deduplicated"] / max(1, stats["admitted"] + stats["deduplicated"])
        metrics["loadgen.late_p99_ms"] = loadgen.percentile(at500.late + at1000.late, 99) * 1e3
        metrics["obs.trace_overhead_frac"] = (
            statistics.median(main.plain_windows) / statistics.median(main.windows) - 1.0
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(main.windows),
            "latency_p50_ms": statistics.median(main.window_p50) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    return Outcome(metrics, attempted, failed, problems, notes)


def run(name: str, ctx: Ctx) -> Outcome:
    """Run one workload; always stops and reaps every child it started."""
    try:
        if name == "cli_resweep":
            return cli_workload(ctx)
        if name == "service_open_loop":
            return service_workload(ctx)
        return grid_workload(ctx, name)
    finally:
        ctx.stop_all()
