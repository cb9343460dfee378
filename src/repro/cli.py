"""Command-line interface: ``python -m repro <command>`` / ``repro <command>``.

Each reproduced artifact (table/figure) and the demo runners are exposed as
subcommands so results can be regenerated without pytest:

===================  ====================================================
``table1``           Table 1 — replication-bound guarantee summary
``table2``           Table 2 — memory-aware guarantee summary
``fig1``             Figure 1 — Theorem-1 adversary schedules
``fig2``             Figure 2 — group-replication two-phase example
``fig3``             Figure 3 — ratio-vs-replication curves (m=210)
``fig4``             Figure 4 — SABO schedule example
``fig5``             Figure 5 — ABO schedule example
``fig6``             Figure 6 — memory/makespan guarantee tradeoff
``run``              Run one strategy on a generated workload
``sweep``            Empirical ratio sweep over all strategies
``strategies``       List/describe the registered strategy plugins
``obs``              Traced demo run + metrics summary (observability)
``obs analyze``      Span aggregates + critical path of a JSONL trace
``obs export``       OpenMetrics text exposition of a JSONL trace
``bench``            Perf scenarios → ``BENCH_perf.json`` (``--check`` gates)
``report``           Render ``results/`` + REPORT.md from the artifact store
``cache``            Artifact-store maintenance (``gc`` / ``stats``)
``serve``            Placement-as-a-service daemon (``docs/service.md``)
``loadgen``          Synthetic-tenant load generator against ``serve``
``soak``             Chaos soak: load + scheduled faults (``docs/chaos.md``)
===================  ====================================================

``run`` and ``sweep`` accept ``--trace PATH`` (write a JSONL event trace,
see ``docs/observability.md``) and ``--metrics`` (print the counter/timer
table); ``repro obs`` is the same machinery with tracing always on.
``sweep`` additionally runs through the parallel grid backend:
``--workers N`` fans cells over a process pool (identical results to
serial), and cell outcomes are cached in the artifact store under
``.repro-store/`` between invocations (``--no-cache`` / ``--cache-dir``
override; see ``docs/performance.md`` and ``docs/artifacts.md``).  Every
(strategy, instance) pack the batch compiler accepts takes the vectorized
batch backend (bit-identical records); ``--no-batch`` forces every cell
through the event kernel.  ``sweep``
also exports telemetry (``--metrics-out [PATH]`` writes an OpenMetrics
artifact, default ``results/telemetry.prom``) and profiles grid cells
opt-in (``--profile`` → cProfile top-N per cell, folded into span
attributes and the grid manifest).

The figure/table commands delegate to the same code paths the benchmark
suite uses (`benchmarks/` merely wraps them with pytest-benchmark), so CLI
output and bench output always agree.

Each subcommand names its handler in the parser (``set_defaults``), and
each handler imports only what it runs: ``repro sweep`` never loads the
service, the chaos harness or the figure code.  ``repro bench`` hands its
arguments unchanged to :mod:`repro.tools.perfbench`'s own parser.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from typing import Iterator

__all__ = ["main", "build_parser"]


def _number(cast, ok, what: str):
    """An argparse type: ``cast(text)`` when ``ok`` holds of it, else a
    usage error (exit 2) that says ``what`` was expected."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan  # fails every ``ok``
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


#: The count flags, ``--seed``, ``--alpha``, ``--cell-timeout`` and
#: ``serve --pace``.
_count = _number(int, lambda v: v >= 1, "a positive integer")
_seed = _number(int, lambda v: v >= 0, "a non-negative integer")
_alpha = _number(float, lambda v: 1.0 <= v < math.inf, "a finite alpha >= 1")
_seconds = _number(float, lambda v: 0.0 < v < math.inf, "a finite number of seconds > 0")
_pace = _number(float, lambda v: 0.0 <= v < math.inf, "a finite pace >= 0")


def _usage_error(args: argparse.Namespace, error: Exception | str) -> int:
    """Report a value the parser accepted but the command cannot use: one
    line on stderr, and the usage-error exit code."""
    print(f"repro {args.command}: {error}", file=sys.stderr)
    return 2


#: The families :func:`repro.workloads.generate` accepts, spelled out so
#: that parsing loads no numpy; ``tests/test_cli.py`` keeps it in step.
FAMILIES = ("bimodal", "bounded_pareto", "exponential", "uniform", "identical", "staircase")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs).

    Every subcommand sets ``handler``, the function :func:`main` calls
    with the parsed arguments.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of 'Replicated Data Placement "
        "for Uncertain Scheduling' and run its algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(_command, sub)

    for name, doc in [
        ("table1", "Table 1: replication-bound guarantees"),
        ("table2", "Table 2: memory-aware guarantees"),
        ("fig1", "Figure 1: Theorem-1 adversary example"),
        ("fig2", "Figure 2: group replication example"),
        ("fig4", "Figure 4: SABO schedule example"),
        ("fig5", "Figure 5: ABO schedule example"),
    ]:
        command(name, _cmd_artifact, doc)

    fig3 = command("fig3", _cmd_artifact, "Figure 3: ratio-replication tradeoff")
    fig3.add_argument("--m", type=_count, default=210, help="machine count (paper: 210)")
    fig3.add_argument(
        "--alpha",
        type=_alpha,
        nargs="+",
        default=[1.1, 1.5, 2.0],
        help="uncertainty factors (paper: 1.1 1.5 2)",
    )

    fig6 = command("fig6", _cmd_artifact, "Figure 6: memory-makespan tradeoff")
    fig6.add_argument("--m", type=_count, default=5, help="machine count (paper: 5)")

    run = command("run", _cmd_run, "run one strategy end to end")
    run.add_argument("strategy", help="e.g. lpt_no_choice, ls_group[k=2]")
    _add_instance_flags(run, n=40, m=6)
    run.add_argument("--model", default="log_uniform", help="realization model")
    run.add_argument("--gantt", action="store_true", help="print the Gantt chart")
    _add_obs_flags(run)

    sweep = command("sweep", _cmd_sweep, "ratio sweep over all strategies")
    _add_instance_flags(sweep, n=16, m=4)
    sweep.add_argument("--seeds", type=_count, default=5, help="realization seeds per strategy")
    sweep.add_argument("--model", default="bimodal_extreme")
    sweep.add_argument(
        "--workers",
        type=_count,
        default=1,
        metavar="N",
        help="grid worker processes (1 = serial; results are identical)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk cell cache for this sweep",
    )
    sweep.add_argument(
        "--no-batch",
        action="store_true",
        help="disable the vectorized batch backend (records are identical "
        "either way; this forces every cell through the event kernel)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cell cache / artifact store directory (default: .repro-store)",
    )
    sweep.add_argument(
        "--retries",
        type=_count,
        default=3,
        metavar="N",
        help="attempts per grid cell before quarantining it (default: 3)",
    )
    sweep.add_argument(
        "--cell-timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a timed-out attempt counts as a failure",
    )
    sweep.add_argument(
        "--metrics-out",
        nargs="?",
        const="results/telemetry.prom",
        default=None,
        metavar="PATH",
        help="write the metrics registry as OpenMetrics text "
        "(default path when the flag is bare: results/telemetry.prom)",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="profile each grid cell or batch stack under cProfile; top rows "
        "land in its span attributes and the grid manifest (implies metrics "
        "collection; costs real overhead)",
    )
    sweep.add_argument(
        "--profile-top",
        type=_count,
        default=5,
        metavar="N",
        help="profile rows kept per cell (default: 5)",
    )
    _add_obs_flags(sweep)

    strategies = command(
        "strategies",
        _cmd_strategies,
        "list the registered strategy plugins, or describe one spec",
    )
    strategies.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="a strategy spec to describe (omit to list every plugin)",
    )
    strategies.add_argument(
        "--m",
        type=_count,
        default=None,
        metavar="M",
        help="also print the sweep specs enumerated for M machines",
    )
    strategies.add_argument(
        "--capability",
        action="append",
        default=None,
        metavar="FLAG",
        help="filter the listing to plugins with FLAG set "
        "(supports_faults, supports_releases, supports_hetero, memory_aware); "
        "repeatable",
    )

    obs = command(
        "obs", _cmd_obs, "traced demo run: JSONL trace out, metrics summary table"
    )
    obs.add_argument("--strategy", default="lpt_no_choice")
    _add_instance_flags(obs, n=40, m=6)
    obs.add_argument("--model", default="log_uniform")
    obs.add_argument(
        "--trace-out", default=None, metavar="PATH", help="write the JSONL trace here"
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="print the counter/gauge/timer summary table",
    )
    obs.add_argument(
        "--inject",
        default=None,
        metavar="SPEC",
        help="also run a small resilient grid with injected cell faults "
        "(e.g. 'every=2,fails=1') and print its SLO report; the exit code "
        "reflects the SLO verdict",
    )

    obs_sub = obs.add_subparsers(dest="obs_command", required=False)
    analyze = _command(
        obs_sub,
        "analyze",
        _cmd_obs_analyze,
        "span aggregates, self-time, and the critical path of a trace",
    )
    analyze.add_argument("trace", help="path to the trace .jsonl file")
    analyze.add_argument(
        "--json", action="store_true", help="emit the full analysis as JSON"
    )
    analyze.add_argument(
        "--top",
        type=_count,
        default=15,
        metavar="N",
        help="critical-path rows to show before folding the tail (default: 15)",
    )
    export = _command(
        obs_sub,
        "export",
        _cmd_obs_export,
        "rebuild metrics from a trace and print/write OpenMetrics text",
    )
    export.add_argument("trace", help="path to the trace .jsonl file")
    export.add_argument(
        "--format",
        choices=["openmetrics"],
        default="openmetrics",
        help="exposition format (only openmetrics today)",
    )
    export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the exposition here instead of stdout",
    )

    proofs = command(
        "proofs", _cmd_proofs, "replay every proof's inequalities on a concrete instance"
    )
    _add_instance_flags(proofs, n=12, m=4)

    regimes = command(
        "regimes", _cmd_regimes, "clairvoyance/replication regime analysis for (alpha, m)"
    )
    regimes.add_argument("--m", type=_count, default=30)
    regimes.add_argument(
        "--alpha", type=_alpha, nargs="+", default=[1.1, 1.3, 1.5, 2.0]
    )

    report = command(
        "report",
        _cmd_report,
        "render results/ and REPORT.md from the content-addressed "
        "artifact store (see docs/artifacts.md)",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="verify the working tree byte-for-byte against the store "
        "instead of writing; exit 1 on any drift",
    )
    report.add_argument(
        "--adopt",
        action="store_true",
        help="first bless the on-disk results/ tree into the store "
        "(fresh-clone bootstrap)",
    )
    _add_store_flag(report)

    cache = sub.add_parser(
        "cache", help="inspect and maintain the artifact store / cell cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = _command(
        cache_sub,
        "gc",
        _cmd_cache_gc,
        "prune expired raw cells, orphaned blobs and corrupt debris",
    )
    cache_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="evict raw cell entries older than DAYS (default: keep all)",
    )
    cache_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    _add_store_flag(cache_gc)
    cache_stats = _command(
        cache_sub,
        "stats",
        _cmd_cache_stats,
        "per-stage entry counts and on-disk size of the store",
    )
    _add_store_flag(cache_stats)

    command(
        "bench",
        _cmd_bench,
        "time the perf scenarios and write/check BENCH_perf.json "
        "(flags: python -m repro.tools.perfbench --help)",
        add_help=False,
    )

    serve = command(
        "serve", _cmd_serve, "run the placement-as-a-service daemon (see docs/service.md)"
    )
    serve.add_argument(
        "--strategy", default="ls_group[k=2]", help="placement family spec"
    )
    serve.add_argument("--m", type=_count, default=8, help="simulated machine count")
    serve.add_argument("--alpha", type=_alpha, default=1.5)
    serve.add_argument(
        "--model",
        default="log_uniform",
        help="actual-duration model (truthful, log_uniform, bimodal_extreme)",
    )
    serve.add_argument("--seed", type=_seed, default=0, help="duration-draw seed")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="TCP port (0 = pick free; default 8765, or TCP off when --socket set)",
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="also/instead listen on a unix domain socket at PATH",
    )
    serve.add_argument(
        "--pace",
        type=_pace,
        default=0.0,
        help="virtual seconds per real second (0 = run the cluster eagerly)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="keep an OpenMetrics exposition refreshed at PATH (scrapable file)",
    )
    _add_obs_flags(serve)

    loadgen = command(
        "loadgen", _cmd_loadgen, "drive seeded synthetic tenants against a running daemon"
    )
    loadgen.add_argument("--tenants", type=_count, default=100)
    loadgen.add_argument(
        "--tasks", type=_count, default=5, help="tasks submitted per tenant"
    )
    loadgen.add_argument("--seed", type=_seed, default=0, help="workload seed")
    loadgen.add_argument(
        "--concurrency",
        type=_count,
        default=64,
        help="max simultaneous tenant connections (fd cap)",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None, help="daemon TCP port")
    loadgen.add_argument(
        "--socket", default=None, metavar="PATH", help="daemon unix socket path"
    )
    loadgen.add_argument(
        "--drain",
        action="store_true",
        help="finish by draining the daemon's queue (keeps it running)",
    )
    loadgen.add_argument(
        "--shutdown",
        action="store_true",
        help="finish by draining and stopping the daemon",
    )
    loadgen.add_argument(
        "--json", default=None, metavar="PATH", help="write the full report as JSON"
    )

    soak = command(
        "soak", _cmd_soak, "chaos soak: sustained load + scheduled faults (docs/chaos.md)"
    )
    soak.add_argument("--zones", type=_count, default=1, help="fleet zones")
    soak.add_argument("--racks-per-zone", type=_count, default=4)
    soak.add_argument("--machines-per-rack", type=_count, default=2)
    soak.add_argument(
        "--strategy", default="ls_group[k=2]", help="placement family spec"
    )
    soak.add_argument("--alpha", type=_alpha, default=1.5)
    soak.add_argument(
        "--model",
        default="log_uniform",
        help="actual-duration model (truthful, log_uniform, bimodal_extreme)",
    )
    soak.add_argument("--seed", type=_seed, default=0, help="workload + duration seed")
    soak.add_argument(
        "--duration", type=float, default=30.0, help="arrival window (virtual s)"
    )
    soak.add_argument(
        "--rate", type=float, default=4.0, help="mean arrivals per virtual second"
    )
    soak.add_argument("--est-low", type=float, default=0.5)
    soak.add_argument("--est-high", type=float, default=4.0)
    soak.add_argument(
        "--sample-every", type=float, default=1.0, help="availability sample grid (s)"
    )
    soak.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="SPEC",
        help="chaos schedule spec, repeatable (rack:at=8,downtime=10[,rack=0] "
        "| none)",
    )
    soak.add_argument(
        "--objective",
        action="append",
        default=None,
        metavar="OBJ",
        help="SLO objective line, repeatable (default: availability + no strandings)",
    )
    soak.add_argument(
        "--out",
        default=None,
        metavar="PREFIX",
        help="write <PREFIX>_curve.csv and <PREFIX>_report.json (+ manifests)",
    )
    soak.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when the SLO verdict fails",
    )
    soak.add_argument(
        "--live",
        action="store_true",
        help="drive the real daemon over HTTP instead of pure virtual time",
    )
    soak.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket for --live"
    )
    soak.add_argument(
        "--pace",
        type=float,
        default=1.0,
        help="--live only: virtual seconds per wall second",
    )
    _add_obs_flags(soak)
    return parser


def _command(
    subparsers, name: str, handler, doc: str, **kwargs
) -> argparse.ArgumentParser:
    """Declare subcommand ``name``, run by ``handler(args)``."""
    cmd = subparsers.add_parser(name, help=doc, **kwargs)
    cmd.set_defaults(handler=handler)
    return cmd


def _add_instance_flags(sub_parser: argparse.ArgumentParser, *, n: int, m: int) -> None:
    """The generated-instance flags of ``run``, ``sweep``, ``obs`` and ``proofs``."""
    sub_parser.add_argument(
        "--family", choices=FAMILIES, default="uniform", help="workload family"
    )
    sub_parser.add_argument("--n", type=_count, default=n, help="task count")
    sub_parser.add_argument("--m", type=_count, default=m, help="machine count")
    sub_parser.add_argument("--alpha", type=_alpha, default=1.5)
    sub_parser.add_argument("--seed", type=_seed, default=0, help="workload generator seed")


def _add_store_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="artifact store root (default: .repro-store)",
    )


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable tracing and write the JSONL event trace to PATH",
    )
    sub_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability counter/timer table after the run",
    )


def _instance(args: argparse.Namespace):
    """The instance the ``--family --n --m --alpha --seed`` flags describe."""
    from repro.workloads import generate

    return generate(args.family, args.n, args.m, args.alpha, args.seed)


def _print_metrics() -> None:
    from repro.analysis.tables import format_table
    from repro.obs import get_tracer

    rows = get_tracer().registry.rows()
    if rows:
        print()
        print(format_table(rows, title="observability metrics"))


@contextmanager
def _observability(
    args: argparse.Namespace,
    *,
    metrics_out: str | None = None,
    force: bool = False,
) -> Iterator[None]:
    """Enable the global tracer for one CLI command if asked to.

    ``--trace PATH`` attaches a JSONL sink; ``--metrics`` /
    ``metrics_out`` / ``force`` alone attach no sink: counters, gauges
    and span timers are recorded, trace events are not built.  The
    teardown is exception-safe: even when the command (or the counter
    snapshot) raises, the sinks are flushed and closed, so a crashed
    traced run still leaves a valid, ``obs.validate``-clean trace on disk.
    """
    trace_path, want_metrics = args.trace, args.metrics
    if not trace_path and not want_metrics and not metrics_out and not force:
        yield
        return
    from repro.obs import JsonlSink, get_tracer
    from repro.obs import disable as obs_disable
    from repro.obs import enable as obs_enable

    sinks = [JsonlSink(trace_path)] if trace_path else []
    obs_enable(*sinks)
    try:
        yield
    finally:
        try:
            get_tracer().snapshot_counters()
            if metrics_out:
                from repro.obs.export import write_exposition

                path = write_exposition(
                    get_tracer().registry.summary(), metrics_out
                )
                print(f"\ntelemetry written to {path}")
            if want_metrics:
                _print_metrics()
        finally:
            obs_disable()
            if trace_path:
                print(f"\ntrace written to {trace_path}")


def _cmd_artifact(args: argparse.Namespace) -> int:
    """``repro table1`` … ``repro fig6``: print one paper table or figure."""
    from repro import reporting

    options = {}
    if args.command == "fig3":
        options = {"m": args.m, "alphas": tuple(args.alpha)}
    elif args.command == "fig6":
        options = {"m": args.m}
    print(getattr(reporting, f"{args.command}_report")(**options))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.ratios import build_placement, measured_ratio
    from repro.registry import make_strategy
    from repro.uncertainty.stochastic import check_model, sample_realization

    try:
        strategy = make_strategy(args.strategy)
        check_model(args.model)
    except ValueError as exc:
        return _usage_error(args, exc)
    with _observability(args):
        instance = _instance(args)
        try:
            placement = build_placement(strategy, instance)
        except ValueError as exc:  # Phase 1 cannot place this instance
            return _usage_error(args, exc)
        realization = sample_realization(instance, args.model, args.seed + 1)
        record = measured_ratio(strategy, instance, realization, placement=placement)
        out = record.outcome
        print(f"strategy     : {out.strategy_name}")
        print(f"instance     : {instance.name} (alpha={instance.alpha})")
        print(f"realization  : {realization.label}")
        print(f"replication  : {out.replication} (total replicas {out.placement.total_replicas()})")
        print(f"makespan     : {out.makespan:.6g}")
        print(
            f"optimum      : {record.optimum.value:.6g} "
            f"({record.optimum.method}{'' if record.optimum.optimal else ', lower bound'})"
        )
        print(f"ratio        : {record.ratio:.4f}")
        if record.guarantee is not None:
            print(f"guarantee    : {record.guarantee:.4f} (within: {record.within_guarantee})")
        if args.gantt:
            from repro.simulation import render_gantt

            print()
            print(render_gantt(out.trace, instance.m))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Ratio sweep through :class:`repro.analysis.ExperimentGrid`.

    One instance (from ``--seed``), every strategy applicable to ``m``,
    ``--seeds`` realization draws — fanned over ``--workers`` processes
    and served from the cell cache when warm (``--no-cache`` opts out).
    Crashing cells are retried ``--retries`` times (quarantined after);
    ``--cell-timeout`` bounds each attempt's wall clock.  ``--profile``
    profiles every cell through the environment the pool workers inherit.
    """
    from repro.obs import profiling

    if args.profile:
        os.environ[profiling.ENV_VAR] = f"top={args.profile_top}"
    try:
        with _observability(args, metrics_out=args.metrics_out, force=args.profile):
            return _sweep(args)
    finally:
        if args.profile:
            os.environ.pop(profiling.ENV_VAR, None)
            profiling.reset()


def _sweep(args: argparse.Namespace) -> int:
    from repro.analysis.cache import CellCache
    from repro.analysis.experiment import ExperimentGrid, RetryPolicy
    from repro.analysis.stats import summarize
    from repro.analysis.tables import format_table
    from repro.registry import full_sweep
    from repro.uncertainty.stochastic import check_model

    try:
        check_model(args.model)
    except ValueError as exc:
        return _usage_error(args, exc)
    instance = _instance(args)
    strategies = full_sweep(args.m)
    cache = None
    if not args.no_cache:
        cache = CellCache(args.cache_dir) if args.cache_dir else CellCache()
    grid = ExperimentGrid(
        strategies=list(strategies),
        instances=[instance],
        realization_models=[args.model],
        seeds=tuple(1000 + s for s in range(args.seeds)),
        workers=args.workers,
        cache=cache,
        retry=RetryPolicy(max_attempts=args.retries, timeout_s=args.cell_timeout),
        batch=not args.no_batch,
    )
    records = grid.run()
    by_strategy: dict[str, list] = {s.name: [] for s in strategies}
    for rec in records:
        by_strategy[rec.strategy].append(rec)
    rows = []
    for name, recs in by_strategy.items():
        if not recs:
            continue
        s = summarize([r.ratio for r in recs])
        rows.append(
            {
                "strategy": name,
                "replication": recs[0].replication,
                "mean ratio": s.mean,
                "max ratio": s.maximum,
                "guarantee": recs[0].guarantee if recs[0].guarantee is not None else "",
            }
        )
    if rows:
        print(
            format_table(
                rows,
                title=(
                    f"Empirical ratios: {args.family}(n={args.n}, m={args.m}), "
                    f"alpha={args.alpha}, model={args.model}, seeds={args.seeds}"
                ),
            )
        )
    else:
        print("repro sweep: no cell produced a record", file=sys.stderr)
    if cache is not None:
        stats = cache.stats()
        quarantined = (
            f", {stats['quarantined']} corrupt shards quarantined"
            if stats["quarantined"]
            else ""
        )
        print(
            f"\ncell cache: {stats['hits']} hits / {stats['misses']} misses "
            f"(hit rate {stats['hit_rate']:.0%}) in {stats['dir']}{quarantined}"
        )
    if grid.batched_cells:
        print(f"batch backend: {grid.batched_cells} cells via the vectorized sweep")
    res = grid.resilience
    if res["retries"] or res["timeouts"] or res["quarantined"]:
        print(
            f"resilience: {res['retries']} cell retries, {res['timeouts']} timeouts, "
            f"{res['quarantined']} cells quarantined"
        )
    for skip in grid.skipped:
        if skip.kind == "quarantined":
            print(f"  quarantined: {skip}")
    return 0 if rows else 1


def _cmd_strategies(args: argparse.Namespace) -> int:
    """List the registered plugins, or describe one spec in detail."""
    import repro.registry as registry
    from repro.analysis.tables import format_table

    if args.spec is not None:
        return _describe_spec(args.spec)
    wanted = set(args.capability or ())
    valid = {"supports_faults", "supports_releases", "supports_hetero", "memory_aware"}
    bad = sorted(wanted - valid)
    if bad:
        print(
            f"unknown capability flag(s): {', '.join(bad)} "
            f"(valid: {', '.join(sorted(valid))})",
            file=sys.stderr,
        )
        return 1
    rows = [
        {
            "name": entry.name,
            "family": entry.family,
            "spec": entry.template(),
            "capabilities": ",".join(entry.capabilities.flags()) or "—",
            "replication": entry.capabilities.replication_factor,
            "paper": entry.theorem or "—",
        }
        for entry in registry.strategy_entries()
        if wanted.issubset(entry.capabilities.flags())
    ]
    if rows:
        print(format_table(rows, title=f"{len(rows)} registered strategy plugins"))
    else:
        print(f"no registered strategy plugin has all of: {', '.join(sorted(wanted))}")
    if args.m is not None:
        print()
        print(f"sweep specs for m={args.m}:")
        for spec in registry.strategy_names(args.m, include_ablation=True):
            print(f"  {spec}")
    return 0


def _describe_spec(spec: str) -> int:
    """``repro strategies SPEC``: one block, for a spec or a family name.

    A bare family name whose spec needs parameters shows the entry's
    template instead of a parse error.
    """
    import repro.registry as registry

    try:
        entry = registry.get_entry(spec)
    except KeyError:
        entry = None
    if entry is not None and any(p.required for p in entry.params):
        cls, caps = entry.cls, entry.capabilities
        head = [("name", entry.name), ("spec", entry.template())]
    else:
        try:
            strategy = registry.make_strategy(spec)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        entry, cls = registry.entry_for(strategy), type(strategy)
        caps = registry.capabilities_of(strategy)
        head = [("spec", spec), ("canonical", registry.describe_strategy(strategy))]
    for label, value in [
        *head,
        ("class", f"{cls.__module__}.{cls.__qualname__}"),
        ("family", entry.family),
        ("paper", entry.theorem or "—"),
        ("summary", entry.summary),
        ("capabilities", ", ".join(caps.flags()) or "—"),
        ("replication", caps.replication_factor),
    ]:
        print(f"{label:12s} : {value}")
    if entry.params:
        print("parameters   :")
        for p in entry.params:
            default = "" if p.required else f" (default {p.default!r})"
            print(f"  {p.key:10s} {p.describe():24s}{default}  {p.doc}")
    return 0


def _cmd_proofs(args: argparse.Namespace) -> int:
    from repro.theory import verify_all
    from repro.uncertainty import sample_realization

    instance = _instance(args)
    realization = sample_realization(instance, "bimodal_extreme", args.seed + 1)
    checks = verify_all(instance, realization)
    for check in checks:
        print(check.render())
        print()
    failures = [s for c in checks for s in c.failures()]
    total = sum(len(c.steps) for c in checks)
    print(f"{len(checks)} chains, {total} inequalities, {len(failures)} failures")
    return 1 if failures else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Demo the observability layer on one end-to-end strategy run.

    With ``--inject SPEC`` the demo additionally runs a small resilient
    grid under injected cell faults — exercising the retry/recovery spans
    — and prints an SLO report over the run; the exit code then reflects
    the SLO verdict, making this a one-command end-to-end check of the
    faults + obs + SLO stack.
    """
    from repro.analysis.ratios import build_placement, measured_ratio
    from repro.faults import inject
    from repro.obs import JsonlSink, MemorySink
    from repro.obs import disable as obs_disable
    from repro.obs import enable as obs_enable
    from repro.registry import make_strategy
    from repro.uncertainty.stochastic import check_model, sample_realization

    try:
        injected = (
            inject.CellFaultSpec.parse(args.inject) if args.inject else None
        )
        strategy = make_strategy(args.strategy)
        check_model(args.model)
    except ValueError as exc:
        return _usage_error(args, exc)
    slo_failed = False
    sinks = [JsonlSink(args.trace_out)] if args.trace_out else [MemorySink()]
    tracer = obs_enable(*sinks)
    memory = sinks[0] if isinstance(sinks[0], MemorySink) else None
    try:
        instance = _instance(args)
        try:
            placement = build_placement(strategy, instance)
        except ValueError as exc:  # Phase 1 cannot place this instance
            return _usage_error(args, exc)
        realization = sample_realization(instance, args.model, args.seed + 1)
        record = measured_ratio(strategy, instance, realization, placement=placement)
        counters = tracer.registry.counters
        print(f"strategy     : {record.outcome.strategy_name}")
        print(f"instance     : {instance.name} (alpha={instance.alpha})")
        print(f"makespan     : {record.outcome.makespan:.6g}  ratio {record.ratio:.4f}")
        print(f"dispatches   : {counters['sim.dispatches'].value}")
        print(f"completions  : {counters['sim.completions'].value}")
        print(f"events       : {counters['sim.events_processed'].value}")
        spans = tracer.registry.timers
        for name in sorted(spans):
            if name.startswith("span."):
                t = spans[name]
                print(f"{name:13s}: {t.count} × mean {t.mean * 1e3:.3f} ms")
        if memory is not None:
            print(f"buffered     : {len(memory.events)} trace events (in memory)")
        if injected is not None:
            slo_failed = not _obs_inject_demo(args, instance, strategy, injected)
        if args.metrics:
            _print_metrics()
    finally:
        inject.reset()
        tracer.snapshot_counters()
        obs_disable()
    if args.trace_out:
        print(f"\ntrace written to {args.trace_out}")
        print(f"validate with: python -m repro.obs.validate {args.trace_out}")
    return 1 if slo_failed else 0


def _obs_inject_demo(args, instance, strategy, spec) -> bool:
    """Fault-injected grid + SLO report for ``repro obs --inject``.

    Returns the SLO verdict.  The grid runs the demo strategy over a few
    seeds with the resilient executor, so injected faults surface as
    ``grid.cell_retry`` events and retry counters rather than failures;
    the SLO report then asserts the recovery actually happened.
    """
    from repro.analysis.experiment import ExperimentGrid, RetryPolicy
    from repro.analysis.tables import format_table
    from repro.faults import inject
    from repro.obs import get_tracer
    from repro.obs.slo import evaluate

    inject.configure(spec)
    seeds = (args.seed, args.seed + 1, args.seed + 2)
    grid = ExperimentGrid(
        strategies=[strategy],
        instances=[instance],
        realization_models=[args.model],
        seeds=seeds,
        retry=RetryPolicy(max_attempts=max(2, spec.fails + 1), backoff_s=0.0),
    )
    grid.run()
    inject.reset()
    print(
        f"\ninjected     : {args.inject} over {len(seeds)} cells "
        f"({grid.resilience['retries']} retries, "
        f"{grid.resilience['quarantined']} quarantined)"
    )
    report = evaluate(
        [
            f"count(grid.cells_done) >= {len(seeds)}",
            "count(grid.cell_retries) >= 1",
            "quarantined == 0",
            "p99(grid.cell) < 5s",
        ],
        registry=get_tracer().registry,
        extras={"quarantined": float(grid.resilience["quarantined"])},
    )
    print()
    print(
        format_table(
            report.rows(),
            title=f"SLO report: {'PASS' if report.passed else 'FAIL'}",
        )
    )
    return report.passed


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    """``repro obs analyze trace.jsonl`` — tables or ``--json``."""
    import json as json_mod

    from repro.analysis.tables import format_table
    from repro.obs.analyze import analyze_file

    try:
        analysis = analyze_file(args.trace, top=args.top)
    except (OSError, ValueError) as exc:
        print(f"error: cannot analyze {args.trace}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(analysis.as_dict(), indent=2, default=str))
        return 0
    print(
        f"trace        : {args.trace} ({analysis.events} events"
        + (f", {analysis.workers} workers" if analysis.workers else "")
        + ")"
    )
    print(f"root span    : {analysis.root_name} ({analysis.root_duration_s:.6f} s)")
    if analysis.spans:
        print()
        print(format_table(analysis.spans, title="span aggregates"))
    if analysis.attribution:
        print()
        print(
            format_table(
                analysis.attribution,
                title=(
                    f"critical path (self-time attribution; total "
                    f"{analysis.total_attributed_s:.6f} s = "
                    f"{1 - analysis.attribution_error:.2%} of root)"
                ),
            )
        )
    if analysis.chain:
        print()
        print(format_table(analysis.chain, title="dominant chain (root → heaviest leaf)"))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """``repro obs export trace.jsonl`` — OpenMetrics text exposition."""
    from repro.obs.export import registry_from_trace, render_openmetrics

    try:
        registry = registry_from_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot export {args.trace}: {exc}", file=sys.stderr)
        return 1
    text = render_openmetrics(registry.summary())
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"exposition written to {out}")
    else:
        print(text, end="")
    return 0


def _cmd_regimes(args: argparse.Namespace) -> int:
    from repro.analysis.regimes import clairvoyance_value, dominant_strategy_map
    from repro.analysis.tables import format_table

    rows = []
    for entry in dominant_strategy_map(args.alpha, args.m):
        rows.append(
            {
                "alpha": entry["alpha"],
                "best strategy": entry["best_strategy"],
                "best guarantee": entry["best_guarantee"],
                "at replication": entry["best_replication"],
                "value of estimates": clairvoyance_value(entry["alpha"], args.m),
            }
        )
    print(
        format_table(
            rows, title=f"Regime analysis at m={args.m} (guarantee space)"
        )
    )
    print(
        "\n'value of estimates' is Graham's estimate-free bound minus the best "
        "estimate-aware bound; it hits zero at alpha=sqrt(2)."
    )
    return 0


def _store(args: argparse.Namespace):
    from repro.store import ArtifactStore

    return ArtifactStore(args.store) if args.store else ArtifactStore()


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report [--check] [--adopt]`` — the store-backed report pipeline."""
    from repro.analysis.report import (
        UnresolvableArtifactError,
        check_report,
        generate_report,
    )

    store = _store(args)
    try:
        if args.check:
            problems = check_report(store=store, adopt=args.adopt)
            if problems:
                print("repro report --check FAILED:", file=sys.stderr)
                for problem in problems:
                    print(f"  - {problem}", file=sys.stderr)
                return 1
            print("results/ matches the artifact store byte-for-byte")
            return 0
        path = generate_report(store=store, adopt=args.adopt)
        print(f"report written to {path}")
        return 0
    except (UnresolvableArtifactError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    """``repro cache gc`` — prune the artifact store."""
    report = _store(args).gc(max_age_days=args.max_age_days, dry_run=args.dry_run)
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(
        f"cache gc: {report.expired_raw} expired raw entries, "
        f"{report.orphan_blobs} orphan blobs, "
        f"{report.swept_corrupt} corrupt/tmp files — "
        f"{verb} {report.reclaimed_bytes} bytes"
    )
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """``repro cache stats`` — per-stage counts and on-disk size."""
    from repro.store import Stage

    store = _store(args)
    backend = store.backend
    total = 0
    blobs = 0
    for key in backend.list(""):
        size = backend.size(key) or 0
        total += size
        if key.startswith("blobs/"):
            blobs += 1
    print(f"store: {store.root}")
    for stage in Stage:
        print(f"  {stage.value:>7}: {len(store.names(stage))} artifacts")
    print(f"  {'blobs':>7}: {blobs} files")
    print(f"  {'size':>7}: {total} bytes")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench ARGS`` — ARGS go to perfbench's own parser unchanged."""
    from repro.tools import perfbench

    return perfbench.main(args.argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.registry import CapabilityError
    from repro.service.daemon import ServiceDaemon
    from repro.service.scheduler import ServiceScheduler

    port = args.port
    if port is None:
        port = None if args.socket else 8765
    try:
        scheduler = ServiceScheduler(
            args.strategy, m=args.m, alpha=args.alpha, model=args.model, seed=args.seed
        )
    except (ValueError, CapabilityError) as exc:
        return _usage_error(args, exc)
    daemon = ServiceDaemon(
        scheduler,
        host=args.host,
        port=port,
        socket_path=args.socket,
        metrics_out=args.metrics_out,
        pace=args.pace,
    )

    async def _run() -> None:
        server = asyncio.ensure_future(daemon.serve())
        await daemon.started.wait()
        listening = []
        if daemon.port is not None:
            listening.append(f"http://{args.host}:{daemon.port}")
        if args.socket:
            listening.append(f"unix:{args.socket}")
        print(
            f"repro service listening on {' and '.join(listening)} "
            f"({scheduler.placer.canonical_spec}, m={scheduler.m}, "
            f"alpha={scheduler.alpha}, model={scheduler.model})",
            flush=True,
        )
        await server

    with _observability(args, force=True):
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
    print("service stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service.loadgen import make_workload, run_loadgen

    if (args.port is None) == (args.socket is None):
        return _usage_error(args, "pass exactly one of --port or --socket")
    workload = make_workload(args.tenants, args.tasks, seed=args.seed)
    try:
        report = asyncio.run(
            run_loadgen(
                workload,
                host=args.host,
                port=args.port,
                socket_path=args.socket,
                concurrency=args.concurrency,
                drain=args.drain and not args.shutdown,
                shutdown=args.shutdown,
            )
        )
    except OSError as exc:
        address = args.socket if args.socket is not None else f"{args.host}:{args.port}"
        print(
            f"repro loadgen: cannot reach the daemon at {address}: {exc}", file=sys.stderr
        )
        return 1
    payload = report.as_dict()
    if args.json:
        from pathlib import Path

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}")
    print(f"tenants      : {report.tenants} ({report.tasks} unique tasks)")
    print(f"requests     : {report.requests} ({report.deduplicated} deduplicated)")
    print(f"errors       : {report.errors} ({report.retries} transport retries)")
    print(f"wall         : {report.wall_s:.3f}s ({report.throughput_rps:.0f} req/s)")
    print(
        f"latency      : p50 {report.latency_p50_ms:.2f}ms, "
        f"p99 {report.latency_p99_ms:.2f}ms"
    )
    print(f"digest       : {report.decision_digest[:16]}…")
    status = report.final_status
    if status:
        dropped = status.get("admitted", 0) - status.get("done", 0)
        if args.drain or args.shutdown:
            print(f"dropped      : {dropped} of {status.get('admitted', 0)} admitted")
    if report.errors:
        return 1
    if (args.drain or args.shutdown) and status.get("admitted") != status.get("done"):
        return 1
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro._validation import check_positive_float
    from repro.chaos import ChaosSchedule, FleetTopology, SoakConfig
    from repro.chaos.soak import run_soak, run_soak_live
    from repro.registry import CapabilityError

    with _observability(args):
        topology = FleetTopology(
            zones=args.zones,
            racks_per_zone=args.racks_per_zone,
            machines_per_rack=args.machines_per_rack,
        )
        schedule = ChaosSchedule()
        for spec in args.chaos or []:
            try:
                schedule = schedule.merge(ChaosSchedule.parse(spec, topology))
            except ValueError as exc:
                return _usage_error(args, exc)
        config_kw = dict(
            topology=topology,
            strategy=args.strategy,
            alpha=args.alpha,
            model=args.model,
            seed=args.seed,
            duration=args.duration,
            rate=args.rate,
            est_low=args.est_low,
            est_high=args.est_high,
            sample_every=args.sample_every,
            schedule=schedule,
        )
        if args.objective:
            config_kw["objectives"] = tuple(args.objective)
        try:
            config = SoakConfig(**config_kw)
            if args.live:
                check_positive_float(args.pace, "pace")
        except (ValueError, CapabilityError) as exc:
            return _usage_error(args, exc)
        if args.live:
            report = run_soak_live(config, socket_path=args.socket, pace=args.pace)
        else:
            report = run_soak(config)
        summary = report.summary
        mode = "live" if report.live else "virtual"
        print(
            f"soak ({mode}): {topology.describe()}, "
            f"{len(schedule.actions)} chaos action(s), seed {config.seed}"
        )
        print(
            f"tasks        : {summary['tasks_admitted']} admitted, "
            f"{summary['tasks_done']} done, {summary['shed']} shed, "
            f"{summary['stranded']} stranded"
        )
        print(
            f"failures     : {summary['machine_failures']} machine failures, "
            f"{summary['replaced']} tasks re-placed, "
            f"{summary['restarts']} restarts"
        )
        print(
            f"availability : min {summary['min_availability']:.3f}, "
            f"mean {summary['mean_availability']:.3f} "
            f"(diversity rack {summary['diversity_rack']:.2f} / "
            f"zone {summary['diversity_zone']:.2f})"
        )
        print(
            f"makespan     : {summary['makespan']:.3f} vs control "
            f"{summary['control_makespan']:.3f} "
            f"(inflation {summary['inflation']:.3f}, "
            f"capacity bound {summary['capacity_bound']:.3f})"
        )
        print(f"digest       : {report.digest[:16]}…")
        for row in report.slo.rows():
            print(
                f"slo          : {row['status']}  {row['objective']} "
                f"(observed {row['observed']}, need {row['threshold']})"
            )
        if args.out:
            paths = report.write_artifacts(args.out)
            print(f"artifacts    : {paths['curve']} and {paths['report']}")
        if args.check and not report.passed:
            return 1
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A ``BrokenPipeError`` ends the command with one line on stderr and
    exit code 1, not a traceback.  When it is stdout's (``repro proofs |
    head``), what is left of stdout goes to devnull; when it is another
    pipe's (a daemon socket that dropped), the line says so.
    """
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "bench":  # perfbench parses these itself
        args.argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
