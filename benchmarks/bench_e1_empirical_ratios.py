"""E1 — empirical competitive ratios vs theoretical guarantees.

The paper proves guarantees but reports no measurements (it has no
experimental section); this bench is the natural empirical companion: run
every strategy over the small-exact workload suite under adversarially
flavored random realizations, measure the ratio against the *exact*
clairvoyant optimum, and table mean/max measured ratio next to the
theoretical guarantee.

Expected shape (asserted): every exact-optimum measurement respects its
guarantee; the empirical ordering matches the theory's — full replication
beats groups beats no replication on average under high uncertainty.
"""

from __future__ import annotations

from collections import defaultdict

from benchmarks.conftest import emit, grid_opts
from repro.analysis.csvio import results_dir, write_csv
from repro.analysis.experiment import run_grid
from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.registry import full_sweep
from repro.workloads.suites import small_exact_suite


def _run_e1():
    instances = [
        c.instance
        for c in small_exact_suite(alphas=(2.0,), seeds=2)
        if c.m == 4 and c.n <= 12 and c.family in ("uniform", "bimodal", "identical")
    ]
    records = run_grid(
        full_sweep(4),
        instances,
        ["bimodal_extreme", "log_uniform"],
        seeds=(0, 1),
        exact_limit=16,
        **grid_opts(),
    )
    by_strategy: dict[str, list] = defaultdict(list)
    for rec in records:
        by_strategy[rec.strategy].append(rec)

    rows = []
    for name, recs in sorted(by_strategy.items(), key=lambda kv: kv[1][0].replication):
        exact = [r for r in recs if r.optimum_exact]
        ratios = [r.ratio for r in exact]
        s = summarize(ratios)
        rows.append(
            {
                "strategy": name,
                "replication": recs[0].replication,
                "runs": len(exact),
                "mean ratio": s.mean,
                "p95 ratio": s.p95,
                "max ratio": s.maximum,
                "guarantee": recs[0].guarantee,
                "violations": sum(1 for r in exact if r.within_guarantee is False),
            }
        )
    table = format_table(
        rows,
        title="E1 — measured competitive ratios vs guarantees "
        "(m=4, alpha=2, exact optimum denominators)",
    )
    return rows, records, table


def bench_e1_empirical_ratios(benchmark):
    rows, records, table = benchmark.pedantic(_run_e1, rounds=1, iterations=1)

    # Guarantees hold on every exact measurement.
    assert all(r["violations"] == 0 for r in rows)
    # Shape: measured ratios sit well below the worst-case guarantees.
    assert all(r["max ratio"] <= r["guarantee"] for r in rows)
    # Ordering under alpha=2: the full-replication strategy's mean measured
    # ratio is no worse than the no-replication strategy's.
    by_name = {r["strategy"]: r for r in rows}
    assert (
        by_name["lpt_no_restriction"]["mean ratio"]
        <= by_name["lpt_no_choice"]["mean ratio"] + 1e-9
    )

    write_csv(results_dir() / "e1_empirical_ratios.csv", [r.as_dict() for r in records])
    emit("e1_empirical_ratios", table)
