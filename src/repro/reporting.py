"""Report builders for every reproduced table and figure.

One function per paper artifact; each returns a printable string and (for
the data-bearing figures) writes the underlying series to
``results/*.csv``.  The CLI subcommands and the ``benchmarks/`` suite both
call these, so the artifact is produced identically everywhere.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from typing import TypeVar

from repro.analysis.ascii_plot import Series, render_plot
from repro.analysis.csvio import results_dir, write_csv
from repro.analysis.svg_plot import SvgSeries, render_svg_chart, render_svg_gantt
from repro.analysis.ratios import run_strategy
from repro.analysis.tables import format_table
from repro.core.adversary import theorem1_instance, theorem1_realization
from repro.core.bounds import (
    abo_makespan_guarantee,
    abo_memory_guarantee,
    divisors,
    guarantee_table_row,
    lb_no_replication,
    sabo_makespan_guarantee,
    sabo_memory_guarantee,
    ub_graham_ls,
    ub_lpt_no_choice,
    ub_lpt_no_restriction,
    ub_lpt_no_restriction_raw,
    ub_ls_group,
)
from repro.core.strategies import LPTNoChoice, LSGroup
from repro.core.tradeoff import ratio_replication_series, tradeoff_findings
from repro.exact.optimal import optimal_makespan
from repro.memory import ABO, SABO
from repro.memory.frontier import abo_curve, impossibility_curve, sabo_curve
from repro.obs.tracer import get_tracer
from repro.simulation.gantt import render_gantt
from repro.uncertainty.realization import truthful_realization
from repro.workloads.generators import staircase_instance
from repro.workloads.memory_workloads import planted_two_class

__all__ = [
    "table1_report",
    "table2_report",
    "fig1_report",
    "fig2_report",
    "fig3_report",
    "fig3_series_rows",
    "fig4_report",
    "fig5_report",
    "fig6_report",
    "fig6_series_rows",
]

_F = TypeVar("_F", bound=Callable[..., str])


def _traced_report(name: str) -> Callable[[_F], _F]:
    """Wrap a report builder in a ``report.<name>`` span + timer.

    When tracing is off the wrapper is a single attribute check, so the
    artifact pipeline's cost profile is unchanged.
    """

    def deco(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> str:
            tracer = get_tracer()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            attrs = {
                k: v
                for k, v in kwargs.items()
                if isinstance(v, (int, float, str, bool))
            }
            with tracer.span(f"report.{name}", **attrs):
                tracer.count("report.artifacts")
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

@_traced_report("table1")
def table1_report(
    *,
    alphas: Sequence[float] = (1.1, 1.5, 2.0),
    m: int = 210,
    ks: Sequence[int] = (2, 3, 7, 30),
) -> str:
    """Table 1: the guarantee summary, symbolic and evaluated.

    The paper's table lists closed forms; we print them plus their value
    at the paper's Figure-3 parameterization (m = 210, the three α).
    """
    lines = [
        "Table 1 — replication bound model: approximation/competitive ratios",
        "",
        "| M_j |    result",
        "-" * 72,
        "|M_j| = 1    LPT-No Choice       <= 2a^2m/(2a^2+m-1)        [Th. 2]",
        "|M_j| = 1    any algorithm       >= a^2m/(a^2+m-1)          [Th. 1]",
        "|M_j| = m    LPT-No Restriction  <= 1+(m-1)/m * a^2/2       [Th. 3]",
        "|M_j| = m    List Scheduling     <= 2-1/m                   [Graham]",
        "|M_j| = m/k  LS-Group            <= ka^2/(a^2+k-1)*(1+(k-1)/m)+(m-k)/m  [Th. 4]",
        "",
        f"Evaluated at m = {m}:",
        "",
    ]
    rows = []
    for alpha in alphas:
        row: dict[str, object] = {"alpha": alpha}
        base = guarantee_table_row(alpha, m, ks=[])
        row["LB (Th.1)"] = base["lower_bound_no_replication"]
        row["LPT-No Choice"] = base["lpt_no_choice"]
        row["LPT-No Restr."] = base["lpt_no_restriction"]
        row["Graham LS"] = base["graham_ls"]
        for k in ks:
            row[f"LS-Group k={k}"] = ub_ls_group(alpha, m, k)
        rows.append(row)
    lines.append(format_table(rows))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

@_traced_report("table2")
def table2_report(
    *,
    m: int = 5,
    alphas_sq: Sequence[float] = (2.0, 3.0),
    rhos: Sequence[float] = (1.0, 4.0 / 3.0),
    deltas: Sequence[float] = (0.5, 1.0, 2.0),
) -> str:
    """Table 2: SABO/ABO guarantees, symbolic and evaluated.

    Evaluated at the paper's Figure-6 parameterizations (m = 5, α² ∈ {2,3},
    ρ₁ = ρ₂ ∈ {1, 4/3}) for a few representative Δ.
    """
    lines = [
        "Table 2 — memory aware model: [makespan, memory] guarantees",
        "",
        "SABO_D : [(1+D) a^2 rho1,        (1+1/D) rho2]   [Th. 5, Th. 6]",
        "ABO_D  : [2-1/m + D a^2 rho1,    (1+m/D) rho2]   [Th. 7, Th. 8]",
        "",
        f"Evaluated at m = {m}:",
        "",
    ]
    rows = []
    for a2 in alphas_sq:
        alpha = a2**0.5
        for rho in rhos:
            for delta in deltas:
                rows.append(
                    {
                        "alpha^2": a2,
                        "rho1=rho2": rho,
                        "Delta": delta,
                        "SABO makespan": sabo_makespan_guarantee(alpha, rho, delta),
                        "SABO memory": sabo_memory_guarantee(rho, delta),
                        "ABO makespan": abo_makespan_guarantee(alpha, rho, delta, m),
                        "ABO memory": abo_memory_guarantee(rho, delta, m),
                    }
                )
    lines.append(format_table(rows))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

@_traced_report("fig1")
def fig1_report(*, lam: int = 3, m: int = 6, alpha: float = 1.5) -> str:
    """Figure 1: the Theorem-1 adversary at (λ, m) = (3, 6).

    Reproduces both panels: the online solution (the algorithm's
    no-replication placement hit by the adversary) and the offline optimal
    rearrangement, plus the ratio algebra of the proof.
    """
    instance = theorem1_instance(lam, m, alpha)
    strategy = LPTNoChoice()
    placement = strategy.place(instance)
    adversarial = theorem1_realization(placement)
    outcome = run_strategy(strategy, instance, adversarial)
    opt = optimal_makespan(adversarial.actuals, m, exact_limit=lam * m)

    (results_dir() / "fig1_adversary.svg").write_text(
        render_svg_gantt(
            outcome.trace, m, title=f"Theorem-1 adversary (lambda={lam}, m={m}, alpha={alpha})"
        )
    )
    lb = lb_no_replication(alpha, m)
    lines = [
        f"Figure 1 — Theorem-1 adversary: lambda={lam}, m={m}, alpha={alpha}",
        "",
        f"{instance.n} unit-estimate tasks placed by a no-replication algorithm;",
        "the adversary inflates every task of the most loaded machine by alpha",
        "and deflates the rest by 1/alpha.",
        "",
        "Online solution (adversary applied to the algorithm's placement):",
        render_gantt(outcome.trace, m, width=60, show_ids=False),
        "",
        f"online makespan C_max        = {outcome.makespan:.6g}",
        f"offline optimum C*_max       = {opt.value:.6g}  ({opt.method})",
        f"measured ratio               = {outcome.makespan / opt.value:.4f}",
        f"Theorem-1 bound (lambda->inf) = {lb:.4f}",
        "",
        "The measured ratio at finite lambda is below the asymptotic bound, and",
        "bench E2 shows it converging to the bound as lambda grows.",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------

@_traced_report("fig2")
def fig2_report(*, m: int = 6, k: int = 2, n: int = 12, alpha: float = 1.5) -> str:
    """Figure 2: the two phases of group replication at (m, k) = (6, 2)."""
    instance = staircase_instance(n, m, alpha)
    strategy = LSGroup(k)
    placement = strategy.place(instance)
    group_of_task = placement.meta["group_of_task"]
    groups = placement.meta["groups"]

    lines = [
        f"Figure 2 — replication in groups: m={m}, k={k}, n={n} tasks",
        "",
        "Phase 1 (offline): each task's data replicated on all machines of one group.",
    ]
    for gi, machines in enumerate(groups):
        tasks = [j for j in range(instance.n) if group_of_task[j] == gi]
        est = sum(instance.tasks[j].estimate for j in tasks)
        lines.append(
            f"  group G{gi + 1}: machines {list(machines)} <- tasks {tasks} "
            f"(estimated load {est:g})"
        )
    realization = truthful_realization(instance)
    outcome = run_strategy(strategy, instance, realization)
    (results_dir() / "fig2_group_example.svg").write_text(
        render_svg_gantt(outcome.trace, m, title=f"Group replication (m={m}, k={k})")
    )
    lines += [
        "",
        "Phase 2 (online): each task scheduled within its group by List Scheduling",
        "(shown under the truthful realization):",
        render_gantt(outcome.trace, m, width=60),
        "",
        f"replication per task |M_j| = {placement.max_replication()} (= m/k)",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------

def fig3_series_rows(alpha: float, m: int) -> list[dict[str, object]]:
    """The Figure-3 data as flat rows (one per plotted point)."""
    series = ratio_replication_series(alpha, m)
    rows: list[dict[str, object]] = []
    for name, points in series.items():
        for p in points:
            rows.append(
                {
                    "alpha": alpha,
                    "m": m,
                    "strategy": name,
                    "k": p.k if p.k is not None else "",
                    "replication": p.replication,
                    "ratio": p.ratio,
                }
            )
    return rows


@_traced_report("fig3")
def fig3_report(*, m: int = 210, alphas: Sequence[float] = (1.1, 1.5, 2.0)) -> str:
    """Figure 3: guarantee vs replication for each α, plus the paper's findings."""
    chunks: list[str] = []
    all_rows: list[dict[str, object]] = []
    for alpha in alphas:
        series = ratio_replication_series(alpha, m)
        group = series["ls_group"]
        plot = render_plot(
            [
                Series(
                    [p.replication for p in group],
                    [p.ratio for p in group],
                    label="LS-Group (k over divisors)",
                    glyph="o",
                ),
                Series([1], [series["lpt_no_choice"][0].ratio], label="LPT-No Choice", glyph="C"),
                Series(
                    [m],
                    [series["lpt_no_restriction"][0].ratio],
                    label="LPT-No Restriction",
                    glyph="R",
                ),
                Series([1], [series["lower_bound"][0].ratio], label="LB (Th.1)", glyph="L"),
            ],
            title=f"Figure 3 — m={m}, alpha={alpha}",
            x_label="replication |M_j|",
            y_label="guaranteed ratio",
            x_log=True,
        )
        findings = tradeoff_findings(alpha, m)
        chunk = [
            plot,
            "",
            f"  findings at alpha={alpha}:",
            f"    guarantee gap LPT-No Choice vs lower bound : {findings['gap_lb_vs_no_choice']:.4f}",
            f"    LS-Group(k=1) minus LPT-No Restriction     : {findings['full_vs_one_group']:.4f}",
            f"    min replicas for LS-Group to beat No Choice: {findings['min_replicas_to_beat_no_choice']}",
        ]
        if findings["ratio_at_replication_3"] is not None:
            chunk.append(
                f"    LS-Group ratio at replication=3            : "
                f"{findings['ratio_at_replication_3']:.4f}"
            )
        chunks.append("\n".join(chunk))
        all_rows.extend(fig3_series_rows(alpha, m))
        svg = render_svg_chart(
            [
                SvgSeries(
                    [p.replication for p in group],
                    [p.ratio for p in group],
                    label="LS-Group (k over divisors)",
                ),
                SvgSeries(
                    [1],
                    [series["lpt_no_choice"][0].ratio],
                    label="LPT-No Choice",
                    mode="marker",
                ),
                SvgSeries(
                    [m],
                    [series["lpt_no_restriction"][0].ratio],
                    label="LPT-No Restriction",
                    mode="marker",
                ),
                SvgSeries(
                    [1],
                    [series["lower_bound"][0].ratio],
                    label="lower bound (Th.1)",
                    mode="marker",
                ),
            ],
            title=f"Figure 3 — m={m}, alpha={alpha}",
            x_label="replication |M_j|",
            y_label="guaranteed ratio",
            x_log=True,
        )
        (results_dir() / f"fig3_alpha_{alpha:g}.svg").write_text(svg)
    path = write_csv(results_dir() / "fig3_ratio_replication.csv", all_rows)
    # Relative to results/, so the text names no checkout path.
    chunks.append(f"[data: {path.name}; SVG panels alongside]")
    return "\n\n".join(chunks)


# ---------------------------------------------------------------------------
# Figures 4 and 5
# ---------------------------------------------------------------------------

def _memory_example_instance(m: int = 4, alpha: float = 1.4):
    return planted_two_class(6, 10, m, alpha, time_heavy=8.0, time_light=1.5, size_heavy=6.0, size_light=0.5)


@_traced_report("fig4")
def fig4_report(*, delta: float = 1.0) -> str:
    """Figure 4: a SABO_Δ two-phase schedule on a two-class instance."""
    instance = _memory_example_instance()
    strategy = SABO(delta)
    placement = strategy.place(instance)
    outcome = run_strategy(strategy, instance, truthful_realization(instance))
    (results_dir() / "fig4_sabo_schedule.svg").write_text(
        render_svg_gantt(outcome.trace, instance.m, title=f"SABO_D schedule (Delta={delta})")
    )
    s1, s2 = placement.meta["s1"], placement.meta["s2"]
    lines = [
        f"Figure 4 — SABO_D schedule example (Delta={delta}, m={instance.m})",
        "",
        f"S1 (time-intensive, scheduled per pi_1): tasks {list(s1)}",
        f"S2 (memory-intensive, scheduled per pi_2): tasks {list(s2)}",
        "",
        render_gantt(outcome.trace, instance.m, width=60),
        "",
        f"makespan  = {outcome.makespan:.6g}",
        f"Mem_max   = {placement.memory_max():.6g} (no replication: |M_j| = 1 for all)",
        f"guarantees: makespan <= {strategy.makespan_guarantee(instance):.4g} x OPT, "
        f"memory <= {strategy.memory_guarantee(instance):.4g} x OPT",
    ]
    return "\n".join(lines)


@_traced_report("fig5")
def fig5_report(*, delta: float = 1.0) -> str:
    """Figure 5: an ABO_Δ schedule — pinned memory tasks, replicated time tasks."""
    instance = _memory_example_instance()
    strategy = ABO(delta)
    placement = strategy.place(instance)
    outcome = run_strategy(strategy, instance, truthful_realization(instance))
    (results_dir() / "fig5_abo_schedule.svg").write_text(
        render_svg_gantt(outcome.trace, instance.m, title=f"ABO_D schedule (Delta={delta})")
    )
    s1, s2 = placement.meta["s1"], placement.meta["s2"]
    lines = [
        f"Figure 5 — ABO_D schedule example (Delta={delta}, m={instance.m})",
        "",
        f"S1 (time-intensive, replicated everywhere, dispatched by LS): tasks {list(s1)}",
        f"S2 (memory-intensive, pinned per pi_2, run first): tasks {list(s2)}",
        "",
        render_gantt(outcome.trace, instance.m, width=60),
        "",
        f"makespan  = {outcome.makespan:.6g}",
        f"Mem_max   = {placement.memory_max():.6g} "
        f"(each S1 task charged on all {instance.m} machines)",
        f"guarantees: makespan <= {strategy.makespan_guarantee(instance):.4g} x OPT, "
        f"memory <= {strategy.memory_guarantee(instance):.4g} x OPT",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

_FIG6_PANELS = (
    # (alpha^2, rho) — the three panels of the paper's Figure 6, all m=5.
    (2.0, 4.0 / 3.0),
    (3.0, 1.0),
    (3.0, 4.0 / 3.0),
)


def fig6_series_rows(m: int = 5) -> list[dict[str, object]]:
    """Figure-6 curves as flat CSV rows."""
    rows: list[dict[str, object]] = []
    for a2, rho in _FIG6_PANELS:
        alpha = a2**0.5
        for p in sabo_curve(alpha, rho, rho, num=61):
            rows.append(
                {
                    "panel": f"a2={a2},rho={rho:.4g}",
                    "algorithm": "sabo",
                    "delta": p.delta,
                    "makespan_guarantee": p.makespan,
                    "memory_guarantee": p.memory,
                }
            )
        for p in abo_curve(alpha, rho, rho, m, num=61):
            rows.append(
                {
                    "panel": f"a2={a2},rho={rho:.4g}",
                    "algorithm": "abo",
                    "delta": p.delta,
                    "makespan_guarantee": p.makespan,
                    "memory_guarantee": p.memory,
                }
            )
    return rows


@_traced_report("fig6")
def fig6_report(*, m: int = 5, mem_cap: float = 40.0, make_cap: float = 25.0) -> str:
    """Figure 6: SABO vs ABO guarantee curves and the impossibility frontier."""
    chunks: list[str] = []
    for a2, rho in _FIG6_PANELS:
        alpha = a2**0.5
        sabo_pts = [
            p for p in sabo_curve(alpha, rho, rho, num=121) if p.memory <= mem_cap and p.makespan <= make_cap
        ]
        abo_pts = [
            p for p in abo_curve(alpha, rho, rho, m, num=121) if p.memory <= mem_cap and p.makespan <= make_cap
        ]
        xs = [x / 20.0 for x in range(21, int(make_cap * 20))]
        imp = [(x, y) for x, y in impossibility_curve(xs) if y <= mem_cap]
        plot = render_plot(
            [
                Series([p.makespan for p in sabo_pts], [p.memory for p in sabo_pts], label="SABO_D", glyph="s"),
                Series([p.makespan for p in abo_pts], [p.memory for p in abo_pts], label="ABO_D", glyph="a"),
                Series([x for x, _ in imp], [y for _, y in imp], label="impossible below", glyph="."),
            ],
            title=f"Figure 6 — m={m}, alpha^2={a2}, rho1=rho2={rho:.4g}",
            x_label="makespan guarantee",
            y_label="memory guarantee",
        )
        cross = "ABO" if alpha * rho >= 2.0 else "depends on Delta"
        chunks.append(plot + f"\n  alpha*rho1 = {alpha * rho:.3f} -> better makespan guarantee: {cross}")
        svg = render_svg_chart(
            [
                SvgSeries(
                    [p.makespan for p in sabo_pts],
                    [p.memory for p in sabo_pts],
                    label="SABO_D",
                    mode="line",
                ),
                SvgSeries(
                    [p.makespan for p in abo_pts],
                    [p.memory for p in abo_pts],
                    label="ABO_D",
                    mode="line",
                ),
                SvgSeries(
                    [x for x, _ in imp],
                    [y for _, y in imp],
                    label="impossibility frontier",
                    mode="line",
                    color="#888888",
                ),
            ],
            title=f"Figure 6 — m={m}, alpha^2={a2:g}, rho={rho:.4g}",
            x_label="makespan guarantee",
            y_label="memory guarantee",
        )
        (results_dir() / f"fig6_a2_{a2:g}_rho_{rho:.3g}.svg").write_text(svg)
    path = write_csv(results_dir() / "fig6_memory_makespan.csv", fig6_series_rows(m))
    chunks.append(f"[data: {path.name}; SVG panels alongside]")
    return "\n\n".join(chunks)
