"""Scenario-based robust evaluation: min-max regret.

Serves the E13 min-max-regret artifact (``bench_e13_minmax_regret`` →
``results/e13_minmax_regret.*``).

The related-work section notes that "most of the work on robust
scheduling use scenarios to structure the variability of uncertain
parameters" (Daniels & Kouvelis et al.).  This module evaluates the
paper's strategies through that lens, so the replication approach can be
compared with the scenario literature on its own terms:

* a **scenario set** is a finite collection of realizations (e.g. the
  band's extreme corners, or samples from a stochastic model);
* a strategy's **absolute regret** in a scenario is
  ``C_max(strategy, s) − C*_max(s)``; its **relative regret** is the
  competitive ratio minus 1;
* the robust values are the maxima over the scenario set, and the
  min-max-regret strategy is the one minimizing that maximum.

``evaluate_scenarios`` computes per-strategy regret tables over a shared
scenario set; ``minmax_regret_choice`` picks the winner.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.ratios import run_strategy
from repro.core.model import Instance
from repro.core.strategy import TwoPhaseStrategy
from repro.exact.optimal import optimal_makespan
from repro.uncertainty.realization import Realization
from repro.uncertainty.stochastic import sample_realization

__all__ = ["ScenarioEvaluation", "build_scenarios", "evaluate_scenarios", "minmax_regret_choice"]


@dataclass(frozen=True)
class ScenarioEvaluation:
    """One strategy's robust statistics over a scenario set."""

    strategy: str
    scenarios: int
    max_abs_regret: float
    max_rel_regret: float
    mean_rel_regret: float
    worst_scenario: str
    all_optima_exact: bool


def build_scenarios(
    instance: Instance,
    *,
    models: Sequence[str] = ("bimodal_extreme", "log_uniform", "uniform"),
    seeds: Sequence[int] = (0, 1, 2),
    include_truthful: bool = True,
) -> list[Realization]:
    """A standard scenario set: stochastic draws plus the truthful corner."""
    scenarios: list[Realization] = []
    if include_truthful:
        from repro.uncertainty.realization import truthful_realization

        scenarios.append(truthful_realization(instance))
    for model in models:
        for seed in seeds:
            scenarios.append(sample_realization(instance, model, seed))
    return scenarios


def _scenario_makespans(
    strategy: TwoPhaseStrategy,
    instance: Instance,
    scenarios: Sequence[Realization],
) -> list[float]:
    """One strategy's makespan in every scenario, batched when possible.

    The inner loop of the min-max-regret table is a same-(strategy,
    instance) pack by construction, so it compiles to one ``(S, n)``
    vectorized sweep whenever the batch compiler accepts the pair — the
    outer argmin over strategies stays scalar.  The sweep is bit-identical
    to the event kernel (the exactness contract of
    :mod:`repro.simulation.batch`), so the regret table and the min-max
    winner cannot shift when a family starts to compile; anything the
    compiler refuses falls back to the per-scenario kernel loop.
    """
    from repro.simulation.batch import BatchUnsupported, build_plan, sweep_makespans

    try:
        plan = build_plan(strategy, instance)
    except (BatchUnsupported, ValueError):
        pass
    else:
        import numpy as np

        matrix = np.asarray([s.actuals for s in scenarios], dtype=np.float64)
        return [float(v) for v in sweep_makespans(plan, matrix)]
    return [
        run_strategy(strategy, instance, s, validate=False).makespan
        for s in scenarios
    ]


def evaluate_scenarios(
    strategies: Sequence[TwoPhaseStrategy],
    instance: Instance,
    scenarios: Sequence[Realization],
    *,
    exact_limit: int = 22,
) -> list[ScenarioEvaluation]:
    """Regret table for every strategy over a shared scenario set.

    The clairvoyant optimum of each scenario is computed once and shared
    across strategies (it does not depend on them).  Per strategy, the
    scenario makespans come from one vectorized batch sweep whenever the
    strategy compiles (see :func:`_scenario_makespans`).
    """
    if not scenarios:
        raise ValueError("scenario set must be non-empty")
    optima = [
        optimal_makespan(s.actuals, instance.m, exact_limit=exact_limit)
        for s in scenarios
    ]
    out: list[ScenarioEvaluation] = []
    for strategy in strategies:
        makespans = _scenario_makespans(strategy, instance, scenarios)
        abs_regrets: list[float] = []
        rel_regrets: list[float] = []
        worst_idx = 0
        for idx, (c_max, opt) in enumerate(zip(makespans, optima)):
            abs_regrets.append(c_max - opt.value)
            rel_regrets.append(c_max / opt.value - 1.0)
            if rel_regrets[idx] > rel_regrets[worst_idx]:
                worst_idx = idx
        out.append(
            ScenarioEvaluation(
                strategy=strategy.name,
                scenarios=len(scenarios),
                max_abs_regret=max(abs_regrets),
                max_rel_regret=max(rel_regrets),
                mean_rel_regret=sum(rel_regrets) / len(rel_regrets),
                worst_scenario=scenarios[worst_idx].label or f"scenario[{worst_idx}]",
                all_optima_exact=all(o.optimal for o in optima),
            )
        )
    return out


def minmax_regret_choice(
    evaluations: Sequence[ScenarioEvaluation],
    *,
    relative: bool = True,
) -> ScenarioEvaluation:
    """The min-max-regret strategy (ties by name for determinism)."""
    if not evaluations:
        raise ValueError("no evaluations to choose from")
    key = (
        (lambda e: (e.max_rel_regret, e.strategy))
        if relative
        else (lambda e: (e.max_abs_regret, e.strategy))
    )
    return min(evaluations, key=key)
