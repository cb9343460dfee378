"""Estimate refinement across iterations (adaptive-α extension).

The paper motivates replication with *iterative* applications ("the
application will iterate over the data multiple times, e.g. in an
iterative solver") — but iteration also means feedback: after one pass the
scheduler has *observed* every task's actual duration and can refine its
estimates.  Refinement shrinks the effective uncertainty factor, moving
the system leftward on the paper's α-axis, where less replication is
needed for the same guarantee.

This module implements the loop:

* :class:`EstimateRefiner` — geometric (log-space) exponential smoothing
  of estimates from observed durations, the right averaging for a
  multiplicative error model, plus an empirical effective-α tracker;
* :class:`IterativeSession` — runs a strategy over ``T`` iterations of the
  same task set under a *persistent-bias + per-iteration-noise*
  realization model (task ``j``'s true mean duration is ``p̃_j · f_j``
  with a fixed hidden bias ``f_j``; each iteration adds fresh noise).
  With refinement on, estimates converge to the true means and only the
  noise remains; with refinement off, the full bias is paid every
  iteration.

Bench E10 measures the effect; ``examples/out_of_core_solver.py`` shows
the unrefined loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._validation import check_fraction, check_positive_int
from repro.core.model import Instance, make_instance
from repro.core.placement import Placement
from repro.core.strategy import OnlinePolicy, TwoPhaseStrategy
from repro.analysis.ratios import run_strategy
from repro.registry import Float, StrategyRef, register_strategy
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.uncertainty.realization import Realization, factors_realization

__all__ = [
    "EstimateRefiner",
    "IterationResult",
    "IterativeSession",
    "AdaptiveRefinement",
]


class EstimateRefiner:
    """Geometric exponential smoothing of processing-time estimates.

    After observing actual duration ``p`` for a task currently estimated
    at ``p̃``, the new estimate is ``p̃^(1-eta) · p^eta`` — exponential
    smoothing in log space, which is unbiased for multiplicative error.

    ``effective_alpha()`` reports the smallest α consistent with the last
    observation of every task (``max_j max(p_j/p̃_j, p̃_j/p_j)``) — what a
    scheduler would use as its uncertainty factor going forward.
    """

    def __init__(self, instance: Instance, *, eta: float = 0.5) -> None:
        self.eta = check_fraction(eta, "eta")
        self._estimates = list(instance.estimates)
        self._sizes = list(instance.sizes)
        self._m = instance.m
        self._name = instance.name
        self._last_misses: list[float] = [1.0] * instance.n

    @property
    def estimates(self) -> list[float]:
        return list(self._estimates)

    def observe(self, realization: Realization) -> None:
        """Fold one iteration's observed durations into the estimates.

        The miss factors are recorded against the *pre-update* estimates —
        they describe how wrong the scheduler was this iteration.
        """
        for j, actual in enumerate(realization.actuals):
            old = self._estimates[j]
            miss = max(actual / old, old / actual)
            self._last_misses[j] = miss
            if self.eta > 0.0:
                self._estimates[j] = old ** (1.0 - self.eta) * actual**self.eta

    def effective_alpha(self) -> float:
        """Smallest α consistent with the most recent observations."""
        return max(self._last_misses)

    def refined_instance(self, *, alpha: float | None = None) -> Instance:
        """An instance carrying the refined estimates.

        ``alpha`` defaults to the observed effective α (with a small safety
        margin so fresh noise of the same magnitude stays in-band).
        """
        a = alpha if alpha is not None else min(10.0, 1.05 * self.effective_alpha())
        return make_instance(
            self._estimates,
            self._m,
            max(a, 1.0),
            sizes=self._sizes,
            name=self._name + "+refined",
        )


def _refined_capabilities(strategy: "AdaptiveRefinement"):
    """The wrapper is exactly as capable as the strategy it wraps."""
    from repro.registry import capabilities_of

    return capabilities_of(strategy.base)


@register_strategy(
    "refined",
    params=(
        StrategyRef("base", doc="the wrapped strategy, as a nested spec"),
        Float(
            "eta",
            ge=0.0,
            le=1.0,
            default=0.5,
            omit_default=False,
            doc="log-space smoothing rate fed to the refiner",
        ),
    ),
    family="adaptive",
    theorem="§8 iterative extension (bench E10)",
    instance_capabilities=_refined_capabilities,
)
class AdaptiveRefinement(TwoPhaseStrategy):
    """A strategy wrapper that re-places on refinement-corrected estimates.

    Wraps any base strategy; between iterations the caller feeds observed
    realizations through :meth:`observe`, and the next :meth:`place` runs
    the base strategy on the refined estimates (the returned placement is
    re-expressed over the *original* instance, so the engine's identity
    checks still hold).  Before any observation the wrapper is exactly the
    base strategy.

    Parameters
    ----------
    base:
        The wrapped :class:`~repro.core.strategy.TwoPhaseStrategy`.
    eta:
        Smoothing rate handed to :class:`EstimateRefiner`.
    """

    def __init__(self, base: TwoPhaseStrategy, eta: float = 0.5) -> None:
        self.base = base
        self.eta = check_fraction(eta, "eta")
        self.name = f"refined[{base.name},eta={self.eta:g}]"
        self._refiner: EstimateRefiner | None = None
        self._refined_cache: dict[int, Instance] = {}

    def observe(self, realization: Realization) -> None:
        """Fold one iteration's observed durations into the estimates."""
        if self._refiner is None:
            self._refiner = EstimateRefiner(realization.instance, eta=self.eta)
        self._refiner.observe(realization)
        self._refined_cache.clear()

    def _effective(self, instance: Instance) -> Instance:
        if self._refiner is None:
            return instance
        key = id(instance)
        if key not in self._refined_cache:
            self._refined_cache[key] = self._refiner.refined_instance()
        refined = self._refined_cache[key]
        if refined.n != instance.n or refined.m != instance.m:
            raise ValueError(
                "AdaptiveRefinement observed realizations of a different "
                f"instance shape ({refined.n}x{refined.m} vs "
                f"{instance.n}x{instance.m})"
            )
        return refined

    def place(self, instance: Instance) -> Placement:
        refined = self._effective(instance)
        inner = self.base.place(refined)
        if refined is instance:
            return inner
        meta = dict(inner.meta)
        meta["strategy"] = self.name
        meta["refined_alpha"] = refined.alpha
        return Placement(instance, inner.machine_sets, meta=meta)

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        refined = self._effective(instance)
        if refined is instance:
            return self.base.make_policy(instance, placement)
        inner = Placement(refined, placement.machine_sets, meta=dict(placement.meta))
        return self.base.make_policy(refined, inner)


@dataclass(frozen=True)
class IterationResult:
    """One iteration's outcome."""

    iteration: int
    makespan: float
    ratio_vs_lb: float
    effective_alpha: float


class IterativeSession:
    """Run a strategy over repeated iterations of one task set.

    Realization model: actual duration of task ``j`` in iteration ``t`` is
    ``p̃_j · f_j · ε_{j,t}`` where

    * ``f_j`` — hidden persistent bias, log-uniform within the
      ``bias_fraction`` share of the log-band (the part of the error a
      learner *can* remove), fixed across iterations;
    * ``ε_{j,t}`` — fresh noise, log-uniform within the remaining share
      (irreducible run-to-run variation).

    The product always stays inside the original α-band.

    Parameters
    ----------
    instance:
        The task set (its α defines the total uncertainty budget).
    strategy:
        Any :class:`~repro.core.strategy.TwoPhaseStrategy`; Phase 1 is
        re-run each iteration on the (possibly refined) estimates —
        re-placement cost is the application's concern, as in the paper.
    bias_fraction:
        Share of the log-band taken by the learnable persistent bias.
    seed:
        Drives both the bias draw and the per-iteration noise.
    """

    def __init__(
        self,
        instance: Instance,
        strategy: TwoPhaseStrategy,
        *,
        bias_fraction: float = 0.7,
        seed: int = 0,
    ) -> None:
        self.instance = instance
        self.strategy = strategy
        self.bias_fraction = check_fraction(bias_fraction, "bias_fraction")
        self._rng = np.random.default_rng(seed)
        log_a = math.log(instance.alpha)
        self._bias = np.exp(
            self._rng.uniform(
                -self.bias_fraction * log_a, self.bias_fraction * log_a, size=instance.n
            )
        )
        self._noise_span = (1.0 - self.bias_fraction) * log_a

    def _draw_realization(self, base: Instance) -> Realization:
        """One iteration's actuals, expressed against ``base``'s estimates.

        The *true* durations are ``original_estimate · bias · noise``; the
        returned realization converts them to factors on the (possibly
        refined) current estimates and clips to base's α-band, which is
        exactly what a real system would observe.
        """
        noise = np.exp(
            self._rng.uniform(-self._noise_span, self._noise_span, size=base.n)
        )
        true_durations = np.asarray(self.instance.estimates) * self._bias * noise
        factors = true_durations / np.asarray(base.estimates)
        lo, hi = 1.0 / base.alpha, base.alpha
        factors = np.clip(factors, lo, hi)
        return factors_realization(base, factors, label="iterative")

    def run(self, iterations: int, *, refine: bool = True, eta: float = 0.5) -> list[IterationResult]:
        """Run ``iterations`` passes; returns the per-iteration results."""
        check_positive_int(iterations, "iterations")
        current = self.instance
        refiner = EstimateRefiner(self.instance, eta=eta if refine else 0.0)
        results: list[IterationResult] = []
        for t in range(iterations):
            realization = self._draw_realization(current)
            outcome = run_strategy(self.strategy, current, realization, validate=False)
            lb = combined_lower_bound(list(realization.actuals), current.m)
            refiner.observe(realization)
            results.append(
                IterationResult(
                    iteration=t,
                    makespan=outcome.makespan,
                    ratio_vs_lb=outcome.makespan / lb,
                    effective_alpha=refiner.effective_alpha(),
                )
            )
            if refine:
                current = refiner.refined_instance()
        return results
