"""End-to-end strategy runs and competitive-ratio measurement.

:func:`run_strategy` plays both phases (placement, then the discrete-event
simulation under a realization) and returns the full outcome;
:func:`measured_ratio` divides the achieved makespan by the exact optimum
(or a certified lower bound — flagged) of the realized times.  Everything
else in the empirical benches is built on these two calls: they are the
per-cell kernel behind every measured paper artifact (Table 1/2 checks,
Figure 3, benches E1–E16).

Both entry points are pure functions of picklable inputs (strategies,
instances, and realizations are all plain frozen dataclasses), which is
what lets :mod:`repro.analysis.parallel` ship grid cells to worker
processes and still merge byte-identical results.  Keep it that way: no
module-level mutable state, no closures in the call signature.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategy import TwoPhaseStrategy
from repro.exact.optimal import OptimalValue, optimal_makespan
from repro.faults.plan import FaultPlan
from repro.obs.tracer import get_tracer
from repro.registry.capabilities import Capabilities
from repro.simulation.engine import simulate
from repro.simulation.trace import ScheduleTrace
from repro.uncertainty.realization import Realization

__all__ = [
    "StrategyOutcome",
    "RatioRecord",
    "build_placement",
    "run_strategy",
    "measured_ratio",
    "guarantee_of",
    "within_guarantee",
]


def build_placement(strategy: TwoPhaseStrategy, instance: Instance) -> Placement:
    """Run Phase 1 (``strategy.place``) under an observability span.

    The instrumented entry point for placement builds: :func:`run_strategy`
    and the batch compiler (:func:`repro.simulation.batch.build_plan`) look
    it up here at call time, so every Phase-1 build shows up as a
    ``phase1`` span with a ``phase1.placements`` counter, at zero cost when
    tracing is off.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return strategy.place(instance)
    with tracer.span(
        "phase1", strategy=strategy.name, n=instance.n, m=instance.m
    ) as span:
        placement = strategy.place(instance)
        span.set(
            replication=placement.max_replication(),
            total_replicas=placement.total_replicas(),
        )
    tracer.count("phase1.placements")
    return placement


def guarantee_of(strategy: TwoPhaseStrategy, instance: Instance) -> float | None:
    """``strategy.guarantee(instance)`` if the strategy defines one, else ``None``."""
    guarantee_fn = getattr(strategy, "guarantee", None)
    return guarantee_fn(instance) if callable(guarantee_fn) else None


def within_guarantee(
    ratio: float, guarantee: float | None, optimum_exact: bool
) -> bool | None:
    """Whether a measured ratio respects the theoretical guarantee.

    Meaningful only when the denominator is the exact optimum: a
    lower-bound denominator can push the measured ratio above a guarantee
    that truly holds, so those cases return ``None`` when violated rather
    than ``False``.  ``None`` also when there is no guarantee.
    """
    if guarantee is None:
        return None
    tol = 1e-9 * max(1.0, guarantee)
    if ratio <= guarantee + tol:
        return True
    return False if optimum_exact else None


@dataclass(frozen=True)
class StrategyOutcome:
    """Result of one complete two-phase run.

    Attributes
    ----------
    strategy_name:
        The strategy's display name.
    placement:
        Phase-1 output (carries the replication and memory metrics).
    trace:
        The executed Phase-2 schedule (validated against the placement).
    makespan:
        :math:`C_{max}` of the run.
    """

    strategy_name: str
    placement: Placement
    trace: ScheduleTrace
    makespan: float

    @property
    def replication(self) -> int:
        """:math:`\\max_j |M_j|` of the placement used."""
        return self.placement.max_replication()

    @property
    def memory_max(self) -> float:
        """:math:`Mem_{max}` of the placement used."""
        return self.placement.memory_max()


@dataclass(frozen=True)
class RatioRecord:
    """A measured competitive ratio with full provenance.

    ``ratio`` is ``makespan / optimum.value``; when ``optimum.optimal`` is
    False the denominator is a lower bound, so ``ratio`` over-states the
    true competitive ratio (safe direction for guarantee checks).
    """

    outcome: StrategyOutcome
    optimum: OptimalValue
    ratio: float
    guarantee: float | None

    @property
    def within_guarantee(self) -> bool | None:
        """:func:`within_guarantee` of this record."""
        return within_guarantee(self.ratio, self.guarantee, self.optimum.optimal)


def run_strategy(
    strategy: TwoPhaseStrategy,
    instance: Instance,
    realization: Realization,
    *,
    validate: bool = True,
    release_times: Sequence[float] | None = None,
    speeds: Sequence[float] | None = None,
    faults: FaultPlan | None = None,
    capabilities: Capabilities | None = None,
    placement: Placement | None = None,
) -> StrategyOutcome:
    """Play Phase 1 and Phase 2 and return the outcome.

    ``validate`` (default on) re-checks the produced trace for full
    feasibility; disable only inside tight benchmark loops.
    ``placement`` is a Phase-1 placement this strategy already built for
    ``instance`` (the grid passes the one a refused batch pack built);
    Phase 1 then does not run again.

    ``release_times`` / ``speeds`` / ``faults`` pass
    through to :func:`repro.simulation.engine.simulate` unchanged.  When
    a fault plan or release times are present, the strategy's declared
    capability envelope is enforced: ``capabilities`` defaults to the
    registry's :func:`~repro.registry.capabilities_of` lookup, so e.g. a
    ``supports_faults=False`` strategy under a plan raises
    :class:`~repro.registry.CapabilityError` instead of silently running
    outside its analysis.
    """
    tracer = get_tracer()
    if capabilities is None and (
        faults is not None or release_times is not None
    ):
        from repro.registry import capabilities_of

        capabilities = capabilities_of(strategy)
    if placement is None:
        placement = build_placement(strategy, instance)
    policy = strategy.make_policy(instance, placement)
    with tracer.span(
        "phase2", strategy=strategy.name, realization=realization.label
    ):
        trace = simulate(
            placement,
            realization,
            policy,
            release_times=release_times,
            speeds=speeds,
            faults=faults,
            capabilities=capabilities,
            label=f"{strategy.name}/{realization.label}",
        )
    if validate:
        trace.validate(placement, realization)
    return StrategyOutcome(strategy.name, placement, trace, trace.makespan)


def measured_ratio(
    strategy: TwoPhaseStrategy,
    instance: Instance,
    realization: Realization,
    *,
    exact_limit: int = 22,
    validate: bool = True,
    placement: Placement | None = None,
) -> RatioRecord:
    """Run the strategy and divide its makespan by the clairvoyant optimum.

    The guarantee recorded alongside is the strategy's own
    ``guarantee(instance)`` if it defines one (all paper strategies do).
    ``placement`` passes to :func:`run_strategy` unchanged.
    """
    outcome = run_strategy(strategy, instance, realization, validate=validate, placement=placement)
    optimum = optimal_makespan(realization.actuals, instance.m, exact_limit=exact_limit)
    return RatioRecord(
        outcome, optimum, outcome.makespan / optimum.value, guarantee_of(strategy, instance)
    )
