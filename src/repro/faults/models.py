"""Seeded fault-scenario generators (``FaultModel.sample(rng)``).

Benches and tests need *distributions* over fault scenarios, not
hand-written plans: E7 draws dozens of random failure patterns, the
robustness metrics average over them, and everything must be
reproducible from a seed.  A :class:`FaultModel` is a frozen description
of such a distribution; :meth:`~FaultModel.sample` draws one
:class:`~repro.faults.plan.FaultPlan` from a ``numpy`` generator, so the
caller owns the seed and two samplings from equal-seeded generators are
identical.

Models mirror the fault kinds:

* :class:`RandomCrashes` — k ∈ [count range] machines crash at uniform
  times (crash-stop, or crash-recover when a downtime range is given);
* :class:`StragglerSlowdowns` — each machine independently degrades to a
  random speed fraction for a random window.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import CrashRecover, CrashStop, DegradedInterval, Fault, FaultPlan

__all__ = ["FaultModel", "RandomCrashes", "StragglerSlowdowns"]


class FaultModel(abc.ABC):
    """A seeded distribution over fault scenarios.

    Implementations are frozen dataclasses (picklable, comparable) whose
    only entry point is :meth:`sample`; all randomness flows through the
    caller's generator so scenario sets are reproducible by construction.
    """

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> FaultPlan:
        """Draw one fault scenario from ``rng``."""


@dataclass(frozen=True)
class RandomCrashes(FaultModel):
    """``count`` ∈ [lo, hi] distinct machines crash at uniform random times.

    ``count=(0, 2)`` includes the fault-free control arm — a sampled plan
    may be empty, which the engine runs as a normal healthy simulation.
    A finite ``downtime`` range turns the crashes into crash-recover
    faults with per-crash uniform downtimes.
    """

    m: int
    count: tuple[int, int] = (0, 2)
    window: tuple[float, float] = (0.0, 15.0)
    downtime: tuple[float, float] | None = None

    def sample(self, rng: np.random.Generator) -> FaultPlan:
        lo, hi = self.count
        n_failures = int(rng.integers(lo, hi + 1))
        faults: list[Fault] = []
        if n_failures:
            machines = rng.choice(self.m, size=n_failures, replace=False)
            times = rng.uniform(self.window[0], self.window[1], size=n_failures)
            for machine, at in zip(machines, times):
                if self.downtime is None:
                    faults.append(CrashStop(int(machine), float(at)))
                else:
                    down = float(rng.uniform(self.downtime[0], self.downtime[1]))
                    faults.append(CrashRecover(int(machine), float(at), down))
        return FaultPlan(tuple(faults))


@dataclass(frozen=True)
class StragglerSlowdowns(FaultModel):
    """Each machine independently straggles with probability ``prob``.

    A straggling machine runs at a uniform random ``factor`` (drawn from
    ``factors``) for a window starting uniformly in ``window`` and
    lasting a uniform draw from ``durations``.  No machine ever dies, so
    every strategy survives — what differentiates them is makespan
    inflation.
    """

    m: int
    prob: float = 0.3
    factors: tuple[float, float] = (0.3, 0.8)
    window: tuple[float, float] = (0.0, 10.0)
    durations: tuple[float, float] = (2.0, 8.0)

    def sample(self, rng: np.random.Generator) -> FaultPlan:
        faults: list[Fault] = []
        for machine in range(self.m):
            if rng.uniform() >= self.prob:
                continue
            start = float(rng.uniform(self.window[0], self.window[1]))
            duration = float(rng.uniform(self.durations[0], self.durations[1]))
            factor = float(rng.uniform(self.factors[0], self.factors[1]))
            faults.append(DegradedInterval(machine, start, start + duration, factor))
        return FaultPlan(tuple(faults))
