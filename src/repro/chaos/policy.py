"""Health policies for the service's machines.

The declarative state machine follows DIRAC's ResourceStatusSystem
idiom: an entity (a machine, a rack) moves through **healthy → suspect →
quarantined → recovered → healthy**, and transitions are decided by a
frozen :class:`HealthPolicy` (thresholds, cooldowns).  All time is the
caller's: every observation carries an explicit ``at`` timestamp, so the
tracker runs identically in virtual soak time and wall time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable

from repro.obs import get_tracer

__all__ = [
    "HealthState",
    "HealthPolicy",
    "HealthTracker",
    "Transition",
]


class HealthState(str, enum.Enum):
    """The four health states an entity moves through.

    ``RECOVERED`` is probation: the entity came back from quarantine but
    must string together successes before it counts as ``HEALTHY`` again
    — one failure sends it straight back to ``QUARANTINED``.
    """

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    RECOVERED = "recovered"


@dataclass(frozen=True)
class Transition:
    """One state change: who, from, to, when, and why."""

    entity: Hashable
    old: HealthState
    new: HealthState
    at: float
    reason: str

    def as_dict(self) -> dict[str, Any]:
        """JSON form for reports and traces."""
        return {
            "entity": str(self.entity),
            "old": self.old.value,
            "new": self.new.value,
            "at": self.at,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class HealthPolicy:
    """The declarative thresholds driving :class:`HealthTracker`.

    Parameters
    ----------
    suspect_after:
        Consecutive failures that turn ``HEALTHY`` into ``SUSPECT``.
    quarantine_after:
        Consecutive failures *while suspect* that escalate to
        ``QUARANTINED`` (state entry resets the counters, so the total
        run of failures to quarantine is ``suspect_after +
        quarantine_after``).
    probation_after:
        Seconds an entity sits in ``QUARANTINED`` before
        :meth:`HealthTracker.tick` paroles it to ``RECOVERED``.
    recover_after:
        Consecutive successes that promote ``SUSPECT`` or ``RECOVERED``
        back to ``HEALTHY``.
    """

    suspect_after: int = 1
    quarantine_after: int = 3
    probation_after: float = 10.0
    recover_after: int = 2

    def __post_init__(self) -> None:
        if self.suspect_after < 1 or self.recover_after < 1 or self.quarantine_after < 1:
            raise ValueError(
                "suspect_after, quarantine_after and recover_after must all be >= 1"
            )
        if not self.probation_after > 0:
            raise ValueError("probation_after must be > 0")


class _EntityHealth:
    """Mutable per-entity counters (internal to the tracker)."""

    __slots__ = ("state", "failures", "successes", "since")

    def __init__(self) -> None:
        self.state = HealthState.HEALTHY
        self.failures = 0
        self.successes = 0
        self.since = 0.0


class HealthTracker:
    """Drives the state machine over observations.

    The tracker never invents time: :meth:`observe_success`,
    :meth:`observe_failure` and :meth:`tick` all take ``at`` explicitly,
    which is what keeps soak runs deterministic.
    """

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy or HealthPolicy()
        self.transitions: list[Transition] = []
        self._entities: dict[Hashable, _EntityHealth] = {}

    # -- observations ------------------------------------------------------
    def observe_failure(self, entity: Hashable, at: float, *, reason: str = "failure") -> HealthState:
        """Record one failure for ``entity`` at time ``at``; returns its state."""
        health = self._entities.setdefault(entity, _EntityHealth())
        health.failures += 1
        health.successes = 0
        policy = self.policy
        if health.state is HealthState.HEALTHY and health.failures >= policy.suspect_after:
            self._move(entity, health, HealthState.SUSPECT, at, reason)
        if (
            health.state is HealthState.SUSPECT
            and health.failures >= policy.quarantine_after
        ):
            self._move(entity, health, HealthState.QUARANTINED, at, reason)
        elif health.state is HealthState.RECOVERED:
            self._move(entity, health, HealthState.QUARANTINED, at, f"{reason} during probation")
        elif health.state is HealthState.QUARANTINED:
            health.since = at  # extend the quarantine window
        return health.state

    def observe_success(self, entity: Hashable, at: float) -> HealthState:
        """Record one success for ``entity`` at time ``at``; returns its state."""
        health = self._entities.setdefault(entity, _EntityHealth())
        health.successes += 1
        health.failures = 0
        if (
            health.state in (HealthState.SUSPECT, HealthState.RECOVERED)
            and health.successes >= self.policy.recover_after
        ):
            self._move(entity, health, HealthState.HEALTHY, at, "recovered")
        return health.state

    def observe_completion(self, entity: Hashable, at: float) -> HealthState:
        """Workload progress on ``entity`` — a success only during probation.

        Completions by a ``SUSPECT`` machine do not erase crash history
        (finishing a task is not evidence a machine stopped crashing —
        that is what lets a flapper accumulate to quarantine), but a
        ``RECOVERED`` machine's completions are exactly the probation
        evidence the policy wants.
        """
        health = self._entities.get(entity)
        if health is not None and health.state is HealthState.RECOVERED:
            return self.observe_success(entity, at)
        return health.state if health else HealthState.HEALTHY

    def tick(self, at: float) -> list[Transition]:
        """Advance time-based transitions (quarantine → probation) up to ``at``."""
        paroled: list[Transition] = []
        for entity, health in self._entities.items():
            if (
                health.state is HealthState.QUARANTINED
                and at - health.since >= self.policy.probation_after
            ):
                self._move(entity, health, HealthState.RECOVERED, at, "probation")
                paroled.append(self.transitions[-1])
        return paroled

    def _move(
        self,
        entity: Hashable,
        health: _EntityHealth,
        new: HealthState,
        at: float,
        reason: str,
    ) -> None:
        transition = Transition(entity, health.state, new, at, reason)
        health.state = new
        health.since = at
        health.failures = 0
        health.successes = 0
        self.transitions.append(transition)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("policy.transitions")
            tracer.event(
                "policy.transition",
                entity=str(entity),
                old=transition.old.value,
                new=new.value,
                t=at,
            )
            tracer.registry.gauge("policy.quarantined").set(
                float(sum(1 for h in self._entities.values() if h.state is HealthState.QUARANTINED))
            )

    # -- queries -----------------------------------------------------------
    def state(self, entity: Hashable) -> HealthState:
        """Current state of ``entity`` (unknown entities are healthy)."""
        health = self._entities.get(entity)
        return health.state if health else HealthState.HEALTHY

    def states(self) -> dict[Hashable, HealthState]:
        """Every tracked entity's current state."""
        return {entity: h.state for entity, h in self._entities.items()}

    def counts(self) -> dict[str, int]:
        """Entity count per state (report material)."""
        out = {state.value: 0 for state in HealthState}
        for health in self._entities.values():
            out[health.state.value] += 1
        return out
