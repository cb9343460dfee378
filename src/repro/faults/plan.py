"""Declarative fault scenarios for the discrete-event engine.

The paper motivates replication explicitly by fault tolerance ("most
Hadoop systems replicate the data for the purpose of tolerating hardware
faults"); a :class:`FaultPlan` is the structured description of *which*
hardware misbehaves and *how*, decoupled from the engine that plays it.
Four fault kinds cover the regimes where replication strategies
differentiate:

* :class:`CrashStop` — a machine stops permanently;
* :class:`CrashRecover` — a machine stops, then rejoins after a
  downtime (``math.inf`` downtime degenerates to crash-stop and the
  engine produces an identical trace);
* :class:`DegradedInterval` — a straggler: the machine keeps running but
  at a fraction of its speed for a time window;
* :class:`CorrelatedFailure` — a rack/group loss: several machines fail
  at the same instant (with a shared optional downtime).

A plan is a frozen value object: picklable, hashable where its faults
are, and validated against a machine count only when the engine consumes
it (:meth:`FaultPlan.validate`), so the same plan can be replayed against
any cluster size that fits it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

from repro._validation import check_non_negative_float, check_positive_float

__all__ = [
    "CrashStop",
    "CrashRecover",
    "DegradedInterval",
    "CorrelatedFailure",
    "Fault",
    "FaultPlan",
    "merge_plans",
]


@dataclass(frozen=True)
class CrashStop:
    """Machine ``machine`` halts permanently at time ``at``.

    The running task (if any) is aborted and must restart from scratch on
    another machine holding its data.
    """

    machine: int
    at: float


@dataclass(frozen=True)
class CrashRecover:
    """Machine ``machine`` halts at ``at`` and rejoins after ``downtime``.

    While down it dispatches nothing; on recovery it polls for work like
    any idle machine.  ``downtime=math.inf`` never recovers and is
    engine-equivalent to :class:`CrashStop`.
    """

    machine: int
    at: float
    downtime: float


@dataclass(frozen=True)
class DegradedInterval:
    """Machine ``machine`` runs at ``factor`` × its base speed in [start, end).

    The straggler model: a task caught inside the interval has its
    *remaining work* rescaled at the boundary (no lost progress, no free
    speedup), and tasks dispatched inside run slow until the interval
    ends.  ``end=math.inf`` degrades the machine for the rest of the run.
    ``factor`` must be positive; values above 1 are allowed (a burst), the
    straggler regime is ``factor < 1``.
    """

    machine: int
    start: float
    end: float
    factor: float


@dataclass(frozen=True)
class CorrelatedFailure:
    """A group of machines (a rack, a power domain) fails together at ``at``.

    Expands to one crash per member with the shared ``downtime``
    (``math.inf`` = permanent, the default).  Keeping the group in one
    fault object preserves the correlation in provenance output.
    """

    machines: tuple[int, ...]
    at: float
    downtime: float = math.inf


Fault = Union[CrashStop, CrashRecover, DegradedInterval, CorrelatedFailure]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults, played by ``simulate(..., faults=...)``.

    Declaration order is preserved all the way into the engine's event
    queue, so two runs of the same plan produce identical traces (the
    queue breaks timestamp ties by insertion order).
    """

    faults: tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    @staticmethod
    def of(*faults: Fault) -> "FaultPlan":
        """Convenience variadic constructor: ``FaultPlan.of(CrashStop(0, 2.0))``."""
        return FaultPlan(tuple(faults))

    # -- engine-facing normalization --------------------------------------

    def crashes(self) -> list[tuple[float, int, float]]:
        """Flatten to ``(at, machine, downtime)`` triples, declaration order.

        Correlated failures expand to one triple per member (members in
        the order given).  Crash-stops carry ``math.inf`` downtime.
        """
        out: list[tuple[float, int, float]] = []
        for fault in self.faults:
            if isinstance(fault, CrashStop):
                out.append((float(fault.at), int(fault.machine), math.inf))
            elif isinstance(fault, CrashRecover):
                out.append((float(fault.at), int(fault.machine), float(fault.downtime)))
            elif isinstance(fault, CorrelatedFailure):
                for machine in fault.machines:
                    out.append((float(fault.at), int(machine), float(fault.downtime)))
        return out

    def slowdowns(self) -> list[DegradedInterval]:
        """The degraded-speed intervals, declaration order."""
        return [f for f in self.faults if isinstance(f, DegradedInterval)]

    def machines(self) -> set[int]:
        """Every machine id the plan touches (for validation and reports)."""
        touched = {machine for _, machine, _ in self.crashes()}
        touched.update(s.machine for s in self.slowdowns())
        return touched

    def validate(self, m: int) -> None:
        """Check the plan fits an ``m``-machine cluster; raise ``ValueError``.

        Machine ids must be in ``0..m-1``, failure and interval start times
        finite and non-negative, downtimes positive (or infinite), degraded
        factors finite and positive with ``start < end`` (``end`` may be
        infinite), and no two degraded intervals on the same machine may
        overlap (the engine tracks one active factor per machine).
        """
        for at, machine, downtime in self.crashes():
            if not 0 <= machine < m:
                raise ValueError(
                    f"fault references machine {machine}, outside 0..{m - 1}"
                )
            check_non_negative_float(at, f"failure time for machine {machine}")
            if not downtime > 0:
                raise ValueError(
                    f"downtime for machine {machine} must be > 0, got {downtime}"
                )
        by_machine: dict[int, list[DegradedInterval]] = {}
        for slow in self.slowdowns():
            if not 0 <= slow.machine < m:
                raise ValueError(
                    f"fault references machine {slow.machine}, outside 0..{m - 1}"
                )
            check_non_negative_float(
                slow.start, f"degraded interval start on machine {slow.machine}"
            )
            if not slow.start < slow.end:
                raise ValueError(
                    f"degraded interval on machine {slow.machine} is empty: "
                    f"[{slow.start}, {slow.end})"
                )
            check_positive_float(
                slow.factor, f"degraded factor on machine {slow.machine}"
            )
            by_machine.setdefault(slow.machine, []).append(slow)
        for machine, intervals in by_machine.items():
            intervals.sort(key=lambda s: s.start)
            for a, b in zip(intervals, intervals[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"degraded intervals on machine {machine} overlap: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )

    # -- provenance --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Fault counts by kind (manifest/report material)."""
        out = {"crash_stop": 0, "crash_recover": 0, "degraded": 0, "correlated": 0}
        for fault in self.faults:
            if isinstance(fault, CrashStop):
                out["crash_stop"] += 1
            elif isinstance(fault, CrashRecover):
                out["crash_recover"] += 1
            elif isinstance(fault, DegradedInterval):
                out["degraded"] += 1
            elif isinstance(fault, CorrelatedFailure):
                out["correlated"] += 1
        return out

    def describe(self) -> str:
        """One-line human summary for labels and logs."""
        if not self.faults:
            return "fault-free"
        parts = [f"{kind}={n}" for kind, n in self.counts().items() if n]
        return ", ".join(parts)


def merge_plans(plans: Iterable[FaultPlan]) -> FaultPlan:
    """Concatenate several plans into one (declaration order preserved)."""
    faults: list[Fault] = []
    for plan in plans:
        faults.extend(plan.faults)
    return FaultPlan(tuple(faults))
