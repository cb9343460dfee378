"""Capability flags: what a registered strategy can structurally handle.

The paper's strategies differ not only in guarantees but in which model
*extensions* their Phase-2 policies understand: a pinned-aware dispatch
that never consults ``SchedulerView.is_released`` cannot be trusted under
release times, and a policy without abort-epoch handling cannot be trusted
under fault injection.  :class:`Capabilities` states those facts
declaratively on each registry entry, and the simulation engine turns
them into hard :class:`CapabilityError`\\ s instead of silent misbehavior
(see ``simulate(capabilities=...)``).

``replication_factor`` is a descriptive tag (``"none"``, ``"full"``,
``"group"``, ``"selective"``, ``"budgeted"``, ``"inherited"``) used by the
catalog and the capability queries — the *measured* replication of a run
still comes from the placement itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["Capabilities", "CapabilityError"]


class CapabilityError(TypeError):
    """A strategy was asked to run under a model feature it does not support.

    Raised by :func:`repro.simulation.engine.simulate` (and the harness
    entry points that forward to it) when the declared
    :class:`Capabilities` of the strategy exclude a requested feature —
    e.g. a fault-incapable policy under a
    :class:`~repro.faults.plan.FaultPlan`.  A typed error, so harness
    layers that convert :class:`~repro.simulation.engine.SimulationError`
    into "did not survive" records never swallow a plain misuse.
    """


@dataclass(frozen=True)
class Capabilities:
    """Declared abilities of one strategy family.

    Attributes
    ----------
    supports_faults:
        The Phase-2 policy stays correct under the fault extension
        (task aborts / machine recoveries / degraded speeds): it either
        tracks ``SchedulerView.abort_epoch`` or re-scans non-destructively
        every call.  This is about *policy correctness*, not about
        surviving data loss — an unreplicated placement may still die
        when its machine crashes, which is the measured availability
        tradeoff, not a capability violation.
    supports_releases:
        The policy consults ``SchedulerView.is_released`` and therefore
        behaves under non-zero release times.
    supports_hetero:
        Phase 1 can exploit a per-task uncertainty profile
        (:class:`~repro.hetero.uncertainty.HeteroUncertainty`).
    memory_aware:
        Phase 1 reads task *sizes* (the Section-6 memory model), not just
        time estimates.
    online_placement:
        Phase 1 is greedy least-estimated-load assignment over an
        equal-group machine partition, so the service daemon
        (:mod:`repro.service.placement`) can run it *incrementally* in
        arrival order and reproduce the offline placement bit for bit.
        Many placements (memory-balanced pinning, selective replication,
        budgeted caps) depend on seeing the whole task set and cannot be
        kept online.
    replication_factor:
        Descriptive placement shape tag for catalogs and queries.
    """

    supports_faults: bool = True
    supports_releases: bool = True
    supports_hetero: bool = False
    memory_aware: bool = False
    online_placement: bool = False
    replication_factor: str = "none"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form for manifests and the catalog generator."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def flags(self) -> tuple[str, ...]:
        """Names of the boolean capabilities that are set, declaration order."""
        return tuple(
            f.name
            for f in fields(self)
            if f.type == "bool" and getattr(self, f.name)
        )
