"""Phase 1, made incremental: online placement from a registry spec.

The paper's Phase-1 algorithms place a *known set* of tasks; a service
only ever sees the prefix that has arrived.  The bridge is the structure
the equal-group families share (declared by the ``online_placement``
capability, a strict subset of what the batch backend compiles): machines are
partitioned into equal groups, every task is replicated across exactly
one group, and Phase 1 is greedy least-estimated-load assignment over
groups.  Applied in *arrival order* that greedy rule is List Scheduling
— i.e. the online service runs ``ls_group``'s Phase 1 literally, and the
other families are its endpoints:

===================  =========================  =======================
registry spec        groups                     replica set per task
===================  =========================  =======================
``lpt_no_choice``    ``m`` singletons           one machine
``ls_group[k=g]``    ``g`` groups of ``m/g``    its group (``m/g``)
``lpt_group[k=g]``   ``g`` groups of ``m/g``    its group (``m/g``)
``lpt_no_restriction``  one group of ``m``      all machines
===================  =========================  =======================

(The LPT variants sort by estimate before assigning — impossible online,
so the daemon degrades them to arrival order and says so in its status
endpoint; ``docs/service.md`` discusses the guarantee implications.)

Strategy selection goes through :mod:`repro.registry` — specs are parsed
and validated there, capability checks reject families whose placements
are not partition-structured (``CapabilityError``, same as the engine),
and the canonical spec lands in the daemon's status output and run
manifest.  Tie-breaking matches :func:`~repro.schedulers.list_scheduling.
greedy_assign_heap` (least load, then lowest group id) so a batch of
admissions reproduces the offline placement bit for bit — the
equivalence tests in ``tests/test_service.py`` assert it.
"""

from __future__ import annotations

import heapq

from repro.registry import CapabilityError, capabilities_of, describe_strategy, make_strategy

__all__ = ["OnlinePlacer"]


class OnlinePlacer:
    """Incremental least-loaded group assignment for one daemon lifetime.

    Parameters
    ----------
    spec:
        A registry strategy spec (e.g. ``"ls_group[k=2]"``).  Must name a
        family with the ``online_placement`` capability — the flag that
        certifies greedy least-load Phase 1 over an equal-group machine
        partition, which is exactly the structure an online admission
        path can keep incrementally.  (Whether a strategy batches is no
        proxy: the batch compiler also replays placements —
        memory-balanced pinning, selective replication — that need the
        whole task set up front and cannot be hosted online.)
    m:
        Machine count of the cluster the daemon simulates.
    """

    def __init__(self, spec: str, m: int) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        strategy = make_strategy(spec)
        caps = capabilities_of(strategy)
        if caps is None or not caps.online_placement:
            raise CapabilityError(
                f"strategy {spec!r} cannot drive the online service: its "
                "placement cannot be kept incrementally in arrival order "
                "(requires the online_placement capability; use "
                "lpt_no_choice, lpt_no_restriction, ls_group[k=...] or "
                "lpt_group[k=...])"
            )
        self.spec = spec
        self.canonical_spec = describe_strategy(strategy)
        self.capabilities = caps
        self.m = m
        if caps.replication_factor == "none":
            k = m
        elif caps.replication_factor == "full":
            k = 1
        else:  # "group"
            k = int(strategy.k)
            if m % k != 0:
                raise ValueError(
                    f"group count k={k} must divide the machine count m={m}"
                )
        size = m // k
        self.k = k
        self.groups: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(g * size, (g + 1) * size)) for g in range(k)
        )
        self._loads = [0.0] * k
        # Same heap discipline as greedy_assign_heap: (load, group id),
        # ties broken by the lower group id.  Keeping the identical
        # arithmetic (one float add per assignment, heap order) is what
        # makes a batch of admissions bit-equal to the offline Phase 1.
        self._heap: list[tuple[float, int]] = [(0.0, g) for g in range(k)]
        heapq.heapify(self._heap)

    @property
    def replication(self) -> int:
        """Replica count per task, :math:`|M_j| = m/k`."""
        return self.m // self.k

    def assign(
        self, estimate: float, *, exclude: frozenset[int] = frozenset()
    ) -> tuple[int, tuple[int, ...]]:
        """Place one arriving task; returns ``(group, machines)``.

        Greedy least-estimated-committed-load over groups — the paper's
        Phase 1 in arrival order.  Committed load counts every admitted
        task's estimate regardless of completion state, matching the
        offline algorithms (they, too, never subtract finished work).

        ``exclude`` names groups the assignment must avoid (degraded
        mode: a group whose machines are all down cannot serve new
        data).  The least-loaded *surviving* group wins, with the same
        tie-break; excluded groups keep their heap position untouched,
        so once they recover the healthy arithmetic is bit-identical to
        a never-degraded run with the same assignments.  Raises
        ``ValueError`` when every group is excluded — the caller sheds.
        """
        if not exclude:
            load, group = heapq.heappop(self._heap)
            heapq.heappush(self._heap, (load + estimate, group))
            self._loads[group] = load + estimate
            return group, self.groups[group]
        if len(exclude) >= self.k:
            raise ValueError("every placement group is excluded; nothing can serve")
        skipped: list[tuple[float, int]] = []
        while True:
            load, group = heapq.heappop(self._heap)
            if group in exclude:
                skipped.append((load, group))
                continue
            break
        heapq.heappush(self._heap, (load + estimate, group))
        for item in skipped:
            heapq.heappush(self._heap, item)
        self._loads[group] = load + estimate
        return group, self.groups[group]

    def loads(self) -> tuple[float, ...]:
        """Committed estimated load per group (diagnostics/status)."""
        return tuple(self._loads)
