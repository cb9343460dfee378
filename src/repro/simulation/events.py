"""Deterministic event queue for the discrete-event engine.

Events are plain ``(time, kind, seq, payload)`` tuples in a binary heap,
so the heap compares them in C.  Determinism matters for the
reproduction: two runs of the same strategy on the same realization must
produce the identical trace (tests assert this), so ties are broken first
by an explicit integer priority (e.g. completions before idle polls at
the same instant), then by insertion sequence.  ``seq`` is unique, so the
payload is never compared.
"""

from __future__ import annotations

import heapq
import itertools
from enum import IntEnum
from typing import Any, NamedTuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps.

    ``TASK_COMPLETION`` precedes ``MACHINE_IDLE`` so a completion at time
    ``t`` is revealed before any dispatch decision at ``t`` — exactly the
    semi-clairvoyant model: "the actual processing times of the tasks are
    known once they complete".  ``TASK_RELEASE`` precedes both so newly
    released work is visible to same-instant decisions.
    ``MACHINE_FAILURE`` sits between completion and idle: a task finishing
    exactly at the failure instant still completes, but the failed machine
    never dispatches at (or after) that instant.  ``MACHINE_RECOVERY``
    follows failure: a new outage landing at the exact instant an earlier
    one ends is processed first, so the kernel can extend the downtime and
    discard the superseded recovery — overlapping outages union instead of
    racing.  ``MACHINE_SPEED`` transitions apply before any
    same-instant dispatch, so a task dispatched at a degraded interval's
    boundary runs at the interval's speed.
    """

    TASK_RELEASE = 0
    TASK_COMPLETION = 1
    MACHINE_FAILURE = 2
    MACHINE_RECOVERY = 3
    MACHINE_SPEED = 4
    MACHINE_IDLE = 5


class Event(NamedTuple):
    """One scheduled event.

    Ordering is tuple order: time, then kind, then sequence number —
    total and deterministic.
    """

    time: float
    kind: EventKind
    seq: int
    payload: Any = None


# Builds an Event without the NamedTuple's Python-level ``__new__``.
_new_event = tuple.__new__


class EventQueue:
    """Min-heap of :class:`Event` with deterministic tie-breaking.

    ``_heap`` is the heap list itself: a hot loop that owns the queue
    (the event kernel's) may ``heapq.heappop`` it directly, which is
    :meth:`pop` without the empty check.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns it (mainly for tests)."""
        if not time >= 0:  # also rejects NaN, which would break the heap order
            raise ValueError(f"event time must be >= 0, got {time}")
        ev = _new_event(Event, (float(time), kind, next(self._counter), payload))
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
