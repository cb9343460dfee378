"""Unit tests for repro.simulation.events."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.events import Event, EventKind, EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(2.0, EventKind.MACHINE_IDLE, "b")
        q.push(1.0, EventKind.MACHINE_IDLE, "a")
        assert q.pop().payload == "a"
        assert q.pop().payload == "b"

    def test_kind_priority_at_same_time(self):
        """Completions are processed before idle polls at the same instant —
        the semi-clairvoyant reveal ordering."""
        q = EventQueue()
        q.push(1.0, EventKind.MACHINE_IDLE, "idle")
        q.push(1.0, EventKind.TASK_COMPLETION, "done")
        q.push(1.0, EventKind.TASK_RELEASE, "release")
        assert q.pop().payload == "release"
        assert q.pop().payload == "done"
        assert q.pop().payload == "idle"

    def test_fifo_within_same_time_and_kind(self):
        q = EventQueue()
        q.push(1.0, EventKind.MACHINE_IDLE, "first")
        q.push(1.0, EventKind.MACHINE_IDLE, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"


def _order(ev: Event) -> tuple:
    return (ev.time, ev.kind, ev.seq)


class TestTiedOrder:
    @given(
        st.lists(
            st.tuples(
                # A handful of times (0.0 and -0.0 among them), so most
                # events tie exactly on time and many on kind too.
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, 3.0]),
                st.sampled_from(list(EventKind)),
            ),
            max_size=60,
        ),
        st.data(),
    )
    def test_each_pop_is_the_least_queued_event(self, pushes, data):
        q = EventQueue()
        queued: list[Event] = []
        for time, kind in pushes:
            # Payloads that cannot be ordered: a heap that compared them
            # would raise.
            queued.append(q.push(time, kind, object()))
            # Pops interleave with pushes, as in the kernel.
            while q and data.draw(st.booleans()):
                ev = q.pop()
                assert ev is min(queued, key=_order)
                queued.remove(ev)
        drained = [q.pop() for _ in range(len(q))]
        assert drained == sorted(queued, key=_order)


class TestQueueBasics:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(0.0, EventKind.MACHINE_IDLE)
        assert q
        assert len(q) == 1

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(3.0, EventKind.MACHINE_IDLE, "x")
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.MACHINE_IDLE)

    def test_nan_time_rejected(self):
        # A NaN compares false against everything and would break the heap.
        with pytest.raises(ValueError, match="must be >= 0"):
            EventQueue().push(math.nan, EventKind.MACHINE_IDLE)

    def test_push_returns_event(self):
        ev = EventQueue().push(1.5, EventKind.TASK_COMPLETION, (1, 2))
        assert isinstance(ev, Event)
        assert ev.time == 1.5
        assert ev.payload == (1, 2)


class TestEventKindValues:
    def test_release_before_completion_before_idle(self):
        assert EventKind.TASK_RELEASE < EventKind.TASK_COMPLETION < EventKind.MACHINE_IDLE
