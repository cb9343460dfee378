"""Pluggable event sinks: where :class:`~repro.obs.events.TraceEvent`\\ s go.

Two zero-dependency sinks cover the practical cases:

* :class:`MemorySink` — bounded ring buffer, the default for tests and
  interactive inspection;
* :class:`JsonlSink` — one JSON object per line, the durable format every
  ``--trace`` flag writes and ``repro.obs.validate`` checks.

A sink is anything with ``emit(event)`` and ``close()``; the tracer fans
out to every attached sink, so combinations (ring buffer *and* file) are
free.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO

from repro.obs.events import TraceEvent

__all__ = ["Sink", "MemorySink", "JsonlSink", "read_jsonl"]


class Sink:
    """Sink interface; subclasses override :meth:`emit`."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered data to durable storage (no-op by default).

        The parallel backend flushes every sink before forking workers so
        a child process never inherits (and later double-flushes) a
        parent's buffered bytes.
        """

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class MemorySink(Sink):
    """Ring buffer of the last ``capacity`` events."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)

    def by_kind(self, kind: str) -> list[TraceEvent]:
        """All buffered events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]


class JsonlSink(Sink):
    """Write events to ``path``, one JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._fh.write(json.dumps(event.as_dict(), separators=(",", ":")) + "\n")

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace back into validated :class:`TraceEvent` objects."""
    events = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events
