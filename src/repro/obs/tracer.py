"""Nestable-span tracer with a near-free disabled path.

The design constraint is the ROADMAP's: the simulator is a hot path that
future PRs will drive millions of times, so instrumentation must cost
~nothing when observability is off.  The disabled path is therefore:

* ``tracer.span(...)`` returns one shared no-op context manager — no
  allocation, no clock read;
* ``tracer.count(...)`` / ``tracer.event(...)`` return after a single
  attribute check;
* hot loops may hoist ``tracer.enabled`` into a local bool and skip the
  call entirely.

When enabled, spans nest via an explicit stack, timestamps come from
``time.perf_counter`` (monotonic, sub-microsecond), and every span
start/end, point event, and manifest fans out to the attached
:mod:`~repro.obs.sink` objects while counts land in the
:class:`~repro.obs.metrics.MetricsRegistry`.  An enabled tracer with no
sink is the *counters-only* mode: counters, gauges and span timers are
recorded as usual, but no :class:`~repro.obs.events.TraceEvent` (nor a
copy of a span's attributes) is ever built.

A process-global default tracer (:func:`get_tracer`) is what the library
instruments against; it is **disabled** until :func:`enable` (or the
:func:`observed` context manager, or a CLI ``--trace`` flag) turns it on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import Sink

__all__ = ["Span", "Tracer", "get_tracer", "enable", "disable", "observed"]


class _NoopSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; use only via ``with tracer.span(name, **attrs):``.

    Attributes set at creation (and via :meth:`set` while open) travel in
    the ``span_start``/``span_end`` event payloads; the end event also
    carries ``duration_s``.
    """

    __slots__ = ("tracer", "name", "attrs", "depth", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.start = 0.0
        self.end = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (e.g. the result size)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.depth = len(tr._stack)
        tr._stack.append(self)
        self.start = time.perf_counter()
        if tr.sinks:
            tr._emit("span_start", self.name, self.depth, dict(self.attrs))
        return self

    def __exit__(self, exc_type: object, *exc: object) -> bool:
        self.end = time.perf_counter()
        tr = self.tracer
        if tr._stack and tr._stack[-1] is self:
            tr._stack.pop()
        if tr.sinks:
            payload = dict(self.attrs)
            payload["duration_s"] = self.duration
            if exc_type is not None:
                payload["error"] = getattr(exc_type, "__name__", str(exc_type))
            tr._emit("span_end", self.name, self.depth, payload)
        tr.registry.timer(f"span.{self.name}").observe(self.duration)
        return False


class Tracer:
    """Span/event recorder fanning out to sinks and a metrics registry."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        sinks: list[Sink] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.enabled = enabled
        self.sinks: list[Sink] = list(sinks) if sinks is not None else []
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stack: list[Span] = []
        self._seq = 0
        self._epoch = time.perf_counter()

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span | _NoopSpan:
        """Open a nestable timed span (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **payload: Any) -> None:
        """Record a point event (dispatch, completion, ...)."""
        if not self.enabled:
            return
        self._emit("event", name, len(self._stack), payload)

    def count(self, name: str, delta: int = 1) -> None:
        """Increment a registry counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.counter(name).inc(delta)

    def snapshot_counters(self) -> None:
        """Emit one ``counter`` event per registry counter.

        Called before a sink closes so a JSONL trace carries its final
        totals and is self-contained for offline analysis.
        """
        if not self.enabled:
            return
        for name, counter in sorted(self.registry.counters.items()):
            self._emit("counter", name, len(self._stack), {"value": counter.value})

    def manifest(self, manifest: Any) -> None:
        """Attach a :class:`~repro.obs.provenance.RunManifest` to the trace."""
        if not self.enabled:
            return
        payload = manifest.as_dict() if hasattr(manifest, "as_dict") else dict(manifest)
        self._emit("manifest", payload.get("kind", "run"), len(self._stack), payload)

    def _emit(self, kind: str, name: str, depth: int, payload: dict[str, Any]) -> None:
        if not self.sinks:
            return
        ev = TraceEvent(
            seq=self._seq,
            ts=time.perf_counter() - self._epoch,
            kind=kind,
            name=name,
            depth=depth,
            payload=payload,
        )
        self._seq += 1
        for sink in self.sinks:
            sink.emit(ev)

    # -- lifecycle --------------------------------------------------------

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def reset(self) -> None:
        """Clear sequence, span stack, sinks, and metrics."""
        for sink in self.sinks:
            sink.close()
        self.sinks = []
        self.registry.reset()
        self._stack = []
        self._seq = 0
        self._epoch = time.perf_counter()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


#: The process-global default tracer — disabled until :func:`enable`.
_DEFAULT = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The tracer all library instrumentation reports to."""
    return _DEFAULT


def enable(
    *sinks: Sink,
    reset: bool = True,
    registry: MetricsRegistry | None = None,
) -> Tracer:
    """Turn the global tracer on, attaching ``sinks``.  Returns the tracer
    for chaining.  With no sinks it records counters, gauges and span
    timers only (the CLI's ``--metrics`` / ``--metrics-out`` mode)."""
    tr = _DEFAULT
    if reset:
        tr.reset()
    if registry is not None:
        tr.registry = registry
    for sink in sinks:
        tr.add_sink(sink)
    tr.enabled = True
    return tr


def disable() -> Tracer:
    """Turn the global tracer off and close its sinks (data is kept in
    any :class:`~repro.obs.sink.MemorySink` still referenced by the
    caller)."""
    tr = _DEFAULT
    tr.enabled = False
    tr.close()
    return tr


@contextmanager
def observed(*sinks: Sink, registry: MetricsRegistry | None = None) -> Iterator[Tracer]:
    """``with observed(MemorySink()) as tracer:`` — scoped enablement.

    With no sinks it records counters, gauges and span timers only.
    Restores the previous enabled/sink/registry state on exit, so nested
    library code and tests can't leak a hot tracer into later runs.
    """
    tr = _DEFAULT
    prev_enabled = tr.enabled
    prev_sinks = tr.sinks
    prev_registry = tr.registry
    prev_stack, prev_seq = tr._stack, tr._seq
    tr.sinks = list(sinks)
    tr.registry = registry if registry is not None else MetricsRegistry()
    tr._stack, tr._seq = [], 0
    tr._epoch = time.perf_counter()
    tr.enabled = True
    try:
        yield tr
    finally:
        tr.close()
        tr.enabled = prev_enabled
        tr.sinks = prev_sinks
        tr.registry = prev_registry
        tr._stack, tr._seq = prev_stack, prev_seq
