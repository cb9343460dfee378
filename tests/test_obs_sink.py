"""JsonlSink: the tracer's sequence numbers reach disk verbatim, every
written trace is ``repro.obs.validate``-clean, and sinks flush and close
even when the traced command raises.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import JsonlSink, observed
from repro.obs.events import TraceEvent
from repro.obs.validate import validate_trace


def ev(seq, ts, kind, name, depth=0, **payload):
    return TraceEvent(seq=seq, ts=ts, kind=kind, name=name, depth=depth,
                      payload=payload)


def long_span_events(ticks):
    """One long-lived span wrapping ``ticks`` point events."""
    events = [ev(0, 0.0, "span_start", "run")]
    for i in range(ticks):
        events.append(ev(i + 1, 0.01 * (i + 1), "event", "tick", depth=1, i=i))
    events.append(
        ev(ticks + 1, 0.01 * (ticks + 1), "span_end", "run",
           duration_s=0.01 * (ticks + 1))
    )
    return events


class TestWireFormat:
    def test_tracer_seq_is_written_verbatim(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            for event in long_span_events(50):
                sink.emit(event)
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(52))
        _, errors = validate_trace(path)
        assert errors == []


class TestExceptionSafety:
    def test_sink_context_closes_on_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(RuntimeError, match="boom"):
            with sink:
                sink.emit(ev(0, 0.0, "event", "x"))
                raise RuntimeError("boom")
        with pytest.raises(ValueError, match="closed"):
            sink.emit(ev(1, 0.1, "event", "y"))
        # The buffered line reached disk despite the crash.
        assert json.loads(path.read_text())["name"] == "x"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_crashed_traced_run_still_yields_valid_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with observed(JsonlSink(path)) as tracer:
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        raise RuntimeError("mid-span crash")
        # Span context managers unwound, sink flushed and closed: the
        # partial trace is complete and parseable.
        stats, errors = validate_trace(path)
        assert errors == []
        assert stats["span_start"] == 2 and stats["span_end"] == 2
