"""Structured observability: tracing, metrics, and run provenance.

The layer every other subsystem reports into:

* :mod:`repro.obs.tracer` — nestable spans + point events, no-op unless
  enabled (:func:`enable` / :func:`observed` / CLI ``--trace``);
* :mod:`repro.obs.metrics` — named counters, gauges, histogram timers;
* :mod:`repro.obs.events` / :mod:`repro.obs.sink` — the structured event
  record and where it goes (ring buffer or JSONL file);
* :mod:`repro.obs.provenance` — :class:`RunManifest` records tying every
  result back to its exact configuration;
* :mod:`repro.obs.validate` — schema validation for trace files
  (``python -m repro.obs.validate trace.jsonl``);
* :mod:`repro.obs.merge` — fold worker-process events and metrics back
  into the parent tracer (the parallel grid backend's trace merge);
* :mod:`repro.obs.analyze` — span-forest reconstruction, self-time and
  critical-path attribution (``repro obs analyze trace.jsonl``);
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text exposition
  (``repro obs export`` / ``repro sweep --metrics-out``);
* :mod:`repro.obs.slo` — declarative latency/availability objectives
  evaluated fail-closed against recorded metrics;
* :mod:`repro.obs.profiling` — opt-in cProfile hooks for grid cells
  (``repro sweep --profile``).

Quickstart::

    from repro.obs import MemorySink, observed

    with observed(MemorySink()) as tracer:
        rec = repro.measured_ratio(strategy, inst, real)
        print(tracer.registry.summary()["counters"])
"""

# NOTE: repro.obs.validate is deliberately NOT imported here — importing
# it from the package __init__ would trip CPython's double-import warning
# when CI runs ``python -m repro.obs.validate``.  Import it directly:
# ``from repro.obs.validate import validate_trace``.
from repro.obs.analyze import SpanNode, TraceAnalysis, analyze_events, analyze_file
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_PAYLOAD_FIELDS,
    SCHEMA_VERSION,
    TraceEvent,
    validate_record,
)
from repro.obs.export import (
    registry_from_trace,
    render_openmetrics,
    validate_exposition,
    write_exposition,
)
from repro.obs.merge import merge_registry_summary, replay_events
from repro.obs.metrics import BUCKET_BOUNDS, Counter, Gauge, MetricsRegistry, Timer
from repro.obs.slo import Objective, SLOReport, evaluate as evaluate_slo, parse_objectives
from repro.obs.provenance import RunManifest, bench_manifest, environment_info, run_manifest
from repro.obs.sink import JsonlSink, MemorySink, Sink, read_jsonl
from repro.obs.tracer import Span, Tracer, disable, enable, get_tracer, observed

__all__ = [
    "TraceEvent",
    "EVENT_KINDS",
    "EVENT_PAYLOAD_FIELDS",
    "SCHEMA_VERSION",
    "validate_record",
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "Span",
    "Tracer",
    "get_tracer",
    "enable",
    "disable",
    "observed",
    "RunManifest",
    "run_manifest",
    "bench_manifest",
    "environment_info",
    "replay_events",
    "merge_registry_summary",
    "BUCKET_BOUNDS",
    "SpanNode",
    "TraceAnalysis",
    "analyze_events",
    "analyze_file",
    "render_openmetrics",
    "registry_from_trace",
    "write_exposition",
    "validate_exposition",
    "Objective",
    "SLOReport",
    "parse_objectives",
    "evaluate_slo",
]
