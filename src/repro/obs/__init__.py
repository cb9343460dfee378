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

Each name below is imported on first access (PEP 562), so a process
that only traces does not load the analytics, export or SLO modules.

Quickstart::

    from repro.obs import MemorySink, observed

    with observed(MemorySink()) as tracer:
        rec = repro.measured_ratio(strategy, inst, real)
        print(tracer.registry.summary()["counters"])
"""

from repro._exports import lazy_exports

# repro.obs.validate exports nothing here.  Import it directly:
# ``from repro.obs.validate import validate_trace``.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.obs.events": (
            "TraceEvent",
            "EVENT_KINDS",
            "EVENT_PAYLOAD_FIELDS",
            "SCHEMA_VERSION",
            "validate_record",
        ),
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Timer",
            "MetricsRegistry",
            "BUCKET_BOUNDS",
        ),
        "repro.obs.sink": ("Sink", "MemorySink", "JsonlSink", "read_jsonl"),
        "repro.obs.tracer": (
            "Span",
            "Tracer",
            "get_tracer",
            "enable",
            "disable",
            "observed",
        ),
        "repro.obs.provenance": (
            "RunManifest",
            "run_manifest",
            "bench_manifest",
            "environment_info",
        ),
        "repro.obs.merge": ("replay_events", "merge_registry_summary"),
        "repro.obs.analyze": (
            "SpanNode",
            "TraceAnalysis",
            "analyze_events",
            "analyze_file",
        ),
        "repro.obs.export": (
            "render_openmetrics",
            "registry_from_trace",
            "write_exposition",
            "validate_exposition",
        ),
        "repro.obs.slo": ("Objective", "SLOReport", "parse_objectives", "evaluate_slo"),
    },
)
