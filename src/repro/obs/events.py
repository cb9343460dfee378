"""Structured trace events and their schema.

Every observable occurrence — a span opening or closing, a simulator
dispatch, a run manifest — is one :class:`TraceEvent`: a monotonic
sequence number, a wall-clock offset from the tracer's epoch, a kind from
a closed vocabulary, a name, the nesting depth at emission time, and a
flat JSON-serializable payload.  The closed schema is what makes traces
machine-checkable: :func:`validate_record` (and the ``python -m
repro.obs.validate`` entry point built on it) rejects any record a future
refactor might garble, so the trace format is a contract, not a habit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TraceEvent",
    "EVENT_KINDS",
    "EVENT_PAYLOAD_FIELDS",
    "SCHEMA_VERSION",
    "validate_record",
]

#: Bumped whenever a backwards-incompatible field change lands.
SCHEMA_VERSION = 1

#: The closed vocabulary of event kinds.
EVENT_KINDS = frozenset(
    {
        "span_start",  # a tracer span opened
        "span_end",    # a tracer span closed (payload carries duration_s)
        "event",       # a point event (dispatch, completion, failure, ...)
        "counter",     # an explicit counter snapshot
        "manifest",    # a RunManifest attached to the trace
    }
)

#: Payload values must be JSON scalars (or None); nested containers are
#: flattened by the caller before emission.
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Required payload fields for known simulator point events (``kind ==
#: "event"``).  Extra fields are always allowed (worker replay adds
#: provenance keys, for instance); missing required fields are schema
#: violations — an engine refactor that drops a field fails validation.
EVENT_PAYLOAD_FIELDS: dict[str, tuple[str, ...]] = {
    "dispatch": ("task", "machine", "t"),
    "completion": ("task", "machine", "t"),
    "restart": ("task", "machine", "t"),
    "machine_failure": ("machine", "t"),
    "machine_recovery": ("machine", "t"),
    "machine_degraded": ("machine", "factor", "t"),
    "grid.cell_retry": ("strategy", "instance", "attempt", "error"),
    "grid.cell_quarantined": ("strategy", "instance", "attempts", "error"),
    "grid.batch_pack": ("strategy", "instance", "cells"),
    "grid.cell_cached": ("strategy", "instance", "model", "seed"),
    "service.admit": ("task", "tenant", "t"),
    "service.dispatch": ("task", "machine", "t"),
    "service.complete": ("task", "machine", "t"),
    "service.machine_failure": ("machine", "t"),
    "service.machine_recovery": ("machine", "t"),
    "service.replaced": ("task", "machine", "t"),
    "service.shed": ("tenant", "reason", "t"),
    "policy.transition": ("entity", "old", "new", "t"),
    "chaos.inject": ("machines", "downtime", "t"),
}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured observation.

    Attributes
    ----------
    seq:
        Monotonically increasing per tracer, starting at 0.
    ts:
        Seconds since the tracer's epoch (``time.perf_counter`` based, so
        monotonic and sub-microsecond).
    kind:
        One of :data:`EVENT_KINDS`.
    name:
        The span or event name (e.g. ``"simulate"``, ``"dispatch"``).
    depth:
        Span-stack depth at emission (0 = top level).
    payload:
        Flat mapping of JSON scalars.
    """

    seq: int
    ts: float
    kind: str
    name: str
    depth: int = 0
    payload: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """The JSONL wire form (includes the schema version)."""
        return {
            "v": SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
            "depth": self.depth,
            "payload": self.payload,
        }

    @staticmethod
    def from_dict(record: dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`as_dict` (validates first)."""
        errors = validate_record(record)
        if errors:
            raise ValueError(f"invalid trace record: {'; '.join(errors)}")
        return TraceEvent(
            seq=record["seq"],
            ts=record["ts"],
            kind=record["kind"],
            name=record["name"],
            depth=record["depth"],
            payload=dict(record["payload"]),
        )


def validate_record(record: object) -> list[str]:
    """Schema-check one decoded JSONL record; returns human-readable errors.

    An empty list means the record is valid.  Checks field presence,
    types, the closed ``kind`` vocabulary, and payload flatness.
    """
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    v = record.get("v")
    if v != SCHEMA_VERSION:
        errors.append(f"schema version must be {SCHEMA_VERSION}, got {v!r}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        errors.append(f"seq must be a non-negative int, got {seq!r}")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        errors.append(f"ts must be a non-negative number, got {ts!r}")
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        errors.append(f"kind must be one of {sorted(EVENT_KINDS)}, got {kind!r}")
    name = record.get("name")
    if not isinstance(name, str):
        errors.append(f"name must be a string, got {name!r}")
    depth = record.get("depth")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        errors.append(f"depth must be a non-negative int, got {depth!r}")
    payload = record.get("payload")
    if not isinstance(payload, dict):
        errors.append(f"payload must be an object, got {type(payload).__name__}")
    else:
        for key, value in payload.items():
            if not isinstance(key, str):
                errors.append(f"payload key {key!r} is not a string")
            if not isinstance(value, _SCALAR_TYPES) and not isinstance(value, (list, dict)):
                errors.append(
                    f"payload[{key!r}] has non-JSON type {type(value).__name__}"
                )
    if kind == "span_end" and isinstance(payload, dict):
        dur = payload.get("duration_s")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
            errors.append(
                f"span_end payload must carry a non-negative duration_s, got {dur!r}"
            )
    if kind == "event" and isinstance(payload, dict) and isinstance(name, str):
        required = EVENT_PAYLOAD_FIELDS.get(name)
        if required:
            for field_name in required:
                if field_name not in payload:
                    errors.append(
                        f"event {name!r} payload is missing required field "
                        f"{field_name!r}"
                    )
    return errors
