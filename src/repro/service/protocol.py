"""The service wire contract: task lifecycle, idempotency, pagination.

The daemon's API surface is deliberately small and fully described by
this module so the HTTP layer stays a thin translation:

* :class:`TaskRecord` — one admitted task and its full lifecycle
  (``queued → running → done``).  The public JSON form enforces the
  paper's semi-clairvoyant information model: the *actual* duration of a
  task appears in responses only after the task completed, exactly as
  :class:`~repro.core.strategy.SchedulerView` reveals actuals only at
  completion.
* **Idempotency keys** — an admission request may carry a client-chosen
  key; re-submitting the same key returns the original decision instead
  of admitting a second task.  This is the standard at-most-once
  admission pattern for retrying clients (see ``docs/service.md``).
* **Pagination tokens** — task listings return at most ``limit`` records
  plus an opaque ``next_page_token``; tokens encode only a cursor, so a
  listing is stable under concurrent admissions (new tasks append after
  the cursor).
"""

from __future__ import annotations

import base64
import binascii
import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "AdmissionError",
    "TaskState",
    "TaskRecord",
    "encode_page_token",
    "decode_page_token",
    "MAX_PAGE_LIMIT",
    "DEFAULT_PAGE_LIMIT",
]

#: Listing page-size cap; larger ``limit`` values are clamped, not errors.
MAX_PAGE_LIMIT = 500
#: Page size when the client does not pass ``limit``.
DEFAULT_PAGE_LIMIT = 50


class AdmissionError(ValueError):
    """A task submission the scheduler must reject (HTTP 400).

    Raised for malformed estimates (non-positive, non-finite), unknown
    fields the strict decoder refuses, or admissions after shutdown
    began.  Carries a machine-readable ``code`` so clients can branch
    without parsing prose.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class TaskState(str, enum.Enum):
    """Lifecycle of an admitted task.

    ``QUEUED`` — admitted and placed (its replica set :math:`M_j` is
    fixed) but not yet dispatched; ``RUNNING`` — dispatched to one
    machine of its replica set; ``DONE`` — completed, actual duration
    revealed.  There is no drop state: admission is the only gate, and
    an admitted task always completes (the CI smoke job asserts zero
    drops under a 1000-tenant burst).
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


@dataclass(slots=True)
class TaskRecord:
    """One admitted task, mutated by the scheduler as it progresses.

    The daemon keeps every record for its lifetime, so the class has
    slots: no per-record ``__dict__``.

    Attributes
    ----------
    tid:
        Dense task id in admission order — the service-wide arrival
        order that Phase-2 dispatch scans (List-Scheduling semantics).
    tenant:
        Client-supplied tenant label (free-form; loadgen uses
        ``tenant-<i>``).
    key:
        Idempotency key, or ``None`` when the client did not send one.
    estimate:
        The estimated processing time :math:`\\tilde p_j` the placement
        decision was based on.
    size:
        Optional memory footprint (carried through for the memory-aware
        model; not interpreted by the service's core placement families).
    group:
        Index of the machine group the task was placed on.
    machines:
        The replica set :math:`M_j` — Phase 2 may only dispatch the task
        to one of these.
    state, machine, admitted_at, started_at, finished_at, actual:
        Lifecycle fields; ``machine`` and timestamps fill in as the
        virtual clock advances, ``actual`` only at completion.
    restarts:
        Times the task was re-placed onto a surviving replica after the
        machine running it failed (degraded-mode bookkeeping; 0 on a
        healthy fleet).
    """

    tid: int
    tenant: str
    key: str | None
    estimate: float
    size: float
    group: int
    machines: tuple[int, ...]
    state: TaskState = TaskState.QUEUED
    machine: int | None = None
    admitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    actual: float | None = field(default=None, repr=False)
    restarts: int = 0

    def as_dict(self) -> dict[str, Any]:
        """The public JSON form.

        Semi-clairvoyant by construction: ``actual`` (and
        ``finished_at``) are present only once the task is ``done`` —
        a client polling a running task cannot observe its duration
        early, mirroring :class:`~repro.core.strategy.SchedulerView`.
        """
        payload: dict[str, Any] = {
            "task_id": self.tid,
            "tenant": self.tenant,
            "state": self.state.value,
            "estimate": self.estimate,
            "size": self.size,
            "group": self.group,
            "machines": list(self.machines),
            "replication": len(self.machines),
            "admitted_at": self.admitted_at,
            "restarts": self.restarts,
        }
        if self.key is not None:
            payload["idempotency_key"] = self.key
        if self.state is not TaskState.QUEUED:
            payload["machine"] = self.machine
            payload["started_at"] = self.started_at
        if self.state is TaskState.DONE:
            payload["finished_at"] = self.finished_at
            payload["actual"] = self.actual
        return payload


def encode_page_token(cursor: int) -> str:
    """Opaque pagination token for ``cursor`` (the next task id to serve).

    Base64 of a tiny prefixed payload — opaque enough that clients treat
    it as a handle (the API-design rule: never let callers fabricate or
    interpret cursors), trivial enough to stay dependency-free.
    """
    raw = f"cursor:{int(cursor)}".encode("ascii")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def decode_page_token(token: str) -> int:
    """Inverse of :func:`encode_page_token`.

    Raises :class:`AdmissionError` (code ``bad_page_token``) on any
    malformed token so the HTTP layer maps it to a 400 uniformly.
    """
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii")).decode("ascii")
    except (binascii.Error, UnicodeDecodeError, UnicodeEncodeError, ValueError):
        raise AdmissionError("bad_page_token", f"malformed page token {token!r}") from None
    prefix, _, value = raw.partition(":")
    if prefix != "cursor" or not value.isdigit():
        raise AdmissionError("bad_page_token", f"malformed page token {token!r}")
    return int(value)
