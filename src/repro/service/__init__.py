"""Placement-as-a-service: the online scheduling daemon.

Everything else in the repository replays finished instances offline; the
paper's Phase 2 is inherently *online* — replica choices must be
dispatched as machine-completion events stream in.  This package is the
long-running service that actually runs it:

* :mod:`repro.service.protocol` — the wire contract: task records and
  their lifecycle (``queued → running → done``), idempotency-key
  semantics, opaque pagination tokens, and the JSON request/response
  shapes (see ``docs/service.md`` for the endpoint reference).
* :mod:`repro.service.placement` — Phase 1, made incremental.  A
  registry spec (``ls_group[k=2]``, ``lpt_no_choice``,
  ``lpt_no_restriction``...) selects the replication structure through
  the same capability system grids use; admission assigns each arriving
  task to the least-estimated-loaded machine group, which is exactly the
  paper's List-Scheduling Phase 1 applied in arrival order.
* :mod:`repro.service.scheduler` — the deterministic core.  Admission
  (idempotent), queueing, and Phase-2 dispatch driven by a virtual-time
  :class:`~repro.simulation.events.EventQueue` with the event kernel's
  same-instant semantics: a completion at time *t* is revealed before
  any dispatch decision at *t*.  On a batch of admissions the core's
  trace is bit-identical to the offline
  :func:`~repro.simulation.engine.simulate` run (tests assert it).
* :mod:`repro.service.http` / :mod:`repro.service.daemon` — the asyncio
  shell: a dependency-free HTTP/1.1 server over TCP or a unix socket
  exposing admission/queue/status endpoints, live OpenMetrics at
  ``/metrics``, SLO evaluation at ``/v1/slo``, and graceful
  queue-draining shutdown.  All telemetry flows through the existing
  :mod:`repro.obs` tracer.
* :mod:`repro.service.client` / :mod:`repro.service.loadgen` — the
  asyncio client and the synthetic-tenant load generator
  (``repro loadgen``): thousands of concurrent tenants, seeded and
  reproducible, reporting latency percentiles and throughput (also
  the burst behind perfbench's ``service_zero_drop`` objective).

Quickstart::

    repro serve --m 8 --strategy "ls_group[k=2]" --socket /tmp/repro.sock
    repro loadgen --socket /tmp/repro.sock --tenants 1000 --drain --shutdown
"""

from repro.service.loadgen import LoadgenReport, TenantSpec, make_workload, run_loadgen
from repro.service.placement import OnlinePlacer
from repro.service.protocol import (
    AdmissionError,
    TaskRecord,
    TaskState,
    decode_page_token,
    encode_page_token,
)
from repro.service.scheduler import ServiceScheduler

__all__ = [
    "AdmissionError",
    "TaskRecord",
    "TaskState",
    "OnlinePlacer",
    "ServiceScheduler",
    "LoadgenReport",
    "TenantSpec",
    "make_workload",
    "run_loadgen",
    "encode_page_token",
    "decode_page_token",
]
