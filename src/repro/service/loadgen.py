"""Synthetic-tenant load generation against the placement daemon.

``repro loadgen`` drives many concurrent tenants — each one a keep-alive
connection submitting a seeded stream of task admissions, with periodic
idempotency-key retries mixed in to exercise the dedup path the way real
retrying clients would.  The workload is generated per tenant from
``default_rng([seed, tenant_index])``, so it is identical across runs
and across concurrency levels; with ``concurrency=1`` the *admission
order* is deterministic too, and the report's ``decision_digest``
(a hash over every placement decision) is bit-stable — the property
``tests/test_loadgen.py`` pins.

Two entry points:

* :func:`run_loadgen` — drive an already-running daemon (what the CLI
  and the CI smoke job use).
* :func:`run_burst` — spin an in-process daemon on a private transport,
  run the workload, shut it down, return both reports (what tests and
  perfbench's ``service_zero_drop`` objective use).

Wang–Joshi–Wornell (arXiv 1404.1328) motivates the metrics reported
here: per-task *latency* percentiles and throughput alongside the
makespan-style totals the rest of the repo measures.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.scheduler import ServiceScheduler

__all__ = ["TenantSpec", "LoadgenReport", "make_workload", "run_loadgen", "run_burst"]

#: Every ``RETRY_EVERY``-th task of each tenant is submitted twice with
#: the same idempotency key (deliberate duplicate, must dedup).
RETRY_EVERY = 7

#: Transport-level retry budget per submission: a connection reset is
#: replayed up to this many times (the idempotency key makes the replay
#: safe — at worst the daemon dedups it).
RETRY_ATTEMPTS = 3
#: Capped exponential backoff between transport retries, in seconds.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 0.5


@dataclass(frozen=True)
class TenantSpec:
    """One synthetic tenant's scripted submissions."""

    tenant: str
    estimates: tuple[float, ...]
    keys: tuple[str, ...]


@dataclass
class LoadgenReport:
    """What one loadgen run observed; ``as_dict`` is the JSON form."""

    tenants: int
    tasks: int
    requests: int = 0
    created: int = 0
    deduplicated: int = 0
    errors: int = 0
    retries: int = 0
    wall_s: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    throughput_rps: float = 0.0
    decision_digest: str = ""
    final_status: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable view (stable key order for diffing)."""
        return {
            "tenants": self.tenants,
            "tasks": self.tasks,
            "requests": self.requests,
            "created": self.created,
            "deduplicated": self.deduplicated,
            "errors": self.errors,
            "retries": self.retries,
            "wall_s": self.wall_s,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "throughput_rps": self.throughput_rps,
            "decision_digest": self.decision_digest,
            "final_status": self.final_status,
        }


def make_workload(
    tenants: int,
    tasks_per_tenant: int,
    *,
    seed: int = 0,
    est_low: float = 0.5,
    est_high: float = 4.0,
) -> list[TenantSpec]:
    """Seeded synthetic workload: log-uniform estimates per tenant.

    Tenant ``i`` draws from ``default_rng([seed, i])``, so the workload
    is independent of how many tenants run and of submission
    interleaving — the determinism contract the loadgen tests pin.
    """
    if tenants < 1 or tasks_per_tenant < 1:
        raise ValueError("tenants and tasks_per_tenant must both be >= 1")
    if not (0 < est_low <= est_high):
        raise ValueError(f"need 0 < est_low <= est_high, got [{est_low}, {est_high}]")
    specs = []
    ratio = est_high / est_low
    for i in range(tenants):
        rng = np.random.default_rng([seed, i])
        estimates = tuple(
            float(est_low * ratio**u) for u in rng.random(tasks_per_tenant)
        )
        keys = tuple(f"t{i}-{j}" for j in range(tasks_per_tenant))
        specs.append(TenantSpec(tenant=f"tenant-{i}", estimates=estimates, keys=keys))
    return specs


async def _drive_tenant(
    spec: TenantSpec,
    report: LoadgenReport,
    latencies: list[float],
    decisions: list[tuple[str, str, int, float]],
    semaphore: asyncio.Semaphore,
    **client_kw: Any,
) -> None:
    """One tenant's scripted session on its own keep-alive connection.

    Transient transport failures (connection reset, broken pipe) are
    retried with capped exponential backoff: the submission carries an
    idempotency key, so a replay is at-most-once by construction — the
    daemon either admits it fresh or dedups it.  Replays count in
    ``report.retries``, *not* ``report.errors``; only protocol errors
    and an exhausted retry budget are errors.
    """
    async with semaphore:
        async with ServiceClient(**client_kw) as client:
            for j, (estimate, key) in enumerate(zip(spec.estimates, spec.keys)):
                attempts = 2 if j % RETRY_EVERY == RETRY_EVERY - 1 else 1
                for _ in range(attempts):
                    start = time.perf_counter()
                    body = None
                    for backoff in range(RETRY_ATTEMPTS + 1):
                        try:
                            body = await client.submit(spec.tenant, estimate, key=key)
                            break
                        except ServiceError:
                            report.errors += 1
                            break
                        except (ConnectionError, OSError):
                            # Stale half-open connection: drop it so the
                            # next attempt reconnects from scratch.
                            await client.close()
                            if backoff >= RETRY_ATTEMPTS:
                                report.errors += 1
                                break
                            report.retries += 1
                            await asyncio.sleep(
                                min(
                                    RETRY_BACKOFF_S * 2**backoff,
                                    RETRY_BACKOFF_CAP_S,
                                )
                            )
                    if body is None:
                        continue
                    latencies.append(time.perf_counter() - start)
                    report.requests += 1
                    if body.get("created"):
                        report.created += 1
                        decisions.append(
                            (spec.tenant, key, body["group"], estimate)
                        )
                    else:
                        report.deduplicated += 1


async def run_loadgen(
    workload: list[TenantSpec],
    *,
    host: str = "127.0.0.1",
    port: int | None = None,
    socket_path: str | None = None,
    concurrency: int = 64,
    drain: bool = False,
    shutdown: bool = False,
) -> LoadgenReport:
    """Drive ``workload`` against a running daemon; returns the report.

    ``concurrency`` caps simultaneous tenant connections (1000 tenants
    on a CI runner must not hold 1000 file descriptors at once — a
    semaphore admits ``concurrency`` sessions at a time).  With
    ``drain``/``shutdown`` the run ends by draining the daemon's queue
    (and stopping it), and ``final_status`` carries the daemon's last
    stats — the zero-drop check is ``admitted == done`` there.  Raises
    the ``OSError`` of the first connection when no daemon listens.
    """
    client_kw: dict[str, Any] = (
        {"socket_path": socket_path} if socket_path else {"host": host, "port": port}
    )
    report = LoadgenReport(
        tenants=len(workload), tasks=sum(len(s.estimates) for s in workload)
    )
    latencies: list[float] = []
    decisions: list[tuple[str, str, int, float]] = []
    semaphore = asyncio.Semaphore(max(1, concurrency))
    # Reach the daemon once before the tenants start: with none listening,
    # the OSError surfaces now, not after every tenant's retry budget.
    async with ServiceClient(**client_kw) as probe:
        await probe.connect()
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _drive_tenant(spec, report, latencies, decisions, semaphore, **client_kw)
            for spec in workload
        )
    )
    report.wall_s = time.perf_counter() - started
    async with ServiceClient(**client_kw) as control:
        if shutdown:
            report.final_status = await control.shutdown()
        elif drain:
            report.final_status = await control.drain()
        else:
            report.final_status = await control.status()
    if latencies:
        arr = np.asarray(latencies)
        report.latency_p50_ms = float(np.percentile(arr, 50) * 1e3)
        report.latency_p99_ms = float(np.percentile(arr, 99) * 1e3)
    if report.wall_s > 0:
        report.throughput_rps = report.requests / report.wall_s
    digest = hashlib.sha256()
    for tenant, key, group, estimate in sorted(decisions):
        digest.update(f"{tenant}|{key}|{group}|{estimate!r};".encode("ascii"))
    report.decision_digest = digest.hexdigest()
    return report


def run_burst(
    tenants: int = 50,
    tasks_per_tenant: int = 4,
    *,
    seed: int = 0,
    strategy: str = "ls_group[k=2]",
    m: int = 8,
    alpha: float = 1.5,
    model: str = "log_uniform",
    concurrency: int = 32,
    metrics_out: str | None = None,
) -> LoadgenReport:
    """In-process end-to-end burst: daemon up, workload through, drain, down.

    The loopback-TCP fixture behind the loadgen tests and perfbench's
    ``service_zero_drop`` objective.  Synchronous on purpose —
    it owns its event loop via :func:`asyncio.run`.
    """
    workload = make_workload(tenants, tasks_per_tenant, seed=seed)

    async def _burst() -> LoadgenReport:
        scheduler = ServiceScheduler(
            strategy, m=m, alpha=alpha, model=model, seed=seed
        )
        daemon = ServiceDaemon(scheduler, port=0, metrics_out=metrics_out)
        server_task = asyncio.create_task(daemon.serve())
        await daemon.started.wait()
        try:
            return await run_loadgen(
                workload,
                port=daemon.port,
                concurrency=concurrency,
                shutdown=True,
            )
        finally:
            await server_task

    return asyncio.run(_burst())
