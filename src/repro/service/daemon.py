"""The asyncio daemon: placement-as-a-service over HTTP.

One process, one event loop, one :class:`~repro.service.scheduler.
ServiceScheduler`.  Route handlers are synchronous (the loop's
single-threadedness is the concurrency control — no handler ever
observes a half-applied admission), and a background *pump* coroutine
advances the scheduler's virtual clock between requests, so completions
stream in interleaved with admissions exactly as the paper's Phase 2
assumes.

Endpoints (full request/response reference in ``docs/service.md``):

======  ==================  ===========================================
POST    ``/v1/tasks``       admit a task (idempotency-key aware)
GET     ``/v1/tasks``       paginated listing (opaque ``page_token``)
GET     ``/v1/tasks/<id>``  one task's lifecycle record
GET     ``/v1/queue``       queue depth, per-group committed loads
GET     ``/v1/status``      configuration + live counters
GET     ``/metrics``        OpenMetrics exposition of the live registry
GET     ``/v1/slo``         evaluate SLO objectives against the registry
GET     ``/v1/health``      fleet health: availability, down machines,
                            degraded groups, policy state
POST    ``/v1/chaos``       inject machine failures/recoveries (chaos hooks)
POST    ``/v1/drain``       stop admitting, run the queue to empty
POST    ``/v1/shutdown``    drain, flush telemetry, stop the server
======  ==================  ===========================================

Retryable service states (``draining``, ``degraded``) map to HTTP 503;
client mistakes stay 400.

Transports: TCP (``--port``, ``0`` picks a free port) and/or a unix
domain socket (``--socket``), both served by one :class:`asyncio.Protocol`
(:class:`_Connection`): bytes go through the synchronous
:class:`~repro.service.http.RequestParser`, each response leaves in one
``transport.write``, reading pauses while the peer is not reading its
answers, and shutdown closes every open connection.  Telemetry rides the
existing global :mod:`repro.obs` tracer — run under ``repro serve
--trace`` for a JSONL trace plus a live ``results/telemetry.prom``
exposition.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import time
from typing import Any

from repro._validation import check_non_negative_float
from repro.obs import evaluate_slo, get_tracer, render_openmetrics, run_manifest, write_exposition
from repro.service.http import (
    HttpError,
    Request,
    RequestParser,
    Response,
    error_response,
    json_response,
    serialize_response,
)
from repro.service.protocol import AdmissionError, decode_page_token
from repro.service.scheduler import ServiceScheduler

__all__ = ["ServiceDaemon", "DEFAULT_OBJECTIVES", "OPENMETRICS_CONTENT_TYPE"]

#: Objectives ``GET /v1/slo`` evaluates when the client sends none.
#: Fail-closed like everything in :mod:`repro.obs.slo`: an untraced
#: daemon fails them (no metrics recorded) rather than passing vacuously.
DEFAULT_OBJECTIVES = (
    "count(service.admissions) >= 1",
    "p99(service.request) < 250ms",
)

OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Admission request fields the strict decoder accepts.
_ADMIT_FIELDS = frozenset({"tenant", "estimate", "size", "idempotency_key"})

#: Seconds shutdown waits for open connections to flush before aborting.
_CLOSE_GRACE_S = 1.0


class _Connection(asyncio.Protocol):
    """One client connection: parse, route and answer, synchronously.

    Requests are answered in order, each in one ``transport.write``.
    While the transport's write buffer is above its high-water mark the
    peer is not reading, so reading pauses and buffered requests wait.
    """

    def __init__(self, daemon: "ServiceDaemon") -> None:
        self.daemon = daemon
        self.parser = RequestParser()
        self.transport: asyncio.Transport | None = None
        self.paused = False
        self.closing = False
        self.lost: asyncio.Future[None] = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if self.daemon._stop.is_set():
            # Accepted while shutting down: nothing would close it later.
            self.closing = True
            transport.close()
            return
        self.daemon._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closing = True
        self.daemon._connections.discard(self)
        if not self.lost.done():
            self.lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        self.parser.feed(data)
        self._serve()

    def eof_received(self) -> bool:
        self.parser.feed_eof()
        self._serve()
        return True  # stay open to finish answering; _serve closes

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        if not self.closing:
            self.transport.resume_reading()
            self._serve()

    def close(self) -> None:
        if not self.closing:
            self.closing = True
            self.transport.close()

    def _serve(self) -> None:
        """Answer every complete buffered request until paused or closed."""
        daemon, parser, transport = self.daemon, self.parser, self.transport
        while not self.paused and not self.closing:
            try:
                request = parser.next()
            except HttpError as exc:
                response = error_response(exc.status, exc.code, str(exc))
                transport.write(serialize_response(response, keep_alive=False))
                self.close()
                return
            if request is None:
                if parser.eof:
                    self.close()
                return
            response = daemon._respond(request)
            transport.write(serialize_response(response, keep_alive=request.keep_alive))
            daemon._kick()
            daemon._flush_metrics()
            if not request.keep_alive:
                self.close()


class ServiceDaemon:
    """The serving shell around one :class:`ServiceScheduler`.

    Parameters
    ----------
    scheduler:
        The deterministic core to serve.
    host, port:
        TCP listen address; ``port=None`` disables TCP, ``port=0`` binds
        a free port (recorded in :attr:`port` once serving).
    socket_path:
        Unix-domain socket path; ``None`` disables the unix transport.
    metrics_out:
        When set, the OpenMetrics exposition is rewritten here at most
        every ``flush_interval`` seconds and once at shutdown — point a
        scraper (or ``promtool``) at the file.
    pace:
        Virtual seconds advanced per real second by the pump, finite and
        ``>= 0``; ``0`` (default) runs the simulated cluster eagerly, i.e.
        completions land as soon as the loop is otherwise idle.
    """

    def __init__(
        self,
        scheduler: ServiceScheduler,
        *,
        host: str = "127.0.0.1",
        port: int | None = 0,
        socket_path: str | None = None,
        metrics_out: str | None = None,
        pace: float = 0.0,
        flush_interval: float = 0.5,
    ) -> None:
        if port is None and socket_path is None:
            raise ValueError("daemon needs at least one transport (port or socket_path)")
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.metrics_out = metrics_out
        self.pace = check_non_negative_float(pace, "pace")
        self.flush_interval = float(flush_interval)
        self.started = asyncio.Event()
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self._last_flush = 0.0
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: set[_Connection] = set()
        self._pump_task: asyncio.Task[None] | None = None

    # -- lifecycle ---------------------------------------------------------
    async def serve(self) -> None:
        """Bind transports, pump events, serve until shutdown is requested.

        Returns after a ``POST /v1/shutdown`` (or :meth:`stop`) once the
        queue is drained, all transports and connections are closed, and
        the final telemetry exposition is flushed.
        """
        tracer = get_tracer()
        if tracer.enabled and tracer.sinks:
            tracer.manifest(
                run_manifest("service", "daemon", params=self.scheduler.stats())
            )
        loop = asyncio.get_running_loop()
        if self.port is not None:
            server = await loop.create_server(lambda: _Connection(self), self.host, self.port)
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        bound: os.stat_result | None = None
        if self.socket_path is not None:
            server = await loop.create_unix_server(
                lambda: _Connection(self), path=self.socket_path
            )
            self._servers.append(server)
            bound = os.stat(self.socket_path)
        self._pump_task = asyncio.create_task(self._pump())
        self.started.set()
        try:
            await self._stop.wait()
        finally:
            for server in self._servers:
                server.close()
            await self._close_connections()
            for server in self._servers:
                await server.wait_closed()
            self._servers.clear()
            if bound is not None:
                self._unlink_socket(bound)
            if self._pump_task is not None:
                self._pump_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._pump_task
            self.scheduler.begin_drain()
            self.scheduler.drain()
            self._flush_metrics(force=True)
            self.started.clear()

    def stop(self) -> None:
        """Ask :meth:`serve` to exit (used by ``/v1/shutdown`` and tests)."""
        self._stop.set()

    def _unlink_socket(self, bound: os.stat_result) -> None:
        """Remove the socket file, but only the one this daemon bound.

        A closed unix server leaves its path behind (before Python 3.13),
        where a readiness check would take it for a live daemon.  If the
        path now names another file (a newer daemon's socket), it stays.
        """
        with contextlib.suppress(FileNotFoundError):
            now = os.stat(self.socket_path)
            if (now.st_dev, now.st_ino) == (bound.st_dev, bound.st_ino):
                os.unlink(self.socket_path)

    async def _close_connections(self) -> None:
        """Close every open connection, aborting any that cannot flush."""
        while self._connections:
            conns = list(self._connections)
            for conn in conns:
                conn.close()
            lost = [conn.lost for conn in conns]
            _, pending = await asyncio.wait(lost, timeout=_CLOSE_GRACE_S)
            for conn in conns:
                if not conn.lost.done():
                    conn.transport.abort()
            if pending:
                await asyncio.wait(pending)

    async def _pump(self) -> None:
        """Advance virtual time whenever the cluster has pending events.

        Eager mode (``pace == 0``) steps as fast as the loop allows,
        yielding every few steps so request handlers interleave; paced
        mode sleeps real ``(t_next - t_now) / pace`` seconds first, which
        makes the virtual cluster feel like a real one to a human
        watching ``/v1/queue``.
        """
        steps = 0
        while True:
            if not self.scheduler.queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            if self.pace > 0:
                horizon = self.scheduler.queue.peek().time
                delay = max(0.0, horizon - self.scheduler.clock) / self.pace
                if delay:
                    await asyncio.sleep(delay)
            self.scheduler.step()
            steps += 1
            if self.pace == 0 and steps % 64 == 0:
                await asyncio.sleep(0)
            elif self.pace == 0:
                # A zero-sleep every step would thrash; yield only at the
                # batch boundary above or when the queue momentarily empties.
                continue

    def _kick(self) -> None:
        self._wake.set()

    # -- routing -----------------------------------------------------------
    def _respond(self, request: Request) -> Response:
        """Route one request, inside a ``service.request`` span when traced."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("service.request", method=request.method, path=request.path):
                return self._route(request)
        return self._route(request)

    def _route(self, request: Request) -> Response:
        """Dispatch one request; all handlers are synchronous on purpose."""
        try:
            return self._route_inner(request)
        except AdmissionError as exc:
            # Retryable service states are 503 (back off and retry);
            # client mistakes stay 400.
            status = 503 if exc.code in ("draining", "degraded") else 400
            return error_response(status, exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive surface
            return error_response(500, "internal", f"{type(exc).__name__}: {exc}")

    def _route_inner(self, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/":
            return self._info()
        if path == "/v1/tasks":
            if method == "POST":
                return self._admit(request)
            if method == "GET":
                return self._list(request)
            return error_response(405, "method_not_allowed", f"{method} {path}")
        if path.startswith("/v1/tasks/"):
            if method != "GET":
                return error_response(405, "method_not_allowed", f"{method} {path}")
            return self._get_task(path.removeprefix("/v1/tasks/"))
        if path == "/v1/queue" and method == "GET":
            return self._queue()
        if path == "/v1/status" and method == "GET":
            return json_response(self.scheduler.stats())
        if path == "/metrics" and method == "GET":
            return self._metrics()
        if path == "/v1/slo" and method == "GET":
            return self._slo(request)
        if path == "/v1/health" and method == "GET":
            return self._health()
        if path == "/v1/chaos" and method == "POST":
            return self._chaos(request)
        if path == "/v1/drain" and method == "POST":
            return self._drain()
        if path == "/v1/shutdown" and method == "POST":
            return self._shutdown()
        return error_response(404, "not_found", f"no route for {method} {path}")

    def _info(self) -> Response:
        return json_response(
            {
                "service": "repro.service",
                "strategy": self.scheduler.placer.canonical_spec,
                "endpoints": [
                    "POST /v1/tasks",
                    "GET /v1/tasks",
                    "GET /v1/tasks/<id>",
                    "GET /v1/queue",
                    "GET /v1/status",
                    "GET /metrics",
                    "GET /v1/slo",
                    "GET /v1/health",
                    "POST /v1/chaos",
                    "POST /v1/drain",
                    "POST /v1/shutdown",
                ],
                "docs": "docs/service.md",
            }
        )

    def _admit(self, request: Request) -> Response:
        payload = request.json()
        unknown = set(payload) - _ADMIT_FIELDS
        if unknown:
            raise AdmissionError(
                "unknown_field", f"unknown admission fields: {sorted(unknown)}"
            )
        if "estimate" not in payload:
            raise AdmissionError("bad_estimate", "admission requires an 'estimate'")
        key = request.headers.get("idempotency-key") or payload.get("idempotency_key")
        if key is not None and not isinstance(key, str):
            raise AdmissionError("bad_key", f"idempotency key must be a string, got {key!r}")
        record, created = self.scheduler.admit(
            payload.get("tenant", "default"),
            payload["estimate"],
            size=payload.get("size", 0.0),
            key=key,
        )
        body = record.as_dict()
        body["created"] = created
        return json_response(body, status=201 if created else 200)

    def _list(self, request: Request) -> Response:
        token = request.param("page_token")
        cursor = decode_page_token(token) if token else 0
        limit_text = request.param("limit")
        try:
            limit = int(limit_text) if limit_text else None
        except ValueError:
            raise AdmissionError("bad_limit", f"limit must be an integer, got {limit_text!r}") from None
        records, next_token = self.scheduler.page(cursor, limit)
        body: dict[str, Any] = {"tasks": [r.as_dict() for r in records]}
        if next_token is not None:
            body["next_page_token"] = next_token
        return json_response(body)

    def _get_task(self, raw_tid: str) -> Response:
        if not raw_tid.isdigit():
            return error_response(400, "bad_task_id", f"task id must be an integer, got {raw_tid!r}")
        record = self.scheduler.get(int(raw_tid))
        if record is None:
            return error_response(404, "not_found", f"no task {raw_tid}")
        return json_response(record.as_dict())

    def _queue(self) -> Response:
        sched = self.scheduler
        return json_response(
            {
                "clock": sched.clock,
                "queued": sched.queued,
                "running": len(sched.busy),
                "done": sched.completed,
                "draining": sched.draining,
                "group_loads": list(sched.placer.loads()),
                "busy_machines": sorted(sched.busy),
            }
        )

    def _metrics(self) -> Response:
        text = render_openmetrics(get_tracer().registry.summary())
        return Response(status=200, body=text.encode("utf-8"), content_type=OPENMETRICS_CONTENT_TYPE)

    def _slo(self, request: Request) -> Response:
        objectives = request.query.get("objective") or list(DEFAULT_OBJECTIVES)
        try:
            report = evaluate_slo(
                objectives,
                registry=get_tracer().registry,
                extras={
                    "queue_depth": float(self.scheduler.queued),
                    "tasks_done": float(self.scheduler.completed),
                    "tasks_admitted": float(len(self.scheduler.records)),
                },
            )
        except ValueError as exc:
            raise AdmissionError("bad_objective", str(exc)) from None
        return json_response(report.as_dict())

    def _health(self) -> Response:
        """Fleet-health snapshot: the chaos harness's sampling endpoint."""
        sched = self.scheduler
        body: dict[str, Any] = {
            "clock": sched.clock,
            "machines": sched.placer.m,
            "groups": sched.placer.k,
            "availability": sched.availability(),
            "down": sorted(sched.down),
            "degraded_groups": sched.degraded_groups(),
            "admitted": len(sched.records),
            "queued": sched.queued,
            "running": len(sched.busy),
            "done": sched.completed,
            "shed": sched.shed,
            "replaced": sched.replaced,
            "machine_failures": sched.machine_failures,
            "machine_recoveries": sched.machine_recoveries,
        }
        if sched.health is not None:
            body["policy"] = {
                "states": {str(k): v.value for k, v in sched.health.states().items()},
                "counts": sched.health.counts(),
            }
        return json_response(body)

    def _chaos(self, request: Request) -> Response:
        """Inject failures/recoveries into the simulated fleet.

        Body: ``{"fail": [machine, ...], "downtime": seconds | null,
        "recover": [machine, ...]}`` — ``downtime`` of ``null`` (or
        absent) means the failure is permanent until an explicit
        recover.  Validation mistakes are 400 ``bad_chaos``.
        """
        payload = request.json()
        unknown = set(payload) - {"fail", "recover", "downtime"}
        if unknown:
            raise AdmissionError("bad_chaos", f"unknown chaos fields: {sorted(unknown)}")
        if not payload:
            raise AdmissionError("bad_chaos", "chaos request needs 'fail' and/or 'recover'")
        downtime = payload.get("downtime")
        if downtime is not None and (
            not isinstance(downtime, (int, float)) or isinstance(downtime, bool)
        ):
            raise AdmissionError("bad_chaos", f"downtime must be a number, got {downtime!r}")
        body: dict[str, Any] = {}
        try:
            if "fail" in payload:
                machines = self._chaos_machines(payload["fail"], "fail")
                at = self.scheduler.inject_failure(
                    machines,
                    downtime=math.inf if downtime is None else float(downtime),
                )
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "chaos.inject",
                        machines=list(machines),
                        downtime=downtime,
                        t=at,
                    )
                body["failed"] = list(machines)
                body["failed_at"] = at
            if "recover" in payload:
                machines = self._chaos_machines(payload["recover"], "recover")
                at = self.scheduler.inject_recovery(machines)
                body["recovered"] = list(machines)
                body["recovered_at"] = at
        except ValueError as exc:
            if isinstance(exc, AdmissionError):
                raise
            raise AdmissionError("bad_chaos", str(exc)) from None
        body["availability"] = self.scheduler.availability()
        body["degraded_groups"] = self.scheduler.degraded_groups()
        return json_response(body)

    @staticmethod
    def _chaos_machines(raw: Any, field: str) -> tuple[int, ...]:
        if not isinstance(raw, list) or not raw or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in raw
        ):
            raise AdmissionError(
                "bad_chaos", f"{field!r} must be a non-empty list of machine ids"
            )
        return tuple(raw)

    def _drain(self) -> Response:
        self.scheduler.begin_drain()
        steps = self.scheduler.drain()
        self._flush_metrics(force=True)
        body = self.scheduler.stats()
        body["drain_steps"] = steps
        return json_response(body)

    def _shutdown(self) -> Response:
        response = self._drain()
        self.stop()
        return response

    def _flush_metrics(self, force: bool = False) -> None:
        """Rewrite the exposition file, throttled to ``flush_interval``."""
        if not self.metrics_out:
            return
        now = time.monotonic()
        if not force and now - self._last_flush < self.flush_interval:
            return
        self._last_flush = now
        write_exposition(get_tracer().registry.summary(), self.metrics_out)
