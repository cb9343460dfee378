"""A small asyncio client for the placement daemon.

One :class:`ServiceClient` is one keep-alive connection (TCP or unix
socket) speaking the JSON protocol of :mod:`repro.service.daemon`.  It
is the substrate for :mod:`repro.service.loadgen` and for tests; humans
can use ``curl`` instead (examples in ``docs/service.md``).

The client is strict about failures: any non-2xx status raises
:class:`ServiceError` carrying the server's machine-readable error code,
so callers branch on ``exc.code`` rather than parsing prose.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code


class ServiceClient:
    """One keep-alive connection to the daemon.

    Construct with either ``host``/``port`` or ``socket_path``; use as an
    async context manager (the connection opens on :meth:`connect` or
    lazily on first request, either way)::

        async with ServiceClient(port=daemon.port) as client:
            task = await client.submit("tenant-0", 3.5, key="t0-0")
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int | None = None,
        socket_path: str | None = None,
    ) -> None:
        if (port is None) == (socket_path is None):
            raise ValueError("pass exactly one of port= or socket_path=")
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def connect(self) -> None:
        """Open the connection now; the ``OSError`` of a daemon that is
        not there surfaces here."""
        if self._writer is not None:
            return
        if self.socket_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(self.socket_path)
        else:
            assert self.port is not None
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        """Close the underlying connection (safe to call repeatedly)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any] | str]:
        """One round-trip; returns ``(status, body)``.

        JSON bodies decode to dicts; anything else (``/metrics``) comes
        back as text.  Does *not* raise on error statuses — that is
        :meth:`_checked`'s job — so probes can inspect failures.
        """
        await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        head = [
            f"{method} {path} HTTP/1.1",
            "Host: repro-service",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        response_headers: dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        raw_body = await self._reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        text = raw_body.decode("utf-8")
        if response_headers.get("content-type", "").startswith("application/json"):
            return status, (json.loads(text) if text else {})
        return status, text

    async def _checked(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict[str, Any]:
        status, body = await self.request(method, path, payload, headers)
        if status >= 300:
            if isinstance(body, dict) and "error" in body:
                err = body["error"]
                raise ServiceError(status, err.get("code", "unknown"), err.get("message", ""))
            raise ServiceError(status, "unknown", str(body))
        assert isinstance(body, dict)
        return body

    # -- typed wrappers ----------------------------------------------------
    async def submit(
        self,
        tenant: str,
        estimate: float,
        *,
        size: float = 0.0,
        key: str | None = None,
    ) -> dict[str, Any]:
        """Admit one task; the response dict includes ``created``."""
        headers = {"Idempotency-Key": key} if key is not None else None
        return await self._checked(
            "POST",
            "/v1/tasks",
            {"tenant": tenant, "estimate": estimate, "size": size},
            headers,
        )

    async def get_task(self, tid: int) -> dict[str, Any]:
        """One task's current lifecycle record."""
        return await self._checked("GET", f"/v1/tasks/{tid}")

    async def list_tasks(
        self, *, page_token: str | None = None, limit: int | None = None
    ) -> dict[str, Any]:
        """One listing page (``tasks`` + optional ``next_page_token``)."""
        params = []
        if page_token:
            params.append(f"page_token={page_token}")
        if limit is not None:
            params.append(f"limit={limit}")
        query = ("?" + "&".join(params)) if params else ""
        return await self._checked("GET", f"/v1/tasks{query}")

    async def status(self) -> dict[str, Any]:
        """``GET /v1/status``."""
        return await self._checked("GET", "/v1/status")

    async def queue(self) -> dict[str, Any]:
        """``GET /v1/queue``."""
        return await self._checked("GET", "/v1/queue")

    async def metrics(self) -> str:
        """The raw OpenMetrics exposition text."""
        status, body = await self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, "metrics", str(body))
        assert isinstance(body, str)
        return body

    async def slo(self, objectives: list[str] | None = None) -> dict[str, Any]:
        """Evaluate SLO objectives server-side (defaults when ``None``)."""
        query = ""
        if objectives:
            from urllib.parse import quote

            query = "?" + "&".join(f"objective={quote(o)}" for o in objectives)
        return await self._checked("GET", f"/v1/slo{query}")

    async def health(self) -> dict[str, Any]:
        """``GET /v1/health`` — availability, down machines, policy state."""
        return await self._checked("GET", "/v1/health")

    async def chaos(
        self,
        *,
        fail: list[int] | None = None,
        recover: list[int] | None = None,
        downtime: float | None = None,
    ) -> dict[str, Any]:
        """``POST /v1/chaos`` — inject failures and/or recoveries.

        ``downtime=None`` makes the failure permanent until an explicit
        ``recover`` (the daemon's convention).
        """
        payload: dict[str, Any] = {}
        if fail is not None:
            payload["fail"] = list(fail)
        if recover is not None:
            payload["recover"] = list(recover)
        if downtime is not None:
            payload["downtime"] = downtime
        return await self._checked("POST", "/v1/chaos", payload)

    async def drain(self) -> dict[str, Any]:
        """Stop admissions and run the queue dry; returns final stats."""
        return await self._checked("POST", "/v1/drain")

    async def shutdown(self) -> dict[str, Any]:
        """Drain, flush telemetry, and stop the daemon; returns stats."""
        return await self._checked("POST", "/v1/shutdown")
