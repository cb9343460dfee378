"""A minimal HTTP/1.1 layer for the daemon's asyncio protocol.

The daemon deliberately does not depend on an HTTP framework — the repo's
no-new-dependencies rule is a feature here, because the protocol surface
the service needs is tiny: JSON request/response bodies, a handful of
routes, keep-alive, and both TCP and ``AF_UNIX`` transports.  This
module is that surface and nothing more: an incremental request parser
(:class:`RequestParser`, fed bytes as they arrive and free of I/O),
response serialization into one buffer (:func:`serialize_response`),
and the small value types the daemon's route handlers exchange.

It is intentionally not a general server: no chunked encoding, requests
on one connection are answered in order, and header and body sizes are
bounded (oversized requests are a 400 or 413, not a memory hazard).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.service.protocol import AdmissionError

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "RequestParser",
    "serialize_response",
    "json_response",
    "error_response",
    "MAX_BODY_BYTES",
]

#: Request bodies above this are rejected with 413 (a task admission is
#: a few hundred bytes; anything larger is a client bug).
MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 64


class HttpError(Exception):
    """A protocol-level failure mapped straight to a status code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass
class Request:
    """One parsed request: method, split path, query, headers, raw body."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool = True

    def json(self) -> dict[str, Any]:
        """Decode the body as a JSON object (strictly: top level must be
        an object).  Raises :class:`AdmissionError` on malformed input so
        handlers surface a uniform 400."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise AdmissionError("bad_json", f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise AdmissionError("bad_json", "request body must be a JSON object")
        return payload

    def param(self, name: str, default: str | None = None) -> str | None:
        """Last value of query parameter ``name`` (or ``default``)."""
        values = self.query.get(name)
        return values[-1] if values else default


@dataclass
class Response:
    """One response: status, headers, body bytes (already encoded)."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def json_response(payload: dict[str, Any], status: int = 200) -> Response:
    """A JSON response (compact separators, trailing newline for curl)."""
    body = (json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n").encode("utf-8")
    return Response(status=status, body=body)


def error_response(status: int, code: str, message: str) -> Response:
    """The uniform error envelope: ``{"error": {"code", "message"}}``."""
    return json_response({"error": {"code": code, "message": message}}, status=status)


class RequestParser:
    """Incremental request parser: :meth:`feed` bytes, take :meth:`next`.

    The limits and answers are those of a line reader.  A line longer
    than 16 KiB with its terminator, or a 65th header, is a 400; a
    ``Content-Length`` above :data:`MAX_BODY_BYTES` is a 413, raised as
    soon as the headers end, before any body byte is read; bare-LF line
    endings are accepted.  After :meth:`feed_eof` an unterminated last
    line still counts as a line and the end of input ends the headers;
    a body cut short by the end of input is dropped.
    """

    def __init__(self) -> None:
        self._buf = b""
        self._pos = 0
        self.eof = False
        self._start: list[str] | None = None  # method, target, version
        self._headers: dict[str, str] = {}
        self._length = -1  # body length once the headers are complete

    def feed(self, data: bytes) -> None:
        """Append bytes received from the peer."""
        if self._pos == len(self._buf):
            self._buf = data
        else:
            self._buf = self._buf[self._pos :] + data
        self._pos = 0

    def feed_eof(self) -> None:
        """The peer will send nothing more."""
        self.eof = True

    def _line(self, too_long: str) -> bytes | None:
        """The next line with its terminator; ``None`` until one is complete.

        At end of input this is the unterminated rest (``b""`` when none).
        """
        buf, pos = self._buf, self._pos
        end = buf.find(b"\n", pos) + 1
        if not end:
            if len(buf) - pos > _MAX_HEADER_LINE:
                raise HttpError(400, "bad_request", too_long)
            if not self.eof:
                return None
            end = len(buf)
        if end - pos > _MAX_HEADER_LINE:
            raise HttpError(400, "bad_request", too_long)
        self._pos = end
        return buf[pos:end]

    def next(self) -> Request | None:
        """The next complete request, or ``None`` until more bytes arrive.

        ``None`` after :meth:`feed_eof` means the stream is done.  Raises
        :class:`HttpError` for a malformed or oversized request; the
        caller answers it and closes the connection.
        """
        if self._start is None:
            line = self._line("request line too long")
            if not line:
                return None
            parts = line.decode("latin-1").strip().split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                raise HttpError(400, "bad_request", f"malformed request line {line!r}")
            self._start = parts
            self._headers = {}
        headers = self._headers
        if self._length < 0:
            while True:
                raw = self._line("headers too large")
                if raw is None:
                    return None
                if raw in (b"\r\n", b"\n", b""):
                    break
                if len(headers) >= _MAX_HEADERS:
                    raise HttpError(400, "bad_request", "headers too large")
                name, sep, value = raw.decode("latin-1").partition(":")
                if not sep:
                    raise HttpError(400, "bad_request", f"malformed header {raw!r}")
                headers[name.strip().lower()] = value.strip()
            length_text = headers.get("content-length", "0")
            try:
                length = int(length_text)
            except ValueError:
                raise HttpError(400, "bad_request", f"bad Content-Length {length_text!r}") from None
            if length < 0 or length > MAX_BODY_BYTES:
                raise HttpError(413, "too_large", f"body of {length} bytes refused")
            self._length = length
        end = self._pos + self._length
        if len(self._buf) < end:
            return None
        body = self._buf[self._pos : end]
        self._pos = end
        method, target, version = self._start
        self._start, self._length = None, -1
        split = urlsplit(target)
        keep_alive = headers.get("connection", "").lower() != "close" and version != "HTTP/1.0"
        return Request(
            method=method.upper(),
            path=split.path,
            query=parse_qs(split.query) if split.query else {},
            headers=headers,
            body=body,
            keep_alive=keep_alive,
        )


def serialize_response(response: Response, *, keep_alive: bool) -> bytes:
    """``response`` as one buffer: status line, headers, blank line, body."""
    head = (
        f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'Unknown')}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in response.headers.items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + response.body
