"""The daemon's request path: the incremental parser and the connection protocol.

Raw-socket tests pin the answers the daemon gives to malformed and
oversized input, pipelining with a peer that never reads, and the
closing of open connections at shutdown; a hypothesis property checks
that the parser is blind to how a byte stream is split.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import hypothesis.strategies as st
from hypothesis import given

from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.http import Request, RequestParser
from repro.service.scheduler import ServiceScheduler

# -- the parser --------------------------------------------------------------


@st.composite
def _requests(draw: st.DrawFn) -> tuple[bytes, dict]:
    """One valid request's bytes and what the parser must make of it."""
    method = draw(st.sampled_from(["GET", "POST"]))
    path = draw(st.sampled_from(["/v1/tasks", "/v1/tasks/3", "/v1/status", "/"]))
    query = draw(st.sampled_from(["", "?limit=5", "?page_token=abc&limit=2"]))
    body = draw(st.binary(max_size=80)) if method == "POST" else b""
    key = draw(st.none() | st.text("abcdefghijk-0123456789", min_size=1, max_size=12))
    close = draw(st.booleans())
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    lines = [f"{method} {path}{query} HTTP/1.1", "Host: test"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    if key is not None:
        lines.append(f"Idempotency-Key: {key}")
    if close:
        lines.append("Connection: close")
    raw = eol.join(line.encode("latin-1") for line in lines) + eol + eol + body
    return raw, {"method": method, "path": path, "body": body, "key": key, "keep_alive": not close}


def _parse(pieces: list[bytes]) -> list[Request]:
    parser = RequestParser()
    out: list[Request] = []
    for piece in pieces:
        parser.feed(piece)
        while (request := parser.next()) is not None:
            out.append(request)
    parser.feed_eof()
    while (request := parser.next()) is not None:
        out.append(request)
    return out


@given(
    requests=st.lists(_requests(), min_size=1, max_size=3),
    cuts=st.lists(st.integers(min_value=0, max_value=1_000), max_size=12),
)
def test_a_split_stream_parses_like_the_whole(requests, cuts):
    stream = b"".join(raw for raw, _ in requests)
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    pieces = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    whole = _parse([stream])
    assert _parse(pieces) == whole
    assert len(whole) == len(requests)
    for request, (_, want) in zip(whole, requests):
        assert request.method == want["method"]
        assert request.path == want["path"]
        assert request.body == want["body"]
        assert request.headers.get("idempotency-key") == want["key"]
        assert request.keep_alive is want["keep_alive"]


def test_an_unterminated_request_at_end_of_input_is_still_read():
    # A line reader returned the unterminated rest at EOF as a line and
    # took the end of input as the end of the headers.
    assert [r.path for r in _parse([b"GET /v1/status HTTP/1.1\r\nHost: x"])] == ["/v1/status"]
    # A body cut short by the end of input is dropped.
    assert _parse([b"POST /v1/tasks HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"]) == []


# -- the daemon over a raw socket --------------------------------------------


async def _daemon(**kw) -> tuple[ServiceDaemon, asyncio.Task]:
    daemon = ServiceDaemon(ServiceScheduler("ls_group[k=2]", m=4, seed=0), port=0, **kw)
    server = asyncio.create_task(daemon.serve())
    await daemon.started.wait()
    return daemon, server


async def _stop(daemon: ServiceDaemon, server: asyncio.Task) -> None:
    daemon.stop()
    await asyncio.wait_for(server, timeout=10)


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    with contextlib.suppress(ConnectionError, OSError):
        await writer.wait_closed()


async def _exchange(port: int, payload: bytes) -> tuple[int, dict[str, str], bytes, bool]:
    """Send ``payload``, read one response; also whether the daemon then
    closed the connection (checked only when the answer says it will)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name:
                headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        closed = False
        if headers["connection"] == "close":
            closed = await asyncio.wait_for(reader.read(1), timeout=5) == b""
    finally:
        await _close(writer)
    return status, headers, body, closed


def _headers(count: int) -> bytes:
    return b"".join(f"X-Header-{i}: v\r\n".encode() for i in range(count))


#: Malformed input and the answer the stream-reader daemon gave it.
MALFORMED = {
    "garbage request line": (b"NONSENSE\r\n\r\n", 400, "bad_request"),
    "bad Content-Length": (
        b"POST /v1/tasks HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        400,
        "bad_request",
    ),
    "65 headers": (b"GET /v1/status HTTP/1.1\r\n" + _headers(65) + b"\r\n", 400, "bad_request"),
    "17 KiB header line": (
        b"GET /v1/status HTTP/1.1\r\nX-Big: " + b"a" * (17 * 1024) + b"\r\n\r\n",
        400,
        "bad_request",
    ),
    # Only the head is sent: the 413 must come before any body is read.
    "2 MB Content-Length": (
        b"POST /v1/tasks HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        413,
        "too_large",
    ),
}


def test_malformed_requests_get_the_stream_reader_answers():
    async def scenario():
        daemon, server = await _daemon()
        try:
            for label, (payload, want_status, want_code) in MALFORMED.items():
                status, headers, body, closed = await _exchange(daemon.port, payload)
                assert (status, json.loads(body)["error"]["code"]) == (want_status, want_code), label
                assert headers["connection"] == "close" and closed, label
            # 64 headers are still fine.
            status, _, _, _ = await _exchange(
                daemon.port, b"GET /v1/status HTTP/1.1\r\n" + _headers(64) + b"\r\n"
            )
            assert status == 200
        finally:
            await _stop(daemon, server)

    asyncio.run(scenario())


def test_bare_lf_and_http_1_0_are_accepted():
    async def scenario():
        daemon, server = await _daemon()
        try:
            status, headers, body, closed = await _exchange(
                daemon.port, b"GET /v1/status HTTP/1.1\nHost: x\n\n"
            )
            assert status == 200 and json.loads(body)["admitted"] == 0
            assert headers["connection"] == "keep-alive" and not closed
            status, headers, _, closed = await _exchange(
                daemon.port, b"GET /v1/status HTTP/1.0\r\n\r\n"
            )
            assert status == 200 and headers["connection"] == "close" and closed
        finally:
            await _stop(daemon, server)

    asyncio.run(scenario())


def test_lines_past_64_kib_get_a_400_and_the_daemon_serves_on():
    # asyncio.StreamReader.readline raises ValueError past its 64 KiB
    # limit; the daemon must still answer 400, not drop the connection.
    big = b"a" * 70_000
    cases = {
        "request line": (b"GET /" + big + b" HTTP/1.1\r\n\r\n", "request line too long"),
        "header line": (b"GET /v1/status HTTP/1.1\r\nX-Big: " + big + b"\r\n\r\n", "headers too large"),
    }

    async def scenario():
        daemon, server = await _daemon()
        try:
            for label, (payload, message) in cases.items():
                status, headers, body, closed = await _exchange(daemon.port, payload)
                error = json.loads(body)["error"]
                assert (status, error["code"], error["message"]) == (400, "bad_request", message), label
                assert headers["connection"] == "close" and closed, label
                async with ServiceClient(port=daemon.port) as client:
                    assert (await client.status())["admitted"] == 0
        finally:
            await _stop(daemon, server)

    asyncio.run(scenario())


def test_a_peer_that_never_reads_is_held_to_the_high_water_mark():
    async def scenario():
        daemon, server = await _daemon()
        try:
            async with ServiceClient(port=daemon.port) as client:
                for j in range(100):
                    await client.submit("t", 1.0 + j)
                _, page = await client.request("GET", "/v1/tasks?limit=100")
            answer = len(json.dumps(page)) + 200  # one listing with its head
            # 400 pipelined listings are about 10 MB of answers, far more
            # than the socket buffers hold.
            reader, stuck = await asyncio.open_connection("127.0.0.1", daemon.port)
            stuck.write(b"GET /v1/tasks?limit=100 HTTP/1.1\r\nHost: x\r\n\r\n" * 400)
            await stuck.drain()
            peak = 0
            for _ in range(40):
                await asyncio.sleep(0.01)
                buffered = [c.transport.get_write_buffer_size() for c in daemon._connections]
                peak = max(peak, *buffered)
            high = next(iter(daemon._connections)).transport.get_write_buffer_limits()[1]
            assert 0 < peak <= high + answer
            async with ServiceClient(port=daemon.port) as other:
                assert (await other.status())["admitted"] == 100
            # Shutdown closes the stuck connection too.
            await _stop(daemon, server)
            assert not daemon._connections
            await _close(stuck)
        finally:
            if not server.done():
                await _stop(daemon, server)

    asyncio.run(scenario())


def test_shutdown_closes_idle_keep_alive_connections():
    async def scenario():
        daemon, server = await _daemon()
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
        writer.write(b"GET /v1/status HTTP/1.1\r\n\r\n")
        await reader.readuntil(b"\r\n\r\n")
        async with ServiceClient(port=daemon.port) as client:
            await client.shutdown()
        await asyncio.wait_for(server, timeout=10)
        assert not daemon._connections
        # Past the status body, the idle connection reads end of stream.
        rest = await asyncio.wait_for(reader.read(), timeout=5)
        assert rest.endswith(b"}\n")
        await _close(writer)

    asyncio.run(scenario())
