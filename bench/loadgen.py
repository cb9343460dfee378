"""HTTP load generator (open and closed loop) for ``service_open_loop``.

Standard library only, so the generator shares no code with the daemon it
measures.  Each connection is a thread with a blocking unix socket: both
threads spend their waits in ``time.sleep`` or ``recv`` with the
interpreter lock released, which keeps the generator's own lateness near
0.1 ms (an asyncio loop wakes up to 1 ms late, which would blur the
daemon's sub-millisecond latencies).

A schedule is a list of :class:`Req`, each with the time it is *due*
relative to the start of its phase.  Latency is measured from the due
time, not the send time, so a stall also counts against the requests
queued behind it; ``late`` is how far behind schedule the generator sent.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass, field

#: Every ``DUP_EVERY``-th admission is sent a second time with the same
#: idempotency key; the daemon must answer it from its dedup table.
DUP_EVERY = 7
#: Share of requests that read a task back instead of admitting one.
READ_SHARE = 0.2
#: Connections the generator holds open (one per core of the reference
#: host; the daemon is single-threaded).
CONNECTIONS = 2


@dataclass(frozen=True)
class Req:
    """One scheduled request: ``kind`` is ``admit``, ``dup`` or ``read``."""

    due: float
    kind: str
    key: str = ""
    tenant: str = ""
    estimate: float = 0.0
    pick: float = 0.0  # read target: position in the acknowledged-id list


@dataclass
class PhaseResult:
    """What one phase observed; both connection threads record into it."""

    latencies: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    errors: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    created: int = 0
    deduplicated: int = 0
    wall_s: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, status: int, outcome: str, latency: float, late: float | None = None) -> None:
        """Count one answered (or failed, ``status`` 0) request."""
        with self.lock:
            self.latencies.append(latency)
            if late is not None:
                self.late.append(late)
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if not 200 <= status < 300:
                self.errors += 1
            elif outcome:
                setattr(self, outcome, getattr(self, outcome) + 1)


def make_schedule(rng: random.Random, rate: float, seconds: float, prefix: str) -> list[Req]:
    """Poisson arrivals at ``rate`` per second for ``seconds``.

    Estimates are log-uniform on [0.5, 4.0], as ``repro loadgen`` draws
    them; tenants rotate over 16 names.  Keys carry ``prefix`` so that
    phases of one run never collide.
    """
    out: list[Req] = []
    t = 0.0
    admitted = 0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        if out and rng.random() < READ_SHARE:
            out.append(Req(t, "read", pick=rng.random()))
            continue
        if admitted and admitted % DUP_EVERY == 0 and out[-1].kind == "admit":
            prev = out[-1]
            out.append(Req(t, "dup", prev.key, prev.tenant, prev.estimate))
            admitted += 1
            continue
        out.append(
            Req(
                t,
                "admit",
                key=f"{prefix}-{len(out)}",
                tenant=f"tenant-{len(out) % 16}",
                estimate=0.5 * 8.0 ** rng.random(),
            )
        )
        admitted += 1


class Connection:
    """One keep-alive HTTP/1.1 connection over a unix socket."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def request(
        self, method: str, path: str, body: bytes = b"", key: str = "", close: bool = False
    ) -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
        if key:
            head += f"Idempotency-Key: {key}\r\n"
        if close:
            head += "Connection: close\r\n"
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head_bytes, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(self.buf) < length:
            self._fill()
        payload, self.buf = self.buf[:length], self.buf[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk


def _send(conn: Connection, req: Req, acked: list[int]) -> tuple[int, str]:
    """Send one request; returns its status and the admission counter it bumps."""
    try:
        if req.kind == "read":
            # Before the first admission is acknowledged there is no task
            # to read back; the daemon's status is the read then.
            path = f"/v1/tasks/{acked[int(req.pick * len(acked))]}" if acked else "/v1/status"
            status, _ = conn.request("GET", path)
            return status, ""
        body = json.dumps({"tenant": req.tenant, "estimate": req.estimate}).encode()
        status, payload = conn.request("POST", "/v1/tasks", body, req.key)
    except (OSError, ValueError):
        return 0, ""
    if status not in (200, 201):
        return status, ""
    reply = json.loads(payload)
    if not reply.get("created"):
        return status, "deduplicated"
    acked.append(reply["task_id"])
    return status, "created"


def _run_threads(conns: list[Connection], worker) -> None:
    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_open_loop(conns: list[Connection], schedule: list[Req], acked: list[int]) -> PhaseResult:
    """Send ``schedule`` on time over ``conns``; one thread per connection.

    A request whose connections are all busy waits for the first free
    one; that wait counts in its latency.
    """
    result = PhaseResult()
    order = itertools.count()
    start = time.perf_counter() + 0.02

    def worker(conn: Connection) -> None:
        free = start
        while True:
            i = next(order)
            if i >= len(schedule):
                return
            due = start + schedule[i].due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, outcome = _send(conn, schedule[i], acked)
            done = time.perf_counter()
            # The generator's own lateness: how long after the request was
            # both due and sendable (its connection free) it went out.
            result.record(status, outcome, done - due, max(0.0, sent - max(due, free)))
            free = done

    _run_threads(conns, worker)
    result.wall_s = time.perf_counter() - start
    return result


def run_closed_loop(
    conns: list[Connection], rng: random.Random, seconds: float, prefix: str, acked: list[int]
) -> PhaseResult:
    """Back-to-back requests on every connection for ``seconds``.

    Uses the same request mix as the open loop; the completed count is
    ``len(latencies)``.
    """
    schedule = make_schedule(rng, 1000.0, 20.0, prefix)  # only the mix is used
    result = PhaseResult()
    order = itertools.count()
    start = time.perf_counter()
    deadline = start + seconds

    def worker(conn: Connection) -> None:
        while True:
            sent = time.perf_counter()
            if sent >= deadline:
                return
            status, outcome = _send(conn, schedule[next(order) % len(schedule)], acked)
            result.record(status, outcome, time.perf_counter() - sent)

    _run_threads(conns, worker)
    result.wall_s = time.perf_counter() - start
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
