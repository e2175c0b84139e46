"""The benchmark's own HTTP client, load loops and percentile.

Everything here is independent of :mod:`repro.serving.loadgen`, which is
code under test with its own rank convention. Requests are pre-encoded
bytes sent over raw keep-alive sockets, one socket per client thread.
The client sets ``TCP_NODELAY`` on its own sockets so its requests leave
at once; it never sets ``TCP_QUICKACK``, so a server-side write stall
(Nagle's algorithm waiting on a delayed ACK) shows up in the numbers
instead of being hidden by the client.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

# A request unanswered this long after its due time is dropped, counted
# as failed and recorded at this latency.
TIMEOUT_S = 1.0
# Client threads, one keep-alive connection each: one per CPU of the
# 2-CPU reference host.
N_CONNECTIONS = 2


def percentile(sorted_values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile of ascending values, with the sample count.

    The value is the smallest sample with at least ``q`` of the samples at
    or below it (rank ``ceil(q * n)``). An empty sample gives ``(0.0, 0)``.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0, 0
    rank = min(n, max(1, math.ceil(q * n)))
    return sorted_values[rank - 1], n


def encode_get(path: str) -> bytes:
    """One pre-encoded HTTP/1.1 keep-alive GET."""
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


@dataclass
class Reply:
    status: int
    headers: dict[str, str]
    body: bytes


class Connection:
    """One keep-alive connection that reads replies by Content-Length."""

    def __init__(self, host: str, port: int) -> None:
        self._buf = bytearray()
        self._sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self._sock.close()

    def _fill(self, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("reply not complete by its deadline")
        self._sock.settimeout(remaining)
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def request(self, raw: bytes, deadline: float) -> Reply:
        """Send one request and read its reply; raises past ``deadline``."""
        self._sock.sendall(raw)
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._fill(deadline)
        lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
        del buf[: end + 4]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(buf) < length:
            self._fill(deadline)
        body = bytes(buf[:length])
        del buf[:length]
        return Reply(int(lines[0].split(" ", 2)[1]), headers, body)


@dataclass
class Sample:
    """One attempted request, timed on the monotonic clock."""

    index: int
    conn: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    late: float = 0.0  # send time minus max(due, connection free)
    status: int = 0
    snapshot: str = ""
    generation: int = -1
    body: bytes | None = None
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; a dropped request reads 1 s."""
        return TIMEOUT_S if self.error else self.done - self.due


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def ok(self) -> list[Sample]:
        return [s for s in self.samples if not s.error and s.status == 200]


def _exchange(conn: Connection | None, host: str, port: int, raw: bytes,
           sample: Sample, keep_body: bool) -> Connection | None:
    """Send one request on ``conn`` (reconnecting if needed), fill ``sample``.

    Returns the connection to use next (None after a failure, so the
    next request opens a fresh one and no late reply can desync it).
    """
    deadline = sample.due + TIMEOUT_S
    try:
        if conn is None:
            conn = Connection(host, port)
        reply = conn.request(raw, deadline)
    except (OSError, TimeoutError, ValueError) as exc:
        sample.done = time.monotonic()
        sample.error = f"{type(exc).__name__}: {exc}"
        if conn is not None:
            conn.close()
        return None
    sample.done = time.monotonic()
    sample.status = reply.status
    sample.snapshot = reply.headers.get("x-repro-snapshot", "")
    sample.generation = int(reply.headers.get("x-repro-generation", "-1"))
    if keep_body or reply.status != 200:
        sample.body = reply.body
    return conn


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    offsets: Sequence[float],
    keep_body: set[int],
    stop: threading.Event | None = None,
    on_reply=None,
) -> LoopResult:
    """Send ``requests[i]`` at ``start + offsets[i]``, one socket per thread.

    Each thread takes the next due request whenever its connection is
    free, so a stalled server makes later requests late, and that wait
    counts in their latency (timed from the due time). A request still
    unsent 1 s after its due time is dropped unsent. ``stop`` ends the
    loop early; requests not yet taken are then not attempted.
    ``on_reply(sample)`` runs on the client thread after each reply.
    """
    counter = itertools.count()
    n = len(requests)
    per_conn: list[list[Sample]] = [[] for _ in range(N_CONNECTIONS)]
    start = time.monotonic() + 0.05

    def worker(c: int) -> None:
        conn = None
        out = per_conn[c]
        while True:
            i = next(counter)  # atomic: one C call under the GIL
            if i >= n or (stop is not None and stop.is_set()):
                break
            free = time.monotonic()
            due = start + offsets[i]
            if due > free:
                time.sleep(due - free)
            sample = Sample(index=i, conn=c, due=due)
            sample.sent = time.monotonic()
            sample.late = sample.sent - max(due, free)
            if sample.sent > due + TIMEOUT_S:
                sample.done = sample.sent
                sample.error = "dropped: not sent within 1 s of its due time"
            else:
                conn = _exchange(conn, host, port, requests[i], sample,
                              i in keep_body)
                if on_reply is not None:
                    on_reply(sample)
            out.append(sample)
        if conn is not None:
            conn.close()

    result = _run_threads(worker)
    result.samples = sorted(
        (s for per in per_conn for s in per), key=lambda s: s.index
    )
    return result


def run_closed_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    seconds: float,
    keep_body: set[int],
    once: bool = False,
) -> LoopResult:
    """Each client thread sends its next request on each reply.

    Thread ``c`` cycles through ``requests[c::N_CONNECTIONS]`` until
    ``seconds`` have passed (or, with ``once``, after one pass). A
    sample's ``index`` is its position in ``requests``; its due time is
    its send time.
    """
    per_conn: list[list[Sample]] = [[] for _ in range(N_CONNECTIONS)]
    end = time.monotonic() + seconds

    def worker(c: int) -> None:
        conn = None
        out = per_conn[c]
        mine = range(c, len(requests), N_CONNECTIONS)
        for k in mine if once else itertools.cycle(mine):
            now = time.monotonic()
            if now >= end:
                break
            sample = Sample(index=k, conn=c, due=now, sent=now)
            conn = _exchange(conn, host, port, requests[k], sample,
                          k in keep_body)
            out.append(sample)
        if conn is not None:
            conn.close()

    result = _run_threads(worker)
    result.samples = [s for per in per_conn for s in per]
    return result


def _run_threads(worker) -> LoopResult:
    threads = [
        threading.Thread(target=worker, args=(c,), name=f"e2e-client-{c}")
        for c in range(N_CONNECTIONS)
    ]
    wall0, cpu0 = time.monotonic(), time.process_time()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoopResult(
        wall_s=time.monotonic() - wall0, cpu_s=time.process_time() - cpu0
    )


def get_json(host: str, port: int, path: str) -> dict:
    """One-off GET on a fresh connection (``/stats`` snapshots)."""
    conn = Connection(host, port)
    try:
        reply = conn.request(encode_get(path), time.monotonic() + 5.0)
    finally:
        conn.close()
    if reply.status != 200:
        raise RuntimeError(f"GET {path} returned {reply.status}")
    return json.loads(reply.body)
