"""Deterministic closed-loop load generator for the serving engine.

The workload is a seeded mix of the four read operations, drawn from the
snapshot's own data (query result sets from the instance, items from the
universe, cids from the tree), so the request distribution matches what
a platform would actually serve. Generation is fully deterministic: the
same (instance, tree, seed, mix) produce the same request list.

Execution is *closed-loop*: ``n_workers`` threads each issue their share
of requests back to back, a new request only after the previous response
— so measured latency is pure service time and throughput is the
saturated requests/second of the engine. Every request is timed
client-side; failures are counted (and kept) rather than raised, so a
mid-run hot swap can be *proven* harmless by ``result.errors == 0``.

:func:`run_loadgen` optionally triggers a swap mid-run: when the
completed-request count crosses ``swap_at`` × total, a coordinator
thread invokes the provided callable (typically
``ServingEngine.swap``) while the workers keep hammering.
"""

from __future__ import annotations

import http.client
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence
from urllib.parse import quote, urlsplit

from repro.core.input_sets import OCTInstance
from repro.core.tree import CategoryTree
from repro.observability import percentile
from repro.serving.engine import ServingEngine

# Operation mix of a navigation-heavy storefront: mostly query->category
# scoring and item categorization, some tree browsing and breadcrumbs.
DEFAULT_MIX: dict[str, float] = {
    "best_category": 0.45,
    "categorize": 0.30,
    "browse": 0.15,
    "path": 0.05,
    "search": 0.05,
}


@dataclass(frozen=True)
class Request:
    """One pre-generated request: an operation and its argument."""

    op: str
    arg: object


@dataclass
class LoadGenResult:
    """Everything one load-generator run measured."""

    n_requests: int
    n_workers: int
    errors: int
    wall_s: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    covered_fraction: float  # best_category requests that found a category
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    per_op: dict[str, int] = field(default_factory=dict)
    generation_before: int = 0
    generation_after: int = 0
    swap_performed: bool = False
    error_messages: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_workers": self.n_workers,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "mean": self.mean_ms,
                "max": self.max_ms,
            },
            "covered_fraction": self.covered_fraction,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "per_op": dict(self.per_op),
            "generation_before": self.generation_before,
            "generation_after": self.generation_after,
            "swap_performed": self.swap_performed,
        }


def build_workload(
    instance: OCTInstance,
    tree: CategoryTree,
    n_requests: int,
    seed: int = 0,
    mix: Mapping[str, float] | None = None,
) -> list[Request]:
    """A deterministic request list drawn from the snapshot's own data.

    ``best_category`` queries reuse the instance's input sets — most
    verbatim (cache-friendly, like repeated popular searches), some with
    one item dropped (near-miss variations). ``categorize`` items come
    from the universe, ``browse``/``path`` cids from the tree, and
    ``search`` texts from the input sets' labels.
    """
    mix = dict(mix or DEFAULT_MIX)
    ops = sorted(mix)
    weights = [mix[op] for op in ops]
    rng = random.Random(seed)

    query_sets = [q.items for q in instance.sets] or [frozenset()]
    labels = [q.label for q in instance.sets if q.label] or ["category"]
    items = sorted(instance.universe, key=str) or [""]
    cids = sorted(c.cid for c in tree.categories())

    requests: list[Request] = []
    for _ in range(n_requests):
        op = rng.choices(ops, weights=weights)[0]
        if op == "best_category":
            q = rng.choice(query_sets)
            if len(q) > 1 and rng.random() < 0.25:
                dropped = rng.choice(sorted(q, key=str))
                q = q - {dropped}
            requests.append(Request(op, q))
        elif op == "categorize":
            requests.append(Request(op, rng.choice(items)))
        elif op == "browse":
            requests.append(Request(op, rng.choice(cids)))
        elif op == "path":
            requests.append(Request(op, rng.choice(cids)))
        elif op == "search":
            requests.append(Request(op, rng.choice(labels)))
        else:
            raise ValueError(f"unknown op {op!r} in mix")
    return requests


def _issue(engine: ServingEngine, request: Request) -> bool:
    """Execute one request; returns whether a best_category was covered."""
    if request.op == "best_category":
        return engine.best_category(request.arg) is not None
    if request.op == "categorize":
        engine.categorize_item(request.arg)
    elif request.op == "browse":
        engine.browse(request.arg)
    elif request.op == "path":
        engine.path_to_root(request.arg)
    elif request.op == "search":
        engine.find_categories(request.arg)
    else:
        raise ValueError(f"unknown op {request.op!r}")
    return True


def run_loadgen(
    engine: ServingEngine,
    workload: Sequence[Request],
    n_workers: int = 4,
    swap_at: float | None = None,
    swap: Callable[[], object] | None = None,
) -> LoadGenResult:
    """Drive a workload through an engine and measure it client-side.

    With ``swap_at`` (a fraction in (0, 1)) and ``swap`` (a callable
    performing prepare+publish), a coordinator thread fires the swap
    once, as soon as that fraction of requests has completed — proving
    in-flight reads survive the flip (``errors`` stays 0).
    """
    n_workers = max(1, n_workers)
    shares = [list(workload[w::n_workers]) for w in range(n_workers)]
    latencies: list[list[float]] = [[] for _ in range(n_workers)]
    failures: list[list[str]] = [[] for _ in range(n_workers)]
    covered = [0] * n_workers
    best_total = [0] * n_workers
    completed = [0] * n_workers  # per-worker, summed by the coordinator

    cache0 = engine.stats()["cache"]
    generation_before = engine.generation
    start_barrier = threading.Barrier(n_workers + 1)

    def worker(w: int) -> None:
        start_barrier.wait()
        for request in shares[w]:
            t0 = time.perf_counter()
            try:
                was_covered = _issue(engine, request)
                if request.op == "best_category":
                    best_total[w] += 1
                    if was_covered:
                        covered[w] += 1
            except Exception as exc:  # count, keep serving
                failures[w].append(f"{request.op}: {type(exc).__name__}: {exc}")
            latencies[w].append(time.perf_counter() - t0)
            completed[w] += 1

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(n_workers)
    ]
    for t in threads:
        t.start()

    swap_performed = False
    swap_error: str | None = None
    swap_thread: threading.Thread | None = None
    if swap is not None and swap_at is not None:
        threshold = max(1, int(len(workload) * swap_at))

        def coordinator() -> None:
            nonlocal swap_performed, swap_error
            while sum(completed) < threshold and any(
                t.is_alive() for t in threads
            ):
                time.sleep(0.001)
            try:
                swap()
                swap_performed = True
            except Exception as exc:  # pragma: no cover - surfaced in result
                swap_error = f"swap: {type(exc).__name__}: {exc}"

        swap_thread = threading.Thread(target=coordinator, daemon=True)
        swap_thread.start()

    start_barrier.wait()
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if swap_thread is not None:
        swap_thread.join()

    all_latencies = sorted(x for per in latencies for x in per)
    all_failures = [msg for per in failures for msg in per]
    if swap_error is not None:
        all_failures.append(swap_error)
    cache1 = engine.stats()["cache"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    lookups = hits + misses
    per_op: dict[str, int] = {}
    for request in workload:
        per_op[request.op] = per_op.get(request.op, 0) + 1
    n_best = sum(best_total)
    return LoadGenResult(
        n_requests=len(workload),
        n_workers=n_workers,
        errors=len(all_failures),
        wall_s=wall,
        throughput_rps=len(workload) / wall if wall > 0 else 0.0,
        p50_ms=percentile(all_latencies, 0.50) * 1000.0,
        p95_ms=percentile(all_latencies, 0.95) * 1000.0,
        p99_ms=percentile(all_latencies, 0.99) * 1000.0,
        mean_ms=(
            sum(all_latencies) / len(all_latencies) * 1000.0
            if all_latencies else 0.0
        ),
        max_ms=all_latencies[-1] * 1000.0 if all_latencies else 0.0,
        covered_fraction=sum(covered) / n_best if n_best else 0.0,
        cache_hits=hits,
        cache_misses=misses,
        cache_hit_rate=hits / lookups if lookups else 0.0,
        per_op=per_op,
        generation_before=generation_before,
        generation_after=engine.generation,
        swap_performed=swap_performed,
        error_messages=all_failures[:20],
    )


# -- HTTP mode (multi-process serving) ---------------------------------------


def request_path(request: Request) -> str:
    """The HTTP path+query serving the same operation as :func:`_issue`."""
    if request.op == "best_category":
        items = ",".join(sorted(request.arg, key=str))
        return f"/best-category?items={quote(items, safe='')}"
    if request.op == "categorize":
        return f"/categorize?item={quote(str(request.arg), safe='')}"
    if request.op == "browse":
        return f"/browse?cid={int(request.arg)}"
    if request.op == "path":
        return f"/path?cid={int(request.arg)}"
    if request.op == "search":
        return f"/search?q={quote(str(request.arg), safe='')}"
    raise ValueError(f"unknown op {request.op!r}")


@dataclass
class HttpLoadGenResult:
    """What a closed-loop HTTP run measured, per worker and generation.

    ``per_worker`` / ``per_generation`` / ``per_snapshot`` tally the
    ``X-Repro-*`` attribution headers, so a multi-worker run can assert
    kernel-level balance (no worker starved) and that every response
    came from a known generation — the cross-process consistency tier's
    raw evidence.
    """

    n_requests: int
    n_connections: int
    errors: int
    retries: int
    wall_s: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    per_worker: dict[str, int] = field(default_factory=dict)
    per_generation: dict[str, int] = field(default_factory=dict)
    per_snapshot: dict[str, int] = field(default_factory=dict)
    swap_performed: bool = False
    error_messages: list[str] = field(default_factory=list)

    def worker_shares(self) -> dict[str, float]:
        """Fraction of responses answered by each worker."""
        total = sum(self.per_worker.values())
        if not total:
            return {}
        return {w: n / total for w, n in self.per_worker.items()}

    def min_fair_share_ratio(self) -> float:
        """Smallest worker share relative to a perfectly fair 1/N split.

        1.0 is perfect balance; the supervisor tests assert >= 0.1
        (no worker below 10% of its fair share).
        """
        shares = self.worker_shares()
        if not shares:
            return 0.0
        fair = 1.0 / len(shares)
        return min(shares.values()) / fair

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_connections": self.n_connections,
            "errors": self.errors,
            "retries": self.retries,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "mean": self.mean_ms,
                "max": self.max_ms,
            },
            "per_worker": dict(sorted(self.per_worker.items())),
            "per_generation": dict(sorted(self.per_generation.items())),
            "per_snapshot": dict(sorted(self.per_snapshot.items())),
            "min_fair_share_ratio": self.min_fair_share_ratio(),
            "swap_performed": self.swap_performed,
        }


# Connection-level failures worth a reconnect+retry: a worker that was
# kill -9'd mid-response, a connection the kernel routed to a dying
# worker, or a stale keep-alive socket.
_RETRYABLE = (
    ConnectionError,
    http.client.HTTPException,
    socket.timeout,
    TimeoutError,
    OSError,
)


def run_http_loadgen(
    base_url: str,
    workload: Sequence[Request],
    n_connections: int = 4,
    swap_at: float | None = None,
    swap: Callable[[], object] | None = None,
    max_retries: int = 5,
    timeout: float = 30.0,
) -> HttpLoadGenResult:
    """Drive a workload over HTTP with persistent connections.

    Each of ``n_connections`` threads holds one keep-alive connection —
    SO_REUSEPORT balances *connections*, not requests, so balance
    assertions need ``n_connections`` comfortably above the worker
    count. Connection-level failures (a killed worker, a torn socket)
    are retried on a fresh connection up to ``max_retries`` times and
    counted in ``retries``; only exhausted retries and non-200 statuses
    count as ``errors``. ``swap_at``/``swap`` fire a mid-run publish
    exactly like :func:`run_loadgen`.
    """
    parts = urlsplit(base_url)
    host, port = parts.hostname, parts.port
    if host is None or port is None:
        raise ValueError(f"base_url must be http://host:port, got {base_url!r}")

    n_connections = max(1, n_connections)
    shares = [list(workload[w::n_connections]) for w in range(n_connections)]
    latencies: list[list[float]] = [[] for _ in range(n_connections)]
    failures: list[list[str]] = [[] for _ in range(n_connections)]
    retries = [0] * n_connections
    completed = [0] * n_connections
    per_worker: list[dict[str, int]] = [{} for _ in range(n_connections)]
    per_generation: list[dict[str, int]] = [{} for _ in range(n_connections)]
    per_snapshot: list[dict[str, int]] = [{} for _ in range(n_connections)]
    start_barrier = threading.Barrier(n_connections + 1)

    def fetch(conn_box: list, path: str) -> tuple[int, dict[str, str]]:
        """One GET over the held connection, reconnecting on demand."""
        if conn_box[0] is None:
            conn_box[0] = http.client.HTTPConnection(host, port, timeout=timeout)
        conn = conn_box[0]
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()  # drain so the connection can be reused
            return response.status, {
                k: v for k, v in response.getheaders()
            }
        except _RETRYABLE:
            # The socket is in an unknown state; drop it so the next
            # attempt dials fresh (the kernel will pick a live worker).
            try:
                conn.close()
            finally:
                conn_box[0] = None
            raise

    def worker(w: int) -> None:
        conn_box: list = [None]
        start_barrier.wait()
        for request in shares[w]:
            path = request_path(request)
            t0 = time.perf_counter()
            status = None
            headers: dict[str, str] = {}
            for attempt in range(max_retries + 1):
                try:
                    status, headers = fetch(conn_box, path)
                    break
                except _RETRYABLE as exc:
                    if attempt == max_retries:
                        failures[w].append(
                            f"{request.op}: {type(exc).__name__}: {exc}"
                        )
                    else:
                        retries[w] += 1
            latencies[w].append(time.perf_counter() - t0)
            completed[w] += 1
            if status is None:
                continue
            if status != 200:
                failures[w].append(f"{request.op}: HTTP {status}")
                continue
            wid = headers.get("X-Repro-Worker")
            if wid is not None:
                per_worker[w][wid] = per_worker[w].get(wid, 0) + 1
            gen = headers.get("X-Repro-Generation")
            if gen is not None:
                per_generation[w][gen] = per_generation[w].get(gen, 0) + 1
            snap = headers.get("X-Repro-Snapshot")
            if snap is not None:
                per_snapshot[w][snap] = per_snapshot[w].get(snap, 0) + 1
        conn = conn_box[0]
        if conn is not None:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(n_connections)
    ]
    for t in threads:
        t.start()

    swap_performed = False
    swap_error: str | None = None
    swap_thread: threading.Thread | None = None
    if swap is not None and swap_at is not None:
        threshold = max(1, int(len(workload) * swap_at))

        def coordinator() -> None:
            nonlocal swap_performed, swap_error
            while sum(completed) < threshold and any(
                t.is_alive() for t in threads
            ):
                time.sleep(0.001)
            try:
                swap()
                swap_performed = True
            except Exception as exc:  # pragma: no cover - surfaced in result
                swap_error = f"swap: {type(exc).__name__}: {exc}"

        swap_thread = threading.Thread(target=coordinator, daemon=True)
        swap_thread.start()

    start_barrier.wait()
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if swap_thread is not None:
        swap_thread.join()

    all_latencies = sorted(x for per in latencies for x in per)
    all_failures = [msg for per in failures for msg in per]
    if swap_error is not None:
        all_failures.append(swap_error)

    def merged(tallies: list[dict[str, int]]) -> dict[str, int]:
        out: dict[str, int] = {}
        for tally in tallies:
            for key, count in tally.items():
                out[key] = out.get(key, 0) + count
        return out

    return HttpLoadGenResult(
        n_requests=len(workload),
        n_connections=n_connections,
        errors=len(all_failures),
        retries=sum(retries),
        wall_s=wall,
        throughput_rps=len(workload) / wall if wall > 0 else 0.0,
        p50_ms=percentile(all_latencies, 0.50) * 1000.0,
        p95_ms=percentile(all_latencies, 0.95) * 1000.0,
        p99_ms=percentile(all_latencies, 0.99) * 1000.0,
        mean_ms=(
            sum(all_latencies) / len(all_latencies) * 1000.0
            if all_latencies else 0.0
        ),
        max_ms=all_latencies[-1] * 1000.0 if all_latencies else 0.0,
        per_worker=merged(per_worker),
        per_generation=merged(per_generation),
        per_snapshot=merged(per_snapshot),
        swap_performed=swap_performed,
        error_messages=all_failures[:20],
    )
