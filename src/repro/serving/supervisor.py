"""Multi-process serving: N SO_REUSEPORT workers over one mmap snapshot.

The single-process tier keeps every read under one GIL; this supervisor
runs N worker *processes* instead, each a full
:class:`~repro.serving.http.ServingHTTPServer` bound to the same
host:port with ``SO_REUSEPORT`` — the kernel load-balances connections
across the workers, no userspace proxy. Every worker maps the same
read-only flat snapshot (:mod:`repro.serving.shm`), so the indexes
exist once in the page cache no matter how many workers serve them.

Generation flips stay coordinated through the store's ``CURRENT``
pointer, exactly like the single-process tier: a publisher (any
process) saves + activates a snapshot, and each worker's poller thread
notices the pointer change and hot-swaps its engine onto the newly
mapped files. Between the publish and the last worker's poll tick, requests
are answered by *either* the old or the new generation — never a torn
mix — and every response says which via its ``X-Repro-Snapshot`` /
``X-Repro-Generation`` headers (the cross-process consistency tests
assert exactly that).

The parent process never serves; it watches its children and respawns
any that die (crash, ``kill -9``) unless the supervisor is stopping.
Worker liveness and respawn counts are exported as
``serving.workers.*`` gauges (manifest schema v5).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass

from repro.observability import Tracer, get_tracer, set_tracer
from repro.serving.engine import ServingEngine
from repro.serving.http import make_server
from repro.serving.snapshot import SnapshotError, SnapshotStore


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs (picklable for spawn starts)."""

    store_root: str
    host: str
    port: int
    cache_size: int = 4096
    poll_interval: float = 0.25
    max_requests: int | None = None


def _poll_current(
    engine: ServingEngine, store: SnapshotStore, interval: float
) -> None:
    """Worker poller: follow the store's CURRENT pointer, flip on change."""
    while True:
        time.sleep(interval)
        try:
            # Serving first, then CURRENT: a swap that lands in between
            # can only make this poller follow a newer CURRENT.
            _, serving = engine.generation_info()
            current = store.current_id()
            if current is not None and current != serving:
                engine.swap(store, current)
        except Exception:
            # A half-published snapshot or racing compile: retry on the
            # next tick; the engine keeps serving its generation.
            get_tracer().count("serving.workers.poll_errors")


def _worker_main(
    config: WorkerConfig, worker_id: int, ready, report=None
) -> None:
    """One worker process: mmap the CURRENT snapshot and serve it.

    ``report`` is the send end of a pipe when the parent traces: the
    worker then counts into a fresh tracer and, when it leaves its loop
    by itself (request budget spent), sends its counters back.
    """
    # A clean SIGTERM exit keeps 'supervisor.stop()' quiet; anything
    # harder (SIGKILL) is what the watchdog respawn path is for.
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    if report is not None:
        set_tracer(Tracer())
    store = SnapshotStore(config.store_root)
    engine = ServingEngine(cache_size=config.cache_size)
    engine.swap(store)
    server = make_server(
        engine,
        host=config.host,
        port=config.port,
        store=store,
        max_requests=config.max_requests,
        reuse_port=True,
        worker_id=worker_id,
    )
    threading.Thread(
        target=_poll_current,
        args=(engine, store, config.poll_interval),
        name="repro-serving-poll",
        daemon=True,
    ).start()
    ready.set()  # the socket is bound + listening; flag readiness
    try:
        server.serve_forever()
    finally:
        server.server_close()
    if report is not None:
        report.send(dict(get_tracer().counters))
        report.close()


def _free_port(host: str) -> int:
    """Reserve-and-release a free TCP port on ``host``."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


class ServingSupervisor:
    """Fork, watch, and respawn N SO_REUSEPORT serving workers."""

    def __init__(
        self,
        store: SnapshotStore | str | os.PathLike,
        n_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 4096,
        poll_interval: float = 0.25,
        max_requests: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.store = (
            store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        )
        self.n_workers = n_workers
        self.host = host
        self.port = port  # 0 -> resolved by start()
        self.cache_size = cache_size
        self.poll_interval = poll_interval
        self.max_requests = max_requests
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._procs: list = [None] * n_workers
        self._events: list = [None] * n_workers
        # Receive ends of the workers' counter pipes; None when the
        # parent's tracer was disabled at start().
        self._reports: list = [None] * n_workers
        self._trace = False
        self.respawns = 0
        self._stopping = threading.Event()
        self._watchdog: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self, ready_timeout: float = 60.0) -> "ServingSupervisor":
        """Resolve the port, spawn every worker, wait until all serve."""
        if self.store.current_id() is None:
            raise SnapshotError(
                f"no current snapshot in {self.store.root}; publish one "
                "before starting workers"
            )
        if self.port == 0:
            # SO_REUSEPORT needs one concrete port for every worker; a
            # reserve-and-release probe picks it (the tiny window before
            # the first worker binds is test-only surface).
            self.port = _free_port(self.host)
        self._trace = get_tracer().enabled
        for worker_id in range(self.n_workers):
            self._spawn(worker_id)
        self.wait_ready(ready_timeout)
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-serving-watchdog", daemon=True
        )
        self._watchdog.start()
        self._gauge()
        return self

    def _config(self) -> WorkerConfig:
        return WorkerConfig(
            store_root=str(self.store.root),
            host=self.host,
            port=self.port,
            cache_size=self.cache_size,
            poll_interval=self.poll_interval,
            max_requests=self.max_requests,
        )

    def _spawn(self, worker_id: int) -> None:
        event = self._ctx.Event()
        receive = send = None
        if self._trace:
            receive, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._config(), worker_id, event, send),
            name=f"repro-serving-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        if send is not None:
            # Only the worker holds the send end: its exit reads as EOF.
            send.close()
        self._close_report(worker_id)
        self._procs[worker_id] = proc
        self._events[worker_id] = event
        self._reports[worker_id] = receive

    def _close_report(self, worker_id: int) -> None:
        report = self._reports[worker_id]
        if report is not None:
            report.close()
            self._reports[worker_id] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker has bound its socket (or raise)."""
        deadline = time.monotonic() + timeout
        for worker_id, event in enumerate(self._events):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not event.wait(remaining):
                raise SnapshotError(
                    f"worker {worker_id} did not become ready within "
                    f"{timeout:.0f}s"
                )

    def _watch(self) -> None:
        """Respawn dead workers until the supervisor stops.

        With ``max_requests`` set, workers exiting after their request
        budget is the *expected* end state, so the watchdog only
        observes — it never respawns.
        """
        while not self._stopping.is_set():
            for worker_id, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                if self._stopping.is_set() or self.max_requests is not None:
                    continue
                proc.join()
                with self._lock:
                    self.respawns += 1
                get_tracer().count("serving.workers.respawned")
                self._spawn(worker_id)
                self._gauge()
            self._stopping.wait(0.1)

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate every worker and join them; idempotent."""
        self._stopping.set()
        if self._watchdog is not None and self._watchdog.is_alive():
            self._watchdog.join(timeout)
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(1.0)
        for worker_id in range(self.n_workers):
            self._close_report(worker_id)
        self._gauge()

    def join(self) -> None:
        """Wait for every worker to exit on its own (max_requests runs).

        When the parent traced at :meth:`start`, each worker's counters
        are merged into the parent's tracer, as the pool workers of
        :func:`repro.utils.parallel.parallel_map` do. Workers ended by
        :meth:`stop` (SIGTERM) report nothing.
        """
        tracer = get_tracer()
        for worker_id, proc in enumerate(self._procs):
            if proc is None:
                continue
            report = self._reports[worker_id]
            if report is not None:
                # Read before joining: a large report fills the pipe.
                try:
                    tracer.merge_counters(report.recv())
                except EOFError:
                    pass  # the worker died without reporting
                self._close_report(worker_id)
            proc.join()

    def __enter__(self) -> "ServingSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection -------------------------------------------------------

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def pids(self) -> list[int | None]:
        return [p.pid if p is not None else None for p in self._procs]

    def alive_count(self) -> int:
        return sum(
            1 for p in self._procs if p is not None and p.is_alive()
        )

    def kill_worker(self, worker_id: int, sig: int = signal.SIGKILL) -> int:
        """Send a signal to one worker (crash injection); returns its pid."""
        proc = self._procs[worker_id]
        if proc is None or proc.pid is None:
            raise ValueError(f"worker {worker_id} is not running")
        pid = proc.pid
        os.kill(pid, sig)
        return pid

    def _gauge(self) -> None:
        tracer = get_tracer()
        for name, value in self.gauges().items():
            tracer.gauge(name, value)

    def gauges(self) -> dict[str, float]:
        """The ``serving.workers.*`` gauges (manifest schema v5)."""
        return {
            "serving.workers.count": self.alive_count(),
            "serving.workers.configured": self.n_workers,
            "serving.workers.respawns": self.respawns,
        }
