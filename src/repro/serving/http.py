"""Zero-dependency HTTP/JSON frontend for a :class:`ServingEngine`.

Built on the standard library's ``ThreadingHTTPServer`` so the serving
layer needs nothing the container does not already have. One handler
thread per connection; every handler reads the engine's current
generation independently, so a hot swap never blocks or drops a request.

Endpoints (all JSON):

========================  =====================================================
``GET /healthz``          liveness + serving generation/snapshot
``GET /stats``            :meth:`ServingEngine.stats` (cache, latency, ops)
``GET /categorize?item=`` the item's branch placements
``GET /categorize-batch?items=a,b,c``
                          batched categorize: one placement list per
                          item (each distinct category's root path is
                          resolved once)
``GET /best-category?items=a,b,c[&delta=0.7][&variant=spec]``
                          best-scoring category for a query result set
``GET /browse[?cid=N]``   one navigation page (root when ``cid`` omitted)
``GET /path?cid=N``       root-to-category breadcrumb
``GET /search?q=text[&top_k=N]``
                          free-text label search over categories
``GET /categorize-query?q=text`` or ``?queries=a|b|c``
                          staged free-text query categorization (exact
                          label hit -> token overlap -> hierarchy
                          back-off); optional ``threshold=0.5`` and
                          ``top_k=N`` (N >= 1) knobs, ``queries``
                          (pipe-separated) for a batch
``POST /admin/swap``      hot-swap to a stored snapshot (body:
                          ``{"snapshot_id": "..."}`` activates that
                          snapshot in the store first, so every process
                          polling ``CURRENT`` follows; an empty body
                          reloads the store's CURRENT snapshot)
========================  =====================================================

Errors: 400 on malformed parameters (including ``top_k < 1``) and on
a swap request with a bad ``Content-Length``, a body that is not a JSON
object or a ``snapshot_id`` that is not a string; 404 on unknown
paths/cids and on a ``snapshot_id`` the store does not hold; 409 when
``/admin/swap`` is called on a server without a snapshot store.

Every accepted socket gets ``TCP_NODELAY`` (the handler's
``disable_nagle_algorithm``). A reply leaves as two writes, headers then
body; under Nagle's algorithm the second small write of a keep-alive
reply waited for the client's delayed ACK, about 40 ms, so each request
on a connection cost ~44 ms whatever the engine did. With Nagle off
both writes leave at once, for every reply size and on every TCP stack
(one buffer per reply would escape the wait only while the reply fits
one segment, or under Linux's Minshall variant of Nagle).

Every accepted socket also gets a socket timeout of
:data:`IDLE_TIMEOUT_S`. A connection that sends nothing, half a request
or part of a swap body for that long is closed and its handler thread
ends; without it such a client held its thread forever.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serving.engine import ServingEngine
from repro.serving.snapshot import SnapshotError, SnapshotStore, variant_from_spec

# Seconds a connection may wait between reads or writes before the
# server closes it. Well above every idle gap a real client makes: the
# e2e readers send every 50-100 ms per connection, and load generators
# and tests send their next request at once.
IDLE_TIMEOUT_S = 60.0


class _BadRequest(Exception):
    """Maps to a 400 response with the message as the error body."""


class ServingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one engine (and optional store).

    With ``reuse_port`` the listening socket is bound with
    ``SO_REUSEPORT``, so N worker processes share one port and the
    kernel load-balances connections across them (see
    :mod:`repro.serving.supervisor`). ``worker_id`` and the serving
    generation are stamped on every response (``X-Repro-Worker``,
    ``X-Repro-Generation``, ``X-Repro-Snapshot``), making each answer
    attributable to exactly one worker and one generation.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: ServingEngine,
        store: SnapshotStore | None = None,
        max_requests: int | None = None,
        reuse_port: bool = False,
        worker_id: int | None = None,
    ) -> None:
        # server_bind runs inside super().__init__, so the bind options
        # must be set first.
        self.reuse_port = reuse_port
        super().__init__(address, _Handler)
        self.engine = engine
        self.store = store
        self.max_requests = max_requests
        self.worker_id = worker_id
        self.requests_handled = 0  # every reply, errors included
        self._handled_lock = threading.Lock()
        self._serving_thread: threading.Thread | None = None
        # shutdown() waits for an event only serve_forever sets, so
        # stop() must know whether the loop ever started.
        self._loop_lock = threading.Lock()
        self._loop_started = False
        self._stopped = False

    def server_bind(self) -> None:
        if self.reuse_port:
            # Python 3.11+ has allow_reuse_port; setting the option
            # directly keeps 3.10 workers on the same code path.
            self.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        super().server_bind()

    def stop(self, timeout: float = 5.0) -> None:
        """Shut down, join the serving thread, and release the port.

        Safe ordering for tests and supervisors: ``shutdown()`` stops
        the accept loop, the join waits for :func:`serve_in_background`'s
        thread to actually exit, and ``server_close()`` closes the
        listening socket — on return the port is rebindable and no
        serving thread is leaked. A server whose loop never started is
        only closed, and its loop will not start afterwards.
        """
        with self._loop_lock:
            self._stopped = True
            started = self._loop_started
        if started:
            self.shutdown()
        thread = self._serving_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self.server_close()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until shut down; a budget of 0 requests returns at once."""
        with self._loop_lock:
            if self._stopped:
                return
            self._loop_started = True
        if self.max_requests is not None and self.max_requests <= 0:
            # note_request_handled checks the budget after each reply, so
            # a budget spent before the first request stops the loop here.
            threading.Thread(target=self.shutdown, daemon=True).start()
        super().serve_forever(poll_interval)

    def note_request_handled(self) -> None:
        """Count a finished request; shut down at ``max_requests``."""
        with self._handled_lock:
            self.requests_handled += 1
            done = (
                self.max_requests is not None
                and self.requests_handled >= self.max_requests
            )
        if done:
            # shutdown() blocks until serve_forever exits, so it must run
            # off the handler thread.
            threading.Thread(target=self.shutdown, daemon=True).start()


class _Handler(BaseHTTPRequestHandler):
    server: ServingHTTPServer  # narrowed for readability

    protocol_version = "HTTP/1.1"
    # StreamRequestHandler.setup applies both to every accepted socket.
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        return IDLE_TIMEOUT_S

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """No per-request access log on stderr."""

    def _reply(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # Attribution: the exact generation the op computed against
        # (thread-local marker), falling back to the current one for
        # endpoints that never touch the read path (healthz, errors).
        marker = self.server.engine.pop_served_marker()
        if marker is None:
            marker = self.server.engine.generation_info()
        number, snapshot_id = marker
        self.send_header("X-Repro-Generation", str(number))
        if snapshot_id:
            self.send_header("X-Repro-Snapshot", snapshot_id)
        if self.server.worker_id is not None:
            self.send_header("X-Repro-Worker", str(self.server.worker_id))
        self.end_headers()
        self.wfile.write(body)
        self.server.note_request_handled()

    def _params(self) -> dict[str, str]:
        query = urlsplit(self.path).query
        return {k: v[-1] for k, v in parse_qs(query).items()}

    def _require(self, params: dict[str, str], name: str) -> str:
        try:
            return params[name]
        except KeyError:
            raise _BadRequest(f"missing query parameter {name!r}") from None

    def _int_param(self, params: dict[str, str], name: str) -> int:
        raw = self._require(params, name)
        try:
            return int(raw)
        except ValueError:
            raise _BadRequest(f"{name} must be an integer, got {raw!r}") from None

    def _top_k_param(self, params: dict[str, str]) -> int:
        top_k = self._int_param(params, "top_k")
        if top_k < 1:
            raise _BadRequest(f"top_k must be >= 1, got {top_k}")
        return top_k

    def _float_param(self, params: dict[str, str], name: str) -> float:
        raw = self._require(params, name)
        try:
            return float(raw)
        except ValueError:
            raise _BadRequest(f"{name} must be a float, got {raw!r}") from None

    # -- dispatch ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        route = urlsplit(self.path).path
        # Keep-alive reuses this thread: drop any marker a previous
        # request on the connection left behind.
        self.server.engine.pop_served_marker()
        try:
            handler = {
                "/healthz": self._get_healthz,
                "/stats": self._get_stats,
                "/categorize": self._get_categorize,
                "/categorize-batch": self._get_categorize_batch,
                "/best-category": self._get_best_category,
                "/browse": self._get_browse,
                "/path": self._get_path,
                "/search": self._get_search,
                "/categorize-query": self._get_categorize_query,
            }.get(route)
            if handler is None:
                self._reply(404, {"error": f"unknown path {route!r}"})
                return
            handler()
        except _BadRequest as exc:
            self._reply(400, {"error": str(exc)})
        except KeyError as exc:
            self._reply(404, {"error": f"unknown category {exc}"})
        except Exception as exc:  # pragma: no cover - defensive 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        route = urlsplit(self.path).path
        self.server.engine.pop_served_marker()
        try:
            if route != "/admin/swap":
                self._reply(404, {"error": f"unknown path {route!r}"})
                return
            self._post_swap()
        except _BadRequest as exc:
            self._reply(400, {"error": str(exc)})
        except SnapshotError as exc:
            self._reply(404, {"error": str(exc)})
        except TimeoutError:
            # A swap body that stopped arriving: handle_one_request
            # closes the connection, as for a stalled request line.
            raise
        except Exception as exc:  # pragma: no cover - defensive 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- GET endpoints -------------------------------------------------------

    def _get_healthz(self) -> None:
        engine = self.server.engine
        gen = engine.current
        self._reply(
            200,
            {
                "status": "ok",
                "generation": gen.number,
                "snapshot_id": gen.snapshot_id,
            },
        )

    def _get_stats(self) -> None:
        self._reply(200, self.server.engine.stats())

    def _get_categorize(self) -> None:
        params = self._params()
        item = self._require(params, "item")
        placements = self.server.engine.categorize_item(item)
        self._reply(200, {"item": item, "placements": placements})

    def _get_categorize_batch(self) -> None:
        params = self._params()
        raw_items = self._require(params, "items")
        items = [i for i in raw_items.split(",") if i]
        if not items:
            raise _BadRequest("items must be a non-empty comma-separated list")
        results = self.server.engine.categorize_items(items)
        self._reply(200, {"items": items, "results": results})

    def _get_best_category(self) -> None:
        params = self._params()
        raw_items = self._require(params, "items")
        items = frozenset(i for i in raw_items.split(",") if i)
        if not items:
            raise _BadRequest("items must be a non-empty comma-separated list")
        delta = None
        if "delta" in params:
            try:
                delta = float(params["delta"])
            except ValueError:
                raise _BadRequest(
                    f"delta must be a float, got {params['delta']!r}"
                ) from None
        variant = None
        if "variant" in params:
            try:
                variant = variant_from_spec(params["variant"])
            except SnapshotError as exc:
                raise _BadRequest(str(exc)) from None
        best = self.server.engine.best_category(
            items, variant=variant, delta=delta
        )
        self._reply(
            200,
            {
                "items": sorted(items),
                "covered": best is not None,
                "best": None
                if best is None
                else {
                    "cid": best.cid,
                    "label": best.label,
                    "score": best.score,
                    "precision": best.precision,
                    "depth": best.depth,
                },
            },
        )

    def _get_browse(self) -> None:
        params = self._params()
        cid = self._int_param(params, "cid") if "cid" in params else None
        self._reply(200, self.server.engine.browse(cid))

    def _get_path(self) -> None:
        cid = self._int_param(self._params(), "cid")
        self._reply(200, {"cid": cid, "path": self.server.engine.path_to_root(cid)})

    def _get_search(self) -> None:
        params = self._params()
        query = self._require(params, "q")
        top_k = self._top_k_param(params) if "top_k" in params else 10
        self._reply(
            200,
            {"q": query, "hits": self.server.engine.find_categories(query, top_k)},
        )

    def _get_categorize_query(self) -> None:
        params = self._params()
        threshold = (
            self._float_param(params, "threshold")
            if "threshold" in params
            else None
        )
        top_k = self._top_k_param(params) if "top_k" in params else None
        if "queries" in params:
            queries = [q for q in params["queries"].split("|") if q.strip()]
            if not queries:
                raise _BadRequest(
                    "queries must be a non-empty pipe-separated list"
                )
            results = self.server.engine.categorize_queries(
                queries, threshold=threshold, top_k=top_k
            )
            self._reply(200, {"queries": queries, "results": results})
            return
        query = self._require(params, "q")
        self._reply(
            200,
            self.server.engine.categorize_query(
                query, threshold=threshold, top_k=top_k
            ),
        )

    # -- POST endpoints ------------------------------------------------------

    def _post_swap(self) -> None:
        store = self.server.store
        if store is None:
            self._reply(
                409, {"error": "this server has no snapshot store attached"}
            )
            return
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        # rfile.read(-1) would block until the client hangs up. With no
        # usable length the body cannot be skipped, so the connection
        # closes after the 400.
        if length < 0:
            self.close_connection = True
            raise _BadRequest(
                "Content-Length must be a non-negative integer, "
                f"got {raw_length!r}"
            )
        body = self.rfile.read(length) if length else b""
        snapshot_id: str | None = None
        if body.strip():
            try:
                payload = json.loads(body)
            except json.JSONDecodeError:
                raise _BadRequest("swap body must be JSON") from None
            if not isinstance(payload, dict):
                raise _BadRequest("swap body must be a JSON object")
            snapshot_id = payload.get("snapshot_id")
            if snapshot_id is not None and not isinstance(snapshot_id, str):
                raise _BadRequest(
                    "snapshot_id must be a string, got "
                    f"{type(snapshot_id).__name__}"
                )
        if snapshot_id is not None:
            # CURRENT stays the one source of truth: every worker's
            # poller converges on the named snapshot instead of undoing
            # this swap. Ids outside the store raise SnapshotError (404).
            store.activate(snapshot_id)
        generation = self.server.engine.swap(store, snapshot_id)
        self._reply(
            200,
            {
                "status": "swapped",
                "generation": generation.number,
                "snapshot_id": generation.snapshot_id,
            },
        )


def make_server(
    engine: ServingEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    store: SnapshotStore | None = None,
    max_requests: int | None = None,
    reuse_port: bool = False,
    worker_id: int | None = None,
) -> ServingHTTPServer:
    """Bind a serving HTTP server (``port=0`` picks a free port).

    The caller drives it: ``serve_forever()`` inline, or on a thread via
    :func:`serve_in_background`. The bound port is ``server.server_port``.
    ``/admin/swap`` maps the store's flat files for the new generation.
    """
    return ServingHTTPServer(
        (host, port), engine, store=store,
        max_requests=max_requests,
        reuse_port=reuse_port, worker_id=worker_id,
    )


def serve_in_background(server: ServingHTTPServer) -> threading.Thread:
    """Run ``server.serve_forever()`` on a daemon thread; returns it.

    The thread is remembered on the server so :meth:`ServingHTTPServer.
    stop` can join it — shutdown, join, close, port released, no leaked
    listener between test cases.
    """
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serving-http", daemon=True
    )
    server._serving_thread = thread
    thread.start()
    return thread
