"""Tests for the HTTP/JSON serving frontend (real sockets, port 0)."""

import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algorithms import CTCR
from repro.core import Variant
from repro.serving import ServingEngine, SnapshotStore, make_server, serve_in_background
from repro.serving import http as http_module
from repro.serving.http import _Handler


def _get(server, path):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(server, path, payload=None):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    data = b"" if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post_swap_raw(server, content_length: str, body: bytes = b""):
    """POST /admin/swap with a hand-written Content-Length header.

    Returns the response status; a server that never answers makes the
    read time out instead of hanging the test.
    """
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.server_port, timeout=5
    )
    try:
        conn.putrequest("POST", "/admin/swap")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        return conn.getresponse().status
    finally:
        conn.close()


@pytest.fixture()
def served(figure2_instance, tmp_path):
    variant = Variant.threshold_jaccard(0.6)
    tree = CTCR().build(figure2_instance, variant)
    store = SnapshotStore(tmp_path)
    store.save(tree, figure2_instance, variant)
    engine = ServingEngine.from_snapshot(store.load())
    server = make_server(engine, store=store)
    serve_in_background(server)
    yield server, engine, store, figure2_instance
    # stop() = shutdown + join the serving thread + close the socket, so
    # the port is provably released before the next test binds.
    server.stop()


class TestReadEndpoints:
    def test_healthz(self, served):
        server, engine, _, _ = served
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["generation"] == engine.generation
        assert body["snapshot_id"].startswith("snap-")

    def test_stats(self, served):
        server, _, _, _ = served
        status, body = _get(server, "/stats")
        assert status == 200
        assert body["n_categories"] > 0
        assert "cache" in body and "latency" in body

    def test_categorize(self, served):
        server, _, _, _ = served
        status, body = _get(server, "/categorize?item=a")
        assert status == 200
        assert body["item"] == "a"
        assert body["placements"]

    def test_best_category(self, served):
        server, _, _, _ = served
        # q1 = {a..e}: Jaccard 0.8 against the "black shirt" category.
        status, body = _get(server, "/best-category?items=a,b,c,d,e")
        assert status == 200
        assert body["covered"] is True
        assert body["best"]["score"] > 0

    def test_best_category_uncovered(self, served):
        server, _, _, _ = served
        status, body = _get(server, "/best-category?items=a,b")
        assert status == 200
        assert body["covered"] is False
        assert body["best"] is None

    def test_best_category_with_overrides(self, served):
        server, _, _, _ = served
        status, body = _get(
            server,
            "/best-category?items=a,b&delta=0.1&variant=perfect-recall:0.5",
        )
        assert status == 200
        assert body["covered"] is True

    def test_browse_root_and_cid(self, served):
        server, _, _, _ = served
        status, root = _get(server, "/browse")
        assert status == 200
        assert root["depth"] == 0
        if root["children"]:
            cid = root["children"][0]["cid"]
            status, page = _get(server, f"/browse?cid={cid}")
            assert status == 200
            assert page["cid"] == cid

    def test_path(self, served):
        server, _, _, _ = served
        _, root = _get(server, "/browse")
        status, body = _get(server, f"/path?cid={root['cid']}")
        assert status == 200
        assert body["path"][-1]["cid"] == root["cid"]

    def test_search(self, served):
        server, _, _, _ = served
        status, body = _get(server, "/search?q=shirt&top_k=3")
        assert status == 200
        assert body["hits"]
        assert len(body["hits"]) <= 3


class TestErrorMapping:
    def test_unknown_path_404(self, served):
        server, _, _, _ = served
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/nope")[0] == 404

    def test_unknown_cid_404(self, served):
        server, _, _, _ = served
        assert _get(server, "/browse?cid=99999")[0] == 404
        assert _get(server, "/path?cid=99999")[0] == 404

    def test_bad_params_400(self, served):
        server, _, _, _ = served
        assert _get(server, "/categorize")[0] == 400
        assert _get(server, "/best-category?items=")[0] == 400
        assert _get(server, "/best-category?items=a&delta=x")[0] == 400
        assert _get(server, "/best-category?items=a&variant=bogus")[0] == 400
        assert _get(server, "/browse?cid=notanint")[0] == 400
        # A non-positive top_k would slice the hit list from the end.
        assert _get(server, "/search?q=shirt&top_k=0")[0] == 400
        assert _get(server, "/search?q=shirt&top_k=-1")[0] == 400
        current = server.store.current_id()
        assert _post(server, "/admin/swap", {"snapshot_id": "snap-missing"})[
            0
        ] == 404
        assert server.store.current_id() == current

    def test_swap_without_store_409(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        server = make_server(engine)  # no store attached
        serve_in_background(server)
        try:
            assert _post(server, "/admin/swap")[0] == 409
        finally:
            server.stop()


class TestAdminSwap:
    def test_swap_bumps_generation(self, served):
        server, engine, store, instance = served
        before = engine.generation
        status, body = _post(server, "/admin/swap")  # reload CURRENT
        assert status == 200
        assert body["status"] == "swapped"
        assert body["generation"] == before + 1
        assert engine.generation == before + 1
        # Reads keep working on the new generation.
        assert _get(server, "/best-category?items=a,b")[0] == 200

    def test_swap_to_named_snapshot(self, served):
        server, engine, store, instance = served
        other_variant = Variant.perfect_recall(0.5)
        other_tree = CTCR().build(instance, other_variant)
        info = store.save(other_tree, instance, other_variant, activate=False)
        status, body = _post(
            server, "/admin/swap", {"snapshot_id": info.snapshot_id}
        )
        assert status == 200
        assert body["snapshot_id"] == info.snapshot_id
        assert engine.current.snapshot_id == info.snapshot_id
        # Naming a snapshot activates it, so pollers follow, not undo.
        assert store.current_id() == info.snapshot_id

    def test_swap_body_must_be_json_object(self, served):
        server, _, _, _ = served
        url = f"http://127.0.0.1:{server.server_port}/admin/swap"
        request = urllib.request.Request(
            url, data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400


class TestHostileSwap:
    """Malformed or path-escaping swap requests never swap or stall."""

    def test_negative_content_length_is_400(self, served):
        # rfile.read(-1) would wait for the client to hang up.
        server, engine, _, _ = served
        assert _post_swap_raw(server, "-1") == 400
        assert engine.generation == 1

    def test_non_integer_content_length_is_400(self, served):
        server, engine, _, _ = served
        assert _post_swap_raw(server, "abc") == 400
        assert engine.generation == 1

    def test_non_string_snapshot_id_is_400(self, served):
        server, engine, _, _ = served
        status, body = _post(server, "/admin/swap", {"snapshot_id": 5})
        assert status == 400
        assert "snapshot_id must be a string" in body["error"]
        assert engine.generation == 1

    def test_snapshot_id_outside_the_store_is_404(
        self, served, tmp_path_factory
    ):
        server, engine, store, instance = served
        serving = engine.current.snapshot_id
        other_store = SnapshotStore(tmp_path_factory.mktemp("other"))
        variant = Variant.perfect_recall(0.5)
        other = other_store.save(
            CTCR().build(instance, variant), instance, variant
        )
        other_dir = other_store.root / other.snapshot_id
        for path in other_store.flat_paths(other.snapshot_id):
            path.unlink()
        escaping = os.path.relpath(other_dir, store.root)
        assert escaping.startswith("..")
        status, body = _post(server, "/admin/swap", {"snapshot_id": escaping})
        assert status == 404
        assert "no snapshot" in body["error"]
        assert engine.current.snapshot_id == serving
        assert engine.generation == 1
        # Nothing was compiled into the other store either.
        assert not list(other_dir.glob("*.flat"))


class TestMaxRequests:
    def test_server_stops_after_max_requests(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        server = make_server(engine, max_requests=3)
        thread = serve_in_background(server)
        try:
            for _ in range(3):
                assert _get(server, "/healthz")[0] == 200
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.server_close()


    def test_zero_budget_serves_nothing(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        server = make_server(engine, max_requests=0)
        thread = serve_in_background(server)
        try:
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert server.requests_handled == 0
        finally:
            server.server_close()


class TestShutdownOrdering:
    def _serve_one(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        server = make_server(engine)
        thread = serve_in_background(server)
        return server, thread

    def test_stop_joins_thread_and_releases_port(self, figure2_instance):
        server, thread = self._serve_one(figure2_instance)
        port = server.server_port
        assert _get(server, "/healthz")[0] == 200
        server.stop()
        assert not thread.is_alive()
        self._assert_rebindable(port)

    @staticmethod
    def _assert_rebindable(port):
        # The port must be immediately rebindable — no TIME_WAIT listener,
        # no leaked socket (SO_REUSEADDR is set by the server class, so a
        # fresh bind on the same port proves the listener is gone).
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()

    def test_stop_is_idempotent(self, figure2_instance):
        server, _ = self._serve_one(figure2_instance)
        server.stop()
        server.stop()  # second stop must not raise or hang

    def test_stop_returns_on_a_server_that_never_served(
        self, figure2_instance
    ):
        # A caller that fails between make_server and serve_in_background
        # must not hang in its cleanup.
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        server = make_server(ServingEngine.from_tree(tree, variant))
        port = server.server_port
        for target in (server.stop, server.serve_forever):
            # The loop does not start after stop() either.
            runner = threading.Thread(target=target, daemon=True)
            runner.start()
            runner.join(5.0)
            assert not runner.is_alive(), target.__name__
        self._assert_rebindable(port)

    def test_reuse_port_allows_second_binding(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        first = make_server(engine, reuse_port=True)
        second = make_server(
            engine, port=first.server_port, reuse_port=True
        )
        try:
            assert second.server_port == first.server_port
        finally:
            first.server_close()
            second.server_close()


class TestAttributionHeaders:
    def test_generation_and_snapshot_headers(self, served):
        server, engine, _, _ = served
        url = f"http://127.0.0.1:{server.server_port}/browse"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.headers["X-Repro-Generation"] == str(
                engine.generation
            )
            assert response.headers["X-Repro-Snapshot"].startswith("snap-")
            # Single-process servers have no worker identity.
            assert response.headers["X-Repro-Worker"] is None

    def test_worker_header_when_configured(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        server = make_server(engine, worker_id=7)
        serve_in_background(server)
        try:
            url = f"http://127.0.0.1:{server.server_port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.headers["X-Repro-Worker"] == "7"
        finally:
            server.stop()

    def test_header_tracks_generation_across_swap(self, served):
        server, engine, _, _ = served
        url = f"http://127.0.0.1:{server.server_port}/browse"
        with urllib.request.urlopen(url, timeout=10) as response:
            before = int(response.headers["X-Repro-Generation"])
        assert _post(server, "/admin/swap")[0] == 200
        with urllib.request.urlopen(url, timeout=10) as response:
            after = int(response.headers["X-Repro-Generation"])
        assert after == before + 1

    def test_error_responses_are_attributed_too(self, served):
        server, engine, _, _ = served
        status, _ = _get(server, "/browse?cid=99999")
        assert status == 404
        url = f"http://127.0.0.1:{server.server_port}/nope"
        try:
            urllib.request.urlopen(url, timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.headers["X-Repro-Generation"] == str(engine.generation)


class TestConnectionEdge:
    """Accepted sockets get TCP_NODELAY and an idle timeout."""

    @pytest.fixture()
    def accepted(self, monkeypatch):
        """(server-side socket, handler thread) of every connection."""
        seen = []
        setup = _Handler.setup

        def spy(handler):
            setup(handler)
            seen.append((handler.connection, threading.current_thread()))

        monkeypatch.setattr(_Handler, "setup", spy)
        return seen

    @pytest.fixture()
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.5)
        return 0.5

    def test_accepted_socket_has_tcp_nodelay(self, served, accepted):
        # Without it the body write of a keep-alive reply waits for the
        # client's delayed ACK (Nagle's algorithm).
        server = served[0]
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10
        )
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            [(sock, _)] = accepted
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "sent", [b"", b"GET /healthz HT"], ids=["silent", "half_request_line"]
    )
    def test_idle_connection_is_closed_and_frees_its_thread(
        self, served, accepted, short_timeout, sent
    ):
        server = served[0]
        threads_before = threading.active_count()
        with socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=10 * short_timeout
        ) as sock:
            sock.sendall(sent)
            assert sock.recv(1024) == b""  # closed by the server
        [(_, thread)] = accepted
        thread.join(10 * short_timeout)
        assert not thread.is_alive()
        assert threading.active_count() <= threads_before

    def test_stalled_swap_body_closes_the_connection(
        self, served, short_timeout
    ):
        # A read timeout inside do_POST closes the connection; it is not
        # answered as a 500.
        server, engine, _, _ = served
        with socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=10 * short_timeout
        ) as sock:
            sock.sendall(
                b"POST /admin/swap HTTP/1.1\r\nHost: test\r\n"
                b'Content-Length: 40\r\n\r\n{"snapshot_id"'
            )
            assert sock.recv(1024) == b""
        assert engine.generation == 1

    def test_requests_below_the_timeout_share_a_connection(
        self, served, accepted, short_timeout
    ):
        server = served[0]
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10 * short_timeout
        )
        try:
            for _ in range(2):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                time.sleep(short_timeout / 5)
        finally:
            conn.close()
        assert len(accepted) == 1
