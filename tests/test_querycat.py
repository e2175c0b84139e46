"""Query categorization: the staged decision procedure, unit + differential.

Unit tier: each stage of the procedure on a hand-designed catalog whose
tree shape is known — exact label hits, overlap wins, low-confidence
back-off (one level and all the way to the root), empty-token and
no-hit queries, and deterministic tie-breaks.

Differential tier: the same query batch answered by a brute-force walk
of the tree (``tests/oracles.py``), the reader over a compiled buffer,
over a mapped flat file, and real supervisor worker processes over
HTTP — all results must be *equal dicts*, which together with JSON
round-tripping makes "bit-identical in every process" a checked
property, not a hope.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.algorithms import CTCR
from repro.core import Variant, make_instance
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.observability import Tracer, use_tracer
from repro.serving import (
    ServingEngine,
    ServingSupervisor,
    SnapshotIndexes,
    SnapshotStore,
    categorize_query,
    make_server,
    serve_in_background,
)
from tests.oracles import TreeOracle

VARIANT = Variant.threshold_jaccard(0.6)

QUERIES = [
    "dress shoes",            # exact label hit
    "cheap gaming laptop",    # overlap (or back-off at high thresholds)
    "trail shoes",            # back-off one level to "running shoes"
    "shoes",                  # back-off all the way to the root
    "red",                    # tie between red hats / red scarves
    "",                       # empty
    "the of",                 # stopwords only -> empty
    "quantum flux",           # tokens matching no label -> nohit
]


def shop_instance():
    """Seven labeled query sets whose CTCR tree nests predictably:

    root -> {running shoes -> trail running shoes, dress shoes,
    laptops -> gaming laptops, red hats, red scarves}.
    """
    sets = [
        {"s1", "s2", "s3", "s4"},
        {"s1", "s2"},
        {"d1", "d2", "d3", "d4"},
        {"l1", "l2", "l3", "l4"},
        {"l1", "l2"},
        {"h1", "h2"},
        {"h3", "h4"},
    ]
    labels = [
        "running shoes",
        "trail running shoes",
        "dress shoes",
        "laptops",
        "gaming laptops",
        "red hats",
        "red scarves",
    ]
    return make_instance(
        sets, weights=[4, 2, 4, 4, 2, 1, 1], labels=labels
    )


def build_indexes():
    instance = shop_instance()
    tree = CTCR().build(instance, VARIANT)
    apply_label_suggestions(tree, suggest_labels(tree, instance, VARIANT))
    return SnapshotIndexes(tree, VARIANT), tree


@pytest.fixture(scope="module")
def indexes():
    return build_indexes()[0]


def cid_of(indexes, label):
    (cid,) = [
        c for c in indexes.sizes if indexes.label_of(c) == label
    ]
    return cid


class TestStages:
    def test_exact_label_hit(self, indexes):
        result = categorize_query(indexes, "dress shoes")
        assert result["stage"] == "exact"
        assert result["confidence"] == 1.0
        assert result["label"] == "dress shoes"
        assert result["backoff_steps"] == 0
        assert [p["label"] for p in result["path"]] == ["root", "dress shoes"]
        assert result["stages"][0] == {"stage": "exact", "confidence": 1.0}

    def test_exact_hit_ignores_token_order_and_case(self, indexes):
        result = categorize_query(indexes, "  SHOES, dress!  ")
        assert result["stage"] == "exact"
        assert result["label"] == "dress shoes"

    def test_overlap_win_above_threshold(self, indexes):
        result = categorize_query(
            indexes, "cheap gaming laptop", threshold=0.5
        )
        assert result["stage"] == "overlap"
        assert result["label"] == "gaming laptops"
        # tokens {cheap, gaming, laptop} vs {gaming, laptop}: 2/3.
        assert result["confidence"] == pytest.approx(2 / 3)
        exact, overlap = result["stages"][:2]
        assert exact == {"stage": "exact", "confidence": 0.0}
        assert overlap["confidence"] == pytest.approx(2 / 3)

    def test_backoff_one_level(self, indexes):
        result = categorize_query(indexes, "trail shoes", threshold=0.8)
        assert result["stage"] == "backoff"
        assert result["label"] == "running shoes"
        assert result["backoff_steps"] == 1
        assert result["confidence"] >= 0.8
        assert [p["label"] for p in result["path"]] == [
            "root", "running shoes",
        ]

    def test_backoff_all_the_way_to_root(self, indexes):
        result = categorize_query(indexes, "shoes", threshold=0.8)
        assert result["stage"] == "backoff"
        assert result["cid"] == indexes.root_cid
        assert result["backoff_steps"] == 1
        assert [p["cid"] for p in result["path"]] == [indexes.root_cid]

    def test_backoff_confidence_is_capped_at_one(self, indexes):
        result = categorize_query(indexes, "shoes", threshold=0.99)
        assert result["stage"] == "backoff"
        assert 0.0 <= result["confidence"] <= 1.0

    def test_empty_queries(self, indexes):
        for text in ("", "   ", "the of", "&&& !!!"):
            result = categorize_query(indexes, text)
            assert result["stage"] == "empty"
            assert result["matched"] is False
            assert result["cid"] is None
            assert result["label"] is None
            assert result["path"] == []
            assert result["confidence"] == 0.0

    def test_unknown_tokens_are_nohit(self, indexes):
        result = categorize_query(indexes, "quantum flux")
        assert result["stage"] == "nohit"
        assert result["matched"] is False
        assert result["cid"] is None

    def test_tie_breaks_toward_lower_cid(self, indexes):
        hats = cid_of(indexes, "red hats")
        scarves = cid_of(indexes, "red scarves")
        # "red" scores Jaccard 1/2 against both labels with equal
        # relevance; the lower cid must win deterministically.
        result = categorize_query(indexes, "red", threshold=0.5)
        assert result["stage"] == "overlap"
        assert result["cid"] == min(hats, scarves)

    def test_threshold_zero_never_backs_off(self, indexes):
        for text in ("trail shoes", "shoes", "red"):
            assert categorize_query(indexes, text, threshold=0.0)[
                "stage"
            ] in ("exact", "overlap")

    def test_results_are_json_native(self, indexes):
        for text in QUERIES:
            result = categorize_query(indexes, text, threshold=0.8)
            assert json.loads(json.dumps(result)) == result

    def test_succinct_repr_is_identical(self, indexes):
        # The succinct reader decides exactly like a brute-force walk of
        # the same tree.
        _indexes, tree = build_indexes()
        oracle = TreeOracle(tree, VARIANT)
        for text in QUERIES:
            for threshold in (0.3, 0.5, 0.8, 0.99):
                assert categorize_query(
                    indexes, text, threshold=threshold
                ) == categorize_query(oracle, text, threshold=threshold)


class TestEngineOps:
    @pytest.fixture()
    def engine(self):
        instance = shop_instance()
        tree = CTCR().build(instance, VARIANT)
        apply_label_suggestions(
            tree, suggest_labels(tree, instance, VARIANT)
        )
        return ServingEngine.from_tree(tree, VARIANT)

    def test_single_and_batch_agree(self, engine):
        batch = engine.categorize_queries(QUERIES, threshold=0.8)
        singles = [
            engine.categorize_query(q, threshold=0.8) for q in QUERIES
        ]
        assert batch == singles

    def test_counters_recorded_even_on_cache_hits(self, engine):
        with use_tracer(Tracer()) as tracer:
            for _ in range(3):
                result = engine.categorize_query("dress shoes")
        counters = dict(tracer.counters)
        assert counters["serving.querycat.requests"] == 3
        assert counters["serving.querycat.exact"] == 3
        assert counters[f"serving.querycat.traffic.{result['cid']}"] == 3

    def test_stage_and_backoff_counters(self, engine):
        with use_tracer(Tracer()) as tracer:
            engine.categorize_queries(QUERIES, threshold=0.8)
        counters = dict(tracer.counters)
        assert counters["serving.querycat.requests"] == len(QUERIES)
        assert counters["serving.querycat.exact"] == 1
        assert counters["serving.querycat.empty"] == 2
        assert counters["serving.querycat.nohit"] == 1
        assert counters["serving.querycat.unmatched"] == 3
        assert counters["serving.querycat.backoff"] >= 1
        assert counters["serving.querycat.backoff_steps"] >= 1
        backoff_traffic = [
            name for name in counters
            if name.startswith("serving.querycat.backoff_traffic.")
        ]
        assert backoff_traffic

    def test_batch_query_hits_when_asked_alone(self, engine):
        batch = engine.categorize_queries(QUERIES, threshold=0.8)
        hits = engine.stats()["cache"]["hits"]
        assert engine.categorize_query(QUERIES[1], threshold=0.8) == batch[1]
        assert engine.stats()["cache"]["hits"] == hits + 1
        # Another threshold is another key.
        engine.categorize_query(QUERIES[1], threshold=0.5)
        assert engine.stats()["cache"]["hits"] == hits + 1

    def test_op_stats_exposed(self, engine):
        engine.categorize_query("dress shoes")
        engine.categorize_queries(["red", "shoes"])
        ops = engine.stats()["ops"]
        assert ops["categorize_query"]["requests"] == 1
        assert ops["categorize_query_batch"]["requests"] == 1


class TestHTTPEndpoint:
    @pytest.fixture()
    def server(self):
        instance = shop_instance()
        tree = CTCR().build(instance, VARIANT)
        apply_label_suggestions(
            tree, suggest_labels(tree, instance, VARIANT)
        )
        engine = ServingEngine.from_tree(tree, VARIANT)
        server = make_server(engine, port=0)
        serve_in_background(server)
        host, port = server.server_address[:2]
        yield engine, f"http://{host}:{port}"
        server.stop()

    def get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    def get_error(self, url):
        try:
            urllib.request.urlopen(url, timeout=10)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        raise AssertionError("expected an HTTP error")

    def test_single_query(self, server):
        engine, base = server
        status, body = self.get(
            base + "/categorize-query?q=dress%20shoes"
        )
        assert status == 200
        assert body == engine.categorize_query("dress shoes")

    def test_batch_and_knobs(self, server):
        engine, base = server
        status, body = self.get(
            base
            + "/categorize-query?queries=trail%20shoes|shoes"
            + "&threshold=0.8&top_k=5"
        )
        assert status == 200
        assert body["queries"] == ["trail shoes", "shoes"]
        assert body["results"] == engine.categorize_queries(
            ["trail shoes", "shoes"], threshold=0.8, top_k=5
        )

    def test_bad_requests(self, server):
        _engine, base = server
        assert self.get_error(base + "/categorize-query")[0] == 400
        assert self.get_error(base + "/categorize-query?queries=|")[0] == 400
        assert (
            self.get_error(base + "/categorize-query?q=x&threshold=wide")[0]
            == 400
        )
        assert (
            self.get_error(base + "/categorize-query?q=x&top_k=many")[0]
            == 400
        )

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_is_400(self, server, top_k):
        _engine, base = server
        for path in (
            f"/categorize-query?q=shoes&top_k={top_k}",
            f"/categorize-query?queries=shoes|red&top_k={top_k}",
        ):
            status, body = self.get_error(base + path)
            assert status == 400
            assert "top_k must be >= 1" in body["error"]


class TestDifferential:
    """Oracle == buffer == mapping == supervisor, for one batch."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        instance = shop_instance()
        tree = CTCR().build(instance, VARIANT)
        apply_label_suggestions(
            tree, suggest_labels(tree, instance, VARIANT)
        )
        store = SnapshotStore(tmp_path_factory.mktemp("snapshots"))
        info = store.save(tree, instance, VARIANT)
        return store, info

    def reference(self, store_info, buffered=False):
        """Answers of the oracle, or of the reader over a buffer."""
        store, info = store_info
        loaded = store.load(info.snapshot_id)
        if buffered:
            indexes = SnapshotIndexes(loaded.tree, loaded.variant)
        else:
            indexes = TreeOracle(loaded.tree, loaded.variant)
        return [
            categorize_query(indexes, text, threshold=0.8)
            for text in QUERIES
        ]

    def test_mmap_matches_in_memory(self, store):
        expected = self.reference(store)
        _store, info = store
        path = _store.ensure_flat(info.snapshot_id)
        with SnapshotIndexes.open(path) as mm:
            got = [
                categorize_query(mm, text, threshold=0.8)
                for text in QUERIES
            ]
        assert got == expected

    def test_buffer_matches_oracle(self, store):
        assert self.reference(store, buffered=True) == self.reference(store)

    def test_supervisor_matches_in_memory(self, store):
        expected = self.reference(store)
        _store, _info = store
        supervisor = ServingSupervisor(
            _store, n_workers=2, poll_interval=0.05
        )
        supervisor.start()
        try:
            base = supervisor.base_url
            query = "|".join(q for q in QUERIES if q.strip())
            with urllib.request.urlopen(
                base
                + "/categorize-query?queries="
                + urllib.request.quote(query, safe="")
                + "&threshold=0.8",
                timeout=10,
            ) as response:
                body = json.loads(response.read())
        finally:
            supervisor.stop()
        wanted = [
            result
            for text, result in zip(QUERIES, expected)
            if text.strip()
        ]
        assert body["results"] == wanted
