"""Tests for SnapshotIndexes and the thread-safe ServingEngine.

The acceptance bar for the serving layer is *bit-identical* agreement
with the offline scorer: for every variant, the engine's best_category
must reproduce ``score_tree``'s per-set score/precision exactly, and the
brute-force oracle's (``tests/oracles.py``) whole answer.
"""

import threading

import pytest

from repro.algorithms import CTCR
from repro.core import Variant, score_tree
from repro.observability import Tracer, use_tracer
from repro.serving import (
    Generation,
    ServingEngine,
    ServingError,
    SnapshotIndexes,
    SnapshotStore,
)
from tests.oracles import TreeOracle


def compiled(tree, instance, variant) -> Generation:
    """An unpublished generation over an in-process compiled buffer."""
    return Generation(SnapshotIndexes(tree, variant))


@pytest.fixture()
def built(figure2_instance):
    variant = Variant.threshold_jaccard(0.6)
    tree = CTCR().build(figure2_instance, variant)
    return tree, figure2_instance, variant


@pytest.fixture()
def engine(built):
    tree, instance, variant = built
    return ServingEngine.from_tree(tree, variant)


class TestDifferentialScoring:
    """Engine answers must match the offline score_tree reference."""

    def _assert_matches_reference(self, tree, instance, variant):
        indexes = SnapshotIndexes(tree, variant)
        report = score_tree(tree, instance, variant)
        oracle = TreeOracle(tree, variant)
        for q in instance:
            best = indexes.best_category(q.items)
            assert best == oracle.best_category(q.items)
            entry = report.per_set[q.sid]
            if entry.covered:
                assert best is not None, (variant.describe(), q.sid)
                assert best.score == entry.score
                assert best.precision == entry.best_precision
            else:
                assert best is None, (variant.describe(), q.sid)

    def test_every_variant_matches_offline_scorer(
        self, figure2_instance, all_variants
    ):
        for variant in all_variants:
            tree = CTCR().build(figure2_instance, variant)
            self._assert_matches_reference(tree, figure2_instance, variant)

    def test_dataset_scale_matches_offline_scorer(self, tiny_dataset):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.8)
        instance, _ = preprocess(tiny_dataset, variant)
        tree = CTCR().build(instance, variant)
        self._assert_matches_reference(tree, instance, variant)

    def test_tie_break_is_deterministic_lowest_cid(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        ix = SnapshotIndexes(tree, variant=variant)
        best = ix.best_category(frozenset({"a", "b"}))
        again = ix.best_category(frozenset({"b", "a"}))
        assert best == again


class TestEngineOperations:
    def test_query_before_publish_raises(self):
        engine = ServingEngine()
        assert engine.generation == 0
        with pytest.raises(ServingError):
            engine.browse()
        with pytest.raises(ServingError):
            engine.current

    def test_categorize_known_and_unknown(self, engine, built):
        tree, _, _ = built
        item = next(iter(tree.root.items))
        placements = engine.categorize_item(item)
        assert placements
        assert all({"cid", "label", "path"} <= p.keys() for p in placements)
        assert engine.categorize_item("zzz-unknown") == []

    def test_browse_root_and_child(self, engine):
        page = engine.browse()
        assert page["depth"] == 0
        assert page["n_items"] > 0
        if page["children"]:
            child = engine.browse(page["children"][0]["cid"])
            assert child["path"][0]["cid"] == page["cid"]

    def test_browse_unknown_cid_raises_keyerror(self, engine):
        with pytest.raises(KeyError):
            engine.browse(10_000)
        with pytest.raises(KeyError):
            engine.path_to_root(10_000)

    def test_path_to_root_starts_at_root(self, engine):
        root_cid = engine.browse()["cid"]
        page = engine.browse()
        if page["children"]:
            cid = page["children"][0]["cid"]
            path = engine.path_to_root(cid)
            assert path[0]["cid"] == root_cid
            assert path[-1]["cid"] == cid

    def test_find_categories_by_label(self, engine):
        hits = engine.find_categories("shirt")
        assert hits, "labeled categories must be searchable"
        assert all(0.0 < h["relevance"] <= 1.0 for h in hits)

    def test_best_category_variant_and_delta_overrides(self, engine, built):
        _, instance, _ = built
        q = instance.get(0).items
        default = engine.best_category(q)
        assert default is not None
        loose = engine.best_category(q, delta=0.1)
        assert loose is not None and loose.score >= default.score
        other = engine.best_category(q, variant=Variant.perfect_recall(0.5))
        assert other is not None

    def test_stats_shape(self, engine):
        engine.browse()
        stats = engine.stats()
        assert stats["generation"] == 1
        assert stats["n_categories"] > 0
        assert stats["requests"] >= 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert set(stats["latency"]) == {"p50_ms", "p95_ms", "p99_ms", "max_ms"}

    def test_latency_percentiles_use_nearest_rank(self, engine):
        """Rank ``ceil(q * n)``: p95 and p99 of 1..10 ms are 10 ms."""
        engine._latencies.clear()
        engine._latencies.extend(ms / 1000.0 for ms in range(1, 11))
        latency = engine.stats()["latency"]
        assert latency["p50_ms"] == pytest.approx(5.0)
        assert latency["p95_ms"] == pytest.approx(10.0)
        assert latency["p99_ms"] == pytest.approx(10.0)
        assert latency["max_ms"] == pytest.approx(10.0)


class TestCaching:
    def test_repeat_queries_hit_cache(self, engine):
        before = engine.stats()["cache"]["hits"]
        engine.browse()
        engine.browse()
        engine.browse()
        assert engine.stats()["cache"]["hits"] >= before + 2

    def test_cache_disabled(self, built):
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant, cache_size=0)
        engine.browse()
        engine.browse()
        cache = engine.stats()["cache"]
        assert cache["hits"] == 0
        assert cache["size"] == 0

    def test_swap_invalidates_cache_logically(self, built):
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant)
        engine.browse()
        engine.browse()
        hits_before = engine.stats()["cache"]["hits"]
        engine.publish(compiled(tree, instance, variant))
        engine.browse()  # new generation key: a miss, not a stale hit
        stats = engine.stats()["cache"]
        assert stats["hits"] == hits_before
        engine.browse()
        assert engine.stats()["cache"]["hits"] == hits_before + 1

    def test_lru_eviction_bounds_size(self, engine):
        for cid in [c["cid"] for c in engine.browse()["children"]]:
            engine.path_to_root(cid)
        assert engine.stats()["cache"]["size"] <= engine._cache.maxsize


class TestBatchCaching:
    """A batch op caches each element under its single op's key."""

    def test_batch_item_hits_when_asked_alone(self, engine):
        engine.categorize_items(["a", "b", "c"])
        hits = engine.stats()["cache"]["hits"]
        assert engine.categorize_item("b") == engine.categorize_items(["b"])[0]
        assert engine.stats()["cache"]["hits"] == hits + 2

    def test_single_item_hits_inside_a_batch(self, engine):
        engine.categorize_item("b")
        cache = engine.stats()["cache"]
        engine.categorize_items(["a", "b", "c"])
        after = engine.stats()["cache"]
        assert after["hits"] == cache["hits"] + 1
        assert after["misses"] == cache["misses"] + 2

    @pytest.mark.parametrize("maxsize", [4096, 100])
    def test_cache_holds_one_entry_per_item(self, built, maxsize):
        tree, _, variant = built
        engine = ServingEngine.from_tree(tree, variant, cache_size=maxsize)
        n_batches = 5
        items = [f"item-{i}" for i in range(32 * n_batches)]
        for k in range(n_batches):
            engine.categorize_items(items[32 * k:32 * (k + 1)])
        keys = list(engine._cache._data)
        assert len(keys) == min(maxsize, 32 * n_batches)
        assert keys == [
            (engine.generation, "categorize", item)
            for item in items[-len(keys):]
        ]

    def test_one_lookup_per_element_in_stats_and_trace(self, engine):
        with use_tracer(Tracer()) as tracer:
            engine.categorize_items(["a", "b", "a", "zz"])
            engine.categorize_item("b")
            engine.categorize_items(["b", "c"])
        # The repeated "a" misses twice in one batch (it is computed once).
        cache = engine.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (2, 5)
        assert tracer.counters["serving.cache_hits"] == 2
        assert tracer.counters["serving.cache_misses"] == 5
        assert tracer.counters["serving.requests"] == 3

    def test_duplicate_items_are_computed_once(self, built, monkeypatch):
        tree, _, variant = built
        engine = ServingEngine.from_tree(tree, variant, cache_size=0)
        calls = []
        placements = SnapshotIndexes.placements
        monkeypatch.setattr(
            SnapshotIndexes, "placements",
            lambda ix, item: calls.append(item) or placements(ix, item),
        )
        batch = engine.categorize_items(["a", "b", "a"])
        assert calls == ["a", "b"]
        assert batch[0] == batch[2] == engine.categorize_item("a")

    def test_cache_disabled_engine_answers_every_batch(self, built):
        # Uncached item batches are checked against the oracle in
        # test_serving_shm.py and test_succinct_properties.py.
        tree, _, variant = built
        engine = ServingEngine.from_tree(tree, variant, cache_size=0)
        for _ in range(2):
            assert engine.categorize_queries(["shirt", "nike"]) == [
                engine.categorize_query("shirt"),
                engine.categorize_query("nike"),
            ]
        cache = engine.stats()["cache"]
        assert (cache["size"], cache["hits"], cache["misses"]) == (0, 0, 8)


class TestHotSwap:
    def test_publish_increments_generation(self, built):
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant)
        assert engine.generation == 1
        gen = engine.publish(compiled(tree, instance, variant))
        assert gen.number == 2
        assert engine.generation == 2
        assert engine.current is gen

    def test_swap_from_store_serves_new_snapshot(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        store.save(tree, instance, variant)
        engine = ServingEngine.from_snapshot(store.load())

        other_variant = Variant.perfect_recall(0.5)
        other_tree = CTCR().build(instance, other_variant)
        info = store.save(other_tree, instance, other_variant)
        gen = engine.swap(store)
        assert gen.number == 2
        assert engine.current.snapshot_id == info.snapshot_id
        assert engine.stats()["variant"] == other_variant.describe()

    def test_swap_to_named_snapshot_leaves_current(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        first = store.save(tree, instance, variant)
        other_variant = Variant.perfect_recall(0.5)
        other = store.save(
            CTCR().build(instance, other_variant), instance, other_variant
        )
        engine = ServingEngine()
        assert engine.swap(store).snapshot_id == other.snapshot_id
        gen = engine.swap(store, first.snapshot_id)
        assert (gen.number, gen.snapshot_id) == (2, first.snapshot_id)
        # The engine maps what it is told; CURRENT is the store's.
        assert store.current_id() == other.snapshot_id

    def test_swap_from_build_persists_to_store(self, tmp_path, built):
        # A rebuild is published by saving it, then swapping to it.
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(CTCR().build(instance, variant), instance, variant)
        gen = engine.swap(store)
        assert gen.snapshot_id == info.snapshot_id
        assert store.current_id() == gen.snapshot_id

    def test_swap_in_background_publishes(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        store.save(tree, instance, variant)
        engine = ServingEngine.from_tree(tree, variant)
        threads = [
            threading.Thread(target=engine.swap, args=(store,))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert engine.generation == 5
        assert engine.current.snapshot_id == store.current_id()

    def test_stress_readers_with_mid_flight_swaps(self, built):
        """>= 8 reader threads while generations flip; zero errors."""
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant)
        item = next(iter(tree.root.items))
        q = instance.get(0).items
        reference = engine.best_category(q)
        n_threads = 8
        errors: list[str] = []
        barrier = threading.Barrier(n_threads + 1)

        def reader() -> None:
            barrier.wait()
            for _ in range(300):
                try:
                    engine.browse()
                    engine.categorize_item(item)
                    best = engine.best_category(q)
                    assert best == reference
                except Exception as exc:  # collected, not raised
                    errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=reader, daemon=True)
            for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        for _ in range(10):
            engine.publish(compiled(tree, instance, variant))
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert engine.generation == 11
