"""Cross-process consistency tier, part 1: the flat snapshot layout.

The multi-process serving design only works if every process answers a
request identically — same integers, same IEEE-754 floats, same dict
orders — because N worker processes answering the same request must be
indistinguishable. These tests pin that:

- differential: every read op of the one reader equals a brute-force
  walk of the tree (``tests/oracles.py``) on the paper examples, a real
  dataset, all variants, a ``repro.scale`` catalog shaped like the
  serve_cold benchmark, over a buffer and a mapping;
- crash injection: torn, truncated, wrong-magic, corrupt-header and
  future-version flat files are rejected structurally (never a wrong
  answer, never a leaked fd);
- property-based: random catalogs round-trip through compile + mmap.
"""

from __future__ import annotations

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CTCR
from repro.core import Variant, make_instance, score_tree
from repro.core.input_sets import OCTInstance
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.scale import ExtremeCatalog, scaled_spec
from repro.serving import (
    FLAT_FORMAT_VERSION,
    ServingEngine,
    SnapshotError,
    SnapshotIndexes,
    SnapshotStore,
    compile_flat_indexes,
    flat_header,
    prepare_mmap_generation,
)
from repro.serving.shm import FLAT_MAGIC, _PREFIX, encode_item
from repro.serving.snapshot import FLAT_FILE
from tests.oracles import TreeOracle, assert_reads_match, queries_for


def build_labeled_tree(instance, variant):
    tree = CTCR().build(instance, variant)
    apply_label_suggestions(tree, suggest_labels(tree, instance, variant))
    return tree


def write_flat(tmp_path, tree, variant):
    """Compile and write a flat file; returns its path."""
    path = tmp_path / FLAT_FILE
    path.write_bytes(compile_flat_indexes(tree, variant))
    return path


def open_reader(tmp_path, tree, variant, buffered=False):
    """The one reader over a compiled buffer or over a mapped file."""
    if buffered:
        return SnapshotIndexes.open(compile_flat_indexes(tree, variant))
    return SnapshotIndexes.open(write_flat(tmp_path, tree, variant))


class TestDifferentialIdentity:
    @pytest.mark.parametrize("buffered", [False, True])
    def test_figure2_all_variants(
        self, figure2_instance, all_variants, tmp_path, buffered
    ):
        for i, variant in enumerate(all_variants):
            tree = build_labeled_tree(figure2_instance, variant)
            sub = tmp_path / f"v{i}"
            sub.mkdir()
            with open_reader(sub, tree, variant, buffered) as ix:
                assert not ix.uses_bitset
                oracle = TreeOracle(tree, variant)
                assert_reads_match(ix, oracle, queries_for(figure2_instance))

    def test_example32(self, example32_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(example32_instance, variant)
        path = write_flat(tmp_path, tree, variant)
        with SnapshotIndexes.open(path) as mm:
            assert_reads_match(
                mm, TreeOracle(tree, variant), queries_for(example32_instance)
            )

    @pytest.mark.parametrize("buffered", [False, True])
    def test_tiny_dataset(self, tiny_dataset, tmp_path, buffered):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.6)
        instance, _ = preprocess(tiny_dataset, variant)
        tree = build_labeled_tree(instance, variant)
        with open_reader(tmp_path, tree, variant, buffered) as ix:
            assert_reads_match(
                ix, TreeOracle(tree, variant), queries_for(instance)
            )

    def test_compile_is_deterministic(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        assert compile_flat_indexes(tree, variant) == (
            compile_flat_indexes(tree, variant)
        )


def string_item_catalog(seed=3):
    """A small ``repro.scale`` planted-tree catalog with string items.

    The same shape the serve_cold benchmark serves (HTTP passes item
    keys as strings), at a size a unit test can afford.
    """
    catalog = ExtremeCatalog(scaled_spec(3000, 120, seed=seed, n_nodes=60))
    tree = catalog.planted_tree()
    for cat in tree.categories():
        cat.items = {f"i{x}" for x in cat.items}
    sets = [
        dataclasses.replace(q, items=frozenset(f"i{x}" for x in q.items))
        for q in catalog.iter_input_sets()
    ]
    universe = [f"i{x}" for x in range(catalog.spec.n_items)]
    return tree, OCTInstance(sets, universe=universe)


class TestScaleCatalogDifferential:
    """Batched categorization and best-category on a scale catalog.

    Requests are drawn like the serve_cold benchmark's: batches of 32
    uniform items, and candidate sets with one item dropped a quarter of
    the time. Every answer must equal the brute-force oracle.
    """

    @pytest.fixture(scope="class")
    def catalog(self):
        tree, instance = string_item_catalog()
        variant = Variant.threshold_jaccard(0.8)
        return tree, instance, variant, TreeOracle(tree, variant)

    def requests(self, instance):
        rng = random.Random(11)
        universe = sorted(instance.universe)
        batches = [tuple(rng.sample(universe, 32)) for _ in range(40)]
        batches.append(("i0", "__unknown__", "i1"))
        sets = []
        for q in instance.sets:
            items = sorted(q.items)
            if len(items) > 1 and rng.random() < 0.25:
                items.pop(rng.randrange(len(items)))
            sets.append(frozenset(items))
        return batches, sets

    @pytest.mark.parametrize("source", ["buffer", "mapping"])
    def test_engine_answers_match_oracle(self, catalog, tmp_path, source):
        tree, instance, variant, oracle = catalog
        if source == "buffer":
            engine = ServingEngine.from_tree(tree, variant, cache_size=0)
        else:
            store = SnapshotStore(tmp_path)
            store.save(tree, instance, variant)
            engine = ServingEngine(cache_size=0)
            engine.publish(prepare_mmap_generation(store))
            # Saving renumbers cids: compare against the stored tree.
            tree = store.load().tree
            oracle = TreeOracle(tree, variant)
        batches, sets = self.requests(instance)
        for batch in batches:
            assert engine.categorize_items(batch) == [
                oracle.categorize(item) for item in batch
            ]
        for q in sets:
            assert engine.best_category(q) == oracle.best_category(q)
        # The planted tree places every item somewhere.
        assert all(engine.categorize_items(batches[0]))
        # Every candidate set scores exactly as the offline scorer says.
        report = score_tree(tree, instance, variant)
        for q in instance.sets:
            best = engine.best_category(q.items)
            entry = report.per_set[q.sid]
            assert (best.score if best else 0.0) == entry.score


class TestStoreIntegration:
    def test_save_emits_flat_alongside_json(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        directory = tmp_path / info.snapshot_id
        assert [p.name for p in directory.glob("*.flat")] == [FLAT_FILE]
        assert store.flat_paths(info.snapshot_id) == [directory / FLAT_FILE]
        version, header = flat_header(directory / FLAT_FILE)
        assert version == FLAT_FORMAT_VERSION == 4
        gone = {"shard_index", "shard_count", "n_shard_items"}
        assert not gone & set(header)
        with pytest.raises(TypeError):
            store.save(tree, figure2_instance, variant, flat_shards=2)

    def test_flat_matches_round_tripped_snapshot(
        self, figure2_instance, tmp_path
    ):
        # The flat file must agree with what a JSON reload serves (the
        # round-tripped tree), not with the pre-save in-memory tree.
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        loaded = store.load(info.snapshot_id)
        oracle = TreeOracle(loaded.tree, loaded.variant)
        with SnapshotIndexes.open(store.ensure_flat(info.snapshot_id)) as mm:
            assert_reads_match(mm, oracle, queries_for(figure2_instance))

    def test_ensure_flat_compiles_for_old_snapshots(
        self, figure2_instance, tmp_path
    ):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        for path in store.flat_paths(info.snapshot_id):
            path.unlink()  # simulate a snapshot from before the flat layout
        assert store.flat_paths(info.snapshot_id) == []
        path = store.ensure_flat(info.snapshot_id)
        assert store.flat_paths(info.snapshot_id) == [path]
        assert store.ensure_flat(info.snapshot_id) == path  # idempotent

    def test_ensure_flat_unknown_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotError, match="no snapshot"):
            store.ensure_flat("snap-doesnotexist")

    def test_prepare_mmap_generation(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        generation = prepare_mmap_generation(store)
        assert generation.snapshot_id == info.snapshot_id
        assert generation.number == 0  # prepared, not published
        assert isinstance(generation.indexes, SnapshotIndexes)
        generation.indexes.close()

    def test_prepare_mmap_generation_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotError, match="no current snapshot"):
            prepare_mmap_generation(store)


class TestCrashInjection:
    @pytest.fixture()
    def flat_path(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        return write_flat(tmp_path, tree, variant)

    def test_wrong_magic(self, flat_path):
        blob = bytearray(flat_path.read_bytes())
        blob[:4] = b"NOPE"
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="bad magic"):
            SnapshotIndexes.open(flat_path)

    def test_truncated_tail(self, flat_path):
        blob = flat_path.read_bytes()
        flat_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="torn or truncated"):
            SnapshotIndexes.open(flat_path)

    def test_truncated_to_almost_nothing(self, flat_path):
        flat_path.write_bytes(flat_path.read_bytes()[:5])
        with pytest.raises(SnapshotError, match="truncated"):
            SnapshotIndexes.open(flat_path)

    def test_torn_trailer(self, flat_path):
        # A partially-flushed write: right length, trailer never landed.
        blob = bytearray(flat_path.read_bytes())
        blob[-12:] = b"\0" * 12
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="torn or truncated"):
            SnapshotIndexes.open(flat_path)

    def test_future_format_version(self, flat_path):
        blob = bytearray(flat_path.read_bytes())
        header_len = len(blob) - _PREFIX.size  # keep length field intact
        blob[:_PREFIX.size] = _PREFIX.pack(
            FLAT_MAGIC,
            FLAT_FORMAT_VERSION + 1,
            struct.unpack_from("<Q", blob, 8)[0],
        )
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="newer than supported"):
            SnapshotIndexes.open(flat_path)

    def test_corrupt_header_json(self, flat_path):
        blob = bytearray(flat_path.read_bytes())
        blob[_PREFIX.size: _PREFIX.size + 8] = b"{broken!"
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="corrupt header"):
            SnapshotIndexes.open(flat_path)

    def test_rejected_files_leak_no_descriptors(self, flat_path):
        import resource

        blob = bytearray(flat_path.read_bytes())
        blob[:4] = b"NOPE"
        flat_path.write_bytes(bytes(blob))
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        # Far more attempts than any fd headroom: a leak would hit EMFILE.
        for _ in range(min(soft + 64, 4096)):
            with pytest.raises(SnapshotError):
                SnapshotIndexes.open(flat_path)


class TestEncoding:
    def test_unencodable_item_fails_compile(self, tmp_path):
        instance = make_instance([{frozenset({"x"}), "a"}], weights=[1.0])
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(instance, variant)
        with pytest.raises(SnapshotError, match="JSON-representable"):
            compile_flat_indexes(tree, variant)
        with pytest.raises(SnapshotError, match="JSON-representable"):
            SnapshotIndexes(tree, variant)

    def test_encode_item_canonical(self):
        assert encode_item("a") == b'"a"'
        assert encode_item(3) == b"3"
        assert encode_item(("a",)) == b'["a"]'  # tuples render as arrays
        assert encode_item(frozenset({"x"})) is None
        assert encode_item(float("nan")) is None


# Random catalogs: JSON-representable items, a couple of variants.
_instances = st.lists(
    st.tuples(
        st.sets(
            st.one_of(st.integers(0, 12), st.sampled_from("abcdefgh")),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.1, max_value=5.0),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda pairs: make_instance(
        [p[0] for p in pairs], weights=[p[1] for p in pairs]
    )
)

_variants = st.sampled_from(
    [
        Variant.exact(),
        Variant.perfect_recall(0.6),
        Variant.threshold_jaccard(0.6),
        Variant.cutoff_f1(0.7),
    ]
)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(_instances, _variants)
    def test_random_catalogs_round_trip(
        self, tmp_path_factory, instance, variant
    ):
        tree = CTCR().build(instance, variant)
        tmp_path = tmp_path_factory.mktemp("flat")
        path = write_flat(tmp_path, tree, variant)
        with SnapshotIndexes.open(path) as mm:
            assert_reads_match(
                mm, TreeOracle(tree, variant), [q.items for q in instance.sets]
            )
