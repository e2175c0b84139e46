"""Tests for the versioned snapshot store and variant specs."""

import json
import multiprocessing

import pytest

from repro.algorithms import CTCR
from repro.core import Variant
from repro.serving import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotInfo,
    SnapshotStore,
    variant_from_spec,
    variant_spec,
)


@pytest.fixture()
def built(figure2_instance):
    variant = Variant.threshold_jaccard(0.6)
    tree = CTCR().build(figure2_instance, variant)
    return tree, figure2_instance, variant


class TestVariantSpecs:
    def test_round_trip_all_families(self, all_variants):
        for variant in all_variants:
            clone = variant_from_spec(variant_spec(variant))
            assert clone.kind == variant.kind
            assert clone.mode == variant.mode
            assert clone.delta == variant.delta
            assert clone.is_perfect_recall == variant.is_perfect_recall

    def test_exact_spelled_via_jaccard_embedding(self):
        assert variant_spec(Variant.exact()) == "threshold-jaccard:1"
        assert variant_from_spec("exact").delta == 1.0

    @pytest.mark.parametrize(
        "spec", ["", "jaccard", "threshold-jaccard", "threshold-jaccard:x",
                 "nope:0.5"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(SnapshotError):
            variant_from_spec(spec)


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        info = store.save(tree, instance, variant, build_run_id="run-1")
        loaded = store.load()
        assert loaded.info == info
        # Rebuild reassigns cids (and with them sibling order), so
        # compare the line multiset: same categories at the same depths.
        assert sorted(loaded.tree.to_text().splitlines()) == sorted(
            tree.to_text().splitlines()
        )
        assert loaded.instance.universe == instance.universe
        assert loaded.variant.delta == variant.delta
        assert info.build_run_id == "run-1"
        assert info.n_sets == len(instance)
        assert info.dataset["sha256"]  # instance fingerprint recorded

    def test_content_addressing_dedups(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        a = store.save(tree, instance, variant)
        b = store.save(tree, instance, variant)
        assert a.snapshot_id == b.snapshot_id
        assert len(store) == 1

    def test_different_variant_different_id(self, tmp_path, built):
        tree, instance, _ = built
        store = SnapshotStore(tmp_path)
        a = store.save(tree, instance, Variant.threshold_jaccard(0.6))
        b = store.save(tree, instance, Variant.threshold_jaccard(0.8))
        assert a.snapshot_id != b.snapshot_id
        assert len(store) == 2

    def test_activate_moves_current(self, tmp_path, built):
        tree, instance, _ = built
        store = SnapshotStore(tmp_path)
        a = store.save(tree, instance, Variant.threshold_jaccard(0.6))
        b = store.save(tree, instance, Variant.threshold_jaccard(0.8))
        assert store.current_id() == b.snapshot_id
        store.activate(a.snapshot_id)
        assert store.current_id() == a.snapshot_id
        assert store.load().info.snapshot_id == a.snapshot_id

    def test_save_without_activate_keeps_current(self, tmp_path, built):
        tree, instance, _ = built
        store = SnapshotStore(tmp_path)
        a = store.save(tree, instance, Variant.threshold_jaccard(0.6))
        store.save(tree, instance, Variant.threshold_jaccard(0.8),
                   activate=False)
        assert store.current_id() == a.snapshot_id

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.current_id() is None
        assert list(store) == []
        with pytest.raises(SnapshotError):
            store.load()

    def test_unknown_snapshot_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotError):
            store.info("snap-doesnotexist")
        with pytest.raises(SnapshotError):
            store.activate("snap-doesnotexist")

    def test_ids_snapshot_digest_cannot_produce_are_rejected(
        self, tmp_path, built
    ):
        # Ids name directories: one that escapes the store must not
        # reach another store's snapshot, even when that one exists.
        tree, instance, variant = built
        other = SnapshotStore(tmp_path / "other").save(tree, instance, variant)
        store = SnapshotStore(tmp_path / "store")
        for bad in (f"../other/{other.snapshot_id}", "snap-ABCDEF0123456789",
                    other.snapshot_id + "0", 5):
            for call in (store.info, store.load, store.activate,
                         store.flat_paths, store.ensure_flat):
                with pytest.raises(SnapshotError, match="no snapshot"):
                    call(bad)
        assert store.current_id() is None

    def test_no_staging_leftovers(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        store.save(tree, instance, variant)
        assert not [p for p in tmp_path.iterdir() if "staging" in p.name]

    def test_future_format_version_names_both_versions(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        info = store.save(tree, instance, variant)
        manifest = tmp_path / info.snapshot_id / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError) as exc_info:
            store.load()
        message = str(exc_info.value)
        assert str(SNAPSHOT_FORMAT_VERSION + 1) in message
        assert str(SNAPSHOT_FORMAT_VERSION) in message
        assert "newer" in message

    def test_manifest_missing_field_rejected(self):
        with pytest.raises(SnapshotError):
            SnapshotInfo.from_dict(
                {"format_version": SNAPSHOT_FORMAT_VERSION, "variant": "exact"}
            )

    def test_list_is_ordered_and_complete(self, tmp_path, built):
        tree, instance, _ = built
        store = SnapshotStore(tmp_path)
        ids = {
            store.save(tree, instance, Variant.threshold_jaccard(d)).snapshot_id
            for d in (0.5, 0.6, 0.7)
        }
        listed = store.list()
        assert {i.snapshot_id for i in listed} == ids
        keys = [(i.created_at, i.snapshot_id) for i in listed]
        assert keys == sorted(keys)


def _publisher_main(root, instance, deltas, rounds):
    """One publisher process: save+activate snapshots back to back."""
    store = SnapshotStore(root)
    for _ in range(rounds):
        for delta in deltas:
            variant = Variant.threshold_jaccard(delta)
            tree = CTCR().build(instance, variant)
            store.save(tree, instance, variant)


class TestConcurrentPublishers:
    def test_process_pool_race_on_current(self, tmp_path, figure2_instance):
        """N processes publishing concurrently never corrupt the store.

        Each save stages a whole snapshot (JSON + flat) and flips
        ``CURRENT`` with ``os.replace``; racing publishers may interleave
        arbitrarily, but afterwards CURRENT must point at one complete,
        loadable, mmap-able snapshot, every snapshot directory must be
        complete, and no staging/tmp debris may remain.
        """
        ctx = multiprocessing.get_context("fork")
        deltas_per_proc = [(0.5, 0.6), (0.6, 0.7), (0.7, 0.8), (0.8, 0.5)]
        procs = [
            ctx.Process(
                target=_publisher_main,
                args=(str(tmp_path), figure2_instance, deltas, 3),
            )
            for deltas in deltas_per_proc
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
            assert p.exitcode == 0

        store = SnapshotStore(tmp_path)
        all_deltas = {d for per in deltas_per_proc for d in per}
        infos = store.list()
        assert len(infos) == len(all_deltas)  # content-addressed dedup held
        current = store.current_id()
        assert current in {i.snapshot_id for i in infos}
        # The winner (and every other snapshot) is complete and readable.
        for info in infos:
            loaded = store.load(info.snapshot_id)
            assert loaded.info.snapshot_id == info.snapshot_id
            assert store.flat_paths(info.snapshot_id)  # flat layout landed
        from repro.serving import prepare_mmap_generation

        generation = prepare_mmap_generation(store)
        assert generation.snapshot_id == current
        generation.indexes.close()
        # No staging directories or tmp files anywhere in the store.
        debris = [
            p for p in tmp_path.rglob("*")
            if "staging" in p.name or ".tmp-" in p.name
        ]
        assert debris == []
