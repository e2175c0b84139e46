"""Differential tier for the succinct read path.

Serving has one representation — pre-order subtree intervals and
delta-compressed varint postings in the v4 flat layout — read by one
class. These tests pin its answers against a brute-force walk of the
tree (``tests/oracles.py``) at every layer:

- reader: buffers compiled in process and mapped files, labeled and
  unlabeled trees;
- format: headers, section groups, missing sections;
- migration: older-version files are rejected with a recompile hint and
  ``SnapshotStore.ensure_flat`` compiles ``indexes.flat`` in their
  place; stores holding only v3 files (one file or a shard set) still
  serve, in process and from supervisor workers;
- engine/HTTP: batched ``categorize_items`` equals the per-item loop,
  including across a mid-run hot swap from a buffer to a mapping.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.algorithms import CTCR
from repro.core import Variant
from repro.observability import Tracer, use_tracer
from repro.serving import (
    FLAT_FORMAT_VERSION,
    ServingEngine,
    ServingSupervisor,
    SnapshotError,
    SnapshotIndexes,
    SnapshotStore,
    compile_flat_indexes,
    describe_flat,
    flat_header,
    make_server,
    prepare_mmap_generation,
    serve_in_background,
)
from repro.serving.shm import _PREFIX, _TRAILER, FLAT_MAGIC, _FlatFile
from repro.serving.snapshot import FLAT_FILE
from tests.oracles import TreeOracle, assert_reads_match, queries_for
from tests.test_serving_shm import build_labeled_tree, write_flat

VARIANT = Variant.threshold_jaccard(0.6)


def make_tree(instance, variant=VARIANT):
    return build_labeled_tree(instance, variant)


class TestInMemorySuccinct:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_figure2_all_variants(
        self, figure2_instance, all_variants, labeled
    ):
        # Unlabeled trees exercise empty label blobs and token sections.
        for variant in all_variants:
            if labeled:
                tree = build_labeled_tree(figure2_instance, variant)
            else:
                tree = CTCR().build(figure2_instance, variant)
            indexes = SnapshotIndexes(tree, variant)
            assert_reads_match(
                indexes, TreeOracle(tree, variant),
                queries_for(figure2_instance),
            )

    def test_tiny_dataset(self, tiny_dataset):
        from repro.pipeline import preprocess

        instance, _ = preprocess(tiny_dataset, VARIANT)
        tree = make_tree(instance)
        indexes = SnapshotIndexes(tree, VARIANT)
        assert_reads_match(
            indexes, TreeOracle(tree, VARIANT), queries_for(instance)
        )

    def test_is_ancestor_matches_paths(self, figure2_instance):
        tree = make_tree(figure2_instance)
        indexes = SnapshotIndexes(tree, VARIANT)
        oracle = TreeOracle(tree, VARIANT)
        cids = list(oracle.sizes)
        for u in cids:
            for v in cids:
                assert indexes.is_ancestor(u, v) == oracle.is_ancestor(u, v)

    def test_succinct_counters_emitted(self, figure2_instance):
        indexes = SnapshotIndexes(make_tree(figure2_instance), VARIANT)
        items = sorted(figure2_instance.universe, key=str)
        with use_tracer(Tracer()) as tracer:
            indexes.placements(items[0])
            indexes.intersection_counts(frozenset(items[:2]))
        assert tracer.counters["serving.succinct.postings_decoded"] >= 3


class TestMmapDifferential:
    def test_tiny_dataset_succinct(self, tiny_dataset, tmp_path):
        from repro.pipeline import preprocess

        instance, _ = preprocess(tiny_dataset, VARIANT)
        tree = make_tree(instance)
        path = write_flat(tmp_path, tree, VARIANT)
        with SnapshotIndexes.open(path) as mm:
            assert_reads_match(
                mm, TreeOracle(tree, VARIANT), queries_for(instance)
            )

    def test_succinct_only_auto_resolves(self, figure2_instance, tmp_path):
        # A v4 file carries only the succinct sections; it opens with no
        # representation to choose.
        tree = make_tree(figure2_instance)
        path = write_flat(tmp_path, tree, VARIANT)
        _, header = flat_header(path)
        assert "reprs" not in header
        with SnapshotIndexes.open(path) as mm:
            assert_reads_match(
                mm, TreeOracle(tree, VARIANT), queries_for(figure2_instance)
            )

    def test_compile_is_deterministic(self, figure2_instance):
        tree = make_tree(figure2_instance)
        assert compile_flat_indexes(tree, VARIANT) == (
            compile_flat_indexes(tree, VARIANT)
        )


def rewrite_header(blob: bytes, version: int, edit) -> bytes:
    """Re-render a compiled flat file with an edited header and version.

    Section offsets are relative to the 8-aligned end of the header, so
    the header is padded back to an 8-byte boundary.
    """
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    data_start = (_PREFIX.size + header_len + 7) & ~7
    header = json.loads(blob[_PREFIX.size: _PREFIX.size + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _PREFIX.pack(FLAT_MAGIC, version, len(header_bytes))
    pad = b"\0" * (-(len(prefix) + len(header_bytes)) % 8)
    body = prefix + header_bytes + pad + blob[data_start: -_TRAILER.size]
    return body + _TRAILER.pack(b"TROC", len(body) + _TRAILER.size)


def write_v3_layout(directory, shard_count):
    """Replace a snapshot's flat file with v3 ``indexes-*-of-*.flat`` files.

    The v3 layout split the items across ``shard_count`` files, each
    header naming its shard. The files here carry every item (only the
    headers matter: nothing may read them). Returns their paths.
    """
    flat = directory / FLAT_FILE
    blob = flat.read_bytes()
    flat.unlink()
    paths = []
    for index in range(shard_count):
        path = directory / f"indexes-{index:04d}-of-{shard_count:04d}.flat"
        path.write_bytes(
            rewrite_header(
                blob, 3,
                lambda h: h.update(
                    shard_index=index,
                    shard_count=shard_count,
                    n_shard_items=h["universe_size"],
                ),
            )
        )
        paths.append(path)
    return paths


class TestReprSelection:
    def test_missing_repr_rejected(self, figure2_instance, tmp_path):
        # A file whose postings group is missing cannot be served.
        blob = compile_flat_indexes(make_tree(figure2_instance), VARIANT)

        def drop_postings(header):
            for name in ("item_post_voff", "item_post_var"):
                del header["sections"][name]

        path = tmp_path / FLAT_FILE
        path.write_bytes(
            rewrite_header(blob, FLAT_FORMAT_VERSION, drop_postings)
        )
        with pytest.raises(SnapshotError, match="missing section"):
            SnapshotIndexes.open(path)

    def test_flat_header_and_version(self, figure2_instance, tmp_path):
        path = write_flat(tmp_path, make_tree(figure2_instance), VARIANT)
        version, header = flat_header(path)
        assert version == 4
        gone = {"shard_index", "shard_count", "n_shard_items"}
        assert not gone & set(header)
        assert header["variant"] == "threshold-jaccard:0.6"

    def test_describe_flat_sections(self, figure2_instance, tmp_path):
        path = write_flat(tmp_path, make_tree(figure2_instance), VARIANT)
        desc = describe_flat(path)
        assert desc["format_version"] == 4
        assert desc["file_bytes"] == path.stat().st_size
        groups = {s["name"]: s["group"] for s in desc["sections"]}
        assert groups["cat_tout"] == "tree"
        assert groups["item_post_var"] == "postings"
        assert groups["item_keys"] == "items"
        assert groups["tok_blob"] == "tokens"
        assert "?" not in groups.values()
        for gone in ("cat_bits", "item_post", "cat_tin", "euler_tour",
                     "lca_sparse", "cat_items_var"):
            assert gone not in groups
        assert all(s["bytes"] >= 0 for s in desc["sections"])


class TestMigration:
    def _save(self, instance, tmp_path, **save_kwargs):
        tree = make_tree(instance)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, instance, VARIANT, **save_kwargs)
        return store, info

    def _downgrade_version(self, path, version=1):
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<Q", blob, 8)[0]
        blob[:_PREFIX.size] = _PREFIX.pack(FLAT_MAGIC, version, header_len)
        path.write_bytes(bytes(blob))

    def test_stale_version_rejected_with_hint(
        self, figure2_instance, tmp_path
    ):
        store, info = self._save(figure2_instance, tmp_path)
        path = store.flat_paths(info.snapshot_id)[0]
        self._downgrade_version(path)
        with pytest.raises(SnapshotError, match="ensure_flat"):
            SnapshotIndexes.open(path)

    def test_ensure_flat_recompiles_stale_version(
        self, figure2_instance, tmp_path
    ):
        store, info = self._save(figure2_instance, tmp_path)
        stale = store.flat_paths(info.snapshot_id)[0]
        self._downgrade_version(stale)
        path = store.ensure_flat(info.snapshot_id)
        assert path == stale  # recompiled in place
        assert flat_header(path)[0] == FLAT_FORMAT_VERSION
        loaded = store.load(info.snapshot_id)
        with SnapshotIndexes.open(path) as mm:
            assert_reads_match(
                mm, TreeOracle(loaded.tree, loaded.variant),
                queries_for(figure2_instance),
            )

    def test_ensure_flat_upgrades_single_repr_files(
        self, figure2_instance, tmp_path
    ):
        # A v2 file that carries a single representation (its header
        # names it under "reprs") is stale: opening it directly names
        # the migration, and ensure_flat recompiles it in place.
        store, info = self._save(figure2_instance, tmp_path)
        path = store.flat_paths(info.snapshot_id)[0]
        path.write_bytes(
            rewrite_header(
                path.read_bytes(), 2, lambda h: h.update(reprs=["flat"])
            )
        )
        assert flat_header(path)[0] == 2
        with pytest.raises(SnapshotError, match="ensure_flat"):
            SnapshotIndexes.open(path)
        assert store.ensure_flat(info.snapshot_id) == path
        version, header = flat_header(path)
        assert version == FLAT_FORMAT_VERSION and "reprs" not in header
        engine = ServingEngine(cache_size=0)
        engine.publish(prepare_mmap_generation(store))
        loaded = store.load(info.snapshot_id)
        oracle = TreeOracle(loaded.tree, loaded.variant)
        for item in oracle.items:
            assert engine.categorize_item(item) == oracle.categorize(item)

    def test_ensure_flat_idempotent_when_fresh(
        self, figure2_instance, tmp_path
    ):
        store, info = self._save(figure2_instance, tmp_path)
        path = store.flat_paths(info.snapshot_id)[0]
        before = path.stat().st_mtime_ns
        assert store.ensure_flat(info.snapshot_id) == path
        assert path.stat().st_mtime_ns == before

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_v3_store_still_serves(
        self, figure2_instance, tmp_path, shard_count
    ):
        # A store written before v4 holds only indexes-KKKK-of-SSSS.flat
        # files. Each is rejected on its own; serving compiles
        # indexes.flat from tree.json and never reads or removes them.
        store, info = self._save(figure2_instance, tmp_path)
        directory = store.root / info.snapshot_id
        leftovers = write_v3_layout(directory, shard_count)
        contents = [path.read_bytes() for path in leftovers]
        for path in leftovers:
            with pytest.raises(SnapshotError, match="ensure_flat"):
                SnapshotIndexes.open(path)
        assert store.flat_paths(info.snapshot_id) == []
        loaded = store.load(info.snapshot_id)
        oracle = TreeOracle(loaded.tree, loaded.variant)
        queries = queries_for(figure2_instance)

        generation = prepare_mmap_generation(store)
        assert_reads_match(generation.indexes, oracle, queries)
        generation.indexes.close()
        assert store.flat_paths(info.snapshot_id) == [directory / FLAT_FILE]

        # A supervisor worker over the same directory, over HTTP.
        (directory / FLAT_FILE).unlink()
        with ServingSupervisor(store, n_workers=1) as supervisor:
            for item in oracle.items:
                body = _get_json(
                    supervisor.base_url,
                    "/categorize?item=" + urllib.parse.quote(item),
                )
                assert body["placements"] == oracle.categorize(item)
            for query in queries:
                items = ",".join(sorted(query))
                body = _get_json(
                    supervisor.base_url,
                    "/best-category?items=" + urllib.parse.quote(items),
                )
                best = oracle.best_category(query)
                assert body["best"] == (
                    None if best is None else dataclasses.asdict(best)
                )
        assert [path.read_bytes() for path in leftovers] == contents
        assert sorted(p.name for p in directory.glob("*.flat")) == sorted(
            [FLAT_FILE] + [path.name for path in leftovers]
        )


def _get_json(base_url: str, path: str) -> dict:
    with urllib.request.urlopen(base_url + path, timeout=10) as response:
        return json.loads(response.read())


class TestFlatShardLifecycle:
    def test_context_manager_and_idempotent_close(
        self, figure2_instance, tmp_path
    ):
        path = write_flat(tmp_path, make_tree(figure2_instance), VARIANT)
        with _FlatFile(path) as flat:
            assert flat.header["n_categories"] == len(
                make_tree(figure2_instance)
            )
        flat.close()  # double close after __exit__: must be a no-op
        flat.close()

    def test_indexes_close_idempotent(self, figure2_instance, tmp_path):
        tree = make_tree(figure2_instance)
        mm = SnapshotIndexes.open(write_flat(tmp_path, tree, VARIANT))
        mm.close()
        mm.close()
        buffered = SnapshotIndexes(tree, VARIANT)
        buffered.close()
        buffered.close()


class TestEngineBatched:
    def _store(self, instance, tmp_path):
        tree = make_tree(instance)
        store = SnapshotStore(tmp_path)
        store.save(tree, instance, VARIANT)
        return store

    @pytest.mark.parametrize("source", ["buffer", "mapping"])
    def test_batch_equals_per_item_loop(
        self, figure2_instance, tmp_path, source
    ):
        store = self._store(figure2_instance, tmp_path)
        if source == "buffer":
            engine = ServingEngine.from_snapshot(store.load())
        else:
            engine = ServingEngine()
            engine.publish(prepare_mmap_generation(store))
        items = sorted(figure2_instance.universe, key=str)
        items.append("__unknown__")
        batch = engine.categorize_items(items)
        assert batch == [engine.categorize_item(item) for item in items]
        oracle = TreeOracle(store.load().tree, VARIANT)
        assert batch == [oracle.categorize(item) for item in items]

    def test_batch_across_hot_swap(self, figure2_instance, tmp_path):
        # Mid-run swap from the compiled buffer to the store's mapped
        # files: the generation bumps, the answers do not.
        store = self._store(figure2_instance, tmp_path)
        engine = ServingEngine.from_snapshot(store.load())
        items = sorted(figure2_instance.universe, key=str)
        before = engine.categorize_items(items)
        generation_before = engine.generation
        engine.swap(store)
        assert engine.generation == generation_before + 1
        # Mapped from the store's flat file, not deserialized.
        mapped = engine.current.indexes._flat.path
        assert mapped == store.flat_paths(store.current_id())[0]
        assert engine.categorize_items(items) == before

    def test_succinct_requests_counter(self, figure2_instance, tmp_path):
        # Every generation reads the succinct layout, so the per-repr
        # request counter is gone (manifest schema v9); requests are
        # counted once, under serving.requests.
        store = self._store(figure2_instance, tmp_path)
        engine = ServingEngine.from_snapshot(store.load())
        with use_tracer(Tracer()) as tracer:
            engine.browse()
        assert tracer.counters["serving.requests"] == 1
        assert "serving.succinct.requests" not in tracer.counters


class TestHTTPBatch:
    @pytest.fixture()
    def served(self, figure2_instance, tmp_path):
        tree = CTCR().build(figure2_instance, VARIANT)
        store = SnapshotStore(tmp_path)
        store.save(tree, figure2_instance, VARIANT)
        engine = ServingEngine.from_snapshot(store.load())
        server = make_server(engine, store=store)
        serve_in_background(server)
        yield server, engine
        server.stop()

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.server_port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_categorize_batch(self, served):
        server, engine = served
        status, body = self._get(server, "/categorize-batch?items=a,b,c")
        assert status == 200
        assert body["items"] == ["a", "b", "c"]
        assert body["results"] == engine.categorize_items(["a", "b", "c"])
        for item, result in zip(body["items"], body["results"]):
            _, single = self._get(server, f"/categorize?item={item}")
            assert result == single["placements"]

    def test_categorize_batch_empty_is_400(self, served):
        server, _ = served
        status, body = self._get(server, "/categorize-batch?items=")
        assert status == 400
        status, body = self._get(server, "/categorize-batch")
        assert status == 400


class TestInspectSnapshotCLI:
    def test_store_root(self, figure2_instance, tmp_path, capsys):
        from repro.cli import main

        tree = make_tree(figure2_instance)
        store = SnapshotStore(tmp_path)
        store.save(tree, figure2_instance, VARIANT)
        rc = main(["inspect-snapshot", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{FLAT_FILE}: format v4" in out
        assert "cat_tout" in out and "item_post_var" in out
        assert "cat_bits" not in out
        assert "group subtotals" in out

    def test_empty_store_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["inspect-snapshot", str(tmp_path)])
        assert rc == 2
        assert "no CURRENT snapshot" in capsys.readouterr().err
