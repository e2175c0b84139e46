"""Build -> snapshot -> serve -> query: the serving-layer walkthrough.

The offline pipeline builds a category tree; ``repro.serving`` puts it
online. This example runs the whole loop in one process: build a tree
from a small synthetic dataset, persist it as a content-addressed
snapshot, serve it over HTTP on a private port, issue the storefront's
read requests, hot-swap to a rebuilt tree mid-flight, roll back over
HTTP, and read the engine's own stats. Run::

    PYTHONPATH=src python examples/serving_quickstart.py

The same server is available from the shell as
``python -m repro serve --dataset A --snapshot-dir snapshots/``.
"""

import json
import tempfile
import urllib.request

from repro import CTCR, Variant
from repro.catalog import load_dataset
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.pipeline import preprocess
from repro.serving import (
    ServingEngine,
    SnapshotStore,
    make_server,
    serve_in_background,
)


def get(port: int, path: str, body: dict | None = None) -> dict:
    """GET ``path``, or POST ``body`` as JSON when one is given."""
    data = None if body is None else json.dumps(body).encode()
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", data=data, timeout=10
    ) as response:
        assert response.status == 200, (path, response.status)
        return json.loads(response.read())


def main() -> None:
    # 1. Build a labeled tree offline.
    dataset = load_dataset("A", scale=0.05, seed=11)
    variant = Variant.threshold_jaccard(0.8)
    instance, _ = preprocess(dataset, variant)
    tree = CTCR().build(instance, variant)
    apply_label_suggestions(tree, suggest_labels(tree, instance, variant))

    with tempfile.TemporaryDirectory(prefix="serving-quickstart-") as tmp:
        # 2. Persist it as a content-addressed snapshot.
        store = SnapshotStore(tmp)
        info = store.save(tree, instance, variant, build_run_id="quickstart")
        print(
            f"snapshot {info.snapshot_id}: {info.n_categories} categories, "
            f"score {info.score:.4f}"
        )

        # 3. Serve the store's CURRENT snapshot over HTTP (port 0 = free):
        #    the engine maps the snapshot's flat file read-only.
        engine = ServingEngine()
        engine.swap(store)
        server = make_server(engine, store=store)
        serve_in_background(server)
        port = server.server_port

        # 4. The storefront's reads: browse, categorize, score a query.
        root = get(port, "/browse")
        print(f"root has {len(root['children'])} child categories")
        item = sorted(instance.universe, key=str)[0]
        placements = get(port, f"/categorize?item={item}")["placements"]
        print(f"item {item!r} placed under {len(placements)} categories")
        some_query = sorted(instance.sets, key=lambda q: q.sid)[0]
        items_param = ",".join(sorted(some_query.items, key=str)[:5])
        best = get(port, f"/best-category?items={items_param}")
        if best["covered"]:
            print(
                f"best category for {items_param!r}: "
                f"{best['best']['label']!r} (score {best['best']['score']:.3f})"
            )

        # 5. Hot-swap to a rebuilt tree: save it (it becomes CURRENT),
        #    then map it off-path and publish with one atomic flip —
        #    readers never block, no request drops.
        stricter = Variant.threshold_jaccard(0.9)
        rebuilt = store.save(CTCR().build(instance, stricter), instance, stricter)
        generation = engine.swap(store)
        print(f"hot-swapped to generation {generation.number}")
        health = get(port, "/healthz")
        assert health["generation"] == generation.number
        assert health["snapshot_id"] == rebuilt.snapshot_id

        # 6. Roll back over HTTP: naming a snapshot activates it in the
        #    store, so every worker polling CURRENT would follow too.
        swapped = get(port, "/admin/swap", {"snapshot_id": info.snapshot_id})
        print(f"rolled back to {swapped['snapshot_id']} "
              f"(generation {swapped['generation']})")
        assert store.current_id() == info.snapshot_id
        assert get(port, "/healthz")["generation"] == swapped["generation"]

        # 7. The engine reports its own serving stats.
        stats = get(port, "/stats")
        print(
            f"served {stats['requests']} requests, cache hit rate "
            f"{stats['cache']['hit_rate']:.0%}, generation "
            f"{stats['generation']}"
        )

        server.stop()


if __name__ == "__main__":
    main()
