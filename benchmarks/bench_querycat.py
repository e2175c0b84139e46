"""Query categorization quality and speed: held-out accuracy, latency, swaps.

A train/test harness in the spirit of ``bench_fig8d_train_test.py``, but
measuring the *online* staged procedure instead of offline tree scores.
Dataset C is regenerated with the fig-8d settings (seed 42, synonym
fraction 0.6, unmerged queries) and split in half; a CTCR tree is built
and labeled over the training half only, snapshotted, and every held-out
query's *label text* is pushed through :func:`categorize_query` — the
same path a storefront search box exercises. Ground truth for a held-out
query is the category its item set scores best against
(``best_category``), so accuracy measures how well free-text matching
recovers the item-level assignment it never saw.

Written to ``benchmarks/BENCH_querycat.json``:

1. **accuracy@depth** for depths 1..3: the fraction of evaluable
   held-out queries whose predicted root path agrees with the ground
   truth path on the first *d* levels below the root (backing off to an
   ancestor keeps the shared prefix, so shallow accuracy stays high
   while deep accuracy pays for the back-off).
2. **stage mix and back-off rate** over the held-out predictions.
3. **Latency under load with a mid-run hot swap**: worker threads
   hammer ``engine.categorize_query`` closed-loop while a coordinator
   republishes the CURRENT snapshot at the halfway mark; p50/p95/p99
   latency, throughput, and an **asserted zero errors** across the flip.
4. **Identity gate**: every held-out prediction is recomputed by the
   reader over the store's mapped file (``SnapshotIndexes.open``) and
   asserted equal to the in-process buffer's result, dict for dict.

``--tiny`` runs a seconds-scale version on dataset A for CI smoke (own
file ``BENCH_querycat_tiny.json``; identity and zero-error assertions
still hold, accuracy floors are full-mode only).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import bench_report, write_bench_json
from repro.algorithms import CTCR
from repro.catalog import load_dataset
from repro.core import Variant
from repro.evaluation import split_instance
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.observability import percentile
from repro.pipeline import PreprocessConfig, preprocess
from repro.serving import (
    ServingEngine,
    SnapshotIndexes,
    SnapshotStore,
    categorize_query,
)
from repro.utils.rng import make_rng

VARIANT = Variant.threshold_jaccard(0.7)
DEPTHS = (1, 2, 3)

# dataset, dataset kwargs, latency-loop requests, worker threads
FULL = ("C", {"seed": 42, "synonym_fraction": 0.6}, 6_000, 8)
TINY = ("A", {"seed": 42}, 600, 4)


def _held_out_predictions(indexes, test) -> list[dict]:
    """Prediction records for every evaluable held-out query.

    Evaluable = the query has a label to categorize and its item set is
    covered by the training tree (``best_category`` finds ground truth).
    """
    records = []
    for q in test.sets:
        if not q.label:
            continue
        truth = indexes.best_category(q.items)
        if truth is None:
            continue
        result = categorize_query(indexes, q.label)
        records.append(
            {
                "label": q.label,
                "truth_path": indexes.path_to_root(truth.cid),
                "pred_path": [step["cid"] for step in result["path"]],
                "result": result,
            }
        )
    return records


def _accuracy_at_depth(records: list[dict], depth: int) -> float:
    """Fraction of records agreeing on the first ``depth`` levels."""
    if not records:
        return 0.0
    hits = sum(
        1
        for r in records
        if r["pred_path"][: depth + 1] == r["truth_path"][: depth + 1]
    )
    return hits / len(records)


def _latency_loop(
    engine: ServingEngine,
    texts: list[str],
    n_requests: int,
    n_workers: int,
    swap,
) -> dict:
    """Closed-loop categorize-query load with a mid-run hot swap."""
    rng = make_rng(7)
    requests = [texts[rng.randrange(len(texts))] for _ in range(n_requests)]
    shares = [requests[w::n_workers] for w in range(n_workers)]
    latencies: list[list[float]] = [[] for _ in range(n_workers)]
    errors: list[list[str]] = [[] for _ in range(n_workers)]
    completed = [0] * n_workers
    start_barrier = threading.Barrier(n_workers + 2)
    generation_before = engine.generation

    def worker(w: int) -> None:
        start_barrier.wait()
        for text in shares[w]:
            t0 = time.perf_counter()
            try:
                engine.categorize_query(text)
            except Exception as exc:  # count, keep serving
                errors[w].append(f"{type(exc).__name__}: {exc}")
            latencies[w].append(time.perf_counter() - t0)
            completed[w] += 1

    def coordinator() -> None:
        start_barrier.wait()
        threshold = max(1, n_requests // 2)
        while sum(completed) < threshold and any(
            t.is_alive() for t in threads
        ):
            time.sleep(0.001)
        swap()

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(n_workers)
    ]
    swap_thread = threading.Thread(target=coordinator, daemon=True)
    for t in threads:
        t.start()
    swap_thread.start()
    start_barrier.wait()
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    swap_thread.join()

    samples = sorted(x for per in latencies for x in per)
    all_errors = [msg for per in errors for msg in per]
    return {
        "n_requests": n_requests,
        "n_workers": n_workers,
        "errors": len(all_errors),
        "error_messages": all_errors[:5],
        "wall_s": round(wall, 4),
        "throughput_rps": round(n_requests / wall) if wall > 0 else 0,
        "latency_ms": {
            "p50": round(percentile(samples, 0.50) * 1e3, 4),
            "p95": round(percentile(samples, 0.95) * 1e3, 4),
            "p99": round(percentile(samples, 0.99) * 1e3, 4),
            "mean": round(sum(samples) / len(samples) * 1e3, 4)
            if samples
            else 0.0,
        },
        "generation_before": generation_before,
        "generation_after": engine.generation,
    }


def run(tiny: bool = False) -> dict:
    dataset_name, dataset_kwargs, n_requests, n_workers = (
        TINY if tiny else FULL
    )
    dataset = load_dataset(dataset_name, **dataset_kwargs)
    instance, _ = preprocess(
        dataset, VARIANT, PreprocessConfig(merge_queries=False)
    )
    train, test = split_instance(instance, make_rng(0))

    tree = CTCR().build(train, VARIANT)
    apply_label_suggestions(tree, suggest_labels(tree, train, VARIANT))

    with tempfile.TemporaryDirectory(prefix="bench-querycat-") as tmp:
        store = SnapshotStore(tmp)
        info = store.save(tree, train, VARIANT, build_run_id="bench-querycat")
        loaded = store.load()
        engine = ServingEngine.from_snapshot(loaded)
        indexes = engine.current.indexes

        # -- held-out accuracy over the in-process buffer --------------------
        records = _held_out_predictions(indexes, test)
        accuracy = {
            str(d): round(_accuracy_at_depth(records, d), 4) for d in DEPTHS
        }
        stages: dict[str, int] = {}
        for r in records:
            stage = r["result"]["stage"]
            stages[stage] = stages.get(stage, 0) + 1
        backoff_rate = (
            stages.get("backoff", 0) / len(records) if records else 0.0
        )

        # -- identity gate: the mapping must answer dict-for-dict ------------
        flat_path = store.ensure_flat(info.snapshot_id)
        with SnapshotIndexes.open(flat_path) as mm:
            for r in records:
                assert categorize_query(mm, r["label"]) == r["result"], (
                    f"mapped reader diverged on {r['label']!r}"
                )

        # -- latency under load with a mid-run hot swap ----------------------
        texts = sorted({r["label"] for r in records}) or ["category"]
        load = _latency_loop(
            engine,
            texts,
            n_requests,
            n_workers,
            swap=lambda: engine.swap(store),
        )
        assert load["errors"] == 0, (
            f"hot swap dropped requests: {load['error_messages']}"
        )
        assert load["generation_after"] == load["generation_before"] + 1

    bench_report(
        f"Query categorization — {dataset_name}, "
        f"{len(train.sets)} train / {len(test.sets)} test sets",
        "held-out free-text queries land on (an ancestor of) the"
        " item-level ground truth; swap is invisible",
        ["metric", "value"],
        [
            ["evaluable held-out queries", len(records)],
            *[[f"accuracy@{d}", accuracy[str(d)]] for d in DEPTHS],
            ["back-off rate", round(backoff_rate, 4)],
            ["stage mix", ", ".join(f"{k}={v}" for k, v in sorted(stages.items()))],
            ["p50 / p95 / p99 ms",
             f"{load['latency_ms']['p50']} / {load['latency_ms']['p95']}"
             f" / {load['latency_ms']['p99']}"],
            ["throughput rps", load["throughput_rps"]],
            ["swap errors", load["errors"]],
        ],
    )

    if not tiny:
        # Floors sit well under measured values; they catch regressions
        # in the staged procedure, not benchmark noise.
        assert accuracy["1"] >= 0.60, f"accuracy@1 collapsed: {accuracy}"
        assert accuracy["3"] >= 0.40, f"accuracy@3 collapsed: {accuracy}"
        assert backoff_rate <= 0.60, f"back-off rate blew up: {backoff_rate}"

    payload = {
        "mode": "tiny" if tiny else "full",
        "dataset": dataset_name,
        "variant": "threshold-jaccard:0.7",
        "snapshot_id": info.snapshot_id,
        "n_train_sets": len(train.sets),
        "n_test_sets": len(test.sets),
        "n_evaluated": len(records),
        "accuracy_at_depth": accuracy,
        "backoff_rate": round(backoff_rate, 4),
        "stage_counts": dict(sorted(stages.items())),
        "mmap_identical": True,
        "load": load,
    }
    write_bench_json("querycat_tiny" if tiny else "querycat", payload)
    return payload


def test_querycat(benchmark):
    benchmark.pedantic(run, kwargs={"tiny": True}, rounds=1, iterations=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="dataset A, 600 requests — seconds-scale CI smoke",
    )
    args = parser.parse_args(argv)
    run(tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
