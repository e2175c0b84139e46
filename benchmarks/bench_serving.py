"""Serving layer: saturated throughput, latency percentiles, hot-swap safety.

Three experiments over one snapshotted CTCR tree, all written to
``benchmarks/BENCH_serving.json``:

1. **Load test with a mid-run hot swap**: a deterministic closed-loop
   workload (the storefront mix from :data:`benchmarks.loadgen.DEFAULT_MIX`)
   hammered by 8 worker threads; at the halfway mark a coordinator
   reloads the CURRENT snapshot and publishes it as a new generation
   while the workers keep issuing requests. Records p50/p95/p99/mean
   latency, throughput, and cache hit rate; **asserts zero failed
   requests** — the flip is provably invisible to readers. The
   ``serving.generation`` gauge and ``serving.*`` counters land in this
   run's manifest (``benchmarks/manifests/<run-id>.json``).

2. **Result-cache effect**: the same workload against a cache-disabled
   engine vs the warmed cached engine — the hit rate the storefront mix
   actually achieves and the throughput it buys.

3. **Swap cost**: time to prepare a generation from the store (load +
   index build) vs the publish flip itself, showing the expensive half
   runs entirely off the read path.

The payload also records the snapshot's on-disk footprint: per-section
flat-file bytes (``snapshot_sections``) and the RSS the flat mapping
keeps resident after a read sweep
(``mapped_resident_bytes``, ``null`` off-Linux).

``--tiny`` runs a seconds-scale version on dataset A for CI smoke (own
file ``BENCH_serving_tiny.json``; the zero-error assertion still holds).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import bench_report, write_bench_json
from benchmarks.conftest import instance_for
from benchmarks.loadgen import build_workload, run_loadgen
from repro.algorithms import CTCR
from repro.core import Variant
from repro.observability import get_tracer
from repro.serving import (
    ServingEngine,
    SnapshotStore,
    describe_flat,
    prepare_mmap_generation,
)

VARIANT = Variant.threshold_jaccard(0.8)

# dataset, requests, workers — full mode saturates; tiny keeps CI honest.
FULL = ("C", 20_000, 8)
TINY = ("A", 2_000, 4)


def _result_row(label: str, r) -> list:
    return [
        label, r.n_requests, r.n_workers,
        round(r.throughput_rps), r.p50_ms, r.p95_ms, r.p99_ms,
        f"{r.cache_hit_rate:.0%}", r.errors,
    ]


def run(tiny: bool = False) -> dict:
    dataset_name, n_requests, n_workers = TINY if tiny else FULL
    instance = instance_for(dataset_name, VARIANT)
    tree = CTCR().build(instance, VARIANT)

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        store = SnapshotStore(tmp)
        info = store.save(tree, instance, VARIANT, build_run_id="bench")
        loaded = store.load()
        workload = build_workload(
            loaded.instance, loaded.tree, n_requests, seed=1234
        )

        # -- experiment 1: load + mid-run hot swap ---------------------------
        engine = ServingEngine.from_snapshot(loaded)
        swap_result = run_loadgen(
            engine,
            workload,
            n_workers=n_workers,
            swap_at=0.5,
            swap=lambda: engine.swap(store),
        )
        assert swap_result.errors == 0, (
            f"hot swap dropped requests: {swap_result.error_messages}"
        )
        assert swap_result.swap_performed
        assert swap_result.generation_after == swap_result.generation_before + 1
        # Make the final generation explicit in the run manifest even if
        # a future engine stops gauging on publish.
        get_tracer().gauge("serving.generation", engine.generation)

        # -- experiment 2: cache disabled vs warmed --------------------------
        cold_engine = ServingEngine.from_snapshot(loaded, cache_size=0)
        cold = run_loadgen(cold_engine, workload, n_workers=n_workers)
        warm_engine = ServingEngine.from_snapshot(loaded)
        run_loadgen(warm_engine, workload, n_workers=n_workers)  # warm-up
        warm = run_loadgen(warm_engine, workload, n_workers=n_workers)

        # -- snapshot footprint: per-section bytes + mapped residency --------
        flat_path = store.ensure_flat(info.snapshot_id)
        snapshot_sections = section_bytes(flat_path)
        mmap_generation = prepare_mmap_generation(store)
        for item in list(loaded.instance.universe)[:200]:
            mmap_generation.indexes.placements(item)  # touch the pages
        resident = mapped_resident_bytes(flat_path)
        mmap_generation.indexes.close()

        # -- experiment 3: prepare vs publish cost ---------------------------
        t0 = time.perf_counter()
        generation = prepare_mmap_generation(store)
        prepare_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.publish(generation)
        publish_s = time.perf_counter() - t0

    bench_report(
        f"Serving engine — {dataset_name}, {n_requests} requests, "
        f"{n_workers} workers",
        "mid-run hot swap completes with zero failed requests",
        ["run", "requests", "workers", "rps", "p50 ms", "p95 ms",
         "p99 ms", "hit rate", "errors"],
        [
            _result_row("swap mid-run", swap_result),
            _result_row("cache off", cold),
            _result_row("cache warm", warm),
            ["swap cost", "-", "-", "-",
             f"prepare {prepare_s * 1e3:.1f}",
             f"publish {publish_s * 1e3:.3f}", "-", "-", "-"],
        ],
    )

    payload = {
        "mode": "tiny" if tiny else "full",
        "dataset": dataset_name,
        "variant": "threshold-jaccard:0.8",
        "snapshot_id": info.snapshot_id,
        "n_categories": info.n_categories,
        "hot_swap": swap_result.to_dict(),
        "cache_off": cold.to_dict(),
        "cache_warm": warm.to_dict(),
        "swap_cost": {
            "prepare_s": round(prepare_s, 4),
            "publish_s": round(publish_s, 6),
        },
        "snapshot_sections": snapshot_sections,
        "mapped_resident_bytes": resident,
        "final_generation": engine.generation,
    }
    write_bench_json("serving_tiny" if tiny else "serving", payload)
    return payload


def section_bytes(path) -> dict[str, int]:
    """Per-section bytes of one flat file."""
    return {
        sec["name"]: sec["bytes"] for sec in describe_flat(path)["sections"]
    }


def mapped_resident_bytes(path) -> int | None:
    """RSS attributed to the file's mappings in /proc/self/smaps (Linux)."""
    smaps = Path("/proc/self/smaps")
    if not smaps.exists():  # pragma: no cover - non-Linux
        return None
    total = 0
    tracking = False
    for line in smaps.read_text().splitlines():
        first = line.split(None, 1)[0] if line else ""
        if "-" in first:  # an address-range header line
            tracking = line.endswith(path.name)
        elif tracking and line.startswith("Rss:"):
            total += int(line.split()[1]) * 1024
    return total


def test_serving_load(benchmark):
    benchmark.pedantic(run, kwargs={"tiny": True}, rounds=1, iterations=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="dataset A, 2000 requests — seconds-scale CI smoke",
    )
    args = parser.parse_args(argv)
    run(tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
