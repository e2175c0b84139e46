"""Extreme-scale curves: synthetic catalogs from repro.scale, end to end.

Each point generates a planted catalog (``repro.scale``), materializes
the instance and planted tree, builds the succinct serving indexes, and
times the read path over a head-weighted query sample.  Points run in a
forked child process (one per point) so peak RSS is honest per point
instead of a running maximum across the sweep.

On the largest point the latency-budgeted shaper (``repro.shaping``) is
exercised as a gate: the cost model is calibrated against the measured
succinct read path, the planted tree is shaped to a budget halfway
between the estimated cost floor and the baseline, and the run *fails*
unless the budget is met and the reported quality delta matches an
offline ``score_tree`` of the shaped tree exactly (bit-equal, not
approximately).

Results go to ``BENCH_extreme.json`` (full sweep, up to 1M items / 50k
candidate sets) or ``BENCH_extreme_tiny.json`` (``--tiny``, the CI
smoke).  The old ``bench_large_scale.py`` entry point now delegates its
synthetic half to :func:`run_point` here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

# (n_items, n_sets) per point; candidate categories scale as n_sets // 4
# plus the planted internal nodes (see ScaleSpec.resolved_nodes).
FULL_POINTS = (
    (50_000, 4_000),
    (200_000, 12_000),
    (500_000, 25_000),
    (1_000_000, 50_000),
)
TINY_POINTS = (
    (2_000, 150),
    (5_000, 300),
    (10_000, 600),
    (20_000, 1_200),
)

VARIANT_SPEC = "tj:0.1"


def _variant():
    from repro.core import Variant

    return Variant.threshold_jaccard(0.1)


def _shaping_gate(tree, instance, variant, queries: int) -> dict:
    """Calibrate, shape to a halfway latency budget, verify exactly.

    The budget sits halfway between the estimated irreducible floor
    (every query answered at the root) and the baseline cost of the
    planted tree, so it is always reachable by width pruning yet never
    trivially met.  Raises AssertionError when the budget is missed or
    the reported quality delta disagrees with an offline re-score.
    """
    from repro.core import score_tree
    from repro.shaping import (
        ShapingBudget,
        TreeShaper,
        calibrate_cost_model,
        estimate_cost,
    )

    t0 = time.perf_counter()
    model = calibrate_cost_model(
        tree, instance, variant, samples=min(queries, len(instance.sets))
    )
    calibrate_s = time.perf_counter() - t0

    baseline = estimate_cost(tree, instance, variant, model)
    total_w = sum(q.weight for q in instance.sets) or 1.0
    mean_size = sum(q.weight * len(q.items) for q in instance.sets) / total_w
    # Cost with only the root serving: one candidate, one path node, and
    # postings proportional to the query size.
    floor_ns = (
        model.base_ns
        + model.ns_per_posting * mean_size
        + model.ns_per_candidate
        + model.ns_per_path_node
    )
    budget_ns = floor_ns + 0.5 * max(
        baseline.expected_query_ns - floor_ns, 0.0
    )
    budget = ShapingBudget(max_query_ns=budget_ns)

    t0 = time.perf_counter()
    result = TreeShaper(instance, variant, model).shape(tree, budget)
    shape_s = time.perf_counter() - t0

    # The gate: budget met, and the reported delta is exact.
    ref_before = score_tree(tree, instance, variant).normalized
    ref_after = score_tree(result.tree, instance, variant).normalized
    assert result.met, (
        f"shaping missed its latency budget: "
        f"{result.cost_after.expected_query_ns:.0f}ns > {budget_ns:.0f}ns"
    )
    assert result.score_before == ref_before, (
        f"score_before {result.score_before!r} != offline {ref_before!r}"
    )
    assert result.score_after == ref_after, (
        f"score_after {result.score_after!r} != offline {ref_after!r}"
    )
    result.tree.validate(universe=instance.universe, bound=instance.bound)

    return {
        "budget_ns": budget_ns,
        "baseline_ns": baseline.expected_query_ns,
        "shaped_ns": result.cost_after.expected_query_ns,
        "met": result.met,
        "score_before": result.score_before,
        "score_after": result.score_after,
        "quality_given_up": result.quality_given_up,
        "offline_rescore_exact": True,
        "removed": result.removed,
        "width_pruned": result.width_pruned,
        "hub_splits": result.hub_splits,
        "depth_capped": result.depth_capped,
        "cost_model": model.to_dict(),
        "calibrate_s": round(calibrate_s, 3),
        "shape_s": round(shape_s, 3),
    }


def run_point(
    n_items: int,
    n_sets: int,
    seed: int = 0,
    queries: int = 200,
    shape: bool = False,
    fingerprint: bool = False,
) -> dict:
    """Generate, index, and serve one scale point; return its record.

    Meant to run in its own process (peak RSS is process-wide); the
    parent sweep forks one child per point for exactly that reason.
    """
    from repro.observability import percentile
    from repro.scale import ExtremeCatalog, scaled_spec
    from repro.serving.indexes import SnapshotIndexes

    variant = _variant()
    spec = scaled_spec(n_items=n_items, n_sets=n_sets, seed=seed)

    t0 = time.perf_counter()
    catalog = ExtremeCatalog(spec)
    gen_s = time.perf_counter() - t0

    fp = ""
    fp_s = 0.0
    if fingerprint:
        t0 = time.perf_counter()
        fp = catalog.fingerprint()
        fp_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    instance = catalog.instance()
    materialize_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    tree = catalog.planted_tree()
    tree_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexes = SnapshotIndexes(tree, variant)
    index_s = time.perf_counter() - t0

    postings_bytes = sum(
        len(indexes._flat._views[name])
        for name in ("item_post_var", "item_place_var")
    )
    snapshot_bytes = postings_bytes + 64 * len(tree)

    # Head-weighted sample: Zipf weights make the first sids the bulk
    # of the served traffic; the back half strides the tail for p99.
    n_q = min(queries, n_sets)
    head = list(range(n_q // 2))
    stride = max(1, n_sets // max(1, n_q - len(head)))
    tail = list(range(n_q // 2, n_sets, stride))[: n_q - len(head)]
    sample = {k: None for k in head + tail}
    for q in catalog.iter_input_sets():
        if q.sid in sample:
            sample[q.sid] = q.items
    lat_ns = []
    for items in sample.values():
        if items is None:
            continue
        indexes.best_category(items)  # warm
        t0 = time.perf_counter_ns()
        indexes.best_category(items)
        lat_ns.append(time.perf_counter_ns() - t0)
    lat_ns.sort()

    stats = catalog.stats()
    record = {
        "n_items": n_items,
        "n_sets": n_sets,
        "n_nodes": stats["n_nodes"],
        "n_leaves": stats["n_leaves"],
        "depth": stats["max_depth"],
        "max_fanout": stats["max_fanout"],
        "seed": seed,
        "fingerprint": fp,
        "gen_s": round(gen_s, 4),
        "fingerprint_s": round(fp_s, 4),
        "materialize_s": round(materialize_s, 4),
        "planted_tree_s": round(tree_s, 4),
        "index_s": round(index_s, 4),
        "postings_bytes": postings_bytes,
        "snapshot_bytes": snapshot_bytes,
        "queries_timed": len(lat_ns),
        "serve_p50_us": round(percentile(lat_ns, 0.50) / 1e3, 2),
        "serve_p99_us": round(percentile(lat_ns, 0.99) / 1e3, 2),
    }
    if shape:
        record["shaping"] = _shaping_gate(tree, instance, variant, queries)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI-sized points (seconds, BENCH_extreme_tiny.json)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed for every point"
    )
    parser.add_argument(
        "--queries", type=int, default=200,
        help="queries timed per point (head-weighted sample)",
    )
    parser.add_argument(
        "--in-process", action="store_true",
        help="run points in this process (no per-point RSS isolation)",
    )
    parser.add_argument("--_child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args._child:
        print(json.dumps(run_point(**json.loads(args._child))))
        return 0

    from benchmarks.common import (
        bench_report,
        peak_rss_mb,
        run_child,
        write_bench_json,
    )

    points = TINY_POINTS if args.tiny else FULL_POINTS
    records = []
    for i, (n_items, n_sets) in enumerate(points):
        last = i == len(points) - 1
        spec = {
            "n_items": n_items,
            "n_sets": n_sets,
            "seed": args.seed,
            "queries": args.queries,
            "shape": last,  # the shaping gate runs on the largest point
            "fingerprint": last or args.tiny,
        }
        t0 = time.perf_counter()
        if args.in_process:
            record = run_point(**spec)
            record["peak_rss_mb"] = peak_rss_mb()
        else:
            record = run_child(__file__, spec)
        record["point_wall_s"] = round(time.perf_counter() - t0, 2)
        records.append(record)
        print(
            f"  point {n_items}x{n_sets}: gen {record['gen_s']}s, "
            f"index {record['index_s']}s, p50 {record['serve_p50_us']}us, "
            f"rss {record['peak_rss_mb']}MB",
            file=sys.__stdout__,
        )

    shaping = records[-1].get("shaping", {})
    rows = [
        [
            r["n_items"], r["n_sets"], r["n_nodes"],
            r["gen_s"], r["index_s"],
            f"{r['snapshot_bytes'] / 1e6:.1f}",
            r["serve_p50_us"], r["serve_p99_us"], r["peak_rss_mb"],
        ]
        for r in records
    ]
    bench_report(
        "Extreme scale — synthetic catalogs, succinct serving, shaped tail"
        + (" (tiny)" if args.tiny else ""),
        "build time and memory grow near-linearly; the shaper meets an "
        "explicit latency budget on the largest point and reports the "
        "exact score it gave up",
        ["items", "sets", "nodes", "gen s", "index s", "snap MB",
         "p50 us", "p99 us", "RSS MB"],
        rows,
    )
    if shaping:
        print(
            f"  shaping gate: budget {shaping['budget_ns']:.0f}ns "
            f"(baseline {shaping['baseline_ns']:.0f}ns) met={shaping['met']}"
            f", gave up {shaping['quality_given_up']:.6f} normalized score"
            f" ({shaping['removed']} categories removed)",
            file=sys.__stdout__,
        )
    write_bench_json(
        "extreme_tiny" if args.tiny else "extreme",
        {
            "mode": "tiny" if args.tiny else "full",
            "variant": VARIANT_SPEC,
            "seed": args.seed,
            "queries_per_point": args.queries,
            "points": records,
            "shaping_gate": shaping,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
