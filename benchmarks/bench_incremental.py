"""Delta publishes vs cold publishes under catalog churn.

For each dataset and churn fraction the benchmark perturbs the query
log (:func:`tests.churn.churn_query_log`), then publishes the churned
catalog both ways:

* **full** — cold :func:`repro.pipeline.preprocess` plus a from-scratch
  :class:`repro.algorithms.CTCR` build, exactly what a non-incremental
  deployment pays on every refresh;
* **delta** — :func:`repro.incremental.incremental_preprocess` through
  the warm :class:`~repro.incremental.ResultSetCache` plus
  :meth:`~repro.incremental.IncrementalBuilder.delta_build`, which is
  itself a from-scratch CTCR build.

The two sides differ only in preprocessing, so the speedup is the
memoized preprocessing: the delta side pays the search engine only for
query texts it has not seen. Each cell records both sides' preprocess
time next to their totals. Both sides must produce byte-identical trees
(asserted every cell). Results go to
``benchmarks/BENCH_incremental.json``; the headline number is the
delta-vs-full wall-clock speedup, which must reach >= 5x at 1% churn on
D-large (asserted in full mode). ``--tiny`` runs a seconds-scale
version on a scaled-down dataset A for CI smoke
(``BENCH_incremental_tiny.json``, no speedup floor — a tiny catalog
leaves little preprocessing to memoize).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import bench_report, write_bench_json
from benchmarks.conftest import dataset
from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant
from repro.incremental import (
    IncrementalBuilder,
    ResultSetCache,
    incremental_preprocess,
)
from repro.io import tree_to_dict
from repro.pipeline import preprocess
from tests.churn import churn_query_log

VARIANT = Variant.perfect_recall(0.6)
FRACS = (0.01, 0.05, 0.20)

# label, dataset name, load kwargs
FULL_SERIES = (
    ("C", "C", {}),
    ("D-large", "D", {"scale": 0.02}),
)
TINY_SERIES = (("A-tiny", "A", {"scale": 0.01}),)

# The >= 5x acceptance bar applies to this cell (full mode only).
SPEEDUP_FLOOR = 5.0
FLOOR_CELL = ("D-large", 0.01)


def _tree_fingerprint(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def _publish_full(churned_dataset):
    """(total s, preprocess s, tree) of a cold publish."""
    t0 = time.perf_counter()
    instance, _report = preprocess(churned_dataset, VARIANT)
    t1 = time.perf_counter()
    tree = CTCR(CTCRConfig()).build(instance, VARIANT)
    return time.perf_counter() - t0, t1 - t0, tree


def _publish_delta(builder, state, cache, churned_dataset):
    """(total s, preprocess s, tree) of a memoized publish."""
    t0 = time.perf_counter()
    instance, _report = incremental_preprocess(
        churned_dataset, VARIANT, cache
    )
    t1 = time.perf_counter()
    result = builder.delta_build(state, instance, VARIANT)
    return time.perf_counter() - t0, t1 - t0, result.tree


def run(tiny: bool = False) -> dict:
    series = TINY_SERIES if tiny else FULL_SERIES
    rows = []
    cells = []
    for label, name, kwargs in series:
        base = dataset(name, **kwargs)

        # Bootstrap: the first publish of any deployment — cold
        # preprocess (which also warms the result-set cache) plus a
        # full build.
        cache = ResultSetCache()
        builder = IncrementalBuilder(CTCRConfig())
        t0 = time.perf_counter()
        base_instance, _ = incremental_preprocess(base, VARIANT, cache)
        _tree, state = builder.full_build(base_instance, VARIANT)
        bootstrap_s = time.perf_counter() - t0

        for frac in FRACS:
            # str seeds hash deterministically (unlike tuple seeds).
            churned = churn_query_log(
                base, random.Random(f"churn-{label}-{frac}"), frac=frac
            )
            full_s, full_prep_s, full_tree = _publish_full(churned)
            delta_s, delta_prep_s, delta_tree = _publish_delta(
                builder, state, cache, churned
            )
            assert _tree_fingerprint(delta_tree) == _tree_fingerprint(
                full_tree
            ), f"delta tree diverged from full rebuild ({label}, {frac:.0%})"
            speedup = full_s / delta_s if delta_s > 0 else float("inf")
            rows.append([
                label,
                f"{frac:.0%}",
                f"{full_s:.2f}",
                f"{delta_s:.3f}",
                f"{speedup:.1f}x",
                f"{full_prep_s:.2f}",
                f"{delta_prep_s:.3f}",
            ])
            cells.append({
                "dataset": label,
                "churn_frac": frac,
                "full_s": round(full_s, 4),
                "delta_s": round(delta_s, 4),
                "speedup": round(speedup, 2),
                "full_preprocess_s": round(full_prep_s, 4),
                "delta_preprocess_s": round(delta_prep_s, 4),
                "bootstrap_s": round(bootstrap_s, 4),
            })
            if not tiny and (label, frac) == FLOOR_CELL:
                assert speedup >= SPEEDUP_FLOOR, (
                    f"delta publish speedup {speedup:.1f}x is below the "
                    f"{SPEEDUP_FLOOR:.0f}x floor at {frac:.0%} churn on "
                    f"{label}"
                )

    bench_report(
        "Delta publishes — publish cost under churn",
        f"delta publish is >= {SPEEDUP_FLOOR:.0f}x faster than a cold "
        "rebuild at 1% churn on D-large",
        ["dataset", "churn", "full s", "delta s", "speedup",
         "full prep s", "delta prep s"],
        rows,
    )

    payload = {
        "mode": "tiny" if tiny else "full",
        "variant": "perfect-recall:0.6",
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_cell": list(FLOOR_CELL),
        "cells": cells,
    }
    write_bench_json("incremental_tiny" if tiny else "incremental", payload)
    return payload


def test_incremental_bench(benchmark):
    benchmark.pedantic(run, kwargs={"tiny": True}, rounds=1, iterations=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="scaled-down dataset A — seconds-scale CI smoke",
    )
    args = parser.parse_args(argv)
    run(tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
