"""Sparse kernel vs the set-based reference on the pairwise 2-conflict stage.

Measures :func:`repro.conflicts.two_conflicts.compute_pairwise` (the
sparse incidence kernel + vectorized closed forms) against
``pairwise_reference`` from ``tests/oracles.py`` (per-item inverted
index + scalar closed forms, one pair at a time) over the Figure 8f
scalability series (datasets A-D at the repro scale, plus a scaled-up D
as the largest point — the repro scales sit far below the paper's
sizes, so the extra point restores some of the growth the figure is
about). Building the kernel's incidence arrays is timed and reported
in its own column, apart from classification, so each cost stays
visible; ``compute_pairwise`` pays both on every call.

Checks, in bench mode (the ``--smoke`` flag relaxes to a quick parity
run for the test suite):

* the kernel and the reference produce identical pair classifications
  everywhere;
* the kernel's classification is at least 5x faster than the reference
  on the largest instance;
* default CTCR trees equal trees built from the reference's analysis
  (``compute_pairwise`` patched on :mod:`repro.algorithms.ctcr`),
  structure and scores byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import bench_report
from benchmarks.conftest import instance_for
from repro.algorithms import CTCR
from repro.algorithms import ctcr as ctcr_module
from repro.conflicts.ranking import rank_sets
from repro.conflicts.two_conflicts import compute_pairwise
from repro.core import Variant, score_tree
from repro.core.bitset import BitsetUniverse
from repro.io import tree_to_dict
from tests.oracles import pairwise_reference

VARIANT = Variant.threshold_jaccard(0.8)

# (label, dataset, load kwargs, timing repetitions)
SERIES = [
    ("A", "A", {}, 3),
    ("B", "B", {}, 3),
    ("C", "C", {}, 3),
    ("D", "D", {}, 3),
    ("D-large", "D", {"scale": 0.02}, 3),
]
SMOKE_SERIES = SERIES[:2]
MIN_SPEEDUP_LARGEST = 5.0

# Datasets whose default CTCR trees are compared with trees built from
# the reference analysis. The small pair keeps the check cheap; the
# structural comparison is byte-exact either way (both classify pairs
# identically, so every downstream stage sees the same inputs).
TREE_CHECK = ["A", "B"]


def _time(fn, reps: int) -> float:
    # Best-of-reps after a warmup call: the minimum is the noise-robust
    # estimator for microbenchmarks (scheduler preemption and frequency
    # scaling only ever add time), matching timeit's recommendation.
    fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_same_analysis(old, new) -> None:
    assert old.conflicts == new.conflicts
    assert old.must_together == new.must_together
    assert old.can_separately == new.can_separately
    assert old.intersections == new.intersections


def _stage_row(label: str, name: str, kwargs: dict, reps: int) -> list:
    instance = instance_for(name, VARIANT, **kwargs)
    ranking = rank_sets(instance)

    old = pairwise_reference(instance, VARIANT, ranking)
    t_old = _time(lambda: pairwise_reference(instance, VARIANT, ranking), reps)
    t_index = _time(lambda: BitsetUniverse.from_instance(instance), reps)
    universe = BitsetUniverse.from_instance(instance)
    new = compute_pairwise(instance, VARIANT, ranking, universe=universe)
    t_new = _time(
        lambda: compute_pairwise(instance, VARIANT, ranking, universe=universe),
        reps,
    )
    _assert_same_analysis(old, new)
    return [
        label,
        len(instance),
        len(instance.universe),
        round(t_old * 1e3, 1),
        round(t_index * 1e3, 1),
        round(t_new * 1e3, 1),
        round(t_old / t_new, 1),
    ]


def _assert_trees_identical(name: str) -> None:
    instance = instance_for(name, VARIANT)
    results = []
    for classify in (compute_pairwise, pairwise_reference):
        ctcr_module.compute_pairwise = classify
        try:
            tree = CTCR().build(instance, VARIANT)
        finally:
            ctcr_module.compute_pairwise = compute_pairwise
        report = score_tree(tree, instance, VARIANT)
        results.append((tree_to_dict(tree), report.normalized, report.total))
    assert results[0][0] == results[1][0], f"tree structure differs on {name}"
    assert results[0][1] == results[1][1], f"normalized score differs on {name}"
    assert results[0][2] == results[1][2], f"total score differs on {name}"


def run(smoke: bool = False) -> list[list]:
    series = SMOKE_SERIES if smoke else SERIES
    rows = [
        _stage_row(label, name, kwargs, 1 if smoke else reps)
        for label, name, kwargs, reps in series
    ]
    for name in TREE_CHECK[:1] if smoke else TREE_CHECK:
        _assert_trees_identical(name)
    bench_report(
        "Sparse kernel — pairwise 2-conflict stage, set-based vs kernel",
        "the stage is embarrassingly parallel/vectorizable; "
        "kernel >= 5x on the largest instance",
        [
            "instance",
            "sets",
            "items",
            "set-based ms",
            "index ms",
            "kernel ms",
            "speedup",
        ],
        rows,
    )
    if not smoke:
        largest = rows[-1]
        assert largest[-1] >= MIN_SPEEDUP_LARGEST, (
            f"kernel speedup {largest[-1]}x on {largest[0]} "
            f"below {MIN_SPEEDUP_LARGEST}x"
        )
    return rows


def test_bitset_kernel_speedup(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instances, one rep, no speedup assertion",
    )
    args = parser.parse_args(argv)
    run(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
