"""Figure 8g: CTCR score across thresholds — threshold Jaccard, dataset C.

Paper result: lowering the threshold consistently covers more input sets
and raises the score; around the taxonomists' preferred delta = 0.8 the
curve is locally flat (robust tuning, Section 5.4).
"""

from benchmarks.common import bench_report
from benchmarks.conftest import instance_for
from repro.algorithms import CTCR
from repro.core import Variant
from repro.evaluation import threshold_sweep

BASE = Variant.threshold_jaccard(0.8)
DELTAS = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

BUILDER = CTCR()


def test_fig8g_threshold_sweep(benchmark):
    instance = instance_for("C", BASE)

    points = benchmark.pedantic(
        threshold_sweep,
        args=(BUILDER, instance, BASE, DELTAS),
        rounds=1,
        iterations=1,
    )

    bench_report(
        "Figure 8g — CTCR threshold sweep (threshold Jaccard, C)",
        "score rises as delta drops; locally flat around delta=0.8",
        ["delta", "normalized score", "covered"],
        [[p.delta, p.normalized_score, p.covered_count] for p in points],
    )

    by_delta = {p.delta: p.normalized_score for p in points}
    assert by_delta[0.5] >= by_delta[1.0]
    assert by_delta[0.5] >= by_delta[0.9] - 0.02
    # Robustness claim: moving delta within [0.6, 0.9] changes the score
    # only moderately.
    band = [by_delta[d] for d in (0.6, 0.7, 0.8, 0.9)]
    assert max(band) - min(band) < 0.35
