"""Figure 8h: CTCR score across thresholds — Perfect-Recall, dataset E.

Paper result: PR is examined over the wider range [0.1, 1] because
faceted-search deployments tolerate low precision; the score rises
steeply as the precision requirement relaxes.
"""

from benchmarks.common import bench_report
from benchmarks.conftest import instance_for
from repro.algorithms import CTCR
from repro.core import Variant
from repro.evaluation import threshold_sweep

BASE = Variant.perfect_recall(0.6)
DELTAS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]

BUILDER = CTCR()


def test_fig8h_pr_sweep(benchmark):
    instance = instance_for("E", BASE)

    points = benchmark.pedantic(
        threshold_sweep,
        args=(BUILDER, instance, BASE, DELTAS),
        rounds=1,
        iterations=1,
    )

    bench_report(
        "Figure 8h — CTCR threshold sweep (Perfect-Recall, E)",
        "score rises steeply as the precision requirement relaxes",
        ["delta", "normalized score", "covered"],
        [[p.delta, p.normalized_score, p.covered_count] for p in points],
    )

    by_delta = {p.delta: p.normalized_score for p in points}
    assert by_delta[0.1] >= by_delta[0.9]
    assert by_delta[0.1] >= by_delta[1.0]
