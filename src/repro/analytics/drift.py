"""Traffic-drift detection and the rebuild recommendation.

The snapshot was built for the traffic the input-set weights described;
live ``serving.querycat.traffic.*`` counters describe the traffic the
tree actually receives. When the two distributions diverge, the tree is
optimizing yesterday's workload — this module quantifies the divergence
and emits a :class:`RebuildRecommendation` that a serving engine can act
on directly (:func:`apply_recommendation`), optionally after reweighting
the instance toward the live distribution (:func:`reweighted_instance`).

Detection is built on :mod:`repro.maintenance.outliers`: per-category
divergence uses :func:`~repro.maintenance.outliers.detect_distribution_outliers`
(the relative-threshold rule), and the global trigger is the total
variation distance between the live and build-time share distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analytics.report import build_category_shares, traffic_by_category
from repro.core.input_sets import OCTInstance
from repro.maintenance.outliers import (
    DistributionOutlier,
    detect_distribution_outliers,
)

# Total variation distance at which a rebuild is recommended: 0.25 means
# a quarter of the live traffic mass sits on categories the build-time
# weights did not expect it on.
DEFAULT_REBUILD_THRESHOLD = 0.25

# Per-category divergence factor worth reporting individually.
DEFAULT_RELATIVE_THRESHOLD = 2.0

# Categories below this share on both sides are tail noise.
DEFAULT_MIN_SHARE = 0.02


@dataclass(frozen=True)
class RebuildRecommendation:
    """The drift verdict: whether and why to rebuild, and with what.

    ``suggested_weights`` maps input-set sids to weights rescaled toward
    the live traffic distribution (empty when no rebuild is
    recommended); feed it through :func:`reweighted_instance`.
    """

    should_rebuild: bool
    total_variation: float
    rebuild_threshold: float
    reason: str
    drifted: tuple[DistributionOutlier, ...]
    suggested_weights: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "should_rebuild": self.should_rebuild,
            "total_variation": self.total_variation,
            "rebuild_threshold": self.rebuild_threshold,
            "reason": self.reason,
            "drifted": [
                {
                    "cid": outlier.key,
                    "observed": outlier.observed,
                    "expected": outlier.expected,
                    "ratio": outlier.ratio,
                }
                for outlier in self.drifted
            ],
            "suggested_weights": {
                str(sid): weight
                for sid, weight in sorted(self.suggested_weights.items())
            },
        }


def detect_traffic_drift(
    indexes,
    instance: OCTInstance,
    counters: dict[str, float],
    relative_threshold: float = DEFAULT_RELATIVE_THRESHOLD,
    min_share: float = DEFAULT_MIN_SHARE,
    rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
) -> RebuildRecommendation:
    """Compare live per-category traffic against build-time weights.

    Both sides are normalized to exact-node share distributions (live:
    ``serving.querycat.traffic.*`` counters; build: each input set's
    weight on its ``best_category``). A rebuild is recommended when
    their total variation distance reaches ``rebuild_threshold``; the
    per-category detail lists every share diverging by
    ``relative_threshold`` or more.
    """
    live_traffic = traffic_by_category(counters)
    total = sum(live_traffic.values())
    live = (
        {cid: v / total for cid, v in live_traffic.items()} if total else {}
    )
    build = build_category_shares(indexes, instance)
    keys = set(live) | set(build)
    total_variation = 0.5 * sum(
        abs(live.get(k, 0.0) - build.get(k, 0.0)) for k in sorted(keys)
    )
    drifted = detect_distribution_outliers(
        live,
        build,
        relative_threshold=relative_threshold,
        min_mass=min_share,
    )
    should_rebuild = total > 0 and total_variation >= rebuild_threshold
    if total == 0:
        reason = "no live querycat traffic recorded"
    elif should_rebuild:
        reason = (
            f"live traffic diverges from build-time weights by total "
            f"variation {total_variation:.2f} >= {rebuild_threshold:.2f} "
            f"({len(drifted)} categories past the "
            f"{relative_threshold:.1f}x relative threshold)"
        )
    else:
        reason = (
            f"total variation {total_variation:.2f} below the rebuild "
            f"threshold {rebuild_threshold:.2f}"
        )

    suggested: dict[int, float] = {}
    if should_rebuild:
        for q in instance.sets:
            best = indexes.best_category(q.items)
            if best is None:
                continue
            expected = build.get(best.cid, 0.0)
            observed = live.get(best.cid, 0.0)
            if expected > 0:
                suggested[q.sid] = q.weight * (observed / expected)
    return RebuildRecommendation(
        should_rebuild=should_rebuild,
        total_variation=total_variation,
        rebuild_threshold=rebuild_threshold,
        reason=reason,
        drifted=tuple(drifted),
        suggested_weights=suggested,
    )


def reweighted_instance(
    instance: OCTInstance, recommendation: RebuildRecommendation
) -> OCTInstance:
    """The instance with weights rescaled toward the live distribution.

    Input sets without a suggested weight keep their build-time weight;
    the universe and per-item bounds are preserved.
    """
    if not recommendation.suggested_weights:
        return instance
    return OCTInstance(
        [
            replace(
                q,
                weight=recommendation.suggested_weights.get(q.sid, q.weight),
            )
            for q in instance.sets
        ],
        universe=instance.universe,
        item_bounds=instance._item_bounds,
        default_bound=instance.default_bound,
    )


def apply_recommendation(
    recommendation: RebuildRecommendation,
    engine,
    builder,
    instance: OCTInstance,
    variant,
    store,
    reweight: bool = True,
):
    """Act on a rebuild recommendation: build, save, hot-swap.

    No-op (returns None) when no rebuild is recommended; otherwise
    rebuilds from scratch — by default from the live-reweighted
    instance — saves and activates the tree in ``store``, and publishes
    it on ``engine`` with :meth:`~repro.serving.engine.ServingEngine.swap`.
    Returns the published generation.
    """
    if not recommendation.should_rebuild:
        return None
    source = (
        reweighted_instance(instance, recommendation) if reweight else instance
    )
    info = store.save(builder.build(source, variant), source, variant)
    return engine.swap(store, info.snapshot_id)
