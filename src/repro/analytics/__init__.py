"""Offline serving analytics: close the loop from traffic to rebuilds.

Serving processes record ``serving.querycat.*`` counters (per-stage
outcomes and per-category traffic) into their run manifests; this
package turns those manifests into decisions:

* :func:`category_performance` — the mart-style category-performance
  report (traffic share, coverage, penetration per category);
* :func:`detect_traffic_drift` — compares live per-category traffic
  against the snapshot's build-time weights (via
  :mod:`repro.maintenance.outliers`) and emits a
  :class:`RebuildRecommendation`;
* :func:`apply_recommendation` — acts on the recommendation: rebuild,
  save to the snapshot store, hot-swap the serving engine.

CLI: ``python -m repro analytics {report,drift}``; operator guide:
docs/serving_analytics.md.
"""

from repro.analytics.drift import (
    DEFAULT_MIN_SHARE,
    DEFAULT_REBUILD_THRESHOLD,
    DEFAULT_RELATIVE_THRESHOLD,
    RebuildRecommendation,
    apply_recommendation,
    detect_traffic_drift,
    reweighted_instance,
)
from repro.analytics.report import (
    BACKOFF_TRAFFIC_PREFIX,
    TRAFFIC_PREFIX,
    AnalyticsReport,
    CategoryPerformance,
    build_category_shares,
    category_performance,
    load_serving_counters,
    subtree_totals,
    traffic_by_category,
)

__all__ = [
    "AnalyticsReport",
    "BACKOFF_TRAFFIC_PREFIX",
    "CategoryPerformance",
    "DEFAULT_MIN_SHARE",
    "DEFAULT_REBUILD_THRESHOLD",
    "DEFAULT_RELATIVE_THRESHOLD",
    "RebuildRecommendation",
    "TRAFFIC_PREFIX",
    "apply_recommendation",
    "build_category_shares",
    "category_performance",
    "detect_traffic_drift",
    "load_serving_counters",
    "reweighted_instance",
    "subtree_totals",
    "traffic_by_category",
]
