"""End-to-end preprocessing: raw query log -> OCT instance (Section 5.1).

Order: the frequency filter, thresholded result sets (one search per
remaining query), the scatter filter over those result sets, weights
(frequency-based, uniform for public data, or recent-window for trend
studies), merging of near-duplicate queries, and an :class:`OCTInstance`
whose universe is the whole catalog (items no query mentions still need
a home in the tree). The paper lists the scatter filter before the
result sets, but the filter reads those same result sets: running it
after the search keeps the same queries and searches each one once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.datasets import SyntheticDataset
from repro.core.input_sets import InputSet, OCTInstance
from repro.core.variants import Variant
from repro.pipeline.cleaning import (
    CleaningConfig,
    frequency_filter,
    scatter_filter,
)
from repro.pipeline.merging import MergedQuery, merge_similar_queries
from repro.pipeline.result_sets import (
    compute_result_sets,
    relevance_threshold_for,
)
from repro.observability import get_tracer
from repro.pipeline.weighting import (
    frequency_weights,
    recent_window_weights,
    uniform_weights,
)


@dataclass(frozen=True)
class PreprocessConfig:
    """Switches for the preprocessing pipeline (ablation-ready).

    ``threshold_overrides`` maps query texts to per-set thresholds (the
    paper's non-uniform-thresholds extension: taxonomists lower the
    threshold for queries whose categories must exist even imperfectly).
    Overrides survive merging through the merged candidate's label.
    """

    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    relevance_threshold: float | None = None  # None -> paper default
    merge_queries: bool = True
    recent_window: int | None = None  # e.g. 14 to chase trends
    threshold_overrides: Mapping[str, float] | None = None


@dataclass
class PreprocessReport:
    """What each stage did (for the paper's ablation discussion)."""

    raw_queries: int = 0
    after_cleaning: int = 0  # both filters and the minimum result size
    after_merging: int = 0
    relevance_threshold: float = 0.0


def preprocess(
    dataset: SyntheticDataset,
    variant: Variant,
    config: PreprocessConfig | None = None,
) -> tuple[OCTInstance, PreprocessReport]:
    """Run the full pipeline over a dataset for a given variant."""
    config = config or PreprocessConfig()
    report = PreprocessReport(raw_queries=len(dataset.query_log))
    tracer = get_tracer()
    threshold = (
        relevance_threshold_for(variant)
        if config.relevance_threshold is None
        else config.relevance_threshold
    )
    report.relevance_threshold = threshold

    with tracer.span("pipeline.clean"):
        frequent = frequency_filter(
            dataset.query_log.queries,
            config.cleaning.min_daily_count,
            window=config.recent_window,
        )
    with tracer.span("pipeline.result_sets"):
        results = compute_result_sets(
            frequent, dataset.engine, threshold,
            min_size=config.cleaning.min_result_size,
        )
    with tracer.span("pipeline.clean"):
        results = scatter_filter(
            results, dataset.existing_tree, config.cleaning
        )
    report.after_cleaning = len(results)
    tracer.count("pipeline.queries_cleaned", len(results))

    with tracer.span("pipeline.weighting"):
        if config.recent_window is not None:
            # An explicit recency request overrides the dataset's default
            # weighting (even uniform-weight public data has a usable log).
            weights = recent_window_weights(
                results, dataset.query_log, config.recent_window
            )
        elif dataset.uniform_weights:
            weights = uniform_weights(results)
        else:
            weights = frequency_weights(results)

    with tracer.span("pipeline.merge"):
        if config.merge_queries:
            merged = merge_similar_queries(results, weights, variant)
        else:
            # Unmerged entries reuse the merged-query shape for uniformity.
            merged = [
                MergedQuery(
                    text=r.text, items=r.items, weight=w, merged_texts=(r.text,)
                )
                for r, w in zip(results, weights)
            ]
    report.after_merging = len(merged)
    tracer.count("pipeline.merged_sets", len(merged))

    overrides = config.threshold_overrides or {}
    sets = [
        InputSet(
            sid=i,
            items=m.items,
            weight=m.weight,
            threshold=overrides.get(m.text),
            label=m.text,
            source="query",
        )
        for i, m in enumerate(merged)
        if m.weight > 0
    ]
    instance = OCTInstance(sets, universe=[p.pid for p in dataset.products])
    return instance, report
