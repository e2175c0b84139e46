"""Preprocessing pipeline: filter, compute result sets, weight, merge."""

from repro.pipeline.cleaning import (
    CleaningConfig,
    branch_spread,
    frequency_filter,
    scatter_filter,
)
from repro.pipeline.merging import (
    MergedQuery,
    merge_similar_queries,
    merge_similarity_bound,
)
from repro.pipeline.preprocess import (
    PreprocessConfig,
    PreprocessReport,
    preprocess,
)
from repro.pipeline.result_sets import (
    QueryResultSet,
    compute_result_sets,
    relevance_threshold_for,
)
from repro.pipeline.weighting import (
    frequency_weights,
    recent_window_weights,
    uniform_weights,
)

__all__ = [
    "CleaningConfig",
    "MergedQuery",
    "PreprocessConfig",
    "PreprocessReport",
    "QueryResultSet",
    "branch_spread",
    "compute_result_sets",
    "frequency_filter",
    "frequency_weights",
    "merge_similar_queries",
    "merge_similarity_bound",
    "preprocess",
    "recent_window_weights",
    "relevance_threshold_for",
    "scatter_filter",
    "uniform_weights",
]
