"""Result-set computation (paper Section 5.1, "Computing result sets").

Result sets come from the platform search engine; items below a
relevance threshold are removed to cut the noisy tail. The paper's
chosen thresholds — 0.8 for Jaccard/F1 inputs, 0.9 for
Perfect-Recall/Exact — are the defaults here. :func:`compute_result_sets`
is the pipeline's only search: the scatter filter reads its output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.queries import RawQuery
from repro.core.variants import SimilarityKind, Variant
from repro.search.engine import SearchEngine


def relevance_threshold_for(variant: Variant) -> float:
    """The paper's per-variant search-relevance threshold."""
    if variant.is_exact or variant.kind is SimilarityKind.PERFECT_RECALL:
        return 0.9
    return 0.8


@dataclass(frozen=True)
class QueryResultSet:
    """One frequent query with its thresholded result set."""

    text: str
    items: frozenset
    mean_daily: float


def compute_result_sets(
    queries: list[RawQuery],
    engine: SearchEngine,
    relevance_threshold: float,
    min_size: int = 2,
) -> list[QueryResultSet]:
    """Evaluate queries and keep non-degenerate result sets."""
    results = []
    for q in queries:
        items = engine.result_set(q.text, relevance_threshold)
        if len(items) < min_size:
            continue
        results.append(
            QueryResultSet(
                text=q.text, items=items, mean_daily=q.mean_daily
            )
        )
    return results
