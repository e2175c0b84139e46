"""Query-set cleaning (paper Section 5.1, "Cleaning the query set").

Two filters: (1) frequency — only queries submitted at least ``X`` times
a day *consecutively* over the whole window are demand-indicative;
(2) scatter — queries whose result sets spread over more than
``max_branches`` branches of the existing tree are not indicative of one
unifying category (fewer than 1% of real queries). The scatter filter
reads the thresholded result sets that
:func:`~repro.pipeline.compute_result_sets` already computed (which
also drops empty or tiny result sets, what eliminates incoherent
queries in practice), so preprocessing searches each query once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.queries import RawQuery
from repro.core.tree import CategoryTree
from repro.pipeline.result_sets import QueryResultSet


@dataclass(frozen=True)
class CleaningConfig:
    """Thresholds for the cleaning filters.

    ``min_daily_count`` is the paper's confidential ``X``;
    ``branch_depth`` selects the tree level at which branches are
    counted (1 = the root's children, i.e. top-level departments).
    """

    min_daily_count: int = 1
    max_branches: int = 10
    branch_depth: int = 1
    min_result_size: int = 2


def frequency_filter(
    queries: list[RawQuery],
    min_daily_count: int,
    window: int | None = None,
) -> list[RawQuery]:
    """Keep queries submitted at least ``min_daily_count`` times every day.

    With ``window`` set, only the last ``window`` days must clear the
    bar — the recency skew that lets platforms capitalize on short-lived
    trends (paper Section 5.1) instead of demanding 90 consecutive days.
    """
    def min_over_window(q: RawQuery) -> int:
        counts = q.daily_counts if window is None else q.daily_counts[-window:]
        return min(counts) if counts else 0

    return [q for q in queries if min_over_window(q) >= min_daily_count]


def branch_spread(
    items: frozenset, tree: CategoryTree, depth: int
) -> int:
    """Number of depth-``depth`` branches of ``tree`` containing the items."""
    touched = set()
    for cat in tree.categories():
        if cat.depth != depth:
            continue
        if not items.isdisjoint(cat.items):
            touched.add(cat.cid)
    return len(touched)


def scatter_filter(
    results: list[QueryResultSet],
    existing_tree: CategoryTree,
    config: CleaningConfig,
) -> list[QueryResultSet]:
    """Drop queries whose result sets scatter over too many branches."""
    return [
        r
        for r in results
        if branch_spread(r.items, existing_tree, config.branch_depth)
        <= config.max_branches
    ]
