"""Brute-force reference answers the differential suites compare against.

Build side — the serial loops the production kernels replaced, kept
verbatim so every kernel can be checked pair for pair and tree for tree:

* :func:`pairwise_reference` classifies 2-conflicts through a per-item
  inverted index and the scalar closed forms of the pair predicates
  (:func:`can_cover_separately`, :func:`can_cover_together`,
  :func:`max_removable_items`, :func:`min_cover_size`), one pair at a
  time — the arrays of :mod:`repro.conflicts.pairwise` mirror them term
  for term;
* :func:`set_embeddings_reference` builds CCT's similarity embeddings
  with one scalar ``raw_similarity_from_sizes`` call per intersecting
  pair;
* :func:`three_conflicts_reference` enumerates 3-conflicts with the
  nested loops of the paper's definition;
* :func:`cluster_greedy_reference` is the greedy global-minimum
  agglomeration loop (Lance–Williams updates, cached row minima);
* :func:`assign_duplicates_reference` is Algorithm 2's greedy loop
  re-scoring every uncovered set in every round;
* :func:`add_intermediate_categories_reference` picks each merge with a
  ``max`` over all sibling pairs and re-intersects every live child
  after it;
* :func:`preprocess_reference` is the two-pass preprocessing flow: the
  scatter filter searches every frequent query, then the result-set
  stage searches every survivor again.

Serving side — :class:`TreeOracle` answers every read op of
:class:`repro.serving.SnapshotIndexes` by walking a
:class:`~repro.core.tree.CategoryTree` directly — no compiled sections,
no postings, no intervals, no binary searches. Scores come from the
scalar :func:`~repro.core.similarity.variant_score_from_sizes` over
plain set intersections with the offline scorer's tie-break (higher
precision, then greater depth) and the lower cid last; label search is
the offline :class:`~repro.search.SearchEngine`. The differential suites
compare the reader against it over buffers and mappings.
:func:`assert_reads_match` is the shared comparison: every read op,
exact values, floats and dict orders.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.algorithms.assignment import (
    _EPS,
    _assign_duplicate,
    _available_for,
    _breaks_covered_ancestors,
    _cutoff_marginal_gain,
    _designated_by_cid,
    _factor_from_gap,
    _match_branch,
    cover_gap,
)
from repro.algorithms.base import BuildContext
from repro.clustering.agglomerative import _lance_williams
from repro.clustering.dendrogram import Dendrogram, Merge
from repro.conflicts.pairwise import _EPS as _PAIR_EPS
from repro.conflicts.ranking import Ranking, rank_sets
from repro.conflicts.three_conflicts import Triple
from repro.conflicts.two_conflicts import PairwiseAnalysis
from repro.core.input_sets import InputSet, Item, OCTInstance
from repro.core.similarity import (
    raw_similarity_from_sizes,
    variant_score_from_sizes,
)
from repro.core.tree import Category, CategoryTree
from repro.core.variants import SimilarityKind, Variant
from repro.pipeline import (
    MergedQuery,
    PreprocessConfig,
    PreprocessReport,
    branch_spread,
    compute_result_sets,
    frequency_filter,
    frequency_weights,
    merge_similar_queries,
    recent_window_weights,
    relevance_threshold_for,
    uniform_weights,
)
from repro.search.engine import SearchEngine
from repro.serving import BestCategory


# ---------------------------------------------------------------------------
# Build-side oracles.
# ---------------------------------------------------------------------------


def _intersection_counts(
    instance: OCTInstance,
) -> dict[tuple[int, int], list[int]]:
    """``{(sid_a, sid_b): [shared, shared_with_bound_1]}`` for sid_a < sid_b."""
    counts: dict[tuple[int, int], list[int]] = {}
    for item, sets in instance.sets_containing().items():
        if len(sets) < 2:
            continue
        bound_one = instance.bound(item) == 1
        sids = sorted(q.sid for q in sets)
        for i, a in enumerate(sids):
            for b in sids[i + 1 :]:
                entry = counts.get((a, b))
                if entry is None:
                    entry = counts[(a, b)] = [0, 0]
                entry[0] += 1
                if bound_one:
                    entry[1] += 1
    return counts


def _floor(x: float) -> int:
    return math.floor(x + _PAIR_EPS)


def _ceil(x: float) -> int:
    return math.ceil(x - _PAIR_EPS)


def max_removable_items(variant: Variant, size: int, delta: float) -> int:
    """``x_i``: how many of a set's items its covering category may drop.

    With precision kept perfect (the category a subset of the set), the
    similarity is a function of recall alone; this returns the largest
    item deficit that still clears the threshold.
    """
    if delta >= 1.0 or variant.kind is SimilarityKind.PERFECT_RECALL:
        return 0
    if variant.kind is SimilarityKind.JACCARD:
        return _floor(size * (1.0 - delta))
    # F1 with p = 1: F1 = 2r / (1 + r) >= delta  <=>  r >= delta / (2 - delta)
    return _floor(size * (2.0 * (1.0 - delta)) / (2.0 - delta))


def min_cover_size(variant: Variant, size: int, delta: float) -> int:
    """Minimum size of a covering category that is a subset of the set."""
    return size - max_removable_items(variant, size, delta)


def can_cover_separately(
    variant: Variant,
    q1: InputSet,
    q2: InputSet,
    delta1: float,
    delta2: float,
    shared_bound1: int | None = None,
) -> bool:
    """Can the two sets be covered on different branches?

    ``shared_bound1`` is the number of shared items that must be
    partitioned (those with branch bound 1); when ``None`` it defaults to
    the full intersection size.
    """
    if shared_bound1 is None:
        shared_bound1 = len(q1.items & q2.items)
    if shared_bound1 == 0:
        return True
    x1 = min(max_removable_items(variant, len(q1), delta1), shared_bound1)
    x2 = min(max_removable_items(variant, len(q2), delta2), shared_bound1)
    return shared_bound1 <= x1 + x2


def can_cover_together(
    variant: Variant,
    upper: InputSet,
    lower: InputSet,
    delta_upper: float,
    delta_lower: float,
    intersection: int | None = None,
) -> bool:
    """Can the two sets be covered on one branch, ``upper`` placed above?

    ``upper`` must be the lower-ranked (larger) set — callers order the
    pair via :meth:`Ranking.upper_lower`.
    """
    if intersection is None:
        intersection = len(upper.items & lower.items)
    if variant.kind is SimilarityKind.PERFECT_RECALL:
        # The lower category can be exactly its set (precision 1); the
        # upper one must contain the union, so only its precision w.r.t.
        # the upper set constrains the pair. At delta = 1 this degenerates
        # to the Exact condition "lower is a subset of upper".
        union = len(upper) + len(lower) - intersection
        return len(upper) >= delta_upper * union - _PAIR_EPS

    if variant.kind is SimilarityKind.JACCARD:
        needed_lower = _ceil(delta_lower * len(lower))
        budget_upper = len(upper) * (1.0 - delta_upper) / delta_upper
    else:  # F1
        needed_lower = _ceil(len(lower) * delta_lower / (2.0 - delta_lower))
        budget_upper = 2.0 * len(upper) * (1.0 - delta_upper) / delta_upper
    y2 = max(0, needed_lower - intersection)
    return y2 <= budget_upper + _PAIR_EPS


def pairwise_reference(
    instance: OCTInstance,
    variant: Variant,
    ranking: Ranking | None = None,
) -> PairwiseAnalysis:
    """What ``compute_pairwise`` must return: per-item inverted index +
    scalar closed forms, one pair at a time."""
    ranking = ranking or rank_sets(instance)
    analysis = PairwiseAnalysis(ranking=ranking)
    for (a, b), (shared, shared_b1) in _intersection_counts(instance).items():
        upper_sid, lower_sid = analysis.key(a, b)
        upper = instance.get(upper_sid)
        lower = instance.get(lower_sid)
        delta_upper = instance.effective_threshold(upper, variant.delta)
        delta_lower = instance.effective_threshold(lower, variant.delta)
        separately = can_cover_separately(
            variant, upper, lower, delta_upper, delta_lower,
            shared_bound1=shared_b1,
        )
        together = can_cover_together(
            variant, upper, lower, delta_upper, delta_lower,
            intersection=shared,
        )
        pair = (upper_sid, lower_sid)
        analysis.intersections[pair] = shared
        if separately:
            analysis.can_separately.add(pair)
        if together and not separately:
            analysis.must_together.add(pair)
        if not separately and not together:
            analysis.conflicts.add(pair)
    return analysis


def set_embeddings_reference(
    instance: OCTInstance, variant: Variant
) -> np.ndarray:
    """What ``set_embeddings`` must return: a pure-Python embedding loop.

    Only pairs that share items get a similarity entry, the rest stay 0,
    and the diagonal is pinned to 1.
    """
    sets = instance.sets
    n = len(sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    index_of = {q.sid: i for i, q in enumerate(sets)}
    sizes = [len(q.items) for q in sets]

    # Sparse pairwise intersections through the item -> sets index.
    pair_inter: dict[tuple[int, int], int] = {}
    for _item, with_item in instance.sets_containing().items():
        ids = sorted(index_of[q.sid] for q in with_item)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1 :]:
                pair_inter[(a, b)] = pair_inter.get((a, b), 0) + 1
    for (a, b), inter in pair_inter.items():
        sim = raw_similarity_from_sizes(
            variant.kind, sizes[a], sizes[b], inter
        )
        matrix[a, b] = sim
        matrix[b, a] = sim
    np.fill_diagonal(matrix, 1.0)
    return matrix


def three_conflicts_reference(analysis: PairwiseAnalysis) -> set[Triple]:
    """What ``compute_three_conflicts`` must return: nested-loop enumeration."""
    ranking = analysis.ranking
    adjacency = analysis.must_neighbors()
    conflicts: set[Triple] = set()
    for middle, neighbors in adjacency.items():
        if len(neighbors) < 2:
            continue
        ordered = sorted(neighbors, key=lambda sid: ranking.rank_of[sid])
        for i, first in enumerate(ordered):
            for third in ordered[i + 1 :]:
                # middle must not be the lowest-ranked (largest) of the three
                if ranking.rank_of[middle] < ranking.rank_of[first]:
                    continue
                if analysis.is_must_together(first, third):
                    continue
                if analysis.is_conflict(first, third):
                    continue
                triple = tuple(
                    sorted(
                        (first, middle, third),
                        key=lambda sid: ranking.rank_of[sid],
                    )
                )
                conflicts.add(triple)  # type: ignore[arg-type]
    return conflicts


def cluster_greedy_reference(dist: np.ndarray, linkage: str) -> Dendrogram:
    """Greedy global-minimum agglomeration over a dense distance matrix.

    Expected O(n²), worst-case cubic. On tie-free inputs its dendrogram
    has the same topology as ``agglomerative_clustering``'s NN-chain
    result, with heights equal up to floating-point tolerance (the two
    accumulate Lance–Williams averages in different orders).
    """
    n = dist.shape[0]
    inf = np.inf
    work = dist.copy()
    np.fill_diagonal(work, inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    node_of = np.arange(n)  # dendrogram node id currently held by each slot
    row_min = work.min(axis=1)
    row_arg = work.argmin(axis=1)

    merges: list[Merge] = []
    next_node = n
    for _step in range(n - 1):
        masked = np.where(active, row_min, inf)
        i = int(masked.argmin())
        j = int(row_arg[i])
        if not active[j] or work[i, j] != row_min[i]:
            # Stale cache: recompute this row properly.
            row = np.where(active, work[i], inf)
            row[i] = inf
            row_min[i] = row.min()
            row_arg[i] = int(row.argmin())
            j = int(row_arg[i])
        height = float(work[i, j])

        left, right = sorted((node_of[i], node_of[j]))
        merges.append(Merge(left=left, right=right, height=height, node_id=next_node))

        # Merge j into slot i via Lance–Williams; retire slot j.
        new_row = _lance_williams(linkage, work[i], work[j], int(sizes[i]), int(sizes[j]))
        work[i, :] = new_row
        work[:, i] = new_row
        work[i, i] = inf
        active[j] = False
        work[j, :] = inf
        work[:, j] = inf
        sizes[i] += sizes[j]
        node_of[i] = next_node
        next_node += 1

        # Refresh cached minima: row i fully, others only if stale.
        row = np.where(active, work[i], inf)
        row[i] = inf
        row_min[i] = row.min()
        row_arg[i] = int(row.argmin())
        for k in np.nonzero(active)[0]:
            if k == i:
                continue
            if row_arg[k] == j or row_arg[k] == i:
                krow = np.where(active, work[k], inf)
                krow[k] = inf
                row_min[k] = krow.min()
                row_arg[k] = int(krow.argmin())
            elif work[k, i] < row_min[k]:
                row_min[k] = work[k, i]
                row_arg[k] = i
    return Dendrogram(n_leaves=n, merges=merges)


def assign_duplicates_reference(
    ctx: BuildContext, selected: list[InputSet], duplicates: set[Item]
) -> None:
    """What ``assign_duplicates`` must do: re-score every set every round."""
    rev = _designated_by_cid(ctx)
    failed: set[int] = set()

    while True:
        # Gain factors of the sets still uncovered but coverable.
        gains: dict[int, float] = {}
        gaps: dict[int, int] = {}
        for q in selected:
            if q.sid in failed or ctx.covered_on_branch(q):
                continue
            gap = cover_gap(ctx, q)
            if gap is None:
                continue
            available = _available_for(ctx, q, duplicates)
            if gap <= len(available):
                gains[q.sid] = _factor_from_gap(q, gap)
                gaps[q.sid] = gap
        if not gains:
            break

        best_sid = max(gains, key=lambda sid: (gains[sid], -sid))
        best = ctx.instance.get(best_sid)
        gap = gaps[best_sid]
        anchor = ctx.designated[best_sid]
        candidates = _available_for(ctx, best, duplicates)
        ranked: list[tuple[float, Item, Category]] = []
        for item in candidates:
            gain, target = _match_branch(ctx, item, anchor, gains, rev)
            ranked.append((gain, item, target))
        ranked.sort(key=lambda entry: (-entry[0], str(entry[1])))
        chosen = ranked[:gap]
        additions = [(item, target) for _g, item, target in chosen]
        if len(chosen) < gap or _breaks_covered_ancestors(ctx, additions, rev):
            failed.add(best_sid)
            continue
        for item, target in additions:
            _assign_duplicate(ctx, item, target)
        if not ctx.covered_on_branch(best):
            # Defensive: the gap computation should guarantee coverage.
            failed.add(best_sid)

    # Leftover duplicates: place by marginal cutoff gain, or leave them
    # for the miscellaneous category when nothing positive exists.
    leftovers = sorted(
        (item for item in duplicates if ctx.bound_left(item) > 0),
        key=str,
    )
    member_cats: dict[Item, list[Category]] = {}
    for sid, cat in ctx.designated.items():
        q = ctx.instance.get(sid)
        for item in q.items:
            if item in duplicates:
                member_cats.setdefault(item, []).append(cat)
    for item in leftovers:
        best_gain = 0.0
        best_target: Category | None = None
        for cat in member_cats.get(item, ()):
            if item in cat.items:
                continue
            gain = _cutoff_marginal_gain(ctx, item, cat, rev)
            if gain > best_gain + _EPS and not _breaks_covered_ancestors(
                ctx, [(item, cat)], rev
            ):
                # A net-positive gain may still hide one uncovered set
                # behind larger gains elsewhere; the paper's rule is to
                # never uncover, so such placements are skipped outright.
                best_gain = gain
                best_target = cat
        if best_target is not None:
            _assign_duplicate(ctx, item, best_target)


def _recombine_children_reference(ctx: BuildContext, parent: Category) -> int:
    """Insert intermediate parents under one category; returns count."""
    child_sets: dict[int, frozenset] = {}
    cats: dict[int, Category] = {}
    for child in parent.children:
        target = ctx.target_sets.get(child.cid)
        if target:
            child_sets[child.cid] = target
            cats[child.cid] = child

    # Seed pairwise intersection counts through an item index.
    index: dict = {}
    for cid, items in child_sets.items():
        for item in items:
            index.setdefault(item, []).append(cid)
    inter: dict[tuple[int, int], int] = {}
    for cids in index.values():
        cids.sort()
        for i, a in enumerate(cids):
            for b in cids[i + 1 :]:
                inter[(a, b)] = inter.get((a, b), 0) + 1

    added = 0
    while len(parent.children) > 2 and inter:
        (a, b), shared = max(
            inter.items(),
            key=lambda kv: (
                kv[1] / min(len(child_sets[kv[0][0]]), len(child_sets[kv[0][1]])),
                -kv[0][0],
                -kv[0][1],
            ),
        )
        if shared == 0:
            break
        label = " + ".join(
            filter(None, (cats[a].label, cats[b].label))
        )
        node = ctx.tree.insert_parent([cats[a], cats[b]], label=label)
        union = frozenset(child_sets[a] | child_sets[b])
        ctx.target_sets[node.cid] = union
        added += 1

        # Retire a and b; introduce the union node.
        for cid in (a, b):
            del child_sets[cid]
            del cats[cid]
        inter = {
            pair: count
            for pair, count in inter.items()
            if a not in pair and b not in pair
        }
        for cid, items in child_sets.items():
            common = len(union & items)
            if common:
                pair = (min(cid, node.cid), max(cid, node.cid))
                inter[pair] = common
        child_sets[node.cid] = union
        cats[node.cid] = node
    return added


def add_intermediate_categories_reference(ctx: BuildContext) -> int:
    """What ``add_intermediate_categories`` must do: a ``max`` over every
    live sibling pair per merge, and a re-intersection of every live
    child after it."""
    added = 0
    queue = [cat for cat in ctx.tree.categories() if len(cat.children) > 2]
    for parent in queue:
        added += _recombine_children_reference(ctx, parent)
    return added


def preprocess_reference(
    dataset, variant: Variant, config: PreprocessConfig | None = None
) -> tuple[OCTInstance, PreprocessReport]:
    """What ``preprocess`` must return, in the paper's two-pass order:
    clean first (the scatter filter searches each frequent query), then
    search every cleaned query again for its result set."""
    config = config or PreprocessConfig()
    cleaning = config.cleaning
    threshold = (
        relevance_threshold_for(variant)
        if config.relevance_threshold is None
        else config.relevance_threshold
    )
    report = PreprocessReport(
        raw_queries=len(dataset.query_log), relevance_threshold=threshold
    )
    cleaned = []
    for q in frequency_filter(
        dataset.query_log.queries,
        cleaning.min_daily_count,
        window=config.recent_window,
    ):
        result = dataset.engine.result_set(q.text, threshold)
        if len(result) < cleaning.min_result_size:
            continue
        spread = branch_spread(
            result, dataset.existing_tree, cleaning.branch_depth
        )
        if spread > cleaning.max_branches:
            continue
        cleaned.append(q)
    report.after_cleaning = len(cleaned)
    results = compute_result_sets(
        cleaned, dataset.engine, threshold,
        min_size=cleaning.min_result_size,
    )
    if config.recent_window is not None:
        weights = recent_window_weights(
            results, dataset.query_log, config.recent_window
        )
    elif dataset.uniform_weights:
        weights = uniform_weights(results)
    else:
        weights = frequency_weights(results)
    if config.merge_queries:
        merged = merge_similar_queries(results, weights, variant)
    else:
        merged = [
            MergedQuery(
                text=r.text, items=r.items, weight=w, merged_texts=(r.text,)
            )
            for r, w in zip(results, weights)
        ]
    report.after_merging = len(merged)
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
    universe = [p.pid for p in dataset.products]
    return OCTInstance(sets, universe=universe), report


# ---------------------------------------------------------------------------
# Serving read-path oracle.
# ---------------------------------------------------------------------------


class TreeOracle:
    """The read API, answered by walking the tree on every call."""

    def __init__(self, tree: CategoryTree, variant: Variant) -> None:
        self.variant = variant
        self.cats = list(tree.categories())  # pre-order, root first
        self.by_cid = {cat.cid: cat for cat in self.cats}
        self.root_cid = tree.root.cid
        self.sizes = {cat.cid: len(cat.items) for cat in self.cats}
        self.depths = {cat.cid: cat.depth for cat in self.cats}
        self.parent_of = {
            cat.cid: cat.parent.cid if cat.parent is not None else None
            for cat in self.cats
        }
        self.children_of = {
            cat.cid: tuple(child.cid for child in cat.children)
            for cat in self.cats
        }
        self.search = SearchEngine()
        for cat in self.cats:
            if cat.label:
                self.search.add_document(cat.cid, cat.label)

    @property
    def n_categories(self) -> int:
        return len(self.cats)

    @property
    def items(self) -> list:
        """Every item in the tree, in a stable order."""
        return sorted(self.cats[0].items, key=repr)

    def label_of(self, cid: int) -> str:
        return self.by_cid[cid].label or f"C{cid}"

    def path_to_root(self, cid: int) -> list[int]:
        cat = self.by_cid[cid]
        path = []
        while cat is not None:
            path.append(cat.cid)
            cat = cat.parent
        return path[::-1]

    def is_ancestor(self, ancestor_cid: int, cid: int) -> bool:
        return ancestor_cid in self.path_to_root(cid)

    def postings(self, item) -> tuple[int, ...]:
        return tuple(cat.cid for cat in self.cats if item in cat.items)

    def placements(self, item) -> tuple[int, ...]:
        return tuple(
            cat.cid
            for cat in self.cats
            if item in cat.items
            and not any(item in child.items for child in cat.children)
        )

    def find_labels(self, query: str, top_k: int | None = 10):
        return self.search.search(query, top_k=top_k)

    def intersection_counts(self, items: frozenset) -> dict[int, int]:
        counts = {cat.cid: len(items & cat.items) for cat in self.cats}
        return {cid: n for cid, n in counts.items() if n}

    def best_category(
        self,
        items: Iterable,
        variant: Variant | None = None,
        delta: float | None = None,
    ) -> BestCategory | None:
        variant = variant if variant is not None else self.variant
        delta = delta if delta is not None else variant.delta
        q = frozenset(items)
        candidates = []
        for cat in self.cats:
            common = len(q & cat.items)
            if not common:
                continue
            score = variant_score_from_sizes(
                variant, len(q), len(cat.items), common, delta
            )
            if score <= 0.0:
                continue
            precision = common / len(cat.items)
            key = (score, precision, cat.depth, -cat.cid)
            candidates.append((key, cat, score, precision))
        if not candidates:
            return None
        _, cat, score, precision = max(candidates, key=lambda c: c[0])
        return BestCategory(
            cid=cat.cid,
            label=self.label_of(cat.cid),
            score=score,
            precision=precision,
            depth=cat.depth,
        )

    def categorize(self, item) -> list[dict]:
        """What ``ServingEngine.categorize_item`` returns for an item."""
        return [
            {
                "cid": cid,
                "label": self.label_of(cid),
                "path": [self.label_of(p) for p in self.path_to_root(cid)],
            }
            for cid in self.placements(item)
        ]


UNKNOWN_ITEMS = ["__definitely_not_an_item__", ("un", "hashable"), 10**12]
LABEL_QUERIES = ["shirt", "black shirt", "nike", "category", "zzz missing"]


def assert_reads_match(
    reader, oracle: TreeOracle, queries, items=None
) -> None:
    """Every read op of ``reader`` equals the oracle's answer exactly."""
    assert reader.root_cid == oracle.root_cid
    assert reader.n_categories == oracle.n_categories
    assert reader.variant == oracle.variant
    assert list(reader.sizes) == [cat.cid for cat in oracle.cats]
    for cat in oracle.cats:
        cid = cat.cid
        assert reader.sizes[cid] == oracle.sizes[cid]
        assert reader.depths[cid] == oracle.depths[cid]
        assert reader.parent_of[cid] == oracle.parent_of[cid]
        assert reader.children_of[cid] == oracle.children_of[cid]
        assert reader.label_of(cid) == oracle.label_of(cid)
        assert reader.path_to_root(cid) == oracle.path_to_root(cid)
        view = reader.category(cid)
        assert (view.cid, view.label, view.depth, view.n_items) == (
            cid, cat.label, cat.depth, len(cat.items)
        )

    for item in (oracle.items if items is None else items) + UNKNOWN_ITEMS:
        assert reader.placements(item) == oracle.placements(item)
        assert reader.postings(item) == oracle.postings(item)

    for query in queries:
        q = frozenset(query)
        got = reader.intersection_counts(q)
        want = oracle.intersection_counts(q)
        assert got == want
        assert list(got) == list(want)  # same (pre-)order, not just equal
        # Exact float equality via dataclass eq.
        assert reader.best_category(q) == oracle.best_category(q)

    for text in LABEL_QUERIES:
        assert reader.find_labels(text) == oracle.find_labels(text)
        assert reader.find_labels(text, top_k=2) == (
            oracle.find_labels(text, top_k=2)
        )


def queries_for(instance) -> list[frozenset]:
    """The instance's sets plus queries with unknown items."""
    qs = [q.items for q in instance.sets]
    qs.append(frozenset(list(instance.universe)[:3]) | {"__unknown__"})
    qs.append(frozenset({"__only_unknown__"}))
    return qs
