"""Tree scoring (paper Section 2.1, "Objective").

The score of a tree over one input set is the best similarity score any
category achieves against it; the overall score is the weight-weighted
sum over all input sets. Scores are normalized by the total input weight
for reporting, as in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.input_sets import OCTInstance
from repro.core.similarity import variant_score_from_sizes
from repro.core.tree import Category, CategoryTree
from repro.core.variants import Variant


@dataclass(frozen=True)
class SetScore:
    """Evaluation of a single input set against a tree."""

    sid: int
    score: float
    weight: float
    best_cid: int | None
    best_precision: float
    covered: bool


@dataclass(frozen=True)
class ScoreReport:
    """Full evaluation of a tree over an instance."""

    total: float
    normalized: float
    per_set: dict[int, SetScore]

    @property
    def covered_count(self) -> int:
        return sum(1 for s in self.per_set.values() if s.covered)

    @property
    def covered_weight(self) -> float:
        return sum(s.weight for s in self.per_set.values() if s.covered)

    def score_by_source(self, instance: OCTInstance) -> dict[str, float]:
        """Raw score aggregated by input-set ``source`` (Table 1 support)."""
        totals: dict[str, float] = {}
        for q in instance:
            entry = self.per_set[q.sid]
            totals[q.source] = (
                totals.get(q.source, 0.0) + entry.weight * entry.score
            )
        return totals


def category_intersections(
    categories: Iterable[Category], instance: OCTInstance
) -> dict[int, dict[int, int]]:
    """``{sid: {cid: |q ∩ C|}}`` over ``categories``, via an inverted index.

    Only nonzero intersections are materialized, which keeps scoring
    near-linear on the sparse instances the paper targets. Public
    because :mod:`repro.shaping` uses the same table to keep its
    incremental score bookkeeping bit-identical to :func:`score_tree`.
    """
    item_to_cids: dict = {}
    for cat in categories:
        for item in cat.items:
            item_to_cids.setdefault(item, []).append(cat.cid)
    inter: dict[int, dict[int, int]] = {}
    for q in instance:
        counts: dict[int, int] = {}
        for item in q.items:
            for cid in item_to_cids.get(item, ()):
                counts[cid] = counts.get(cid, 0) + 1
        inter[q.sid] = counts
    return inter


def best_cover(
    counts: Mapping[int, int],
    q_size: int,
    sizes: Mapping[int, int],
    depths: Mapping[int, int],
    variant: Variant,
    delta: float,
) -> tuple[int, float, float] | None:
    """``(cid, score, precision)`` of a set's best category, or None.

    ``counts`` is the set's ``{cid: |q ∩ C|}`` row; ``delta`` its
    effective threshold. The highest score wins. Exact ties break
    towards higher precision (fewer extraneous items — the rule the
    paper's condensing step uses to pick the retained cover), then
    towards the deeper category (so a cover is never attributed to the
    root, whose contents shift when the miscellaneous category is added,
    when an equally good specific category exists), then towards the
    lower cid. None when no category scores above 0. This is the one
    rule: scoring, condensing, serving and shaping all call it.
    """
    best = None
    for cid, common in counts.items():
        c_size = sizes[cid]
        score = variant_score_from_sizes(
            variant, q_size, c_size, common, delta
        )
        if score > 0.0:
            key = (score, common / c_size, depths[cid], -cid)
            if best is None or key > best:
                best = key
    if best is None:
        return None
    score, precision, _depth, neg_cid = best
    return -neg_cid, score, precision


def score_tree(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> ScoreReport:
    """Evaluate a tree over an OCT instance under a similarity variant.

    Per-set thresholds on the input sets override the variant's default
    ``delta``; each set's best category is picked by :func:`best_cover`.
    """
    cats = list(tree.categories())
    sizes = {cat.cid: len(cat.items) for cat in cats}
    depths = {cat.cid: cat.depth for cat in cats}
    inter = category_intersections(cats, instance)
    per_set: dict[int, SetScore] = {}
    total = 0.0
    for q in instance:
        delta = instance.effective_threshold(q, variant.delta)
        best = best_cover(inter[q.sid], len(q), sizes, depths, variant, delta)
        cid, score, precision = best if best is not None else (None, 0.0, 0.0)
        per_set[q.sid] = SetScore(
            sid=q.sid,
            score=score,
            weight=q.weight,
            best_cid=cid,
            best_precision=precision,
            covered=best is not None,
        )
        total += q.weight * score
    denominator = instance.total_weight
    normalized = total / denominator if denominator > 0 else 0.0
    return ScoreReport(total=total, normalized=normalized, per_set=per_set)


def covering_categories(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> dict[int, list[int]]:
    """``{cid: [sids covered]}`` attributing each set to its best category."""
    report = score_tree(tree, instance, variant)
    result: dict[int, list[int]] = {}
    for sid, entry in report.per_set.items():
        if entry.covered and entry.best_cid is not None:
            result.setdefault(entry.best_cid, []).append(sid)
    return result


def annotate_matches(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> None:
    """Stamp ``matched_sids`` on every category from a fresh evaluation."""
    for cat in tree.categories():
        cat.matched_sids = []
    by_cid = {cat.cid: cat for cat in tree.categories()}
    for cid, sids in covering_categories(tree, instance, variant).items():
        by_cid[cid].matched_sids = sorted(sids)


def upper_bound(instance: OCTInstance) -> float:
    """The loose score upper bound used for normalization: total weight."""
    return instance.total_weight
