"""Item assignment — Algorithm 2 of the paper.

Items appearing only in input sets whose categories share one branch are
assigned directly (the "safe" stage, lines 16-19 of Algorithm 1). Items
shared by separately-covered sets — *duplicates* — are rationed by an
iterative greedy procedure prioritizing sets by their *gain factor*
(weight over *cover gap*, the number of missing items), matching each
duplicate to the branch where the sets containing it have the highest
total gain and placing it at the lowest relevant category of that branch.
Whatever remains is assigned by marginal gain to the cutoff score, with
the guard that no already-covered set may become uncovered.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.algorithms.base import BuildContext, chain_deepest
from repro.core.input_sets import InputSet, Item
from repro.core.similarity import (
    raw_similarity_from_sizes,
    variant_score_from_sizes,
)
from repro.core.tree import Category
from repro.core.variants import ScoreMode, SimilarityKind, Variant
from repro.observability import get_tracer

_EPS = 1e-9


# ---------------------------------------------------------------------------
# Safe stage: items whose selected sets lie on a single branch.
# ---------------------------------------------------------------------------


def assign_safe_items(
    ctx: BuildContext, selected: list[InputSet]
) -> set[Item]:
    """Assign single-branch items; return the set of duplicate items.

    An item is safe when all selected sets containing it have categories
    on one branch; it goes to the deepest of those categories and
    propagates upwards (the ancestor-closure of lines 18-19 follows from
    :meth:`CategoryTree.assign_item`).
    """
    membership: dict[Item, list[InputSet]] = {}
    for q in selected:
        for item in q.items:
            membership.setdefault(item, []).append(q)
    duplicates: set[Item] = set()
    for item, sets_with_item in membership.items():
        cats = [ctx.designated[q.sid] for q in sets_with_item]
        deepest = chain_deepest(cats)
        if deepest is None:
            duplicates.add(item)
        else:
            ctx.tree.assign_item(deepest, item)
            ctx.record_assignment(item, deepest)
            ctx.consume_bound(item)
    return duplicates


# ---------------------------------------------------------------------------
# Cover gaps and gain factors.
# ---------------------------------------------------------------------------


def cover_gap(ctx: BuildContext, q: InputSet) -> int | None:
    """Items from ``q`` that must be added to ``C(q)`` to cover it.

    Returns ``None`` when no number of additions from ``q`` can reach the
    threshold (the category already carries too many foreign items).
    """
    cat = ctx.designated[q.sid]
    delta = ctx.delta(q)
    q_size = len(q.items)
    c_in = len(cat.items & q.items)
    c_out = len(cat.items) - c_in
    kind = ctx.variant.kind
    if kind is SimilarityKind.PERFECT_RECALL:
        gap = q_size - c_in
        precision = q_size / (c_out + q_size) if (c_out + q_size) else 0.0
        return gap if precision >= delta - _EPS else None
    if kind is SimilarityKind.JACCARD:
        needed = delta * (q_size + c_out) - c_in
    else:  # F1: 2(c_in + k) / (q + |C| + k) >= delta
        needed = (delta * (q_size + c_in + c_out) - 2.0 * c_in) / (2.0 - delta)
    gap = max(0, math.ceil(needed - _EPS))
    if gap > q_size - c_in:
        return None
    return gap


def _factor_from_gap(q: InputSet, gap: int) -> float:
    if gap == 0:
        return math.inf
    return q.weight / gap


# ---------------------------------------------------------------------------
# Duplicate placement.
# ---------------------------------------------------------------------------


def _available_for(
    ctx: BuildContext, q: InputSet, duplicates: set[Item]
) -> list[Item]:
    """Duplicates of ``q`` that could still be added to its category.

    A duplicate is available when it has branch bound left, or when it
    can slide down an existing branch into the category for free (its
    current minimal category is an ancestor — see
    :meth:`BuildContext.slides_down`).
    """
    cat = ctx.designated[q.sid]
    result = []
    for item in q.items:
        if item in cat.items or item not in duplicates:
            continue
        if ctx.bound_left(item) > 0 or ctx.slides_down(item, cat):
            result.append(item)
    return result


def _designated_by_cid(ctx: BuildContext) -> dict[int, list[int]]:
    rev: dict[int, list[int]] = {}
    for sid, cat in ctx.designated.items():
        rev.setdefault(cat.cid, []).append(sid)
    return rev


def _match_branch(
    ctx: BuildContext,
    item: Item,
    anchor: Category,
    gains: dict[int, float],
    rev: dict[int, list[int]],
) -> tuple[float, Category]:
    """Best branch through ``anchor`` for a duplicate.

    Returns ``(gain_sum, placement)`` where ``placement`` is the lowest
    category on the winning branch whose input set contains the item.
    """
    best_gain = -1.0
    best_target = anchor
    for leaf in anchor.leaves_below():
        total = 0.0
        lowest: Category | None = None
        node: Category | None = leaf
        while node is not None:
            for sid in rev.get(node.cid, ()):
                q = ctx.instance.get(sid)
                if item in q.items:
                    total += gains.get(sid, 0.0)
                    if lowest is None:
                        lowest = node
            node = node.parent
        if lowest is None:
            continue
        if total > best_gain:
            best_gain = total
            best_target = lowest
    return best_gain, best_target


def _incoming(
    additions: list[tuple[Item, Category]],
) -> dict[int, set[Item]]:
    """New items per category from ``additions``, placed at their target
    and propagated upwards (see :meth:`CategoryTree.assign_item`)."""
    incoming: dict[int, set[Item]] = {}
    for item, target in additions:
        node: Category | None = target
        while node is not None:
            if item not in node.items:
                incoming.setdefault(node.cid, set()).add(item)
            node = node.parent
    return incoming


def _breaks_covered_ancestors(
    ctx: BuildContext,
    additions: list[tuple[Item, Category]],
    rev: dict[int, list[int]],
) -> bool:
    """Would jointly applying ``additions`` uncover a covered set above?

    For every category receiving new items (directly or by upward
    propagation), re-evaluate the sets designated to it.
    """
    by_cid = {cat.cid: cat for cat in ctx.tree.categories()}
    for cid, new_items in _incoming(additions).items():
        cat = by_cid[cid]
        for sid in rev.get(cid, ()):
            q = ctx.instance.get(sid)
            if not ctx.covers_with(q, cat):
                continue
            delta = ctx.delta(q)
            inter = len(cat.items & q.items) + len(new_items & q.items)
            c_size = len(cat.items) + len(new_items)
            score = variant_score_from_sizes(
                ctx.variant, len(q.items), c_size, inter, delta
            )
            if score <= 0.0:
                return True
    return False


def _assign_duplicate(ctx: BuildContext, item: Item, target: Category) -> None:
    """Place a duplicate, consuming branch bound unless it merely slides
    down the branch from its current minimal category."""
    slides = ctx.slides_down(item, target)
    ctx.tree.assign_item(target, item)
    ctx.record_assignment(item, target)
    if not slides:
        ctx.consume_bound(item)


def _cutoff_marginal_gain(
    ctx: BuildContext, item: Item, target: Category, rev: dict[int, list[int]]
) -> float:
    """Marginal gain (cutoff semantics) of adding an item to a category.

    Aggregates over the target and every ancestor the change in the
    designated sets' cutoff scores, with a vanishing raw-similarity term
    to break ties towards semantically better placements.
    """
    cutoff = Variant(
        kind=(
            SimilarityKind.JACCARD
            if ctx.variant.kind is SimilarityKind.PERFECT_RECALL
            else ctx.variant.kind
        ),
        mode=ScoreMode.CUTOFF,
        delta=ctx.variant.delta,
    )
    total = 0.0
    node: Category | None = target
    while node is not None:
        if item not in node.items:
            for sid in rev.get(node.cid, ()):
                q = ctx.instance.get(sid)
                delta = ctx.delta(q)
                q_size = len(q.items)
                inter = len(node.items & q.items)
                c_size = len(node.items)
                in_q = 1 if item in q.items else 0
                old = variant_score_from_sizes(
                    cutoff, q_size, c_size, inter, delta
                )
                new = variant_score_from_sizes(
                    cutoff, q_size, c_size + 1, inter + in_q, delta
                )
                old_raw = raw_similarity_from_sizes(
                    cutoff.kind, q_size, c_size, inter
                )
                new_raw = raw_similarity_from_sizes(
                    cutoff.kind, q_size, c_size + 1, inter + in_q
                )
                total += q.weight * (new - old)
                total += 1e-9 * q.weight * (new_raw - old_raw)
        node = node.parent
    return total


def assign_duplicates(
    ctx: BuildContext, selected: list[InputSet], duplicates: set[Item]
) -> None:
    """The greedy duplicate-assignment loop plus the leftover pass.

    Each round re-scores only the *dirty* sets; every other set keeps its
    entry from the round before. A set is dirty when it holds an item
    placed in the last round, when its designated category gained an
    item, or when the category currently covering it gained an item; a
    best set that fails dirties only itself. The rule is exact because
    an item outside ``q`` can only lower ``q``'s score against a
    category: ``q`` gains coverage only through its own items and loses
    it only through its cover.
    """
    rev = _designated_by_cid(ctx)
    failed: set[int] = set()
    sets_with: dict[Item, list[int]] = {}
    for q in selected:
        for item in q.items:
            if item in duplicates:
                sets_with.setdefault(item, []).append(q.sid)
    # Gain factors of the sets still uncovered but coverable, and which
    # category covers each covered set (cid -> sids, for invalidation).
    gains: dict[int, float] = {}
    gaps: dict[int, int] = {}
    cover_of: dict[int, int] = {}
    covering: dict[int, set[int]] = {}

    def rescore(sid: int) -> None:
        gains.pop(sid, None)
        gaps.pop(sid, None)
        old_cover = cover_of.pop(sid, None)
        if old_cover is not None:
            covering[old_cover].discard(sid)
        if sid in failed:
            return
        q = ctx.instance.get(sid)
        cover = ctx.cover_on_branch(q)
        if cover is not None:
            cover_of[sid] = cover.cid
            covering.setdefault(cover.cid, set()).add(sid)
            return
        gap = cover_gap(ctx, q)
        if gap is None:
            return
        available = _available_for(ctx, q, duplicates)
        if gap <= len(available):
            gains[sid] = _factor_from_gap(q, gap)
            gaps[sid] = gap

    dirty: Iterable[int] = [q.sid for q in selected]
    rounds = evaluations = 0
    while True:
        for sid in dirty:
            rescore(sid)
            evaluations += 1
        if not gains:
            break
        rounds += 1

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
            dirty = [best_sid]
            continue
        touched: set[int] = set()
        for cid in _incoming(additions):
            touched.update(rev.get(cid, ()))
            touched.update(covering.get(cid, ()))
        for item, target in additions:
            touched.update(sets_with[item])
            _assign_duplicate(ctx, item, target)
        if not ctx.covered_on_branch(best):
            # Defensive: the gap computation should guarantee coverage.
            failed.add(best_sid)
        dirty = touched
    tracer = get_tracer()
    tracer.count("assign.rounds", rounds)
    tracer.count("assign.set_evaluations", evaluations)

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
