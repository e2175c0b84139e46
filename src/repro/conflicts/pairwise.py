"""Pairwise cover predicates (paper Sections 3.1-3.3).

Two input sets can be *covered separately* when a valid tree can hold a
covering category for each on different branches, and *covered together*
when covering categories can sit on one branch (the upper category
belonging to the lower-ranked — larger — set). A pair that can be covered
neither way is a *2-conflict*; a pair that can only be covered together is
a *must-together* pair.

The closed-form feasibility tests below are the paper's, derived in
Section 3.3 for the Jaccard variants and extended analogously to F1 and
Perfect-Recall (see DESIGN.md Section 3 for the algebra):

* separately — each set ``q_i`` may drop at most ``x_i`` of its items
  from its covering category; the shared items (those with branch bound
  1) must be partitioned, so the test is ``|I| <= x1 + x2``.
* together — the lower category must keep ``y2`` items that are outside
  the upper set, and the upper category absorbs them; the test bounds
  ``y2`` by the upper set's tolerance for precision error.

All tests honour per-set thresholds, and items whose branch bound exceeds
1 are excluded from the shared-item count when testing separate covers
(they may legally appear on both branches).
"""

from __future__ import annotations

import math

import numpy as _np

from repro.core.input_sets import InputSet
from repro.core.variants import SimilarityKind, Variant

_EPS = 1e-9


def _floor(x: float) -> int:
    return math.floor(x + _EPS)


def _ceil(x: float) -> int:
    return math.ceil(x - _EPS)


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
        return len(upper) >= delta_upper * union - _EPS

    if variant.kind is SimilarityKind.JACCARD:
        needed_lower = _ceil(delta_lower * len(lower))
        budget_upper = len(upper) * (1.0 - delta_upper) / delta_upper
    else:  # F1
        needed_lower = _ceil(len(lower) * delta_lower / (2.0 - delta_lower))
        budget_upper = 2.0 * len(upper) * (1.0 - delta_upper) / delta_upper
    y2 = max(0, needed_lower - intersection)
    return y2 <= budget_upper + _EPS


# ---------------------------------------------------------------------------
# Vectorized counterparts, used by compute_pairwise. The expressions mirror
# the scalar closed forms above term for term (same grouping, same
# epsilons) so every pair classifies bit-for-bit as the scalar forms would;
# tests/test_ctcr_equivalence.py checks this against a scalar oracle.
# ---------------------------------------------------------------------------


def max_removable_vec(variant: Variant, sizes, deltas):
    """``max_removable_items`` for aligned per-set size/threshold arrays."""
    if variant.kind is SimilarityKind.PERFECT_RECALL:
        return _np.zeros(len(sizes), dtype=_np.int64)
    if variant.kind is SimilarityKind.JACCARD:
        raw = _np.floor(sizes * (1.0 - deltas) + _EPS)
    else:  # F1, same algebra as the scalar form
        raw = _np.floor(
            sizes * (2.0 * (1.0 - deltas)) / (2.0 - deltas) + _EPS
        )
    return _np.where(deltas >= 1.0, 0, raw.astype(_np.int64))


def classify_pairs_vec(
    variant: Variant,
    sizes,
    deltas,
    ranks,
    ii,
    jj,
    inter,
    shared_bound1,
):
    """(can_separately, can_together) boolean arrays for pair positions.

    ``sizes``/``deltas``/``ranks`` are per-set arrays; ``ii``/``jj`` index
    the pairs into them; ``inter``/``shared_bound1`` are the per-pair
    intersection sizes. Orientation follows the ranking exactly as in
    :func:`can_cover_together`: the upper set is the one with the smaller
    rank number.
    """
    removable = max_removable_vec(variant, sizes, deltas)
    x1 = _np.minimum(removable[ii], shared_bound1)
    x2 = _np.minimum(removable[jj], shared_bound1)
    separately = shared_bound1 <= x1 + x2

    upper_is_i = ranks[ii] < ranks[jj]
    s_u = _np.where(upper_is_i, sizes[ii], sizes[jj])
    s_l = _np.where(upper_is_i, sizes[jj], sizes[ii])
    d_u = _np.where(upper_is_i, deltas[ii], deltas[jj])
    d_l = _np.where(upper_is_i, deltas[jj], deltas[ii])

    if variant.kind is SimilarityKind.PERFECT_RECALL:
        union = s_u + s_l - inter
        together = s_u >= d_u * union - _EPS
    else:
        if variant.kind is SimilarityKind.JACCARD:
            needed_lower = _np.ceil(d_l * s_l - _EPS)
            budget_upper = s_u * (1.0 - d_u) / d_u
        else:  # F1
            needed_lower = _np.ceil(s_l * d_l / (2.0 - d_l) - _EPS)
            budget_upper = 2.0 * s_u * (1.0 - d_u) / d_u
        y2 = _np.maximum(0, needed_lower - inter)
        together = y2 <= budget_upper + _EPS
    return separately, together
