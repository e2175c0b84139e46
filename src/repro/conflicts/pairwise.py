"""Pairwise cover predicates (paper Sections 3.1-3.3).

Two input sets can be *covered separately* when a valid tree can hold a
covering category for each on different branches, and *covered together*
when covering categories can sit on one branch (the upper category
belonging to the lower-ranked — larger — set). A pair that can be covered
neither way is a *2-conflict*; a pair that can only be covered together is
a *must-together* pair.

The closed-form feasibility tests below are the paper's, derived in
Section 3.3 for the Jaccard variants and extended analogously to F1 and
Perfect-Recall (see DESIGN.md Section 3 for the algebra), evaluated over
arrays of pairs at once:

* separately — each set ``q_i`` may drop at most ``x_i`` of its items
  from its covering category; the shared items (those with branch bound
  1) must be partitioned, so the test is ``|I| <= x1 + x2``.
* together — the lower category must keep ``y2`` items that are outside
  the upper set, and the upper category absorbs them; the test bounds
  ``y2`` by the upper set's tolerance for precision error.

All tests honour per-set thresholds, and items whose branch bound exceeds
1 are excluded from the shared-item count when testing separate covers
(they may legally appear on both branches). The scalar one-pair forms
are the differential oracle in ``tests/oracles.py``; they mirror these
expressions term for term (same grouping, same epsilons), so every pair
classifies bit for bit as they would.
"""

from __future__ import annotations

import numpy as _np

from repro.core.variants import SimilarityKind, Variant

_EPS = 1e-9


def max_removable_vec(variant: Variant, sizes, deltas):
    """``x_i`` for aligned per-set size/threshold arrays.

    How many of a set's items its covering category may drop: with
    precision kept perfect (the category a subset of the set), the
    similarity is a function of recall alone, and this is the largest
    item deficit that still clears the threshold.
    """
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
    intersection sizes. The upper set of a pair is the one with the
    smaller rank number (the lower-ranked, larger set).
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
