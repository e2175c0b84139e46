"""Enumeration of 2-conflicts and must-together pairs (Algorithm 1, lines 2-5).

Only intersecting pairs need examining: disjoint sets can always be
covered separately, so they are never conflicts and never must-together.
The intersecting pairs and their sizes come from the sparse incidence
kernel (:meth:`repro.core.bitset.BitsetUniverse.intersecting_pairs`),
whose cost is proportional to the number of actually-overlapping pairs —
the sparsity the paper relies on — and every pair is classified at once
by the vectorized closed forms of :mod:`repro.conflicts.pairwise`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.conflicts.pairwise import classify_pairs_vec
from repro.conflicts.ranking import Ranking, rank_sets
from repro.core.bitset import BitsetUniverse
from repro.core.input_sets import OCTInstance
from repro.core.variants import Variant
from repro.observability import get_tracer

Pair = tuple[int, int]  # (upper sid, lower sid) — upper ranks first


@dataclass
class PairwiseAnalysis:
    """Classification of every intersecting pair of input sets.

    ``conflicts`` holds 2-conflicts; ``must_together`` the pairs that can
    only be covered on one branch; ``can_separately`` the intersecting
    pairs for which separate branches are feasible (disjoint pairs are
    implicitly separable and not listed). All pairs are keyed as
    ``(upper_sid, lower_sid)`` in ranking order.
    """

    ranking: Ranking
    conflicts: set[Pair] = field(default_factory=set)
    must_together: set[Pair] = field(default_factory=set)
    can_separately: set[Pair] = field(default_factory=set)
    intersections: dict[Pair, int] = field(default_factory=dict)

    def key(self, a: int, b: int) -> Pair:
        """Canonical (upper, lower) key for a set-id pair."""
        if self.ranking.rank_of[a] < self.ranking.rank_of[b]:
            return (a, b)
        return (b, a)

    def is_conflict(self, a: int, b: int) -> bool:
        return self.key(a, b) in self.conflicts

    def is_must_together(self, a: int, b: int) -> bool:
        return self.key(a, b) in self.must_together

    def must_neighbors(self) -> dict[int, set[int]]:
        """Adjacency view of the must-together relation."""
        adj: dict[int, set[int]] = {}
        for upper, lower in self.must_together:
            adj.setdefault(upper, set()).add(lower)
            adj.setdefault(lower, set()).add(upper)
        return adj


def compute_pairwise(
    instance: OCTInstance,
    variant: Variant,
    ranking: Ranking | None = None,
    universe: BitsetUniverse | None = None,
) -> PairwiseAnalysis:
    """Classify all intersecting pairs of an instance under a variant.

    Intersection counts come from the sparse incidence kernel, once over
    the whole universe and, when some item's branch bound exceeds 1, once
    more over the bound-1 items only (the shared items a separate cover
    must partition). ``universe`` passes an already-built kernel over
    ``instance.sets``, so a caller can time classification apart from
    building the incidence arrays.
    """
    ranking = ranking or rank_sets(instance)
    tracer = get_tracer()
    with tracer.span("conflicts.pairwise"):
        analysis = _classify(instance, variant, ranking, universe)
        tracer.count("conflicts.pairs_enumerated", len(analysis.intersections))
        tracer.count("conflicts.two_conflicts", len(analysis.conflicts))
        tracer.count("conflicts.must_together", len(analysis.must_together))
        return analysis


def _classify(
    instance: OCTInstance,
    variant: Variant,
    ranking: Ranking,
    universe: BitsetUniverse | None,
) -> PairwiseAnalysis:
    uni = universe if universe is not None else BitsetUniverse.from_instance(instance)
    ii, jj, inter = uni.intersecting_pairs()

    if instance.uniform_bound() == 1:
        shared_b1 = inter
    else:
        mask = np.fromiter(
            (instance.bound(item) == 1 for item in uni.items),
            dtype=bool,
            count=uni.n_items,
        )
        bi, bj, bcounts = uni.intersecting_pairs(item_mask=mask)
        shared_b1 = np.zeros(ii.size, dtype=np.int64)
        if bi.size:
            n = uni.n_sets
            pos = np.searchsorted(ii * n + jj, bi * n + bj)
            shared_b1[pos] = bcounts

    deltas = np.array(
        [instance.effective_threshold(q, variant.delta) for q in instance.sets]
    )
    ranks = np.array(
        [ranking.rank_of[q.sid] for q in instance.sets], dtype=np.int64
    )
    separately, together = classify_pairs_vec(
        variant, uni.sizes, deltas, ranks, ii, jj, inter, shared_b1
    )

    analysis = PairwiseAnalysis(ranking=ranking)
    sids_arr = np.fromiter(
        (q.sid for q in instance.sets), dtype=np.int64, count=len(instance.sets)
    )
    upper_is_i = ranks[ii] < ranks[jj]
    upper = np.where(upper_is_i, sids_arr[ii], sids_arr[jj])
    lower = np.where(upper_is_i, sids_arr[jj], sids_arr[ii])
    pairs = list(zip(upper.tolist(), lower.tolist()))
    analysis.intersections = dict(zip(pairs, inter.tolist()))

    def collect(mask) -> set:
        return set(
            zip(upper[mask].tolist(), lower[mask].tolist())
        )

    analysis.can_separately = collect(separately)
    analysis.must_together = collect(~separately & together)
    analysis.conflicts = collect(~separately & ~together)
    return analysis
