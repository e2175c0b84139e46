"""Incremental maintenance of the 2-/3-conflict structure.

A delta touching ``k`` of ``n`` sets invalidates only the pairs and
triples incident to the *dirty* sids (added ∪ reweighted — reweights
matter because the ranking comparator breaks size ties by weight, and
:func:`~repro.conflicts.pairwise.can_cover_together` is asymmetric in
rank orientation). Everything else is relabeled from the previous
build's :class:`~repro.conflicts.two_conflicts.PairwiseAnalysis` instead
of re-derived, so the cost scales with the churned neighborhood, not
with all ``O(n²)`` intersecting pairs.

Reuse is guarded, not assumed:

* every relabeled pair re-derives its (upper, lower) orientation under
  the new ranking — a flip forces reclassification and marks both
  endpoints *triple-dirty*, because rank flips are exactly what can
  create or destroy 3-conflicts among otherwise-clean sets;
* every kept triple is re-validated against the new analysis with the
  3-conflict rules of :mod:`repro.conflicts.three_conflicts`, applied
  one triple at a time.

The differential churn suite (tests/test_incremental_differential.py)
pins the output equal to a from-scratch :func:`compute_pairwise` +
:func:`compute_three_conflicts` at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conflicts.pairwise import can_cover_separately, can_cover_together
from repro.conflicts.ranking import rank_sets
from repro.conflicts.three_conflicts import Triple
from repro.conflicts.two_conflicts import Pair, PairwiseAnalysis
from repro.core.input_sets import OCTInstance
from repro.core.variants import Variant
from repro.incremental.delta import InstanceMatch

_CONFLICT = "conflict"
_MUST = "must_together"
_SEPARATELY = "can_separately"


@dataclass
class PairwiseUpdateStats:
    """How much pairwise work the delta actually re-did."""

    reused: int = 0
    reclassified: int = 0
    added: int = 0
    dropped: int = 0

    @property
    def total(self) -> int:
        return self.reused + self.reclassified + self.added


@dataclass
class TripleUpdateStats:
    reused: int = 0
    recomputed: int = 0
    dropped: int = 0


def _old_class(analysis: PairwiseAnalysis, pair: Pair) -> str:
    if pair in analysis.conflicts:
        return _CONFLICT
    if pair in analysis.must_together:
        return _MUST
    return _SEPARATELY


def update_pairwise(
    old_analysis: PairwiseAnalysis,
    new_instance: OCTInstance,
    match: InstanceMatch,
    variant: Variant,
) -> tuple[PairwiseAnalysis, PairwiseUpdateStats, set[int]]:
    """Relabel the clean pairs, reclassify the dirty ones.

    Returns the new analysis (bit-identical in content to a from-scratch
    :func:`~repro.conflicts.two_conflicts.compute_pairwise`), update
    stats, and the set of *triple-dirty* sids — endpoints of pairs whose
    rank orientation or class changed, which the 3-conflict update must
    treat as dirty on top of ``match.dirty``.
    """
    ranking = rank_sets(new_instance)
    analysis = PairwiseAnalysis(ranking=ranking)
    stats = PairwiseUpdateStats()
    triple_dirty: set[int] = set()

    renames = match.renames
    dirty = match.dirty
    uniform_b1 = new_instance.uniform_bound() == 1

    buckets = {
        _CONFLICT: analysis.conflicts,
        _MUST: analysis.must_together,
        _SEPARATELY: analysis.can_separately,
    }

    def classify(a: int, b: int, shared: int) -> str:
        upper_sid, lower_sid = analysis.key(a, b)
        upper = new_instance.get(upper_sid)
        lower = new_instance.get(lower_sid)
        if uniform_b1:
            shared_b1 = shared
        else:
            shared_b1 = sum(
                1
                for item in upper.items & lower.items
                if new_instance.bound(item) == 1
            )
        delta_upper = new_instance.effective_threshold(upper, variant.delta)
        delta_lower = new_instance.effective_threshold(lower, variant.delta)
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
            cls = _SEPARATELY
        elif together:
            cls = _MUST
        else:
            cls = _CONFLICT
        buckets[cls].add(pair)
        return cls

    # 1. Old pairs: drop (endpoint removed), reclassify (endpoint dirty
    #    or orientation flipped), or relabel verbatim.
    for old_pair, shared in old_analysis.intersections.items():
        new_upper = renames.get(old_pair[0])
        new_lower = renames.get(old_pair[1])
        if new_upper is None or new_lower is None:
            stats.dropped += 1
            continue
        if new_upper in dirty or new_lower in dirty:
            classify(new_upper, new_lower, shared)
            stats.reclassified += 1
            continue
        if analysis.key(new_upper, new_lower) != (new_upper, new_lower):
            # The pair's rank orientation flipped even though neither
            # endpoint changed — a tie-order shift. Reclassify (the
            # together-rule is orientation-sensitive) and let the triple
            # update re-derive everything these sids participate in.
            triple_dirty.add(new_upper)
            triple_dirty.add(new_lower)
            classify(new_upper, new_lower, shared)
            stats.reclassified += 1
            continue
        cls = _old_class(old_analysis, old_pair)
        pair = (new_upper, new_lower)
        analysis.intersections[pair] = shared
        buckets[cls].add(pair)
        stats.reused += 1

    # 2. New pairs: every intersecting pair with an added endpoint.
    #    (Removed/reweighted sets keep their items, so no other new
    #    pairs can exist.)
    if match.added:
        index = new_instance.sets_containing()
        seen: set[tuple[int, int]] = set()
        for sid in sorted(match.added):
            q = new_instance.get(sid)
            partners: set[int] = set()
            for item in q.items:
                for other in index.get(item, ()):
                    if other.sid != sid:
                        partners.add(other.sid)
            for partner in partners:
                undirected = (min(sid, partner), max(sid, partner))
                if undirected in seen:
                    continue
                seen.add(undirected)
                shared = len(q.items & new_instance.get(partner).items)
                classify(sid, partner, shared)
                stats.added += 1

    return analysis, stats, triple_dirty


def _triple_still_valid(
    a: int, b: int, c: int, analysis: PairwiseAnalysis
) -> bool:
    """The reference 3-conflict rules, applied to one candidate triple."""
    rank_of = analysis.ranking.rank_of
    for middle, x, y in ((a, b, c), (b, a, c), (c, a, b)):
        if not (
            analysis.is_must_together(middle, x)
            and analysis.is_must_together(middle, y)
        ):
            continue
        first = x if rank_of[x] < rank_of[y] else y
        third = y if first is x else x
        if rank_of[middle] < rank_of[first]:
            continue
        if analysis.is_must_together(first, third):
            continue
        if analysis.is_conflict(first, third):
            continue
        return True
    return False


def update_three_conflicts(
    old_triples: set[Triple],
    analysis: PairwiseAnalysis,
    match: InstanceMatch,
    triple_dirty: set[int],
) -> tuple[set[Triple], TripleUpdateStats]:
    """Carry over clean triples, re-enumerate around dirty sids.

    ``triple_dirty`` comes from :func:`update_pairwise`; the effective
    dirty set is its union with ``match.dirty``. A triple is kept only
    if all members are clean *and* it still passes the verbatim
    reference rules under the new analysis; new triples are found by
    replaying the reference enumeration restricted to middles adjacent
    to a dirty sid.
    """
    stats = TripleUpdateStats()
    rank_of = analysis.ranking.rank_of
    renames = match.renames
    dirty = set(match.dirty) | set(triple_dirty)
    adjacency = analysis.must_neighbors()

    triples: set[Triple] = set()
    for tri in old_triples:
        mapped = tuple(renames.get(sid) for sid in tri)
        if any(sid is None for sid in mapped):
            stats.dropped += 1
            continue
        if any(sid in dirty for sid in mapped):
            stats.dropped += 1  # re-derived below if still real
            continue
        if not _triple_still_valid(*mapped, analysis):
            stats.dropped += 1
            continue
        triples.add(tuple(sorted(mapped, key=lambda sid: rank_of[sid])))
        stats.reused += 1

    # Local re-enumeration: a triple with a dirty member has its middle
    # either dirty or must-adjacent to a dirty sid.
    mids = set(dirty)
    for sid in dirty:
        mids |= adjacency.get(sid, set())
    for middle in mids:
        neighbors = adjacency.get(middle, set())
        if len(neighbors) < 2:
            continue
        middle_dirty = middle in dirty
        ordered = sorted(neighbors, key=lambda sid: rank_of[sid])
        for i, first in enumerate(ordered):
            for third in ordered[i + 1 :]:
                if not (
                    middle_dirty or first in dirty or third in dirty
                ):
                    continue
                if rank_of[middle] < rank_of[first]:
                    continue
                if analysis.is_must_together(first, third):
                    continue
                if analysis.is_conflict(first, third):
                    continue
                tri = tuple(
                    sorted(
                        (first, middle, third),
                        key=lambda sid: rank_of[sid],
                    )
                )
                if tri not in triples:
                    stats.recomputed += 1
                    triples.add(tri)

    return triples, stats
