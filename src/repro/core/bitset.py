"""Sparse incidence kernel for batched set-intersection counts.

The pairwise stages of CTCR (2-conflict classification) and CCT (set
embeddings) need the intersection size of every pair of input sets that
actually overlap. Doing that through Python ``set`` intersections costs
a dictionary operation per shared item pair; :class:`BitsetUniverse`
instead maps the family onto flat ``(row, item-code)`` incidence arrays
over a shared item universe, and
:meth:`BitsetUniverse.intersecting_pairs` enumerates only the pairs that
share items — work proportional to the number of shared item pairs, all
in vectorized NumPy. That sparsity is the one the paper relies on.

:func:`raw_similarity_from_size_arrays` turns the counts into
similarities with the same IEEE operations as
:func:`repro.core.similarity.raw_similarity_from_sizes`, so results are
bit-identical to the scalar closed forms; score conventions match
:mod:`repro.core.similarity` (``jaccard(emptyset, emptyset) = 1``,
``recall(emptyset, C) = 1``, ``precision(q, emptyset) = 0``).

:func:`mask_of` / :func:`iter_bits` are the scalar-row companion: Python
int bitsets for the 3-conflict and hypergraph-MIS enumerations.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Iterable, Sequence

import numpy as np

from repro.core.variants import SimilarityKind
from repro.observability import get_tracer


# ---------------------------------------------------------------------------
# Arbitrary-precision int bitsets. Enumeration-style consumers (the
# 3-conflict stage, the hypergraph branch-and-bound) want cheap single-row
# AND/iterate over sparse adjacency. Python ints are packed 64-bit words
# under the hood, so one AND is a C-level word loop and these helpers never
# need NumPy at all.
# ---------------------------------------------------------------------------


def mask_of(indices: Iterable[int]) -> int:
    """Pack bit positions into one arbitrary-precision int bitset.

    >>> bin(mask_of([0, 2, 5]))
    '0b100101'
    """
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int):
    """Yield the set bit positions of an int bitset, ascending.

    >>> list(iter_bits(0b100101))
    [0, 2, 5]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def raw_similarity_from_size_arrays(
    kind: SimilarityKind,
    q_size: np.ndarray,
    c_size: np.ndarray,
    inter: np.ndarray,
) -> np.ndarray:
    """Vectorized ``raw_similarity_from_sizes`` over aligned size arrays.

    Elementwise (with broadcasting) over ``q_size``, ``c_size`` and
    ``inter``. Each entry performs the *same* IEEE operations as the
    scalar closed form in
    :func:`repro.core.similarity.raw_similarity_from_sizes`, so results
    are bit-identical to a pure-Python loop over the entries.
    """
    no_empty = bool(
        (q_size.size == 0 or q_size.min() > 0)
        and (c_size.size == 0 or c_size.min() > 0)
    )
    if kind is SimilarityKind.JACCARD:
        union = q_size + c_size - inter
        if no_empty:  # union >= max(q, c) > 0 everywhere
            return inter / union
        return np.where(union == 0, 1.0, inter / np.where(union == 0, 1, union))
    if kind is SimilarityKind.F1:
        denom = q_size + c_size
        if no_empty:
            return 2.0 * inter / denom
        return np.where(
            denom == 0, 1.0, 2.0 * inter / np.where(denom == 0, 1, denom)
        )
    # Perfect recall embeds as (precision + recall) / 2 (see
    # repro.core.similarity.raw_similarity): empty C has precision 0,
    # empty q has recall 1.
    if no_empty:
        return (inter / c_size + inter / q_size) / 2.0
    prec = np.where(c_size == 0, 0.0, inter / np.where(c_size == 0, 1, c_size))
    rec = np.where(q_size == 0, 1.0, inter / np.where(q_size == 0, 1, q_size))
    return (prec + rec) / 2.0


class BitsetUniverse:
    """A family of item sets as incidence arrays over an indexed universe.

    ``sets`` may be any sequence of iterables of hashable items (plain
    sets, frozensets, :class:`InputSet` item sets). The universe defaults
    to their union; pass ``universe`` explicitly to index a larger item
    space (every set must be a subset of it). ``items`` lists the
    universe in item-code order.
    """

    def __init__(
        self,
        sets: Sequence[Iterable],
        universe: Iterable | None = None,
    ) -> None:
        families = [
            s if isinstance(s, frozenset) else frozenset(s) for s in sets
        ]
        if universe is None:
            union: "set | frozenset" = set()
            for s in families:
                union |= s
        elif isinstance(universe, (set, frozenset)):
            union = universe
        else:
            union = set(universe)
        self.n_sets = len(families)
        self.sizes = np.fromiter(
            map(len, families), dtype=np.int64, count=self.n_sets
        )
        flat = list(chain.from_iterable(families))

        # Item -> code mapping. Integer universes are mapped wholesale
        # through a C-level sort + searchsorted; everything else (string
        # ids, mixed test universes) goes through a Python dict, which
        # benchmarks faster than numpy's string comparisons. Every public
        # result is invariant to the code order either way. A one-element
        # probe gates the array attempt so string universes skip the
        # wasted ndarray round-trip entirely.
        cols = None
        items: tuple = ()
        if union and isinstance(next(iter(union)), (int, np.integer)):
            try:
                uni_arr = np.asarray(list(union))
                if uni_arr.ndim == 1 and uni_arr.dtype.kind in "iu":
                    uni_arr = np.sort(uni_arr)
                    items = tuple(uni_arr.tolist())
                    cols = np.searchsorted(
                        uni_arr, np.asarray(flat, dtype=uni_arr.dtype)
                    ).astype(np.int64)
            except (TypeError, ValueError):
                cols = None
        if cols is None:
            items = tuple(union)
            index = dict(zip(items, count()))
            cols = np.fromiter(
                map(index.__getitem__, flat),
                dtype=np.int64,
                count=len(flat),
            )
        self.items = items
        self.n_items = len(items)
        self._cols = cols
        self._rows = np.repeat(
            np.arange(self.n_sets, dtype=np.int64), self.sizes
        )

    @classmethod
    def from_instance(cls, instance) -> "BitsetUniverse":
        """Index an :class:`OCTInstance`'s input sets over its universe.

        Rows follow ``instance.sets`` order.
        """
        return cls([q.items for q in instance.sets], universe=instance.universe)

    def intersecting_pairs(
        self, item_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All pairs ``i < j`` with a nonempty intersection, with sizes.

        Returns ``(ii, jj, counts)`` arrays sorted by ``(ii, jj)``.
        Output-sensitive: the work is proportional to the number of
        shared (item, pair) incidences, not to ``n^2`` — items are grouped
        by degree so the pair enumeration is a handful of vectorized
        gathers. ``item_mask`` (bool, per item code) optionally restricts
        the count to a subset of the universe, e.g. the branch-bound-1
        items of the 2-conflict separate test.
        """
        rows, cols = self._rows, self._cols
        if item_mask is not None:
            keep = item_mask[cols]
            rows, cols = rows[keep], cols[keep]
        empty = np.empty(0, dtype=np.int64)
        if rows.size == 0:
            return empty, empty, empty
        order = np.argsort(cols)
        r, c = rows[order], cols[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(c)) + 1)
        )
        lengths = np.diff(np.concatenate((starts, [c.size])))
        n = self.n_sets
        key_parts = []
        for d in np.unique(lengths):
            d = int(d)
            if d < 2:
                continue
            group_starts = starts[lengths == d]
            # Rows within one item's group arrive in arbitrary order (the
            # sort need not be stable), so orient each pair explicitly.
            block = r[group_starts[:, None] + np.arange(d)]
            iu, ju = np.triu_indices(d, k=1)
            a = block[:, iu].ravel()
            b = block[:, ju].ravel()
            key_parts.append(np.minimum(a, b) * n + np.maximum(a, b))
        if not key_parts:
            return empty, empty, empty
        all_keys = np.concatenate(key_parts)
        if n * n <= 1 << 22:
            # Tiny key space: a dense bincount beats sorting the keys.
            tallies = np.bincount(all_keys, minlength=n * n)
            keys = np.flatnonzero(tallies)
            counts = tallies[keys]
        else:
            keys, counts = np.unique(all_keys, return_counts=True)
        get_tracer().count("bitset.pairs_enumerated", int(keys.size))
        return keys // n, keys % n, counts.astype(np.int64)
