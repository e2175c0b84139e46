"""The one snapshot reader: every read op over the flat snapshot layout.

A :class:`SnapshotIndexes` answers every read-side question from the
sections of a compiled flat snapshot (:mod:`repro.serving.shm`), without
walking or mutating the tree:

* **item -> category postings** — for each item, the categories that
  contain it (pre-order) and the *minimal* (most-specific) ones, i.e.
  the item's branch/leaf placements, stored as delta varints;
* **label lookup** — free-text label search with the same tokenization
  and TF-IDF arithmetic as :class:`repro.search.SearchEngine`;
* **tree navigation** — sizes, depths, parents, children, and root
  paths over pre-order subtree intervals
  (:class:`repro.serving.succinct.EulerTour`).

The reader is built one of two ways, and both construct this class:
``SnapshotIndexes(tree, variant)`` compiles the tree into an
in-process ``bytes`` buffer, and :meth:`SnapshotIndexes.open` reads a
compiled buffer or maps a store's flat file read-only. "In-memory vs
mmap" is only "buffer vs mapping", so the answers of the two are
identical by construction.

``best_category`` picks its answer from the intersection counts with
:func:`repro.core.scoring.best_cover`, the rule the offline
:func:`repro.core.scoring.score_tree` uses, so scores and tie-breaks
(higher precision, then greater depth, then lower cid) are
bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.core.scoring import best_cover
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.observability import get_tracer
from repro.search.analyzer import tokenize
from repro.search.engine import SearchHit
from repro.serving.shm import (
    FlatCategory,
    _ChildrenMapping,
    _decode_rows,
    _FlatFile,
    _ParentMapping,
    _RowMapping,
    compile_flat_indexes,
    encode_item,
)
from repro.serving.snapshot import variant_from_spec
from repro.serving.succinct import EulerTour

Item = Hashable


@dataclass(frozen=True)
class BestCategory:
    """The winning category for one query, with its score breakdown."""

    cid: int
    label: str
    score: float
    precision: float
    depth: int


class SnapshotIndexes:
    """Immutable read-side indexes over one compiled flat snapshot.

    All per-category state is read through zero-copy views of the
    snapshot's sections; the only per-process memory beyond the buffer
    or mapping is this object and the tiny header dicts.
    """

    def __init__(self, tree: CategoryTree, variant: Variant) -> None:
        """Compile ``tree`` into one in-process buffer and open it."""
        self._open(compile_flat_indexes(tree, variant))

    @classmethod
    def open(cls, source: str | Path | bytes) -> "SnapshotIndexes":
        """Open a compiled flat snapshot: a ``bytes`` buffer or a path."""
        indexes = cls.__new__(cls)
        indexes._open(source)
        return indexes

    def _open(self, source: str | Path | bytes) -> None:
        flat = _FlatFile(source)
        self._flat = flat
        header = flat.header
        views = flat._views
        self._cat_cids = views["cat_cids"]
        self.variant = variant_from_spec(header["variant"])
        self.root_cid = int(header["root_cid"])
        self._n_categories = int(header["n_categories"])
        self._n_label_docs = int(header["n_label_docs"])
        self.sizes = _RowMapping(flat, "cat_size")
        self.depths = _RowMapping(flat, "cat_depth")
        self.parent_of = _ParentMapping(flat, "cat_parent")
        self.children_of = _ChildrenMapping(flat)
        self._euler = EulerTour(views["cat_parent"], views["cat_tout"])

    # -- simple lookups ------------------------------------------------------

    @property
    def n_categories(self) -> int:
        return self._n_categories

    @property
    def uses_bitset(self) -> bool:
        """Always False: the dense bitset kernel is not part of serving."""
        return False

    def _row(self, cid: int) -> int:
        return self.sizes._row(cid)

    def _raw_label(self, row: int) -> str:
        views = self._flat._views
        offsets = views["cat_label_off"]
        return bytes(
            views["cat_labels"][offsets[row]: offsets[row + 1]]
        ).decode("utf-8")

    def category(self, cid: int) -> FlatCategory:
        """The category view for a cid; raises ``KeyError`` when unknown."""
        row = self._row(cid)
        views = self._flat._views
        return FlatCategory(
            cid=cid,
            label=self._raw_label(row) or None,
            depth=views["cat_depth"][row],
            n_items=views["cat_size"][row],
        )

    def label_of(self, cid: int) -> str:
        return self._raw_label(self._row(cid)) or f"C{cid}"

    def _item_rows(self, item: Item, placements: bool) -> Sequence[int]:
        key = encode_item(item)
        if key is None:
            return ()
        flat = self._flat
        code = flat.find_item(key)
        if code is None:
            return ()
        get_tracer().count("serving.succinct.postings_decoded")
        return _decode_rows(*(flat.place if placements else flat.post), code)

    def placements(self, item: Item) -> tuple[int, ...]:
        """The most-specific categories containing an item (pre-order)."""
        cat_cids = self._cat_cids
        return tuple(cat_cids[row] for row in self._item_rows(item, True))

    def postings(self, item: Item) -> tuple[int, ...]:
        """All categories containing an item (pre-order)."""
        cat_cids = self._cat_cids
        return tuple(cat_cids[row] for row in self._item_rows(item, False))

    # -- tree navigation -----------------------------------------------------

    def path_to_root(self, cid: int) -> list[int]:
        """Root-to-``cid`` cid path, inclusive (no scan: O(answer))."""
        cat_cids = self._cat_cids
        rows = self._euler.walk_to_root(self._row(cid))
        return [cat_cids[row] for row in rows]

    def is_ancestor(self, ancestor_cid: int, cid: int) -> bool:
        """Whether ``ancestor_cid`` lies on ``cid``'s root path (inclusive).

        One pre-order interval range check.
        """
        return self._euler.is_ancestor(
            self._row(ancestor_cid), self._row(cid)
        )

    # -- label search --------------------------------------------------------

    def _idf(self, df: int) -> float:
        # Identical arithmetic to repro.search.index.InvertedIndex.idf.
        return math.log(1.0 + self._n_label_docs / (1.0 + df))

    def find_labels(self, query: str, top_k: int | None = 10):
        """Scored label hits, replicating ``SearchEngine.search`` exactly.

        Same tokenization, same idf smoothing, same (sorted-token) weight
        accumulation order — so relevance floats match the offline
        engine bit for bit, in any process.
        """
        flat = self._flat
        tokens = tokenize(query)
        if not tokens:
            return []
        weights: dict[str, float] = {}
        token_ids: dict[str, int | None] = {}
        for token in sorted(set(tokens)):
            ti = flat.find_token(token)
            token_ids[token] = ti
            df = flat._views["tok_df"][ti] if ti is not None else 0
            weights[token] = self._idf(df)
        best_possible = sum(weights.values())
        if best_possible <= 0:
            return []
        cat_cids = self._cat_cids
        tok_post = flat._views["tok_post"]
        tok_post_off = flat._views["tok_post_off"]
        scores: dict[int, float] = {}
        for token, weight in weights.items():
            ti = token_ids[token]
            if ti is None:
                continue
            for i in range(tok_post_off[ti], tok_post_off[ti + 1]):
                doc_id = cat_cids[tok_post[i]]
                scores[doc_id] = scores.get(doc_id, 0.0) + weight
        hits = [
            SearchHit(doc_id=doc_id, relevance=score / best_possible)
            for doc_id, score in scores.items()
        ]
        hits.sort(key=lambda h: (-h.relevance, str(h.doc_id)))
        if top_k is not None:
            hits = hits[:top_k]
        return hits

    # -- query scoring -------------------------------------------------------

    def intersection_counts(self, items: frozenset) -> dict[int, int]:
        """``{cid: |q ∩ C|}`` for the nonzero categories, pre-order.

        Each known item contributes one count per decoded posting row.
        """
        flat = self._flat
        counts: dict[int, int] = {}
        n_known = 0
        for item in items:
            key = encode_item(item)
            if key is None:
                continue
            code = flat.find_item(key)
            if code is None:
                continue
            n_known += 1
            for row in _decode_rows(*flat.post, code):
                counts[row] = counts.get(row, 0) + 1
        if n_known:
            get_tracer().count("serving.succinct.postings_decoded", n_known)
        cat_cids = self._cat_cids
        return {cat_cids[row]: counts[row] for row in sorted(counts)}

    def best_category(
        self,
        items: Iterable[Item],
        variant: Variant | None = None,
        delta: float | None = None,
    ) -> BestCategory | None:
        """The category scoring best against a query item set.

        Scoring is the offline rule itself,
        :func:`repro.core.scoring.best_cover`, over the nonzero
        intersections. Returns None when no category scores above zero
        (the query is not covered by this tree under the variant).
        """
        variant = variant if variant is not None else self.variant
        effective_delta = delta if delta is not None else variant.delta
        q = items if isinstance(items, frozenset) else frozenset(items)
        best = best_cover(
            self.intersection_counts(q), len(q), self.sizes, self.depths,
            variant, effective_delta,
        )
        if best is None:
            return None
        cid, score, precision = best
        return BestCategory(
            cid=cid,
            label=self.label_of(cid),
            score=score,
            precision=precision,
            depth=self.depths[cid],
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the file descriptor (the mapping follows its views)."""
        self._flat.close()

    def __enter__(self) -> "SnapshotIndexes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

