"""Brute-force reference answers for the serving read path.

:class:`TreeOracle` answers every read op of
:class:`repro.serving.SnapshotIndexes` by walking a
:class:`~repro.core.tree.CategoryTree` directly — no compiled sections,
no postings, no intervals, no binary searches. Scores come from the
scalar :func:`~repro.core.similarity.variant_score_from_sizes` over
plain set intersections with the offline scorer's tie-break (higher
precision, then greater depth) and the lower cid last; label search is
the offline :class:`~repro.search.SearchEngine`. The differential suites
compare the reader against it over buffers, mappings and shards.

:func:`assert_reads_match` is the shared comparison: every read op,
exact values, floats and dict orders.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.similarity import variant_score_from_sizes
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.search.engine import SearchEngine
from repro.serving import BestCategory


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

    def paths_to_root_batch(self, cids: Iterable[int]) -> dict[int, list[int]]:
        return {cid: self.path_to_root(cid) for cid in set(cids)}

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
    cids = [cat.cid for cat in oracle.cats]
    assert reader.paths_to_root_batch(cids) == oracle.paths_to_root_batch(cids)

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
