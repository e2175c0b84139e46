"""Property tier for the succinct primitives (hypothesis, no I/O).

Random pre-order trees and random posting lists, checked against the
naive definitions: interval ancestor tests against path containment,
root walks against naive parent chasing, and the varint codec against
round-tripping. The serving layers above are covered differentially in
``tests/test_serving_succinct.py``; this tier pins the primitives the
whole read path stands on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Variant, make_instance
from repro.serving import (
    EulerTour,
    ServingEngine,
    decode_postings,
    encode_postings,
)
from repro.serving.succinct import concat_postings
from tests.oracles import TreeOracle


# A random pre-order tree. Contiguous pre-order means row v can only
# hang off the rightmost spine — an ancestor of row v-1 (or v-1
# itself); drawing from that set generates exactly the valid layouts.
@st.composite
def preorder_trees(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    parent = [-1]
    for v in range(1, n):
        spine = naive_path(parent, v - 1)
        parent.append(spine[draw(st.integers(0, len(spine) - 1))])
    return parent


def naive_path(parent, v):
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


class TestEulerTourProperties:
    @settings(max_examples=60, deadline=None)
    @given(preorder_trees())
    def test_ancestor_equals_path_containment(self, parent):
        tour = EulerTour.build(parent)
        for u in range(len(parent)):
            path = set(naive_path(parent, u))
            for v in range(len(parent)):
                assert tour.is_ancestor(v, u) == (v in path)

    @settings(max_examples=60, deadline=None)
    @given(preorder_trees())
    def test_walks_equal_naive_paths(self, parent):
        tour = EulerTour.build(parent)
        for v in range(len(parent)):
            # Walks are root-first.
            assert tour.walk_to_root(v) == naive_path(parent, v)[::-1]

    def test_rejects_non_preorder(self):
        with pytest.raises(ValueError, match="parent < row"):
            EulerTour.build([-1, 2, 0])
        # Topological but interleaved: node 1's subtree {1, 3} is split
        # by its sibling at row 2, so intervals cannot represent it.
        with pytest.raises(ValueError, match="contiguous pre-order"):
            EulerTour.build([-1, 0, 0, 1])
        with pytest.raises(ValueError, match="root"):
            EulerTour.build([0, 0])
        with pytest.raises(ValueError, match="zero nodes"):
            EulerTour.build([])


class TestVarintProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**40), unique=True
        ).map(sorted)
    )
    def test_round_trip(self, values):
        assert decode_postings(encode_postings(values)) == values

    def test_empty_round_trip(self):
        assert encode_postings([]) == b""
        assert decode_postings(b"") == []

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_postings([3, 3])
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_postings([5, 2])

    def test_rejects_truncated(self):
        blob = encode_postings([0, 1000])
        with pytest.raises(ValueError, match="truncated"):
            decode_postings(blob[:-1])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=500), unique=True
            ).map(sorted),
            max_size=8,
        )
    )
    def test_concat_offsets_slice_back(self, lists):
        blob, offsets = concat_postings(lists)
        assert len(offsets) == len(lists) + 1
        assert offsets[-1] == len(blob)
        for i, values in enumerate(lists):
            assert decode_postings(blob[offsets[i]: offsets[i + 1]]) == values


# Random catalogs for the end-to-end property: batched categorize over
# the reader equals the per-item loop over a brute-force walk of the tree.
_instances = st.lists(
    st.tuples(
        st.sets(
            st.one_of(st.integers(0, 12), st.sampled_from("abcdefgh")),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.1, max_value=5.0),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda pairs: make_instance(
        [p[0] for p in pairs], weights=[p[1] for p in pairs]
    )
)


class TestBatchedCategorizeProperty:
    @settings(max_examples=30, deadline=None)
    @given(_instances)
    def test_batched_equals_per_item(self, instance):
        from repro.algorithms import CTCR

        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(instance, variant)
        oracle = TreeOracle(tree, variant)
        engine = ServingEngine.from_tree(tree, variant, cache_size=0)
        items = sorted(instance.universe, key=str)
        items.append("__unknown__")
        batched = engine.categorize_items(items)
        assert batched == [engine.categorize_item(item) for item in items]
        assert batched == [oracle.categorize(item) for item in items]
