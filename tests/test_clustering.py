"""Tests for HAC and dendrograms, cross-checked against scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering import (
    Dendrogram,
    Merge,
    agglomerative_clustering,
    distance_matrix,
    pairwise_cosine,
    pairwise_euclidean,
)

from tests.oracles import cluster_greedy_reference


class TestDistances:
    def test_euclidean_simple(self):
        d = pairwise_euclidean(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert math.isclose(d[0, 1], 5.0)
        assert d[0, 0] == 0.0

    def test_euclidean_symmetric(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        d = pairwise_euclidean(x)
        assert np.allclose(d, d.T)
        assert (d >= 0).all()

    def test_cosine_orthogonal(self):
        d = pairwise_cosine(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert math.isclose(d[0, 1], 1.0)

    def test_cosine_parallel(self):
        d = pairwise_cosine(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert math.isclose(d[0, 1], 0.0, abs_tol=1e-12)

    def test_cosine_zero_vectors(self):
        d = pairwise_cosine(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        assert math.isclose(d[0, 2], 0.0)  # zero ~ zero
        assert math.isclose(d[0, 1], 1.0)  # zero far from nonzero

    def test_unknown_metric(self):
        with pytest.raises(
            ValueError,
            match=r"unknown metric 'chebyshev'; expected one of "
            r"\['cosine', 'euclidean'\]",
        ):
            distance_matrix(np.zeros((2, 2)), "chebyshev")


class TestDendrogram:
    def test_merge_count_enforced(self):
        with pytest.raises(ValueError):
            Dendrogram(n_leaves=3, merges=[])

    def test_single_leaf(self):
        d = Dendrogram(n_leaves=1, merges=[])
        assert d.root_id == 0
        assert d.leaves_under(0) == [0]

    def test_leaves_under(self):
        merges = [Merge(0, 1, 1.0, 3), Merge(2, 3, 2.0, 4)]
        d = Dendrogram(n_leaves=3, merges=merges)
        assert d.leaves_under(3) == [0, 1]
        assert d.leaves_under(4) == [0, 1, 2]
        assert d.root_id == 4

    def test_cut(self):
        merges = [Merge(0, 1, 1.0, 3), Merge(2, 3, 2.0, 4)]
        d = Dendrogram(n_leaves=3, merges=merges)
        assert d.cut(1.5) == [[0, 1], [2]]
        assert d.cut(2.5) == [[0, 1, 2]]
        assert d.cut(0.5) == [[0], [1], [2]]


class TestAgglomerative:
    def test_two_points(self):
        d = agglomerative_clustering(np.array([[0.0], [1.0]]))
        assert len(d.merges) == 1
        assert math.isclose(d.merges[0].height, 1.0)

    def test_obvious_clusters_merge_first(self):
        x = np.array([[0.0], [0.1], [10.0], [10.1]])
        d = agglomerative_clustering(x)
        first_two = {d.merges[0].left, d.merges[0].right} | {
            d.merges[1].left,
            d.merges[1].right,
        }
        assert {0, 1} <= first_two and {2, 3} <= first_two

    def test_average_linkage_heights_monotone(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(20, 4))
        d = agglomerative_clustering(x, linkage="average")
        heights = [m.height for m in d.merges]
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_all_leaves_in_root(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 2))
        d = agglomerative_clustering(x)
        assert d.leaves_under(d.root_id) == list(range(9))

    def test_bad_linkage(self):
        with pytest.raises(ValueError):
            agglomerative_clustering(np.zeros((2, 2)), linkage="ward")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            agglomerative_clustering(np.zeros((0, 2)))

    def test_precomputed_distance(self):
        dist = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [9.0, 9.0, 0.0]])
        d = agglomerative_clustering(None, precomputed=dist)
        assert {d.merges[0].left, d.merges[0].right} == {0, 1}

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_matches_scipy_merge_heights(self, linkage):
        scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 3))
        ours = agglomerative_clustering(x, linkage=linkage)
        theirs = scipy_hier.linkage(x, method=linkage, metric="euclidean")
        ours_heights = sorted(m.height for m in ours.merges)
        theirs_heights = sorted(theirs[:, 2])
        assert np.allclose(ours_heights, theirs_heights, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 3)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_structural_invariants(self, x):
        for d in (
            agglomerative_clustering(x),
            cluster_greedy_reference(distance_matrix(x, "euclidean"), "average"),
        ):
            n = x.shape[0]
            assert len(d.merges) == n - 1
            # Every node id is used exactly once as a merge operand
            # except the root.
            used = [m.left for m in d.merges] + [m.right for m in d.merges]
            assert sorted(used + [d.root_id]) == list(range(2 * n - 1))


def _leaf_sets(d):
    """The merge topology as a sorted list of leaf index tuples."""
    return sorted(tuple(d.leaves_under(m.node_id)) for m in d.merges)


class TestNNChainEngine:
    """The NN-chain engine against the legacy greedy loop and scipy.

    The legacy loop is :func:`tests.oracles.cluster_greedy_reference`.

    The engines visit merges in different orders, so Lance–Williams
    averages accumulate differently: topologies must match exactly on
    tie-free inputs, heights only to floating-point tolerance.
    """

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_legacy_engine(self, linkage, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 4))
        chain = agglomerative_clustering(x, linkage=linkage)
        greedy = cluster_greedy_reference(
            distance_matrix(x, "euclidean"), linkage
        )
        assert _leaf_sets(chain) == _leaf_sets(greedy)
        assert np.allclose(
            [m.height for m in chain.merges],
            [m.height for m in greedy.merges],
            atol=1e-9,
        )

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_matches_scipy_topology_and_heights(self, linkage):
        scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(11)
        x = rng.normal(size=(25, 3))
        ours = agglomerative_clustering(x, linkage=linkage)
        theirs = scipy_hier.linkage(x, method=linkage, metric="euclidean")
        assert np.allclose(
            [m.height for m in ours.merges], theirs[:, 2], atol=1e-8
        )
        sets = {i: (i,) for i in range(25)}
        scipy_leafsets = []
        for t, (a, b, _h, _size) in enumerate(theirs):
            merged = tuple(sorted(sets[int(a)] + sets[int(b)]))
            sets[25 + t] = merged
            scipy_leafsets.append(merged)
        assert _leaf_sets(ours) == sorted(scipy_leafsets)

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        d = agglomerative_clustering(x)
        heights = [m.height for m in d.merges]
        assert all(b >= a for a, b in zip(heights, heights[1:]))

    def test_tied_chain_terminates_deterministically(self):
        # Equidistant collinear points: every nearest-neighbor link is
        # tied; the chain must not oscillate and the result is the
        # left-leaning dendrogram.
        x = np.arange(8, dtype=np.float64)[:, None]
        d = agglomerative_clustering(x, linkage="single")
        assert len(d.merges) == 7
        assert d.leaves_under(d.root_id) == list(range(8))
