"""Differential tests for CCT's embedding kernel and clustering engine.

``set_embeddings`` derives the similarity matrix from the sparse
incidence kernel with vectorized closed forms that mirror the scalar
ones IEEE-op for IEEE-op, so it must be *bit-identical* to
:func:`tests.oracles.set_embeddings_reference`, the pure-Python loop —
and whole CCT trees built from either matrix must be byte-identical on
every similarity variant. The NN-chain clustering engine is checked
against the greedy loop in :func:`tests.oracles.cluster_greedy_reference`
inside full CCT builds.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import CCT, set_embeddings
from repro.algorithms import cct as cct_module
from repro.clustering.dendrogram import Dendrogram
from repro.clustering.distance import distance_matrix
from repro.core import Variant, score_tree
from repro.io import tree_to_dict

from tests.oracles import cluster_greedy_reference, set_embeddings_reference
from tests.test_ctcr_equivalence import EQUIV_VARIANTS, random_instance


class TestEmbeddingEquivalence:
    """Reference loop vs kernel path: exact (bitwise) matrix equality."""

    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=lambda v: str(v))
    def test_random_instances(self, variant):
        for seed in range(5):
            instance = random_instance(seed)
            ref = set_embeddings_reference(instance, variant)
            fast = set_embeddings(instance, variant)
            assert np.array_equal(ref, fast)

    def test_paper_examples(self, figure2_instance, example32_instance, all_variants):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                ref = set_embeddings_reference(instance, variant)
                fast = set_embeddings(instance, variant)
                assert np.array_equal(ref, fast)

    def test_empty_instance(self):
        from repro.core.input_sets import OCTInstance

        instance = OCTInstance([], universe=[])
        ref = set_embeddings_reference(instance, Variant.exact())
        fast = set_embeddings(instance, Variant.exact())
        assert ref.shape == fast.shape == (0, 0)


def cct_fingerprint(instance, variant):
    tree = CCT().build(instance, variant)
    report = score_tree(tree, instance, variant)
    return tree_to_dict(tree), report.normalized, report.total, tree.to_text()


def assert_tree_matches_oracle(instance, variant, monkeypatch):
    """Default CCT == CCT whose embeddings come from the scalar oracle."""
    base = cct_fingerprint(instance, variant)
    with monkeypatch.context() as patch:
        patch.setattr(cct_module, "set_embeddings", set_embeddings_reference)
        oracle = cct_fingerprint(instance, variant)
    assert base == oracle


class TestCCTEngineGrid:
    """Kernel vs oracle embeddings: byte-identical CCT trees on every
    similarity variant, on random instances, the paper's examples and
    the tiny dataset."""

    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=lambda v: str(v))
    def test_engine_grid(self, variant, monkeypatch):
        for seed in (21, 22):
            assert_tree_matches_oracle(
                random_instance(seed, n_sets=25), variant, monkeypatch
            )

    def test_paper_examples_grid(
        self, figure2_instance, example32_instance, all_variants, monkeypatch
    ):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                assert_tree_matches_oracle(instance, variant, monkeypatch)

    @pytest.mark.slow
    def test_tiny_dataset_grid(self, tiny_dataset, monkeypatch):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.8)
        instance, _report = preprocess(tiny_dataset, variant)
        assert_tree_matches_oracle(instance, variant, monkeypatch)


def _greedy_clustering(vectors, linkage="average", metric="euclidean",
                       precomputed=None) -> Dendrogram:
    """``agglomerative_clustering``'s signature over the greedy oracle."""
    if precomputed is not None:
        dist = np.array(precomputed, dtype=np.float64)
    else:
        dist = distance_matrix(np.asarray(vectors, dtype=np.float64), metric)
    if dist.shape[0] == 1:
        return Dendrogram(n_leaves=1, merges=[])
    return cluster_greedy_reference(dist, linkage)


class TestClusterEngineContract:
    """NN-chain vs the greedy oracle loop inside the full CCT build.

    Merge orders differ on ties, so trees need not be byte-identical —
    but both engines must produce valid trees.
    """

    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=lambda v: str(v))
    def test_both_engines_build_valid_trees(self, variant, monkeypatch):
        instance = random_instance(13, n_sets=20)
        trees = [CCT().build(instance, variant)]
        with monkeypatch.context() as patch:
            patch.setattr(
                cct_module, "agglomerative_clustering", _greedy_clustering
            )
            trees.append(CCT().build(instance, variant))
        for tree in trees:
            tree.validate(
                universe=instance.universe, bound=instance.bound
            )
