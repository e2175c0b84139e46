"""Differential tests: the sparse incidence kernel vs plain set intersections.

:meth:`repro.core.bitset.BitsetUniverse.intersecting_pairs` is checked
pair by pair against brute-force ``len(a & b)`` over randomized
families — with and without an item mask, over string and integer
universes — and :func:`repro.core.bitset.raw_similarity_from_size_arrays`
entry by entry against the scalar functions in
:mod:`repro.core.similarity`, including the edge cases the score
conventions pin down (empty sets, singletons, disjoint and identical
sets).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.core.bitset import BitsetUniverse, raw_similarity_from_size_arrays
from repro.core.similarity import f1, jaccard, precision, recall, raw_similarity
from repro.core.variants import SimilarityKind
from repro.utils import make_rng


def random_families(seed, n_sets=24, n_items=60, max_size=12, empties=True):
    rng = make_rng(seed)
    universe = [f"i{k}" for k in range(n_items)]
    families = []
    for _ in range(n_sets):
        size = rng.randint(0 if empties else 1, max_size)
        families.append(frozenset(rng.sample(universe, size)))
    return families, universe


EDGE_FAMILIES = [
    frozenset(),
    frozenset(),  # two empties: jaccard/f1 = 1 by convention
    frozenset({"a"}),
    frozenset({"a"}),  # identical singletons
    frozenset({"b"}),  # disjoint from the above
    frozenset({"a", "b", "c"}),
    frozenset({"x", "y"}),  # disjoint from everything else
]


def brute_force_pairs(families) -> dict[tuple[int, int], int]:
    """``{(i, j): |a_i & a_j|}`` for every intersecting pair ``i < j``."""
    pairs = {}
    for i, a in enumerate(families):
        for j in range(i + 1, len(families)):
            shared = len(a & families[j])
            if shared:
                pairs[(i, j)] = shared
    return pairs


def kernel_pairs(uni: BitsetUniverse, item_mask=None) -> dict:
    ii, jj, counts = uni.intersecting_pairs(item_mask=item_mask)
    assert np.all(ii < jj)
    keys = ii * uni.n_sets + jj
    assert np.all(np.diff(keys) > 0), "pairs must come sorted by (i, j)"
    return dict(zip(zip(ii.tolist(), jj.tolist()), counts.tolist()))


def all_pair_similarities(kind, families):
    """The vectorized closed form over every (row, column) pair."""
    sizes = np.array([len(s) for s in families], dtype=np.int64)
    inter = np.array(
        [[len(a & b) for b in families] for a in families], dtype=np.int64
    )
    return raw_similarity_from_size_arrays(
        kind, sizes[:, None], sizes[None, :], inter
    )


class TestPairwiseScores:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrices_match_scalar_functions(self, seed):
        families, _ = random_families(seed)
        for kind in SimilarityKind:
            matrix = all_pair_similarities(kind, families)
            for i, a in enumerate(families):
                for j, b in enumerate(families):
                    assert matrix[i, j] == raw_similarity(kind, a, b), (
                        kind, i, j,
                    )
        # The same closed forms over the kernel's sparse counts.
        uni = BitsetUniverse(families)
        ii, jj, counts = uni.intersecting_pairs()
        for kind in SimilarityKind:
            values = raw_similarity_from_size_arrays(
                kind, uni.sizes[ii], uni.sizes[jj], counts
            )
            for i, j, value in zip(ii.tolist(), jj.tolist(), values):
                assert value == raw_similarity(kind, families[i], families[j])

    def test_edge_conventions(self):
        jac = all_pair_similarities(SimilarityKind.JACCARD, EDGE_FAMILIES)
        f1s = all_pair_similarities(SimilarityKind.F1, EDGE_FAMILIES)
        pr = all_pair_similarities(
            SimilarityKind.PERFECT_RECALL, EDGE_FAMILIES
        )
        assert jac[0, 1] == 1.0  # jaccard(empty, empty) = 1
        assert f1s[0, 1] == 1.0
        assert pr[2, 0] == 0.0  # precision(q, empty) = 0, recall 0
        assert pr[0, 5] == 0.5  # recall(empty, C) = 1, precision 0
        assert jac[2, 3] == 1.0  # identical singletons
        assert jac[2, 4] == 0.0  # disjoint singletons
        assert jac[5, 6] == 0.0  # disjoint sets
        for i, a in enumerate(EDGE_FAMILIES):
            for j, b in enumerate(EDGE_FAMILIES):
                assert jac[i, j] == jaccard(a, b)
                assert f1s[i, j] == f1(a, b)
                assert pr[i, j] == (precision(a, b) + recall(a, b)) / 2.0


class TestIntersections:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_matches_brute_force(self, seed):
        families, _ = random_families(seed)
        uni = BitsetUniverse(families)
        assert kernel_pairs(uni) == brute_force_pairs(families)
        assert np.array_equal(uni.sizes, [len(s) for s in families])

    def test_item_mask_restricts_counts(self):
        families, universe = random_families(7)
        uni = BitsetUniverse(families)
        keep = {item for item in universe if item.endswith(("1", "3", "5"))}
        mask = np.array([item in keep for item in uni.items])
        assert kernel_pairs(uni, mask) == brute_force_pairs(
            [s & keep for s in families]
        )
        nothing = np.zeros(uni.n_items, dtype=bool)
        assert kernel_pairs(uni, nothing) == {}

    def test_integer_universe_fast_path(self):
        # Integer item ids take the searchsorted mapping; results must
        # match brute force and a string-keyed (dict-mapped) rendering
        # of the same sets, masked or not.
        rng = make_rng(11)
        families = [
            frozenset(rng.sample(range(200), rng.randint(0, 15)))
            for _ in range(20)
        ]
        as_str = [frozenset(f"i{k:04d}" for k in s) for s in families]
        ints = BitsetUniverse(families)
        strs = BitsetUniverse(as_str)
        assert kernel_pairs(ints) == brute_force_pairs(families)
        assert kernel_pairs(strs) == kernel_pairs(ints)
        keep = set(range(0, 200, 3))
        int_mask = np.array([item in keep for item in ints.items])
        str_mask = np.array([int(item[1:]) in keep for item in strs.items])
        want = brute_force_pairs([s & keep for s in families])
        assert kernel_pairs(ints, int_mask) == want
        assert kernel_pairs(strs, str_mask) == want

    def test_explicit_universe_and_disjoint_family(self):
        families = [frozenset({"a"}), frozenset({"b"}), frozenset()]
        uni = BitsetUniverse(families, universe=["a", "b", "c", "d"])
        assert uni.n_items == 4
        assert kernel_pairs(uni) == {}
        assert kernel_pairs(BitsetUniverse([])) == {}


@pytest.mark.slow
def test_benchmark_smoke(tmp_path, monkeypatch):
    """The kernel benchmark's --smoke mode runs end to end."""
    root = Path(__file__).resolve().parents[1]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from benchmarks import common
    from benchmarks.bench_bitset_kernel import run

    # The report block must not land in the tracked benchmarks/results.log.
    log = tmp_path / "results.log"
    monkeypatch.setattr(common, "RESULTS_LOG", log)
    rows = run(smoke=True)
    assert rows, "smoke run produced no measurements"
    assert "=== Sparse kernel" in log.read_text(encoding="utf-8")
