"""Tests for tree scoring against the naive definition."""

import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CategoryTree,
    Variant,
    annotate_matches,
    covering_categories,
    make_instance,
    score_tree,
    upper_bound,
    variant_score,
)


def naive_score(tree, instance, variant) -> float:
    """Direct implementation of S(Q, W, T) from Section 2.1."""
    total = 0.0
    for q in instance:
        delta = instance.effective_threshold(q, variant.delta)
        best = max(
            variant_score(variant, q.items, cat.items, delta)
            for cat in tree.categories()
        )
        total += q.weight * best
    return total


def build_tree(category_item_sets: list[set]) -> CategoryTree:
    tree = CategoryTree()
    for items in category_item_sets:
        tree.add_category(items)
    return tree


class TestScoreTree:
    def test_matches_naive_on_example(self, figure2_instance):
        tree = build_tree([{"a", "b"}, {"c", "d", "e", "f"}, {"a", "b", "c", "d", "e", "f"}])
        for variant in (
            Variant.exact(),
            Variant.threshold_jaccard(0.6),
            Variant.cutoff_f1(0.5),
            Variant.perfect_recall(0.8),
        ):
            report = score_tree(tree, figure2_instance, variant)
            assert math.isclose(
                report.total, naive_score(tree, figure2_instance, variant)
            )

    def test_normalized_divides_by_total_weight(self):
        inst = make_instance([{"a"}, {"b"}], weights=[3.0, 1.0])
        tree = build_tree([{"a"}])
        report = score_tree(tree, inst, Variant.exact())
        assert math.isclose(report.total, 3.0)
        assert math.isclose(report.normalized, 0.75)

    def test_covered_count_and_weight(self):
        inst = make_instance([{"a"}, {"b"}, {"c"}], weights=[1.0, 2.0, 4.0])
        tree = build_tree([{"a"}, {"c"}])
        report = score_tree(tree, inst, Variant.exact())
        assert report.covered_count == 2
        assert math.isclose(report.covered_weight, 5.0)

    def test_per_set_best_category(self):
        inst = make_instance([{"a", "b"}])
        tree = CategoryTree()
        loose = tree.add_category({"a", "b", "c", "d"})
        tight = tree.add_category({"a", "b", "c"}, parent=loose)
        report = score_tree(tree, inst, Variant.threshold_jaccard(0.5))
        assert report.per_set[0].best_cid == tight.cid  # higher precision

    def test_tie_prefers_deeper_category(self):
        inst = make_instance([{"a", "b"}])
        tree = CategoryTree()
        outer = tree.add_category({"a", "b"})
        inner = tree.add_category({"a", "b"}, parent=outer)
        report = score_tree(tree, inst, Variant.exact())
        assert report.per_set[0].best_cid == inner.cid

    def test_uncovered_set_has_no_category(self):
        inst = make_instance([{"z", "y"}], universe={"z", "y", "a"})
        tree = build_tree([{"a"}])
        report = score_tree(tree, inst, Variant.exact())
        entry = report.per_set[0]
        assert not entry.covered and entry.best_cid is None

    def test_score_by_source(self):
        from repro.core import InputSet, OCTInstance

        sets = [
            InputSet(sid=0, items=frozenset({"a"}), weight=2.0, source="query"),
            InputSet(sid=1, items=frozenset({"b"}), weight=3.0, source="existing"),
        ]
        inst = OCTInstance(sets)
        tree = build_tree([{"a"}, {"b"}])
        report = score_tree(tree, inst, Variant.exact())
        by_source = report.score_by_source(inst)
        assert by_source == {"query": 2.0, "existing": 3.0}

    def test_upper_bound_is_total_weight(self):
        inst = make_instance([{"a"}, {"b"}], weights=[2.0, 5.0])
        assert upper_bound(inst) == 7.0

    def test_zero_weight_instance_normalizes_to_zero(self):
        inst = make_instance([{"a"}], weights=[0.0])
        tree = build_tree([{"a"}])
        assert score_tree(tree, inst, Variant.exact()).normalized == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 8), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.sets(st.integers(0, 8), min_size=0, max_size=6),
            min_size=0,
            max_size=4,
        ),
    )
    def test_matches_naive_on_random(self, raw_sets, raw_cats):
        inst = make_instance(raw_sets)
        tree = build_tree(raw_cats)
        for variant in (
            Variant.threshold_jaccard(0.6),
            Variant.cutoff_jaccard(0.4),
            Variant.perfect_recall(0.5),
            Variant.exact(),
        ):
            report = score_tree(tree, inst, variant)
            assert math.isclose(report.total, naive_score(tree, inst, variant))


# One set {1, 2, 3, 4} under cutoff-Jaccard 0.5 against root children
# b = {2, 3, 4, 8} (created first, so the lower cid), a = {1, 2, 3, 9} and
# c = {20, ..., 29}: a and b tie on score 0.6, precision 0.75 and depth 1.
# NAME spells each item, so the same tie can be built over strings.
TIE_SNIPPET = """
from repro.core import CategoryTree, Variant, make_instance
VARIANT = Variant.cutoff_jaccard(0.5)
tree = CategoryTree()
b = tree.add_category({NAME(i) for i in (2, 3, 4, 8)}, label="b")
a = tree.add_category({NAME(i) for i in (1, 2, 3, 9)}, label="a")
tree.add_category({NAME(i) for i in range(20, 30)}, label="c")
instance = make_instance([{NAME(i) for i in (1, 2, 3, 4)}])
"""


def tied_tree(name=lambda i: i) -> dict:
    scope = {"NAME": name}
    exec(TIE_SNIPPET, scope)
    return scope


class TestOneBestCoverRule:
    """Scoring, condensing and serving break an exact tie one way:
    higher precision, then greater depth, then the lower cid."""

    def test_tie_breaks_to_the_lower_cid_everywhere(self):
        from repro.algorithms.condense import _best_nonroot_covers
        from repro.serving import SnapshotIndexes

        tie = tied_tree()
        tree, instance, variant = tie["tree"], tie["instance"], tie["VARIANT"]
        b = tie["b"]
        assert b.cid < tie["a"].cid
        entry = score_tree(tree, instance, variant).per_set[0]
        assert (entry.score, entry.best_precision) == (0.6, 0.75)
        assert entry.best_cid == b.cid
        q = next(iter(instance)).items
        assert SnapshotIndexes(tree, variant).best_category(q).cid == b.cid
        assert _best_nonroot_covers(tree, instance, variant) == {b.cid}

    def test_string_item_tie_ignores_the_hash_seed(self):
        # Set iteration order over strings follows PYTHONHASHSEED; the
        # answer must not.
        code = TIE_SNIPPET.replace("NAME(i)", "f'x{i}'") + (
            "from repro.core import score_tree\n"
            "print(score_tree(tree, instance, VARIANT).per_set[0].best_cid,"
            " b.cid)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        answers = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, check=True,
            )
            answers.add(out.stdout.strip())
        assert answers == {"1 1"}


class TestAttribution:
    def test_covering_categories_partition_covered_sets(self, figure2_instance):
        tree = build_tree([{"a", "b"}, {"c", "d", "e", "f"}])
        variant = Variant.threshold_jaccard(0.6)
        attribution = covering_categories(tree, figure2_instance, variant)
        covered_sids = [sid for sids in attribution.values() for sid in sids]
        assert len(covered_sids) == len(set(covered_sids))
        report = score_tree(tree, figure2_instance, variant)
        assert len(covered_sids) == report.covered_count

    def test_annotate_matches_stamps_categories(self, figure2_instance):
        tree = build_tree([{"a", "b"}])
        annotate_matches(tree, figure2_instance, Variant.exact())
        matched = [c for c in tree.categories() if c.matched_sids]
        assert len(matched) == 1
        assert matched[0].matched_sids == [1]  # q2 = {a, b}
