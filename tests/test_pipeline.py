"""Tests for the preprocessing pipeline (paper Section 5.1)."""

import math

import pytest

from repro.catalog.queries import QueryLog, RawQuery
from repro.core import SimilarityKind, Variant
from repro.pipeline import (
    CleaningConfig,
    PreprocessConfig,
    branch_spread,
    compute_result_sets,
    frequency_filter,
    frequency_weights,
    merge_similar_queries,
    merge_similarity_bound,
    preprocess,
    recent_window_weights,
    relevance_threshold_for,
    scatter_filter,
    uniform_weights,
)
from repro.pipeline.result_sets import QueryResultSet


def raw(text: str, counts: tuple) -> RawQuery:
    return RawQuery(text=text, daily_counts=counts)


class TestCleaning:
    def test_frequency_filter_requires_consecutive_demand(self):
        steady = raw("steady", (3, 3, 3))
        sporadic = raw("sporadic", (5, 0, 9))
        kept = frequency_filter([steady, sporadic], min_daily_count=1)
        assert kept == [steady]

    def test_frequency_filter_threshold(self):
        q = raw("q", (2, 2, 2))
        assert frequency_filter([q], 3) == []
        assert frequency_filter([q], 2) == [q]

    def test_branch_spread_counts_top_level(self):
        from repro.core import CategoryTree

        tree = CategoryTree()
        left = tree.add_category({"a", "b"})
        tree.add_category({"a"}, parent=left)
        tree.add_category({"c"})
        assert branch_spread(frozenset({"a", "c"}), tree, depth=1) == 2
        assert branch_spread(frozenset({"a", "b"}), tree, depth=1) == 1
        assert branch_spread(frozenset(), tree, depth=1) == 0

    def test_cleaning_drops_incoherent_queries(self, tiny_dataset):
        config = CleaningConfig(min_daily_count=1)
        frequent = frequency_filter(
            tiny_dataset.query_log.queries, config.min_daily_count
        )
        results = compute_result_sets(frequent, tiny_dataset.engine, 0.8)
        kept = scatter_filter(results, tiny_dataset.existing_tree, config)
        coherent = {q.text for q in frequent if q.coherent}
        assert kept and all(r.text in coherent for r in kept)

    def test_scatter_filter_drops_wide_queries(self, dataset_a):
        config = CleaningConfig(max_branches=1)
        queries = [q for q in dataset_a.query_log.queries if q.coherent]
        results = compute_result_sets(queries, dataset_a.engine, 0.8)
        kept = scatter_filter(results, dataset_a.existing_tree, config)
        # With one allowed branch only type-specific queries survive.
        assert 0 < len(kept) < len(results)
        assert all(
            branch_spread(r.items, dataset_a.existing_tree, 1) <= 1
            for r in kept
        )


class TestResultSets:
    def test_paper_thresholds(self):
        assert relevance_threshold_for(Variant.threshold_jaccard(0.8)) == 0.8
        assert relevance_threshold_for(Variant.cutoff_f1(0.7)) == 0.8
        assert relevance_threshold_for(Variant.perfect_recall(0.6)) == 0.9
        assert relevance_threshold_for(Variant.exact()) == 0.9

    def test_small_results_dropped(self, tiny_dataset):
        queries = [q for q in tiny_dataset.query_log.queries if q.coherent]
        results = compute_result_sets(
            queries, tiny_dataset.engine, 0.8, min_size=3
        )
        assert all(len(r.items) >= 3 for r in results)

    def test_items_meet_threshold(self, tiny_dataset):
        queries = [q for q in tiny_dataset.query_log.queries if q.coherent][:5]
        results = compute_result_sets(queries, tiny_dataset.engine, 0.9)
        for r in results:
            hits = {
                h.doc_id: h.relevance
                for h in tiny_dataset.engine.search(r.text)
            }
            assert all(hits[item] >= 0.9 - 1e-9 for item in r.items)


class TestWeighting:
    def _results(self):
        return [
            QueryResultSet("q1", frozenset({"a"}), mean_daily=4.0),
            QueryResultSet("q2", frozenset({"b"}), mean_daily=1.5),
        ]

    def test_frequency_weights(self):
        assert frequency_weights(self._results()) == [4.0, 1.5]

    def test_uniform_weights(self):
        assert uniform_weights(self._results()) == [1.0, 1.0]

    def test_recent_window_weights(self):
        log = QueryLog(
            queries=[
                RawQuery("q1", tuple([0] * 8 + [10, 10])),
                RawQuery("q2", tuple([2] * 10)),
            ],
            days=10,
        )
        weights = recent_window_weights(self._results(), log, window=2)
        assert weights[0] == 10.0
        assert weights[1] == 2.0

    def test_recent_window_fallback(self):
        log = QueryLog(queries=[], days=10)
        weights = recent_window_weights(self._results(), log, window=2)
        assert weights == [4.0, 1.5]


class TestMerging:
    def test_bound_formula(self):
        assert math.isclose(merge_similarity_bound(0.8), 0.95)
        assert math.isclose(merge_similarity_bound(0.6), 0.9)

    def test_identical_sets_merge_with_summed_weight(self):
        results = [
            QueryResultSet("black shirt", frozenset({"a", "b", "c"}), 5.0),
            QueryResultSet("shirt black", frozenset({"a", "b", "c"}), 2.0),
            QueryResultSet("red hat", frozenset({"x", "y"}), 1.0),
        ]
        merged = merge_similar_queries(
            results, [5.0, 2.0, 1.0], Variant.threshold_jaccard(0.8)
        )
        assert len(merged) == 2
        shirt = [m for m in merged if "shirt" in m.text][0]
        assert shirt.weight == 7.0
        assert shirt.text == "black shirt"  # heaviest label kept
        assert set(shirt.merged_texts) == {"black shirt", "shirt black"}

    def test_dissimilar_sets_not_merged(self):
        results = [
            QueryResultSet("q1", frozenset({"a", "b"}), 1.0),
            QueryResultSet("q2", frozenset({"b", "c"}), 1.0),
        ]
        merged = merge_similar_queries(
            results, [1.0, 1.0], Variant.threshold_jaccard(0.8)
        )
        assert len(merged) == 2

    def test_transitive_merging(self):
        base = frozenset(range(20))
        results = [
            QueryResultSet("q1", base, 1.0),
            QueryResultSet("q2", frozenset(set(base) | {100}), 1.0),
            QueryResultSet("q3", frozenset(set(base) | {200}), 1.0),
        ]
        merged = merge_similar_queries(
            results, [1.0, 1.0, 1.0], Variant.threshold_jaccard(0.8)
        )
        assert len(merged) == 1
        assert merged[0].items == frozenset(set(base) | {100, 200})


class TestPreprocess:
    def test_end_to_end(self, tiny_dataset):
        variant = Variant.threshold_jaccard(0.8)
        instance, report = preprocess(tiny_dataset, variant)
        assert len(instance) == report.after_merging
        assert report.after_cleaning <= report.raw_queries
        assert report.relevance_threshold == 0.8
        assert instance.universe == frozenset(
            p.pid for p in tiny_dataset.products
        )
        for q in instance:
            assert q.source == "query" and q.weight > 0

    def test_merging_reduces_queries(self, dataset_a):
        variant = Variant.threshold_jaccard(0.8)
        merged_on = preprocess(dataset_a, variant)[1]
        merged_off = preprocess(
            dataset_a, variant, PreprocessConfig(merge_queries=False)
        )[1]
        assert merged_on.after_merging < merged_off.after_merging

    def test_merge_preserves_or_improves_ctcr_score(self, dataset_a):
        """Paper Section 5.1: merged inputs score the same or slightly
        better when evaluated over the original queries."""
        from repro.algorithms import CTCR
        from repro.core import score_tree

        variant = Variant.threshold_jaccard(0.8)
        merged_inst, _ = preprocess(dataset_a, variant)
        plain_inst, _ = preprocess(
            dataset_a, variant, PreprocessConfig(merge_queries=False)
        )
        tree_merged = CTCR().build(merged_inst, variant)
        tree_plain = CTCR().build(plain_inst, variant)
        # Both evaluated over the *original* (unmerged) queries.
        s_merged = score_tree(tree_merged, plain_inst, variant).normalized
        s_plain = score_tree(tree_plain, plain_inst, variant).normalized
        assert s_merged >= s_plain - 0.05

    def test_one_search_per_frequent_query(self, monkeypatch):
        """The scatter filter reads the result sets; nothing searches twice."""
        from repro.catalog import load_dataset
        from repro.search.engine import SearchEngine

        dataset = load_dataset("B", seed=42)
        searched = []
        result_set = SearchEngine.result_set

        def spy(self, query, *args, **kwargs):
            searched.append(query)
            return result_set(self, query, *args, **kwargs)

        monkeypatch.setattr(SearchEngine, "result_set", spy)
        preprocess(dataset, Variant.threshold_jaccard(0.8))
        frequent = frequency_filter(
            dataset.query_log.queries, CleaningConfig().min_daily_count
        )
        assert searched == [q.text for q in frequent]
        assert len(searched) == 216

    def test_uniform_weights_for_public_dataset(self):
        from repro.catalog import load_dataset

        ds = load_dataset("E", scale=0.003, seed=1)
        # Without merging every query weighs exactly 1.
        instance, _ = preprocess(
            ds,
            Variant.perfect_recall(0.6),
            PreprocessConfig(merge_queries=False),
        )
        assert all(q.weight == 1.0 for q in instance)
        # Merging sums the uniform weights into integers.
        merged, _ = preprocess(ds, Variant.perfect_recall(0.6))
        assert all(q.weight >= 1.0 and q.weight.is_integer() for q in merged)

    def test_relevance_override(self, tiny_dataset):
        variant = Variant.threshold_jaccard(0.8)
        _, report = preprocess(
            tiny_dataset,
            variant,
            PreprocessConfig(relevance_threshold=0.5),
        )
        assert report.relevance_threshold == 0.5

    def test_threshold_overrides_applied(self, tiny_dataset):
        variant = Variant.threshold_jaccard(0.8)
        base, _ = preprocess(tiny_dataset, variant)
        target = base.sets[0].label
        inst, _ = preprocess(
            tiny_dataset,
            variant,
            PreprocessConfig(threshold_overrides={target: 0.4}),
        )
        overridden = [q for q in inst if q.label == target]
        assert overridden and overridden[0].threshold == 0.4
        untouched = [q for q in inst if q.label != target]
        assert all(q.threshold is None for q in untouched)


class TestPipelineProperties:
    def test_second_merge_never_increases_count(self, dataset_a):
        from repro.pipeline.merging import merge_similar_queries
        from repro.pipeline.result_sets import QueryResultSet

        variant = Variant.threshold_jaccard(0.8)
        inst, _ = preprocess(
            dataset_a, variant, PreprocessConfig(merge_queries=False)
        )
        results = [
            QueryResultSet(q.label, q.items, q.weight) for q in inst
        ]
        weights = [q.weight for q in inst]
        once = merge_similar_queries(results, weights, variant)
        again = merge_similar_queries(
            [QueryResultSet(m.text, m.items, m.weight) for m in once],
            [m.weight for m in once],
            variant,
        )
        assert len(again) <= len(once)
        assert math.isclose(
            sum(m.weight for m in again), sum(m.weight for m in once)
        )

    def test_merging_conserves_total_weight(self, dataset_a):
        variant = Variant.threshold_jaccard(0.8)
        merged, _ = preprocess(dataset_a, variant)
        plain, _ = preprocess(
            dataset_a, variant, PreprocessConfig(merge_queries=False)
        )
        assert math.isclose(merged.total_weight, plain.total_weight)

    def test_preprocess_deterministic(self, tiny_dataset):
        variant = Variant.perfect_recall(0.6)
        a, _ = preprocess(tiny_dataset, variant)
        b, _ = preprocess(tiny_dataset, variant)
        assert [(q.label, q.weight, q.items) for q in a] == [
            (q.label, q.weight, q.items) for q in b
        ]
