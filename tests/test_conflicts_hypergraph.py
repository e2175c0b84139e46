"""Tests for conflict graph/hypergraph construction and statistics.

Both builders return the ``WeightedHypergraph`` the MIS stage takes:
2-conflicts are its 2-edges, 3-conflicts its 3-edges.
"""

import math

from repro.conflicts import (
    build_conflict_graph,
    build_conflict_hypergraph,
    compute_pairwise,
    conflict_statistics,
)
from repro.core import Variant, make_instance


class TestConstruction:
    def test_graph_carries_weights_and_edges(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        graph = build_conflict_graph(figure2_instance, analysis)
        assert set(graph.vertices) == {0, 1, 2, 3}
        assert graph.weights[0] == 2.0
        assert len(graph.edges) == 3
        assert all(len(edge) == 2 for edge in graph.edges)

    def test_hypergraph_adds_triples(self, example32_instance):
        analysis = compute_pairwise(
            example32_instance, Variant.perfect_recall(0.61)
        )
        hg = build_conflict_hypergraph(example32_instance, analysis)
        assert hg.edges == [frozenset({0, 1, 2})]

    def test_is_independent(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        graph = build_conflict_graph(figure2_instance, analysis)
        assert graph.is_independent({0, 1})  # nested pair: no conflict
        assert not graph.is_independent({0, 2})
        assert graph.is_independent(set())

    def test_triple_independence_semantics(self, example32_instance):
        analysis = compute_pairwise(
            example32_instance, Variant.perfect_recall(0.61)
        )
        hg = build_conflict_hypergraph(example32_instance, analysis)
        # Any two of the triple are fine; all three are not.
        assert hg.is_independent({0, 1})
        assert hg.is_independent({1, 2})
        assert not hg.is_independent({0, 1, 2})

    def test_weight_of(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        graph = build_conflict_graph(figure2_instance, analysis)
        assert graph.weight_of({0, 1}) == 3.0

    def test_degree(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        graph = build_conflict_graph(figure2_instance, analysis)
        incidence = graph.incidence()
        assert len(incidence[0]) == 2  # conflicts with q3 and q4
        assert len(incidence[1]) == 0


class TestStatistics:
    def test_c2_weighted_average(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        graph = build_conflict_graph(figure2_instance, analysis)
        stats = conflict_statistics(graph)
        # degrees: q1 = 2 (w2), q2 = 0 (w1), q3 = 2 (w1), q4 = 2 (w1).
        expected = (2 * 2 + 0 + 2 + 2) / 5
        assert math.isclose(stats["c2_weighted_avg"], expected)
        assert stats["pair_edges"] == 3
        assert stats["max_degree2"] == 2

    def test_conflict_free_instance(self):
        inst = make_instance([{"a"}, {"b"}])
        analysis = compute_pairwise(inst, Variant.exact())
        graph = build_conflict_graph(inst, analysis)
        stats = conflict_statistics(graph)
        assert stats["c2_weighted_avg"] == 0.0
        assert stats["pair_edges"] == 0.0
