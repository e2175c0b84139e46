"""Tests for the MIS solvers: reductions, exact B&B, greedy, façade."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mis import (
    MISConfig,
    WeightedGraph,
    WeightedHypergraph,
    clique_cover_bound,
    expand_solution,
    greedy_mwis,
    reduce_graph,
    solve_conflicts,
    solve_exact,
    solve_greedy,
    solve_hypergraph_mis,
)


def brute_force_mwis(graph: WeightedGraph) -> float:
    best = 0.0
    vertices = graph.vertices()
    for r in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, r):
            if graph.is_independent_set(subset):
                best = max(best, graph.weight_of(subset))
    return best


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    weights = {
        i: draw(st.floats(min_value=0.0, max_value=10.0)) for i in range(n)
    }
    g = WeightedGraph(range(n), weights)
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                g.add_edge(a, b)
    return g


class TestReductions:
    def test_isolated_vertices_chosen(self):
        g = WeightedGraph(range(3))
        result = reduce_graph(g)
        assert result.chosen == {0, 1, 2}
        assert len(result.kernel) == 0

    def test_heavy_vertex_dominates_neighborhood(self):
        g = WeightedGraph.from_edges(
            range(3), [(0, 1), (0, 2)], {0: 10.0, 1: 1.0, 2: 1.0}
        )
        result = reduce_graph(g)
        assert 0 in result.chosen
        assert len(result.kernel) == 0

    def test_pendant_fold_accounting(self):
        # Path 0-1-2 with w = 1, 3, 1: optimal is {1} (weight 3).
        g = WeightedGraph.from_edges(
            range(3), [(0, 1), (1, 2)], {0: 1.0, 1: 3.0, 2: 1.0}
        )
        result = reduce_graph(g)
        solution = expand_solution(result, set(result.kernel.vertices()))
        # Whatever the fold order, the lifted solution must be optimal.
        assert g.is_independent_set(solution)

    def test_input_graph_not_mutated(self):
        g = WeightedGraph.from_edges(range(3), [(0, 1)])
        reduce_graph(g)
        assert len(g) == 3 and g.num_edges == 1

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_reductions_preserve_optimum(self, g):
        reduced = reduce_graph(g)
        kernel_opt = brute_force_mwis(reduced.kernel)
        lifted = expand_solution(
            reduced, _brute_force_set(reduced.kernel)
        )
        assert g.is_independent_set(lifted)
        assert math.isclose(
            g.weight_of(lifted),
            brute_force_mwis(g),
            rel_tol=1e-9,
            abs_tol=1e-9,
        ), (kernel_opt, reduced.folds)


def _brute_force_set(graph: WeightedGraph) -> set:
    best_w, best_set = -1.0, set()
    vertices = graph.vertices()
    for r in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, r):
            if graph.is_independent_set(subset):
                w = graph.weight_of(subset)
                if w > best_w:
                    best_w, best_set = w, set(subset)
    return best_set


class TestExact:
    def test_triangle(self):
        g = WeightedGraph.from_edges(
            "abc", [("a", "b"), ("b", "c"), ("a", "c")], {"b": 5.0}
        )
        assert solve_exact(g) == {"b"}

    def test_bipartite_path(self):
        g = WeightedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
        solution = solve_exact(g)
        assert g.is_independent_set(solution)
        assert g.weight_of(solution) == 2.0

    def test_clique_cover_bound_is_valid(self):
        g = WeightedGraph.from_edges(
            range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 4.0, 2: 3.0}
        )
        bound = clique_cover_bound(g, set(g.vertices()))
        assert bound >= brute_force_mwis(g) - 1e-9

    @settings(max_examples=80, deadline=None)
    @given(random_graphs())
    def test_exact_matches_brute_force(self, g):
        solution = solve_exact(g)
        assert g.is_independent_set(solution)
        assert math.isclose(
            g.weight_of(solution), brute_force_mwis(g), abs_tol=1e-9
        )


class TestGreedy:
    def test_returns_independent_set(self):
        g = WeightedGraph.from_edges(
            range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        )
        assert g.is_independent_set(solve_greedy(g))

    def test_local_search_improves_star(self):
        # Star center heavy-ish but leaves together outweigh it.
        g = WeightedGraph.from_edges(
            range(4), [(0, 1), (0, 2), (0, 3)], {0: 2.0}
        )
        solution = solve_greedy(g)
        assert g.weight_of(solution) == 3.0

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_greedy_within_half_of_optimum_on_small(self, g):
        solution = greedy_mwis(g)
        assert g.is_independent_set(solution)


class TestHypergraph:
    def test_triple_edge_allows_two(self):
        hg = WeightedHypergraph(
            vertices=[0, 1, 2],
            weights={0: 1.0, 1: 1.0, 2: 1.0},
            edges=[frozenset({0, 1, 2})],
        )
        solution = solve_hypergraph_mis(hg)
        assert len(solution) == 2
        assert hg.is_independent(solution)

    def test_mixed_edges(self):
        hg = WeightedHypergraph(
            vertices=[0, 1, 2, 3],
            weights={0: 2.0, 1: 1.0, 2: 1.0, 3: 1.0},
            edges=[frozenset({0, 1}), frozenset({1, 2, 3})],
        )
        solution = solve_hypergraph_mis(hg)
        assert hg.is_independent(solution)
        assert hg.weight_of(solution) == 4.0  # {0, 2, 3}

    def test_invalid_edge_size_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            WeightedHypergraph([0], {0: 1.0}, [frozenset({0})])

    def test_greedy_fallback_is_independent(self):
        from repro.mis import greedy_hypergraph_mis

        hg = WeightedHypergraph(
            vertices=list(range(6)),
            weights={i: float(i + 1) for i in range(6)},
            edges=[frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 5})],
        )
        solution = greedy_hypergraph_mis(hg)
        assert hg.is_independent(solution)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_hypergraph_exact_matches_brute_force(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        weights = {
            i: data.draw(st.floats(min_value=0.1, max_value=5.0))
            for i in range(n)
        }
        edges = []
        possible = list(itertools.combinations(range(n), 2)) + list(
            itertools.combinations(range(n), 3)
        )
        for combo in possible:
            if data.draw(st.booleans()):
                edges.append(frozenset(combo))
        hg = WeightedHypergraph(list(range(n)), weights, edges)
        solution = solve_hypergraph_mis(hg)
        assert hg.is_independent(solution)
        best = 0.0
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                if hg.is_independent(set(subset)):
                    best = max(best, hg.weight_of(subset))
        assert math.isclose(hg.weight_of(solution), best, abs_tol=1e-9)


class TestFacade:
    def test_routes_pairs_to_exact(self):
        hg = WeightedHypergraph(
            [0, 1, 2],
            {0: 1.0, 1: 5.0, 2: 1.0},
            [frozenset({0, 1}), frozenset({1, 2})],
        )
        assert solve_conflicts(hg) == {1}

    def test_routes_triples_to_hypergraph_solver(self):
        hg = WeightedHypergraph(
            [0, 1, 2],
            {0: 1.0, 1: 1.0, 2: 1.0},
            [frozenset({0, 1, 2})],
        )
        solution = solve_conflicts(hg)
        assert len(solution) == 2

    def test_greedy_config(self):
        hg = WeightedHypergraph(
            [0, 1], {0: 1.0, 1: 2.0}, [frozenset({0, 1})]
        )
        solution = solve_conflicts(hg, MISConfig(exact=False))
        assert solution == {1}

    def test_empty_structure(self):
        hg = WeightedHypergraph([0, 1], {0: 1.0, 1: 1.0}, [])
        assert solve_conflicts(hg) == {0, 1}


class TestNewReductions:
    def test_twins_merge(self):
        # 0 and 1 share neighbourhood {2, 3} and are non-adjacent.
        g = WeightedGraph.from_edges(
            range(4), [(0, 2), (0, 3), (1, 2), (1, 3)],
            {0: 1.0, 1: 1.0, 2: 0.9, 3: 0.9},
        )
        reduced = reduce_graph(g)
        solution = expand_solution(reduced, _brute_force_set(reduced.kernel))
        assert g.is_independent_set(solution)
        assert math.isclose(g.weight_of(solution), 2.0)
        assert {0, 1} <= solution

    def test_simplicial_vertex_taken(self):
        # v = 0's neighbours {1, 2} form a clique; 0 is heaviest.
        g = WeightedGraph.from_edges(
            range(3), [(0, 1), (0, 2), (1, 2)],
            {0: 2.0, 1: 1.5, 2: 1.5},
        )
        reduced = reduce_graph(g)
        assert 0 in reduced.chosen
        assert len(reduced.kernel) == 0

    def test_interleaved_fold_and_twin_replay(self):
        """A fold whose anchor is later absorbed as a twin must replay
        after the twin (reverse chronology)."""
        # This just asserts global optimality on a shape that mixes
        # pendants and twins.
        g = WeightedGraph.from_edges(
            range(5),
            [(0, 1), (1, 2), (1, 3), (4, 2), (4, 3)],
            {0: 1.0, 1: 2.0, 2: 1.2, 3: 1.2, 4: 1.0},
        )
        solution = solve_exact(g)
        assert g.is_independent_set(solution)
        assert math.isclose(g.weight_of(solution), brute_force_mwis(g))


    def test_degree2_fold_path(self):
        # Path 0-1-2 with weights making the fold condition hold:
        # max(1.5, 1.5) <= 2 < 3 at the middle vertex.
        g = WeightedGraph.from_edges(
            range(3), [(0, 1), (1, 2)], {0: 1.5, 1: 2.0, 2: 1.5}
        )
        reduced = reduce_graph(g)
        solution = expand_solution(reduced, _brute_force_set(reduced.kernel))
        assert g.is_independent_set(solution)
        assert math.isclose(g.weight_of(solution), 3.0)  # {0, 2}

    def test_degree2_fold_prefers_middle_when_heavier_ends_absent(self):
        g = WeightedGraph.from_edges(
            range(5),
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            {0: 1.0, 1: 1.9, 2: 1.0, 3: 1.9, 4: 1.0},
        )
        solution = solve_exact(g)
        assert g.is_independent_set(solution)
        assert math.isclose(g.weight_of(solution), brute_force_mwis(g))

