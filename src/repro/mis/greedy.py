"""Greedy + local-search heuristic for maximum-weight independent set.

Used as the fallback when branch-and-bound exceeds its node budget, and
as an ablation inside CTCR (exact vs heuristic MIS). The construction is
the classic ``w(v)/(deg(v)+1)`` greedy; the improvement phase applies
add-moves and (1,2)-swaps (remove one chosen vertex, insert two of its
neighbours) until a fixed point or the iteration cap.
"""

from __future__ import annotations

from repro.mis.graph import Vertex, WeightedGraph


def greedy_mwis(graph: WeightedGraph) -> set[Vertex]:
    """Greedy construction: repeatedly take the best weight/degree vertex."""
    alive = set(graph.vertices())
    chosen: set[Vertex] = set()
    order = sorted(
        alive,
        key=lambda v: (-graph.weights[v] / (len(graph.adj[v]) + 1), str(v)),
    )
    blocked: set[Vertex] = set()
    for v in order:
        if v in blocked:
            continue
        chosen.add(v)
        blocked |= graph.adj[v]
        blocked.add(v)
    return chosen


def _try_add_moves(graph: WeightedGraph, chosen: set[Vertex]) -> bool:
    improved = False
    for v in graph.vertices():
        if v in chosen or graph.weights[v] <= 0:
            continue
        if not (graph.adj[v] & chosen):
            chosen.add(v)
            improved = True
    return improved


def _try_swap_moves(graph: WeightedGraph, chosen: set[Vertex]) -> bool:
    """(1,k)-swaps: drop one chosen vertex for heavier free neighbours.

    The replacement set is built greedily by weight among the dropped
    vertex's neighbours that have no other chosen neighbour.
    """
    for v in list(chosen):
        candidates = [
            u
            for u in graph.adj[v]
            if graph.weights[u] > 0 and not (graph.adj[u] & (chosen - {v}))
        ]
        candidates.sort(key=lambda u: (-graph.weights[u], str(u)))
        replacement: list[Vertex] = []
        for u in candidates:
            if not any(u in graph.adj[w] for w in replacement):
                replacement.append(u)
        gain = sum(graph.weights[u] for u in replacement) - graph.weights[v]
        if gain > 1e-12:
            chosen.remove(v)
            chosen.update(replacement)
            return True
    return False


def local_search(
    graph: WeightedGraph, chosen: set[Vertex], max_rounds: int = 50
) -> set[Vertex]:
    """Improve an independent set until no add/(1,2)-swap move applies."""
    chosen = set(chosen)
    for _ in range(max_rounds):
        added = _try_add_moves(graph, chosen)
        swapped = _try_swap_moves(graph, chosen)
        if not added and not swapped:
            break
    return chosen


def solve_greedy(graph: WeightedGraph, max_rounds: int = 50) -> set[Vertex]:
    """Greedy construction followed by local search."""
    return local_search(graph, greedy_mwis(graph), max_rounds=max_rounds)

