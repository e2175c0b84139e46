"""Conflict graphs and hypergraphs (Algorithm 1, lines 8-9).

The vertices are input-set ids weighted by the set weights; edges are the
2-conflicts, and — for thresholds below 1 — hyperedges of size 3 are the
3-conflicts. Both builders return the
:class:`~repro.mis.hypergraph_mis.WeightedHypergraph` that
:func:`repro.mis.solve_conflicts` takes: an independent set (no edge
fully selected) is exactly a conflict-free family of input sets.
"""

from __future__ import annotations

from repro.conflicts.three_conflicts import compute_three_conflicts
from repro.conflicts.two_conflicts import PairwiseAnalysis
from repro.core.input_sets import OCTInstance
from repro.mis.hypergraph_mis import WeightedHypergraph


def build_conflict_graph(
    instance: OCTInstance, analysis: PairwiseAnalysis
) -> WeightedHypergraph:
    """Conflict graph over 2-conflicts only (Exact variant, line 9)."""
    return WeightedHypergraph(
        vertices=[q.sid for q in instance],
        weights={q.sid: q.weight for q in instance},
        # Edges in the iteration order of a copy of the pair set: the
        # order the pinned trees were built with.
        edges=[frozenset(pair) for pair in set(analysis.conflicts)],
    )


def build_conflict_hypergraph(
    instance: OCTInstance, analysis: PairwiseAnalysis
) -> WeightedHypergraph:
    """Conflict hypergraph over 2- and 3-conflicts (line 8, delta < 1)."""
    graph = build_conflict_graph(instance, analysis)
    graph.edges.extend(
        frozenset(triple) for triple in compute_three_conflicts(analysis)
    )
    return graph


def conflict_statistics(graph: WeightedHypergraph) -> dict[str, float]:
    """Summary statistics, including the paper's C2(Q, W) measure.

    ``C2(Q, W)`` is the weighted average number of 2-conflicts per input
    set (Theorem 3.1): CTCR's performance ratio for the Exact variant is
    tight at ``O(C2(Q, W))``.
    """
    degree2: dict[int, int] = {v: 0 for v in graph.vertices}
    pairs = [edge for edge in graph.edges if len(edge) == 2]
    for edge in pairs:
        for v in edge:
            degree2[v] += 1
    total_weight = sum(graph.weights.values())
    if total_weight > 0:
        c2 = (
            sum(graph.weights[v] * degree2[v] for v in graph.vertices)
            / total_weight
        )
    else:
        c2 = 0.0
    return {
        "vertices": float(len(graph.vertices)),
        "pair_edges": float(len(pairs)),
        "triple_edges": float(len(graph.edges) - len(pairs)),
        "c2_weighted_avg": c2,
        "max_degree2": float(max(degree2.values(), default=0)),
    }
