"""Conflict graphs and hypergraphs (Algorithm 1, lines 8-9).

The vertices are input-set ids weighted by the set weights; edges are the
2-conflicts, and — for thresholds below 1 — hyperedges of size 3 are the
3-conflicts. An independent set (no edge fully selected) is exactly a
conflict-free family of input sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.conflicts.three_conflicts import Triple, compute_three_conflicts
from repro.conflicts.two_conflicts import PairwiseAnalysis
from repro.core.input_sets import OCTInstance


@dataclass
class ConflictHypergraph:
    """Weighted conflict structure fed to the MIS solvers.

    With ``triples`` empty this is the plain conflict *graph* of the
    Exact variant; otherwise it is the conflict hypergraph with mixed
    edge sizes 2 and 3.
    """

    vertices: list[int]
    weights: dict[int, float]
    pairs: set[tuple[int, int]] = field(default_factory=set)
    triples: set[Triple] = field(default_factory=set)
    # Lazily-built incidence index, invalidated by edge-count signature
    # (edges are only ever added, never removed, after construction).
    _incidence: dict[int, list[tuple[int, ...]]] | None = field(
        default=None, repr=False, compare=False
    )
    _incidence_sig: tuple[int, int] = field(
        default=(-1, -1), repr=False, compare=False
    )

    @property
    def num_edges(self) -> int:
        return len(self.pairs) + len(self.triples)

    def incidence(self) -> dict[int, list[tuple[int, ...]]]:
        """Vertex -> incident conflict (hyper)edges, built once and cached.

        The index is rebuilt only when the edge counts change (e.g. after
        :func:`build_conflict_hypergraph` fills in the triples), so
        repeated :meth:`degree` probes — and the reduction rules that
        walk neighbourhoods — stop paying an O(|E|) scan per call.
        """
        sig = (len(self.pairs), len(self.triples))
        if self._incidence is None or self._incidence_sig != sig:
            index: dict[int, list[tuple[int, ...]]] = {
                v: [] for v in self.vertices
            }
            for edge in self.pairs:
                for v in edge:
                    index[v].append(edge)
            for edge in self.triples:
                for v in edge:
                    index[v].append(edge)
            self._incidence = index
            self._incidence_sig = sig
        return self._incidence

    def degree(self, vertex: int) -> int:
        """Number of conflict (hyper)edges touching a vertex."""
        return len(self.incidence()[vertex])

    def is_independent(self, selected: set[int]) -> bool:
        """True when no conflict edge is fully contained in ``selected``."""
        for a, b in self.pairs:
            if a in selected and b in selected:
                return False
        for a, b, c in self.triples:
            if a in selected and b in selected and c in selected:
                return False
        return True

    def weight_of(self, selected: set[int]) -> float:
        return sum(self.weights[v] for v in selected)


def build_conflict_graph(
    instance: OCTInstance, analysis: PairwiseAnalysis
) -> ConflictHypergraph:
    """Conflict graph over 2-conflicts only (Exact variant, line 9)."""
    return ConflictHypergraph(
        vertices=[q.sid for q in instance],
        weights={q.sid: q.weight for q in instance},
        pairs=set(analysis.conflicts),
    )


def build_conflict_hypergraph(
    instance: OCTInstance, analysis: PairwiseAnalysis
) -> ConflictHypergraph:
    """Conflict hypergraph over 2- and 3-conflicts (line 8, delta < 1)."""
    graph = build_conflict_graph(instance, analysis)
    graph.triples = compute_three_conflicts(analysis)
    return graph


def conflict_statistics(graph: ConflictHypergraph) -> dict[str, float]:
    """Summary statistics, including the paper's C2(Q, W) measure.

    ``C2(Q, W)`` is the weighted average number of 2-conflicts per input
    set (Theorem 3.1): CTCR's performance ratio for the Exact variant is
    tight at ``O(C2(Q, W))``.
    """
    degree2: dict[int, int] = {v: 0 for v in graph.vertices}
    for a, b in graph.pairs:
        degree2[a] += 1
        degree2[b] += 1
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
        "pair_edges": float(len(graph.pairs)),
        "triple_edges": float(len(graph.triples)),
        "c2_weighted_avg": c2,
        "max_degree2": float(max(degree2.values(), default=0)),
    }
