"""Conflict detection: rankings, 2-/3-conflicts, the conflict hypergraph."""

from repro.conflicts.hypergraph import (
    build_conflict_graph,
    build_conflict_hypergraph,
    conflict_statistics,
)
from repro.conflicts.ranking import Ranking, rank_sets
from repro.conflicts.three_conflicts import compute_three_conflicts
from repro.conflicts.two_conflicts import PairwiseAnalysis, compute_pairwise

__all__ = [
    "PairwiseAnalysis",
    "Ranking",
    "build_conflict_graph",
    "build_conflict_hypergraph",
    "compute_pairwise",
    "compute_three_conflicts",
    "conflict_statistics",
    "rank_sets",
]
