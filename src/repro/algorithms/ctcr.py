"""CTCR — the Category Tree Conflict Resolver (paper Section 3).

The algorithm identifies pairs (and, for thresholds below 1, triplets)
of input sets that no tree can cover simultaneously, extracts a
maximum-weight conflict-free subfamily via an MIS solver, and builds a
tree covering it: one category per selected set, parents chosen along
must-cover-together chains, followed by item assignment, intermediate
categories, and condensing.

For the Exact variant the machinery collapses to the conflict *graph*
(2-conflicts only) with the exact MWIS solver — the configuration under
which the paper reports provably optimal trees — and for Perfect-Recall
the duplicate-assignment stage is unnecessary (selected sets never share
items across branches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.assignment import assign_duplicates, assign_safe_items
from repro.algorithms.base import BuildContext, TreeBuilder
from repro.algorithms.condense import (
    add_misc_category,
    remove_noncovered_items,
    remove_noncovering_categories,
)
from repro.algorithms.intermediate import add_intermediate_categories
from repro.conflicts.hypergraph import (
    build_conflict_graph,
    build_conflict_hypergraph,
    conflict_statistics,
)
from repro.conflicts.ranking import Ranking, rank_sets
from repro.conflicts.two_conflicts import PairwiseAnalysis, compute_pairwise
from repro.core.input_sets import InputSet, OCTInstance
from repro.core.tree import Category, CategoryTree
from repro.core.variants import SimilarityKind, Variant
from repro.mis.hypergraph_mis import WeightedHypergraph
from repro.mis.solver import MISConfig, solve_conflicts
from repro.observability import get_tracer


@dataclass(frozen=True)
class CTCRConfig:
    """Tuning and ablation switches for CTCR."""

    mis: MISConfig = field(default_factory=MISConfig)
    use_three_conflicts: bool = True
    add_intermediate: bool = True
    condense: bool = True


@dataclass
class CTCRDiagnostics:
    """Observability into one CTCR run (sizes of each stage).

    ``c2_weighted_avg`` is the paper's C2(Q, W): the weighted average
    number of 2-conflicts per input set, which bounds CTCR's Exact
    performance ratio (Theorem 3.1) and measures instance sparsity.
    """

    num_sets: int = 0
    num_two_conflicts: int = 0
    num_three_conflicts: int = 0
    c2_weighted_avg: float = 0.0
    selected: int = 0
    selected_weight: float = 0.0
    intermediates_added: int = 0

    _GAUGE_PREFIX = "ctcr.diag."

    def record(self, tracer) -> None:
        """Publish every field as a ``ctcr.diag.*`` gauge on a tracer."""
        for name, value in self.as_dict().items():
            tracer.gauge(self._GAUGE_PREFIX + name, value)

    def as_dict(self) -> dict[str, float]:
        return {
            "num_sets": self.num_sets,
            "num_two_conflicts": self.num_two_conflicts,
            "num_three_conflicts": self.num_three_conflicts,
            "c2_weighted_avg": self.c2_weighted_avg,
            "selected": self.selected,
            "selected_weight": self.selected_weight,
            "intermediates_added": self.intermediates_added,
        }

    @classmethod
    def from_manifest(cls, manifest) -> "CTCRDiagnostics":
        """Reconstruct the diagnostics view from a :class:`RunManifest`.

        The gauges recorded by :meth:`record` round-trip through the
        manifest JSON, so a saved run can be inspected with the same
        object the in-process API returns.
        """
        gauges = manifest.gauges
        fields = {
            name: gauges.get(cls._GAUGE_PREFIX + name, 0.0)
            for name in cls().as_dict()
        }
        for int_field in (
            "num_sets", "num_two_conflicts", "num_three_conflicts",
            "selected", "intermediates_added",
        ):
            fields[int_field] = int(fields[int_field])
        return cls(**fields)


class CTCR(TreeBuilder):
    """MIS-based category tree construction (Algorithm 1)."""

    name = "CTCR"

    def __init__(self, config: CTCRConfig | None = None) -> None:
        self.config = config or CTCRConfig()
        self.last_diagnostics = CTCRDiagnostics()

    # -- pipeline ----------------------------------------------------------

    def build(self, instance: OCTInstance, variant: Variant) -> CategoryTree:
        diag = CTCRDiagnostics(num_sets=len(instance))
        self.last_diagnostics = diag
        tracer = get_tracer()

        with tracer.span("ctcr.build"):
            with tracer.span("ctcr.rank"):
                ranking = rank_sets(instance)
            with tracer.span("ctcr.two_conflicts"):
                analysis = compute_pairwise(instance, variant, ranking)
            with tracer.span("ctcr.conflict_structure"):
                hypergraph = self._conflict_structure(
                    instance, variant, analysis, diag
                )
            with tracer.span("ctcr.mis"):
                selected_sids = solve_conflicts(hypergraph, self.config.mis)
            selected = [
                q for q in ranking.ordered if q.sid in selected_sids
            ]  # rank order: parents appear before children
            diag.selected = len(selected)
            diag.selected_weight = sum(q.weight for q in selected)

            tree = CategoryTree()
            ctx = BuildContext(tree=tree, instance=instance, variant=variant)
            with tracer.span("ctcr.skeleton"):
                self._build_skeleton(ctx, selected, ranking, analysis)
            with tracer.span("ctcr.assign"):
                duplicates = assign_safe_items(ctx, selected)

                if not variant.is_exact:
                    # Perfect-Recall selections never produce duplicates
                    # (shared items force must-together pairs onto one
                    # branch), so the duplicate stage is a no-op there, as
                    # the paper notes.
                    if duplicates:
                        assign_duplicates(ctx, selected, duplicates)
            if not variant.is_exact:
                if (
                    variant.kind is not SimilarityKind.PERFECT_RECALL
                    and self.config.add_intermediate
                ):
                    with tracer.span("ctcr.intermediate"):
                        diag.intermediates_added = add_intermediate_categories(
                            ctx
                        )
            if not variant.is_exact and self.config.condense:
                with tracer.span("ctcr.condense"):
                    remove_noncovered_items(tree, instance, variant)
                    remove_noncovering_categories(tree, instance, variant)
            add_misc_category(tree, instance)
            diag.record(tracer)
        return tree

    # -- stages ------------------------------------------------------------

    def _conflict_structure(
        self,
        instance: OCTInstance,
        variant: Variant,
        analysis: PairwiseAnalysis,
        diag: CTCRDiagnostics,
    ) -> WeightedHypergraph:
        if variant.is_exact or not self.config.use_three_conflicts:
            graph = build_conflict_graph(instance, analysis)
        else:
            graph = build_conflict_hypergraph(instance, analysis)
        stats = conflict_statistics(graph)
        diag.num_two_conflicts = int(stats["pair_edges"])
        diag.num_three_conflicts = int(stats["triple_edges"])
        diag.c2_weighted_avg = stats["c2_weighted_avg"]
        return graph

    def _build_skeleton(
        self,
        ctx: BuildContext,
        selected: list[InputSet],
        ranking: Ranking,
        analysis: PairwiseAnalysis,
    ) -> None:
        """Create ``C(q)`` per selected set and wire parents (lines 11-15).

        The parent of ``C(q)`` is the category of the highest-ranked set
        of rank below ``rank(q)`` that must be covered on the same branch
        as ``q`` — for the Exact variant this is exactly the smallest
        selected superset.
        """
        by_rank = sorted(selected, key=lambda q: ranking.rank_of[q.sid])
        placed: list[InputSet] = []
        for q in by_rank:
            parent_cat: Category | None = None
            best_rank = -1
            for other in placed:
                if analysis.is_must_together(q.sid, other.sid):
                    other_rank = ranking.rank_of[other.sid]
                    if other_rank < ranking.rank_of[q.sid] and other_rank > best_rank:
                        best_rank = other_rank
                        parent_cat = ctx.designated[other.sid]
            cat = ctx.tree.add_category(
                items=(), parent=parent_cat, label=q.label or f"q{q.sid}"
            )
            cat.matched_sids = [q.sid]
            ctx.designated[q.sid] = cat
            ctx.target_sets[cat.cid] = q.items
            placed.append(q)
