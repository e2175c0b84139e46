"""Solver façade: route a conflict structure to the right MIS engine.

Conflict graphs (2-edges only, the Exact variant) go to the exact MWIS
branch-and-bound; hypergraphs with 3-edges go to the component-partitioned
hypergraph solver. Either path degrades gracefully to the greedy heuristic
when the node budget runs out, and ``exact=False`` forces the heuristic
(the paper's ablation of the MIS engine inside CTCR).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mis.exact import BudgetExceededError, solve_exact
from repro.mis.graph import WeightedGraph
from repro.mis.greedy import solve_greedy
from repro.mis.hypergraph_mis import (
    WeightedHypergraph,
    solve_hypergraph_mis,
)
from repro.observability import get_tracer

Vertex = int


@dataclass(frozen=True)
class MISConfig:
    """Tuning knobs for the MIS stage of CTCR.

    ``n_jobs`` fans independent conflict components out to a process
    pool on the hypergraph path; it never changes results: every
    worker count returns byte-identical selections.

    The two engines budget differently: ``node_budget`` is the graph
    path's *shared* allowance across the whole instance, while
    ``hyper_node_budget`` is *per connected component* on the
    hypergraph path (required for serial/pooled parity) — and much
    smaller, because the blocked-mask bound makes each node count.
    """

    exact: bool = True
    node_budget: int = 500_000
    hyper_node_budget: int = 50_000
    n_jobs: int = 1

    def describe(self) -> str:
        return "exact" if self.exact else "greedy"


def _to_graph(hg: WeightedHypergraph) -> WeightedGraph:
    graph = WeightedGraph(hg.vertices, hg.weights)
    for edge in hg.edges:
        if len(edge) != 2:
            raise ValueError(
                "conflict graph path requires 2-edges only; got hyperedge "
                f"{sorted(edge, key=repr)} of size {len(edge)}"
            )
        a, b = tuple(edge)
        graph.add_edge(a, b)
    return graph


def solve_conflicts(
    hg: WeightedHypergraph, config: MISConfig | None = None
) -> set[Vertex]:
    """Maximum-weight conflict-free subset of input-set ids."""
    config = config or MISConfig()
    tracer = get_tracer()
    with tracer.span("mis.solve"):
        has_triples = any(len(edge) == 3 for edge in hg.edges)
        if has_triples:
            return solve_hypergraph_mis(
                hg,
                node_budget=config.hyper_node_budget,
                exact=config.exact,
                n_jobs=config.n_jobs,
            )
        graph = _to_graph(hg)
        if config.exact:
            try:
                return solve_exact(graph, node_budget=config.node_budget)
            except BudgetExceededError:
                tracer.count("mis.greedy_fallbacks")
        return solve_greedy(graph)
