"""Maximum-weight independent set solvers (graphs and hypergraphs)."""

from repro.mis.exact import BudgetExceededError, clique_cover_bound, solve_exact
from repro.mis.graph import WeightedGraph
from repro.mis.greedy import (
    greedy_mwis,
    local_search,
    solve_greedy,
)
from repro.mis.hypergraph_mis import (
    WeightedHypergraph,
    greedy_hypergraph_mis,
    solve_hypergraph_mis,
)
from repro.mis.hypergraph_reductions import (
    HyperReductionResult,
    reduce_hypergraph,
)
from repro.mis.reductions import ReductionResult, expand_solution, reduce_graph
from repro.mis.solver import MISConfig, solve_conflicts

__all__ = [
    "BudgetExceededError",
    "HyperReductionResult",
    "MISConfig",
    "ReductionResult",
    "WeightedGraph",
    "WeightedHypergraph",
    "clique_cover_bound",
    "expand_solution",
    "greedy_hypergraph_mis",
    "greedy_mwis",
    "local_search",
    "reduce_graph",
    "reduce_hypergraph",
    "solve_conflicts",
    "solve_exact",
    "solve_greedy",
    "solve_hypergraph_mis",
]
