"""Weighted independent set on hypergraphs with edges of size 2 and 3.

An independent set of a hypergraph selects vertices so that no hyperedge
is *fully* contained in the selection (partial overlap is allowed). This
matches the conflict-hypergraph semantics: a 3-conflict only forbids
choosing all three sets simultaneously.

Following the paper's reference to partitioning-based algorithms for
sparse bounded-degree hypergraphs (Halldórsson–Losievskaja), the solver
decomposes the instance and solves each piece exactly, degrading to a
greedy + add-move heuristic only when the node budget runs out. The
engine stacks four accelerations in front of the branch-and-bound:

1. **Kernelization** (:mod:`repro.mis.hypergraph_reductions`): the
   mixed 2/3-edge generalizations of the ALENEX'19 weighted reductions
   shrink the hypergraph before any search happens.
2. **Bitset branch-and-bound**: vertices map to bit positions; the
   chosen set and a *blocked* set are each one int. Choosing a vertex
   blocks its 2-edge partners and the third member of any 3-edge whose
   other member is already chosen, so the per-node feasibility probe is
   a single AND — and the bound shrinks by every newly blocked weight,
   which is what lets dense components solve exactly instead of
   thrashing against the node budget. (An edge with an excluded member
   can never reach full selection, so tracking exclusions — as the
   previous engine did — is redundant.)
3. **Greedy warm start**: the branch-and-bound opens with the greedy
   solution as its incumbent instead of an empty one, which turns the
   suffix-weight bound into an actual prune on the first descent.
4. **Component parallelism**: connected components are independent
   subproblems, fanned out via :func:`repro.utils.parallel.parallel_map`
   (worker counter deltas merge back per the tracing protocol).

The node budget is **per component**: every component gets the full
budget, which keeps serial and pooled runs byte-identical (a shared
declining budget would depend on completion order). A component that
exhausts its budget falls back to the best incumbent found — at least
as good as the greedy warm start. The default budget is deliberately
an order of magnitude below the old engine's shared 500k: with the
blocked-mask bound a component either solves exactly within a few
thousand nodes or is dense enough that the incumbent after 50k nodes
is within a few percent of optimal.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Hashable, Iterable

from repro.core.bitset import iter_bits
from repro.mis.exact import BudgetExceededError
from repro.mis.hypergraph_reductions import (
    expand_solution,
    reduce_hypergraph,
)
from repro.observability import get_tracer
from repro.utils.parallel import parallel_map

# Components at or below this size get the exact branch-and-bound;
# larger ones fall to greedy.
DEFAULT_MAX_EXACT_COMPONENT = 2000

Vertex = Hashable


@dataclass
class WeightedHypergraph:
    """Vertices with weights plus hyperedges of size 2 or 3."""

    vertices: list[Vertex]
    weights: dict[Vertex, float]
    edges: list[frozenset] = field(default_factory=list)

    def __post_init__(self) -> None:
        for edge in self.edges:
            if not 2 <= len(edge) <= 3:
                raise ValueError(f"hyperedge size must be 2 or 3: {set(edge)}")

    def is_independent(self, selected: set[Vertex]) -> bool:
        return all(not edge <= selected for edge in self.edges)

    def weight_of(self, selected: Iterable[Vertex]) -> float:
        return sum(self.weights[v] for v in selected)

    def incidence(self) -> dict[Vertex, list[int]]:
        """Vertex -> indices of the edges containing it."""
        inc: dict[Vertex, list[int]] = {v: [] for v in self.vertices}
        for i, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(i)
        return inc

    def connected_components(self) -> list[set[Vertex]]:
        """Components of the bipartite vertex/edge incidence structure."""
        parent: dict[Vertex, Vertex] = {v: v for v in self.vertices}

        def find(v: Vertex) -> Vertex:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for edge in self.edges:
            members = list(edge)
            root = find(members[0])
            for other in members[1:]:
                parent[find(other)] = root
        groups: dict[Vertex, set[Vertex]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        return list(groups.values())


class _HyperBranchAndBound:
    """Bitset branch-and-bound over one connected component.

    Vertex ``order[i]`` owns bit ``i``; the chosen set is one int. A
    second int — the *blocked* mask — is maintained incrementally:
    choosing ``v`` blocks every 2-edge partner outright and, for each
    incident 3-edge with one other member already chosen, the remaining
    member. That turns the per-node feasibility probe into a single
    ``bit & blocked`` test (the previous engine looped over every
    incident edge's counter pair), and the invariant "a vertex whose
    choice would complete an edge is blocked" holds by induction.

    The blocked mask also powers the bound: ``free_weight`` carries the
    total weight of undecided, unblocked vertices, so the prune
    ``current + free <= best`` tightens as choices lock out neighbours.
    In the dense conflict components the Figure 8 datasets produce, a
    handful of choices blocks most of the component and the bound
    collapses — exactly the regime where the old static suffix-sum
    bound degenerated into exhaustive search. Both bounds are
    admissible, so the tightening never changes which solution an exact
    solve returns; only budget-exhausted incumbents can differ.
    """

    def __init__(
        self,
        hg: WeightedHypergraph,
        node_budget: int,
        warm_start: set[Vertex] | None = None,
    ) -> None:
        self.hg = hg
        self.node_budget = node_budget
        self.nodes_used = 0
        # Order heaviest-first so good solutions appear early.
        self.order = sorted(
            hg.vertices, key=lambda v: (-hg.weights[v], str(v))
        )
        n = len(self.order)
        index_of = {v: i for i, v in enumerate(self.order)}
        self.weights = [hg.weights[v] for v in self.order]
        # Clamped copies keep the bound admissible even if a weight is
        # somehow non-positive.
        self.bound_weights = [max(0.0, w) for w in self.weights]
        self.pair_block = [0] * n
        self.triple_others: list[list[int]] = [[] for _ in range(n)]
        for edge in hg.edges:
            positions = [index_of[v] for v in edge]
            if len(positions) == 2:
                a, b = positions
                self.pair_block[a] |= 1 << b
                self.pair_block[b] |= 1 << a
            else:
                bits = 0
                for p in positions:
                    bits |= 1 << p
                for p in positions:
                    self.triple_others[p].append(bits & ~(1 << p))
        full = (1 << n) - 1
        self.above = [full & ~((1 << (i + 1)) - 1) for i in range(n)]
        if warm_start:
            self.best_weight = hg.weight_of(warm_start)
            self.best_set = set(warm_start)
        else:
            self.best_weight = -1.0
            self.best_set: set[Vertex] = set()

    def solve(self) -> set[Vertex]:
        self._recurse(0, 0, 0, 0.0, sum(self.bound_weights))
        return self.best_set

    def _recurse(
        self,
        index: int,
        chosen_mask: int,
        blocked_mask: int,
        current_weight: float,
        free_weight: float,
    ) -> None:
        self.nodes_used += 1
        if self.nodes_used > self.node_budget:
            raise BudgetExceededError(
                f"hypergraph MIS exceeded {self.node_budget} nodes"
            )
        if current_weight > self.best_weight:
            self.best_weight = current_weight
            self.best_set = {self.order[i] for i in iter_bits(chosen_mask)}
        if index == len(self.order):
            return
        if current_weight + free_weight <= self.best_weight:
            return

        bit = 1 << index
        if bit & blocked_mask:
            # Choosing v would complete an edge: the exclusion is forced
            # (v never counted toward free_weight once blocked).
            self._recurse(
                index + 1, chosen_mask, blocked_mask,
                current_weight, free_weight,
            )
            return

        # Branch 1: choose v and propagate the blocks it causes.
        new_blocked = blocked_mask | self.pair_block[index]
        for others in self.triple_others[index]:
            already = others & chosen_mask
            if already:
                new_blocked |= others & ~already
        choose_free = free_weight - self.bound_weights[index]
        newly = (new_blocked & ~blocked_mask) & self.above[index]
        if newly:
            for j in iter_bits(newly):
                choose_free -= self.bound_weights[j]
        self._recurse(
            index + 1, chosen_mask | bit, new_blocked,
            current_weight + self.weights[index], choose_free,
        )

        # Branch 2: exclude v — state-free beyond the bound update.
        self._recurse(
            index + 1, chosen_mask, blocked_mask,
            current_weight, free_weight - self.bound_weights[index],
        )


def greedy_hypergraph_mis(hg: WeightedHypergraph) -> set[Vertex]:
    """Heaviest-first greedy construction with a final add-move pass."""
    incidence = hg.incidence()
    order = sorted(
        hg.vertices,
        key=lambda v: (
            -hg.weights[v] / (len(incidence[v]) + 1),
            str(v),
        ),
    )
    chosen: set[Vertex] = set()
    for v in order:
        ok = all(
            not (hg.edges[e] - {v}) <= chosen for e in incidence[v]
        )
        if ok:
            chosen.add(v)
    # Add-move pass in raw-weight order (some light vertices may now fit).
    for v in sorted(hg.vertices, key=lambda v: (-hg.weights[v], str(v))):
        if v in chosen:
            continue
        if all(not (hg.edges[e] - {v}) <= chosen for e in incidence[v]):
            chosen.add(v)
    return chosen


def _subhypergraph(
    hg: WeightedHypergraph, keep: set[Vertex]
) -> WeightedHypergraph:
    return WeightedHypergraph(
        vertices=[v for v in hg.vertices if v in keep],
        weights={v: hg.weights[v] for v in keep},
        edges=[e for e in hg.edges if e <= keep],
    )


def _solve_component(
    sub: WeightedHypergraph, node_budget: int, exact: bool
) -> set[Vertex]:
    """Solve one edged component; runs in the parent or a pool worker.

    Counters emitted here ride back through the pool via the tracer
    delta protocol, so parent totals match a serial run exactly.
    """
    tracer = get_tracer()
    warm = greedy_hypergraph_mis(sub)
    if not (exact and len(sub.vertices) <= DEFAULT_MAX_EXACT_COMPONENT):
        tracer.count("mis.greedy_fallbacks")
        return warm
    needed_depth = len(sub.vertices) + 100
    if sys.getrecursionlimit() < needed_depth:
        sys.setrecursionlimit(needed_depth)
    solver = _HyperBranchAndBound(sub, node_budget, warm_start=warm)
    try:
        solution = solver.solve()
        tracer.count("mis.nodes_expanded", solver.nodes_used)
        return solution
    except BudgetExceededError:
        tracer.count("mis.nodes_expanded", solver.nodes_used)
        tracer.count("mis.greedy_fallbacks")
        # The incumbent started from the greedy warm start, so this is
        # never worse than the plain greedy fallback.
        return solver.best_set


def solve_hypergraph_mis(
    hg: WeightedHypergraph,
    node_budget: int = 50_000,
    exact: bool = True,
    kernelize: bool = True,
    n_jobs: int = 1,
) -> set[Vertex]:
    """Kernelize, split into components, solve each, expand back.

    ``node_budget`` applies per component; ``n_jobs > 1`` fans the
    components out to a process pool, one task each (they arrive sorted
    by size and their costs are wildly uneven).
    """
    tracer = get_tracer()
    if kernelize:
        reduction = reduce_hypergraph(hg)
        kernel = reduction.kernel
        tracer.count(
            "mis.kernel_removed", len(hg.vertices) - len(kernel.vertices)
        )
    else:
        reduction = None
        kernel = hg

    kernel_solution: set[Vertex] = set()
    subs: list[WeightedHypergraph] = []
    for component in sorted(kernel.connected_components(), key=len):
        sub = _subhypergraph(kernel, component)
        if not sub.edges:
            kernel_solution |= component
            continue
        tracer.count("mis.components")
        subs.append(sub)

    solve = partial(_solve_component, node_budget=node_budget, exact=exact)
    for solution in parallel_map(solve, subs, n_jobs=n_jobs):
        kernel_solution |= solution

    if reduction is not None:
        return expand_solution(reduction, kernel_solution)
    return kernel_solution
