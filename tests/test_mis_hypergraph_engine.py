"""The kernelized bitset hypergraph-MIS engine, pinned differentially.

Four contracts:

* the mixed 2/3-edge reductions + expansion are weight-exact against
  brute force on instances small enough to enumerate;
* the engine returns identical selections across its whole flag grid —
  kernelize on/off, cache on/off, serial vs pooled components;
* the bitset 3-conflict enumeration matches the nested-loop reference
  in ``tests/oracles.py`` on randomized instances and every variant
  family;
* the solver façade's hyperedge guard behaves as documented.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from repro.conflicts.ranking import rank_sets
from repro.conflicts.three_conflicts import compute_three_conflicts
from repro.conflicts.two_conflicts import compute_pairwise
from repro.core import Variant
from repro.mis.hypergraph_mis import (
    WeightedHypergraph,
    _HyperBranchAndBound,
    greedy_hypergraph_mis,
    solve_hypergraph_mis,
)
from repro.mis.hypergraph_reductions import (
    expand_solution,
    reduce_hypergraph,
)
from repro.mis.solver import MISConfig, _to_graph, solve_conflicts
from repro.observability import Tracer, use_tracer

from tests.oracles import three_conflicts_reference
from tests.test_ctcr_equivalence import random_instance


def brute_force_weight(hg: WeightedHypergraph) -> float:
    vs = list(hg.vertices)
    assert len(vs) <= 16
    best = 0.0
    for r in range(len(vs) + 1):
        for comb in itertools.combinations(vs, r):
            s = set(comb)
            if hg.is_independent(s):
                best = max(best, hg.weight_of(s))
    return best


def random_hypergraph(rng: random.Random, n: int) -> WeightedHypergraph:
    vs = list(range(n))
    weights = {
        v: rng.choice([1.0, 1.0, 2.0, 3.0, rng.uniform(0.5, 5.0)])
        for v in vs
    }
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        size = rng.choice([2, 2, 3])
        if n >= size:
            edges.add(frozenset(rng.sample(vs, size)))
    return WeightedHypergraph(
        vertices=vs, weights=weights, edges=sorted(edges, key=sorted)
    )


class TestHypergraphReductions:
    def test_reduce_expand_matches_brute_force(self):
        rng = random.Random(7)
        for trial in range(150):
            hg = random_hypergraph(rng, rng.randint(1, 12))
            expected = brute_force_weight(hg)
            result = reduce_hypergraph(hg)
            kernel_solution = solve_hypergraph_mis(
                result.kernel, kernelize=False
            )
            lifted = expand_solution(result, kernel_solution)
            assert hg.is_independent(lifted), f"trial {trial}"
            assert hg.weight_of(lifted) == pytest.approx(expected), (
                f"trial {trial}"
            )

    def test_input_not_mutated(self):
        hg = random_hypergraph(random.Random(3), 10)
        vertices, weights = list(hg.vertices), dict(hg.weights)
        edges = list(hg.edges)
        reduce_hypergraph(hg)
        assert hg.vertices == vertices
        assert hg.weights == weights
        assert hg.edges == edges

    def test_three_edge_blocks_pair_only_rules(self):
        """A vertex in a 3-edge is not pair-only: it must survive to the
        kernel rather than being folded as a pendant."""
        hg = WeightedHypergraph(
            vertices=[0, 1, 2, 3],
            weights={0: 1.0, 1: 5.0, 2: 5.0, 3: 5.0},
            edges=[frozenset({0, 1}), frozenset({1, 2, 3})],
        )
        result = reduce_hypergraph(hg)
        # 0 is a light pendant -> degree-1 fold; the 3-edge survives.
        assert ("fold", 0, 1) in result.events
        assert frozenset({1, 2, 3}) in result.kernel.edges
        solution = expand_solution(
            result, solve_hypergraph_mis(result.kernel, kernelize=False)
        )
        assert hg.is_independent(solution)
        assert hg.weight_of(solution) == pytest.approx(11.0)  # two of {1,2,3} + 0

    def test_fold2_rewires_three_edges(self):
        """Degree-2 fold where a folded endpoint also sits in a 3-edge:
        the 3-edge must follow the synthetic vertex."""
        hg = WeightedHypergraph(
            vertices=["u", "v", "x", "a", "b"],
            weights={"u": 2.0, "v": 2.0, "x": 2.0, "a": 9.0, "b": 9.0},
            edges=[
                frozenset({"u", "v"}),
                frozenset({"v", "x"}),
                frozenset({"u", "a", "b"}),
            ],
        )
        expected = brute_force_weight(hg)
        result = reduce_hypergraph(hg)
        solution = expand_solution(
            result, solve_hypergraph_mis(result.kernel, kernelize=False)
        )
        assert hg.is_independent(solution)
        assert hg.weight_of(solution) == pytest.approx(expected)

    def test_domination_victim_may_carry_three_edges(self):
        """v dominated by pair-only u is removed even when v sits in a
        3-edge (v is only ever excluded, which voids its edges)."""
        hg = WeightedHypergraph(
            vertices=["u", "v", "c", "a", "b"],
            weights={"u": 3.0, "v": 1.0, "c": 2.0, "a": 2.0, "b": 2.0},
            edges=[
                frozenset({"u", "v"}),
                frozenset({"u", "c"}),
                frozenset({"v", "c"}),
                frozenset({"v", "a", "b"}),
            ],
        )
        expected = brute_force_weight(hg)
        result = reduce_hypergraph(hg)
        solution = expand_solution(
            result, solve_hypergraph_mis(result.kernel, kernelize=False)
        )
        assert hg.is_independent(solution)
        assert hg.weight_of(solution) == pytest.approx(expected)


class TestBitsetBranchAndBound:
    def test_matches_brute_force(self):
        rng = random.Random(11)
        for trial in range(80):
            hg = random_hypergraph(rng, rng.randint(1, 11))
            solver = _HyperBranchAndBound(hg, node_budget=10**9)
            solution = solver.solve()
            assert hg.is_independent(solution), f"trial {trial}"
            assert hg.weight_of(solution) == pytest.approx(
                brute_force_weight(hg)
            ), f"trial {trial}"

    def test_warm_start_never_loses_to_greedy(self):
        rng = random.Random(13)
        for _ in range(30):
            hg = random_hypergraph(rng, rng.randint(2, 11))
            warm = greedy_hypergraph_mis(hg)
            solver = _HyperBranchAndBound(
                hg, node_budget=10**9, warm_start=warm
            )
            solution = solver.solve()
            assert hg.weight_of(solution) >= hg.weight_of(warm) - 1e-9
            assert hg.weight_of(solution) == pytest.approx(
                brute_force_weight(hg)
            )

    def test_budget_exhaustion_returns_incumbent(self):
        hg = random_hypergraph(random.Random(17), 12)
        solution = solve_hypergraph_mis(hg, node_budget=2, kernelize=False)
        assert hg.is_independent(solution)
        # Never worse than the greedy warm start.
        assert hg.weight_of(solution) >= hg.weight_of(
            greedy_hypergraph_mis(hg)
        ) - 1e-9


class TestEngineGrid:
    def test_flag_grid_identical_selections(self):
        """kernelize x n_jobs all return the same selection."""
        rng = random.Random(19)
        for trial in range(8):
            n = rng.randint(15, 40)
            vs = list(range(n))
            weights = {v: rng.uniform(0.5, 5.0) for v in vs}
            edges = set()
            for _ in range(2 * n):
                size = rng.choice([2, 2, 3])
                edges.add(frozenset(rng.sample(vs, size)))
            hg = WeightedHypergraph(
                vertices=vs, weights=weights, edges=sorted(edges, key=sorted)
            )
            baseline = solve_hypergraph_mis(hg)
            for kernelize in (True, False):
                for n_jobs in (1, 2):
                    got = solve_hypergraph_mis(
                        hg, kernelize=kernelize, n_jobs=n_jobs
                    )
                    assert got == baseline, (
                        f"trial {trial}: kernelize={kernelize} "
                        f"n_jobs={n_jobs}"
                    )


class TestThreeConflictDifferential:
    VARIANTS = [
        Variant.perfect_recall(0.5),
        Variant.perfect_recall(0.7),
        Variant.threshold_jaccard(0.5),
        Variant.cutoff_f1(0.5),
    ]

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: str(v))
    def test_bitset_enumeration_matches_reference(self, variant):
        for seed in range(6):
            instance = random_instance(seed, n_sets=35, n_items=30)
            ranking = rank_sets(instance)
            analysis = compute_pairwise(instance, variant, ranking)
            assert compute_three_conflicts(
                analysis
            ) == three_conflicts_reference(analysis)

    def test_empty_must_together(self):
        instance = random_instance(41, n_sets=6, n_items=60)
        variant = Variant.threshold_jaccard(0.99)
        analysis = compute_pairwise(instance, variant)
        assert compute_three_conflicts(
            analysis
        ) == three_conflicts_reference(analysis)


class TestSolverFacade:
    def test_to_graph_rejects_hyperedge_naming_it(self):
        hg = WeightedHypergraph(
            vertices=[1, 2, 3],
            weights={1: 1.0, 2: 1.0, 3: 1.0},
            edges=[frozenset({1, 2, 3})],
        )
        with pytest.raises(ValueError, match=r"\[1, 2, 3\].*size 3"):
            _to_graph(hg)

    def test_solve_conflicts_mis_config_grid(self):
        """solve_conflicts honours n_jobs without changing the selection."""
        hg = random_hypergraph(random.Random(29), 14)
        if not any(len(e) == 3 for e in hg.edges):  # pragma: no cover
            pytest.skip("generator produced no triples")
        baseline = solve_conflicts(hg, MISConfig())
        for n_jobs in (1, 2):
            assert solve_conflicts(hg, MISConfig(n_jobs=n_jobs)) == baseline


@pytest.mark.slow
def test_bench_mis_engine_tiny_smoke(tmp_path, monkeypatch):
    """The MIS engine benchmark's --tiny mode runs end to end."""
    root = Path(__file__).resolve().parents[1]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from benchmarks import common
    from benchmarks.bench_mis_engine import run

    # The report block must not land in the tracked benchmarks/results.log.
    log = tmp_path / "results.log"
    monkeypatch.setattr(common, "RESULTS_LOG", log)
    payload = run(tiny=True)
    assert "=== MIS engine" in log.read_text(encoding="utf-8")
    assert payload["stage_rows"], "tiny run produced no measurements"
    assert all(r["speedup"] > 0 for r in payload["stage_rows"])
    # Tiny mode must not clobber the committed full-mode numbers.
    assert (Path(root) / "benchmarks" / "BENCH_mis_tiny.json").exists()
