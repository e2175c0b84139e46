"""Failure injection: budget exhaustion, degenerate inputs, fallbacks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CCT, CTCR, CTCRConfig
from repro.algorithms.condense import condense
from repro.core import CategoryTree, Variant, make_instance, score_tree
from repro.mis import (
    BudgetExceededError,
    MISConfig,
    WeightedGraph,
    WeightedHypergraph,
    solve_conflicts,
    solve_exact,
    solve_hypergraph_mis,
)


def dense_graph(n: int) -> WeightedGraph:
    g = WeightedGraph(range(n), {i: 1.0 + (i % 3) for i in range(n)})
    for a in range(n):
        for b in range(a + 1, n):
            if (a + b) % 3:
                g.add_edge(a, b)
    return g


_PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),  # outer cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),  # inner star
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),  # spokes
]


def reduction_resistant_graph(copies: int) -> WeightedGraph:
    """Disjoint Petersen graphs: 3-regular, girth 5, twin/domination-free.

    Degree-based folds need degree <= 2 and the uniform weights defeat
    the weight-based rules, so the kernel keeps all vertices and
    branch-and-bound must actually branch.
    """
    g = WeightedGraph()
    for c in range(copies):
        base = 10 * c
        for i in range(10):
            g.add_vertex(base + i, 1.0)
        for a, b in _PETERSEN_EDGES:
            g.add_edge(base + a, base + b)
    return g


class TestBudgets:
    def test_petersen_gadget_resists_reductions(self):
        from repro.mis import reduce_graph

        g = reduction_resistant_graph(1)
        assert len(reduce_graph(g).kernel) == 10

    def test_exact_raises_on_tiny_budget(self):
        with pytest.raises(BudgetExceededError):
            solve_exact(reduction_resistant_graph(10), node_budget=3)

    def test_facade_falls_back_to_greedy(self):
        g = dense_graph(30)
        hg = WeightedHypergraph(
            g.vertices(), dict(g.weights),
            [frozenset(e) for e in g.edges()],
        )
        solution = solve_conflicts(hg, MISConfig(node_budget=3))
        assert g.is_independent_set(solution)
        assert solution  # something useful still comes back

    def test_hypergraph_budget_fallback(self):
        hg = WeightedHypergraph(
            list(range(12)),
            {i: 1.0 for i in range(12)},
            [
                frozenset({i, (i + 1) % 12, (i + 2) % 12})
                for i in range(12)
            ],
        )
        solution = solve_hypergraph_mis(hg, node_budget=2)
        assert hg.is_independent(solution)

    def test_ctcr_survives_tiny_mis_budget(self, figure2_instance):
        builder = CTCR(CTCRConfig(mis=MISConfig(node_budget=1)))
        tree = builder.build(figure2_instance, Variant.exact())
        tree.validate(universe=figure2_instance.universe)
        assert score_tree(
            tree, figure2_instance, Variant.exact()
        ).normalized > 0


class TestDegenerateInputs:
    def test_single_item_universe(self):
        inst = make_instance([{"only"}])
        for builder in (CTCR(), CCT()):
            tree = builder.build(inst, Variant.exact())
            tree.validate(universe=inst.universe)
            assert score_tree(tree, inst, Variant.exact()).normalized == 1.0

    def test_identical_sets(self):
        inst = make_instance([{"a", "b"}, {"a", "b"}, {"a", "b"}])
        for builder in (CTCR(), CCT()):
            tree = builder.build(inst, Variant.exact())
            tree.validate(universe=inst.universe)
            report = score_tree(tree, inst, Variant.exact())
            assert report.normalized == 1.0  # one category covers all

    def test_zero_weight_sets(self):
        inst = make_instance([{"a", "b"}, {"b", "c"}], weights=[0.0, 0.0])
        tree = CTCR().build(inst, Variant.exact())
        tree.validate(universe=inst.universe)

    def test_all_sets_conflict(self):
        # Pairwise intersecting, pairwise non-nested: only one survives.
        inst = make_instance(
            [{"x", 1, 2}, {"x", 3, 4}, {"x", 5, 6}], weights=[1.0, 2.0, 3.0]
        )
        tree = CTCR().build(inst, Variant.exact())
        report = score_tree(tree, inst, Variant.exact())
        assert report.covered_weight == 3.0  # the heaviest one

    def test_giant_single_set(self):
        inst = make_instance([set(range(500))])
        tree = CTCR().build(inst, Variant.threshold_jaccard(0.8))
        tree.validate(universe=inst.universe)
        assert (
            score_tree(tree, inst, Variant.threshold_jaccard(0.8)).normalized
            == 1.0
        )


class TestCondenseInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.sets(st.integers(0, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        ),
    )
    def test_condense_preserves_validity_and_score(self, raw_sets, raw_cats):
        """Lines 24-25 "may only increase the score" on arbitrary trees.

        The comparison excludes the miscellaneous category: its covers
        are incidental (it merely parks unassigned items) and its exact
        contents differ between the two sides.
        """
        from repro.algorithms.condense import (
            remove_noncovered_items,
            remove_noncovering_categories,
        )

        inst = make_instance(raw_sets)
        tree = CategoryTree()
        used: set = set()
        for items in raw_cats:
            fresh = items - used  # keep items on one branch
            if fresh:
                tree.add_category(fresh)
                used |= fresh
        variant = Variant.threshold_jaccard(0.6)
        before = score_tree(tree, inst, variant).normalized
        remove_noncovered_items(tree, inst, variant)
        remove_noncovering_categories(tree, inst, variant)
        tree.validate()
        after = score_tree(tree, inst, variant).normalized
        assert after >= before - 1e-9


class TestIncrementalCrash:
    """A crash mid-rebuild must not corrupt the snapshot store.

    A rebuild publishes as build -> ``store.save`` -> ``engine.swap``, so
    the store only sees a snapshot after the build succeeds: an injected
    failure inside the rebuild must leave CURRENT pointing at the
    pre-crash snapshot, leave no staged garbage behind, and let the next
    rebuild publish normally.
    """

    def test_crash_mid_delta_leaves_current_untouched(
        self, tmp_path, figure2_instance, monkeypatch
    ):
        import random

        from repro.serving import ServingEngine, SnapshotStore
        from tests.churn import churn_instance

        variant = Variant.threshold_jaccard(0.8)
        store = SnapshotStore(tmp_path)
        engine = ServingEngine()
        builder = CTCR(CTCRConfig())

        def rebuild(instance):
            tree = builder.build(instance, variant)
            store.save(tree, instance, variant)
            return engine.swap(store)

        rebuild(figure2_instance)
        current_before = store.current_id()
        assert current_before is not None
        generation_before = engine.generation

        churned = churn_instance(
            figure2_instance, random.Random(1), frac=0.4
        )

        def boom(*args, **kwargs):
            raise RuntimeError("injected crash mid-rebuild")

        monkeypatch.setattr(type(builder), "build", boom)
        with pytest.raises(RuntimeError, match="injected crash"):
            rebuild(churned)
        monkeypatch.undo()

        # CURRENT still points at the pre-crash snapshot, the store has
        # no half-written staging directories, and nothing was published.
        assert store.current_id() == current_before
        assert not [p for p in tmp_path.iterdir() if "staging" in p.name]
        assert engine.generation == generation_before

        # The next rebuild publishes normally.
        gen = rebuild(churned)
        assert store.current_id() == gen.snapshot_id
        assert store.current_id() != current_before
