"""Tests for repro.shaping: latency/memory-budgeted tree shaping.

The contract under test is *exactness*: whatever quality the shaper
reports giving up must match an offline ``score_tree`` of the shaped
tree bit-for-bit (``==`` on floats, not approx) — the shaper and the
scorer walk the instance in the same order over the same static
per-(set, category) scores, so there is no room for drift.  The
hypothesis properties drive that across random planted catalogs and
budgets; the directed tests pin the structural operators, the tracer
counters, shape-then-publish through a snapshot store, and the CLI.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CTCR
from repro.core import Variant, score_tree
from repro.observability import Tracer, use_tracer
from repro.scale import ExtremeCatalog, scaled_spec
from repro.serving import ServingEngine, SnapshotStore
from repro.shaping import (
    CostModel,
    ShapingBudget,
    TreeShaper,
    calibrate_cost_model,
    estimate_cost,
    shape_tree,
)

VARIANT = Variant.threshold_jaccard(0.1)


def planted(seed: int, n_items: int = 600, n_sets: int = 40):
    catalog = ExtremeCatalog(scaled_spec(n_items, n_sets, seed=seed))
    return catalog.planted_tree(), catalog.instance()


budgets = st.one_of(
    st.builds(ShapingBudget, max_depth=st.integers(1, 4)),
    st.builds(ShapingBudget, max_children=st.integers(2, 6)),
    st.builds(
        ShapingBudget,
        max_query_ns=st.floats(5_000, 500_000),
    ),
    st.builds(
        ShapingBudget,
        max_snapshot_bytes=st.floats(2_000, 200_000),
    ),
    st.builds(
        ShapingBudget,
        max_depth=st.integers(2, 4),
        max_children=st.integers(2, 8),
        max_query_ns=st.floats(20_000, 500_000),
    ),
)


class TestShapingProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), budget=budgets)
    def test_reported_delta_matches_offline_rescore_exactly(
        self, seed, budget
    ):
        tree, instance = planted(seed)
        result = shape_tree(tree, instance, VARIANT, budget)
        before = score_tree(tree, instance, VARIANT).normalized
        after = score_tree(result.tree, instance, VARIANT).normalized
        assert result.score_before == before
        assert result.score_after == after
        assert result.quality_given_up == before - after
        result.tree.validate(
            universe=instance.universe, bound=instance.bound
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_unbounded_budget_is_identity(self, seed):
        tree, instance = planted(seed)
        budget = ShapingBudget()
        assert budget.unbounded
        result = shape_tree(tree, instance, VARIANT, budget)
        assert result.met
        assert result.removed == 0
        assert result.quality_given_up == 0.0
        assert {c.cid for c in result.tree.categories()} == {
            c.cid for c in tree.categories()
        }

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        max_depth=st.integers(1, 4),
        max_children=st.integers(2, 8),
    )
    def test_structural_budgets_always_met(self, seed, max_depth, max_children):
        tree, instance = planted(seed)
        budget = ShapingBudget(
            max_depth=max_depth, max_children=max_children
        )
        result = shape_tree(tree, instance, VARIANT, budget)
        assert result.met
        for cat in result.tree.categories():
            assert cat.depth <= max_depth
            assert len(cat.children) <= max_children

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_shaping_never_improves_score(self, seed):
        tree, instance = planted(seed)
        budget = ShapingBudget(max_depth=2, max_children=3)
        result = shape_tree(tree, instance, VARIANT, budget)
        assert result.quality_given_up >= 0.0
        assert result.score_after <= result.score_before


class TestShapingDirected:
    def test_tight_latency_budget_forces_removals_and_stays_exact(self):
        tree, instance = planted(seed=1, n_items=2000, n_sets=80)
        model = CostModel()
        baseline = estimate_cost(tree, instance, VARIANT, model)
        # The irreducible floor: every query answered at the root still
        # pays the base cost plus its own postings.
        total_w = sum(q.weight for q in instance.sets)
        mean_size = (
            sum(q.weight * len(q.items) for q in instance.sets) / total_w
        )
        floor_ns = (
            model.base_ns
            + model.ns_per_posting * mean_size
            + model.ns_per_candidate
            + model.ns_per_path_node
        )
        budget = ShapingBudget(
            max_query_ns=floor_ns
            + 0.1 * (baseline.expected_query_ns - floor_ns)
        )
        result = TreeShaper(instance, VARIANT, model).shape(tree, budget)
        assert result.met
        assert result.removed > 0
        # Exactness matters most when quality actually moved.
        offline = score_tree(result.tree, instance, VARIANT).normalized
        assert result.score_after == offline
        assert result.cost_after.expected_query_ns <= budget.max_query_ns

    def test_memory_budget_shrinks_snapshot(self):
        tree, instance = planted(seed=2, n_items=2000, n_sets=80)
        model = CostModel()
        baseline = estimate_cost(tree, instance, VARIANT, model)
        budget = ShapingBudget(
            max_snapshot_bytes=baseline.snapshot_bytes * 0.5
        )
        result = TreeShaper(instance, VARIANT, model).shape(tree, budget)
        assert result.met
        assert (
            result.cost_after.snapshot_bytes
            <= baseline.snapshot_bytes * 0.5
        )

    def test_tracer_counters_and_gauges(self):
        tree, instance = planted(seed=3)
        tracer = Tracer()
        with use_tracer(tracer):
            result = shape_tree(
                tree, instance, VARIANT, ShapingBudget(max_depth=2)
            )
        assert tracer.counters["shaping.runs"] == 1
        assert tracer.counters["shaping.removed"] == result.removed
        assert tracer.gauges["shaping.met"] == 1.0
        assert (
            tracer.gauges["shaping.quality_given_up"]
            == result.quality_given_up
        )
        assert "shaping.shape" in tracer.spans

    def test_result_to_dict_roundtrips_json(self):
        tree, instance = planted(seed=4)
        result = shape_tree(
            tree, instance, VARIANT, ShapingBudget(max_children=4)
        )
        blob = json.loads(json.dumps(result.to_dict()))
        assert blob["met"] == result.met
        assert blob["score_after"] == result.score_after
        assert blob["budget"]["max_children"] == 4

    def test_calibrated_model_is_sane(self):
        tree, instance = planted(seed=5, n_items=1500, n_sets=60)
        model = calibrate_cost_model(tree, instance, VARIANT, samples=40)
        assert model.base_ns >= 0
        assert model.ns_per_posting >= 0
        assert model.ns_per_candidate >= 0
        assert model.ns_per_path_node >= 0
        blob = CostModel.from_dict(model.to_dict())
        assert blob == model


class TestShapeThenPublish:
    def test_shaped_tree_is_what_serves(self, figure2_instance, tmp_path):
        # Callers shape before saving; serving maps what was saved.
        variant = Variant.threshold_jaccard(0.8)
        tree = CTCR().build(figure2_instance, variant)
        result = shape_tree(
            tree, figure2_instance, variant, ShapingBudget(max_children=2)
        )
        assert result.met
        store = SnapshotStore(tmp_path)
        store.save(result.tree, figure2_instance, variant)
        engine = ServingEngine()
        engine.swap(store)
        children_of = engine.current.indexes.children_of
        assert all(len(children_of[cid]) <= 2 for cid in children_of)
        loaded = store.load()
        assert score_tree(loaded.tree, figure2_instance, variant) == (
            score_tree(result.tree, figure2_instance, variant)
        )


class TestShapeCLI:
    def test_shape_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        catalog = ExtremeCatalog(scaled_spec(1200, 50, seed=9))
        inst_path = tmp_path / "instance.json"
        tree_path = tmp_path / "tree.json"
        rc = main(
            [
                "synthesize", "--items", "1200", "--sets", "50",
                "--seed", "9", "--output", str(inst_path),
                "--tree-output", str(tree_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()

        out_path = tmp_path / "shaped.json"
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "shape", "--instance", str(inst_path),
                "--tree", str(tree_path),
                "--variant", "threshold-jaccard:0.1",
                "--max-depth", "3", "--max-children", "5",
                "--output", str(out_path), "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "budget met" in out
        report = json.loads(report_path.read_text())
        assert report["met"] is True

        from repro.io import load_tree

        shaped = load_tree(out_path)
        for cat in shaped.categories():
            assert cat.depth <= 3 and len(cat.children) <= 5
        # The shaped artifact scores exactly what the report claims.
        instance = catalog.instance()
        offline = score_tree(
            shaped, instance, Variant.threshold_jaccard(0.1)
        ).normalized
        assert offline == report["score_after"]

    def test_shape_returns_nonzero_when_budget_missed(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        inst_path = tmp_path / "instance.json"
        tree_path = tmp_path / "tree.json"
        main(
            [
                "synthesize", "--items", "800", "--sets", "40",
                "--seed", "3", "--output", str(inst_path),
                "--tree-output", str(tree_path),
            ]
        )
        capsys.readouterr()
        # An impossible memory budget: even an empty tree costs more.
        rc = main(
            [
                "shape", "--instance", str(inst_path),
                "--tree", str(tree_path),
                "--variant", "threshold-jaccard:0.1",
                "--max-snapshot-bytes", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "NOT met" in out
