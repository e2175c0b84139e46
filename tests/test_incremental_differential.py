"""Differential tier: delta builds must equal from-scratch builds.

Every assertion here has the same shape — run the publish path over a
randomized churn sequence and check it is *indistinguishable* from a
cold rebuild at each step:

* the delta-built tree is byte-identical (``tree_to_dict`` JSON) to a
  from-scratch :class:`~repro.algorithms.CTCR` build of the churned
  instance;
* the staged preprocess of a churned dataset equals a cold preprocess.

Long 200-step sequences are marked ``slow``; the fast tier keeps CI
honest with shorter sequences over the same generators.
"""

from __future__ import annotations

import json
import random

import pytest

from tests.churn import churn_instance, churn_query_log, churn_sequence
from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant
from repro.incremental import (
    IncrementalBuilder,
    ResultSetCache,
    incremental_preprocess,
)
from repro.io import instance_to_dict, tree_to_dict
from repro.pipeline import preprocess

VARIANTS = [
    Variant.perfect_recall(0.6),
    Variant.threshold_jaccard(0.8),
    Variant.exact(),
]


def tree_json(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def oracle_tree(instance, variant):
    """From-scratch build with the same config the delta path uses."""
    return CTCR(CTCRConfig()).build(instance, variant)


def run_differential(instance, variant, *, steps, frac, seed) -> None:
    rng = random.Random(seed)
    builder = IncrementalBuilder(CTCRConfig())
    tree, state = builder.full_build(instance, variant)
    assert tree_json(tree) == tree_json(oracle_tree(instance, variant))
    for step, churned in enumerate(
        churn_sequence(instance, rng, steps=steps, frac=frac)
    ):
        result = builder.delta_build(state, churned, variant)
        state = result.state
        expected = oracle_tree(churned, variant)
        assert tree_json(result.tree) == tree_json(expected), (
            f"delta tree diverged from full rebuild at step {step}"
        )


class TestInstanceChurnDifferential:
    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_figure2_sequences(self, figure2_instance, variant):
        run_differential(
            figure2_instance, variant, steps=25, frac=0.3, seed=11
        )

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    def test_synthetic_sequences(self, tiny_dataset, variant):
        instance, _report = preprocess(tiny_dataset, variant)
        run_differential(instance, variant, steps=12, frac=0.15, seed=23)

    def test_heavy_removal_mix(self, figure2_instance):
        """Sequences dominated by removals shrink to near-empty and back."""
        variant = Variant.perfect_recall(0.6)
        rng = random.Random(5)
        builder = IncrementalBuilder(CTCRConfig())
        _tree, state = builder.full_build(figure2_instance, variant)
        current = figure2_instance
        for _ in range(20):
            current = churn_instance(current, rng, frac=0.5, mix=(1, 3, 1))
            result = builder.delta_build(state, current, variant)
            state = result.state
            assert tree_json(result.tree) == tree_json(
                oracle_tree(current, variant)
            )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "variant",
        [Variant.perfect_recall(0.6), Variant.threshold_jaccard(0.8)],
        ids=str,
    )
    def test_long_randomized_sequences(self, tiny_dataset, variant):
        """The acceptance-criteria tier: 200-step randomized sequences."""
        instance, _report = preprocess(tiny_dataset, variant)
        run_differential(instance, variant, steps=200, frac=0.1, seed=42)


class TestPipelineChurnDifferential:
    def test_staged_preprocess_equals_cold(self, tiny_dataset):
        """Memoized re-preprocess is byte-identical to a cold run."""
        variant = Variant.perfect_recall(0.6)
        cache = ResultSetCache()
        rng = random.Random(7)
        dataset = tiny_dataset
        # Warm the cache on the base dataset first, as a publish would.
        staged, _ = incremental_preprocess(dataset, variant, cache)
        cold, _ = preprocess(dataset, variant)
        assert instance_to_dict(staged) == instance_to_dict(cold)
        for _ in range(4):
            dataset = churn_query_log(dataset, rng, frac=0.15)
            staged, _ = incremental_preprocess(dataset, variant, cache)
            cold, _ = preprocess(dataset, variant)
            assert instance_to_dict(staged) == instance_to_dict(cold)
        assert cache.hits > 0  # churn left most queries untouched

    def test_staged_then_delta_build_equals_oracle(self, tiny_dataset):
        """The full publish path: staged preprocess + delta build."""
        variant = Variant.perfect_recall(0.6)
        cache = ResultSetCache()
        builder = IncrementalBuilder(CTCRConfig())
        rng = random.Random(13)
        instance, _ = incremental_preprocess(tiny_dataset, variant, cache)
        _tree, state = builder.full_build(instance, variant)
        dataset = tiny_dataset
        for _ in range(3):
            dataset = churn_query_log(dataset, rng, frac=0.2)
            churned, _ = incremental_preprocess(dataset, variant, cache)
            result = builder.delta_build(state, churned, variant)
            state = result.state
            assert tree_json(result.tree) == tree_json(
                oracle_tree(churned, variant)
            )
