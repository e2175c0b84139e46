"""Property tier for catalog deltas and delta builds.

The delta algebra and the build pipeline each carry a law:

* **composition** — delta-building twice equals delta-building once
  with the composed delta, equals a from-scratch build of the final
  instance (``apply ∘ apply == apply ∘ compose``).
* **identity** — the empty delta is a no-op on the instance.
* **weight sensitivity**: a reweight-only delta changes MWIS inputs
  without changing any member set, and reweight-only churn must still
  build the trees a from-scratch build does.
"""

from __future__ import annotations

import json
import random

import pytest

from tests.churn import delta_sequence, random_delta
from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant
from repro.core.input_sets import InputSet
from repro.incremental import (
    CatalogDelta,
    IncrementalBuilder,
    InvalidDeltaError,
)
from repro.io import instance_to_dict, tree_to_dict

VARIANT = Variant.perfect_recall(0.6)


def tree_json(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


# ---------------------------------------------------------------------------
# Delta algebra
# ---------------------------------------------------------------------------


class TestDeltaAlgebra:
    def test_apply_compose_equivalence(self, figure2_instance):
        rng = random.Random(31)
        current = figure2_instance
        for _ in range(15):
            d1 = random_delta(current, rng, frac=0.4)
            mid = d1.apply(current)
            d2 = random_delta(mid, rng, frac=0.4)
            composed = d1.compose(d2)
            composed.validate(current)
            assert instance_to_dict(composed.apply(current)) == (
                instance_to_dict(d2.apply(mid))
            )
            current = d2.apply(mid)

    def test_empty_delta_identity(self, figure2_instance):
        empty = CatalogDelta()
        assert empty.is_empty()
        assert empty.num_changes == 0
        assert instance_to_dict(empty.apply(figure2_instance)) == (
            instance_to_dict(figure2_instance)
        )

    def test_round_trip_through_dict(self, figure2_instance):
        rng = random.Random(17)
        for _ in range(10):
            delta = random_delta(figure2_instance, rng, frac=0.5)
            assert CatalogDelta.from_dict(delta.to_dict()) == delta

    def test_between_recovers_a_delta(self, figure2_instance):
        delta = random_delta(figure2_instance, random.Random(9), frac=0.5)
        churned = delta.apply(figure2_instance)
        recovered = CatalogDelta.between(figure2_instance, churned)
        assert instance_to_dict(recovered.apply(figure2_instance)) == (
            instance_to_dict(churned)
        )

    def test_validation_rejects_unknown_removals(self, figure2_instance):
        with pytest.raises(InvalidDeltaError, match="unknown sids"):
            CatalogDelta(removed=frozenset({999})).validate(figure2_instance)

    def test_validation_rejects_missing_reweights(self, figure2_instance):
        with pytest.raises(InvalidDeltaError, match="missing or removed"):
            CatalogDelta(reweighted=((999, 2.0),)).validate(figure2_instance)

    def test_validation_rejects_reweight_of_removed(self, figure2_instance):
        sid = figure2_instance.sets[0].sid
        with pytest.raises(InvalidDeltaError, match="missing or removed"):
            CatalogDelta(
                removed=frozenset({sid}), reweighted=((sid, 2.0),)
            ).validate(figure2_instance)

    def test_validation_rejects_negative_weights(self, figure2_instance):
        sid = figure2_instance.sets[0].sid
        with pytest.raises(InvalidDeltaError, match="negative weight"):
            CatalogDelta(reweighted=((sid, -1.0),)).validate(figure2_instance)

    def test_validation_rejects_duplicate_adds(self, figure2_instance):
        sid = figure2_instance.sets[0].sid
        clash = InputSet(sid=sid, items=frozenset({"a", "b"}))
        with pytest.raises(InvalidDeltaError, match="duplicate sid"):
            CatalogDelta(added=(clash,)).validate(figure2_instance)


# ---------------------------------------------------------------------------
# Build composition
# ---------------------------------------------------------------------------


class TestBuildComposition:
    def test_chained_builds_equal_composed_build(self, figure2_instance):
        """delta∘delta == delta-of-composed-delta == full build."""
        rng = random.Random(41)
        builder = IncrementalBuilder(CTCRConfig())
        _tree, base_state = builder.full_build(figure2_instance, VARIANT)
        for _ in range(8):
            d1 = random_delta(figure2_instance, rng, frac=0.4)
            mid = d1.apply(figure2_instance)
            d2 = random_delta(mid, rng, frac=0.4)
            final = d2.apply(mid)

            step1 = builder.delta_build(base_state, mid, VARIANT)
            chained = builder.delta_build(step1.state, final, VARIANT)

            composed_instance = d1.compose(d2).apply(figure2_instance)
            one_shot = builder.delta_build(
                base_state, composed_instance, VARIANT
            )
            full = CTCR(CTCRConfig()).build(final, VARIANT)

            assert tree_json(chained.tree) == tree_json(one_shot.tree)
            assert tree_json(chained.tree) == tree_json(full)


# ---------------------------------------------------------------------------
# Reweight invalidation
# ---------------------------------------------------------------------------


class TestReweightInvalidation:
    def test_reweight_differential_over_sequences(self, figure2_instance):
        """Reweight-only churn stays tree-identical to full rebuilds."""
        rng = random.Random(67)
        builder = IncrementalBuilder(CTCRConfig())
        _tree, state = builder.full_build(figure2_instance, VARIANT)
        for _, churned in delta_sequence(
            figure2_instance, rng, steps=15, frac=0.5, mix=(0, 0, 1)
        ):
            result = builder.delta_build(state, churned, VARIANT)
            state = result.state
            oracle = CTCR(CTCRConfig()).build(churned, VARIANT)
            assert tree_json(result.tree) == tree_json(oracle)
