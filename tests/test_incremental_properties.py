"""Property tier for delta builds.

**Weight sensitivity**: a reweight-only churn step changes MWIS inputs
without changing any member set, and reweight-only churn must still
build the trees a from-scratch build does.
"""

from __future__ import annotations

import json
import random

from tests.churn import churn_sequence
from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant
from repro.incremental import IncrementalBuilder
from repro.io import tree_to_dict

VARIANT = Variant.perfect_recall(0.6)


def tree_json(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


class TestReweightInvalidation:
    def test_reweight_differential_over_sequences(self, figure2_instance):
        """Reweight-only churn stays tree-identical to full rebuilds."""
        rng = random.Random(67)
        builder = IncrementalBuilder(CTCRConfig())
        _tree, state = builder.full_build(figure2_instance, VARIANT)
        for churned in churn_sequence(
            figure2_instance, rng, steps=15, frac=0.5, mix=(0, 0, 1)
        ):
            result = builder.delta_build(state, churned, VARIANT)
            state = result.state
            oracle = CTCR(CTCRConfig()).build(churned, VARIANT)
            assert tree_json(result.tree) == tree_json(oracle)
