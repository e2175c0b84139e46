"""End-to-end equivalence of CTCR's pairwise kernel and the scalar oracle.

``compute_pairwise`` (sparse incidence kernel + vectorized closed forms)
mirrors the scalar closed forms term for term, so it must agree exactly
with :func:`tests.oracles.pairwise_reference` — the per-item inverted
index classifying one pair at a time — on every instance and variant:
same pair classifications, and the same trees and scores when CTCR
classifies its pairs with the oracle (``compute_pairwise`` patched on
:mod:`repro.algorithms.ctcr`). These tests pin that contract.

The same differential harness pins the observability layer: tracing is
measurement only, so builds with tracing enabled must be bit-identical —
trees, scores, diagnostics — to builds with the null tracer, for both
algorithms, a serial or pooled MIS stage, and CTCR pairs classified by
the kernel or by the oracle loop (TestTracingEquivalence).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import CCT, CTCR, CTCRConfig
from repro.algorithms import ctcr as ctcr_module
from repro.conflicts import two_conflicts
from repro.conflicts.two_conflicts import compute_pairwise
from repro.mis import MISConfig
from repro.core import OCTInstance, Variant, make_instance, score_tree
from repro.core.input_sets import InputSet
from repro.io import tree_to_dict
from repro.observability import Tracer, use_tracer
from repro.utils import make_rng

from tests.oracles import pairwise_reference


def random_instance(seed, n_sets=30, n_items=40) -> OCTInstance:
    """A randomized instance with weights, per-set thresholds, and a
    sprinkling of non-uniform item bounds."""
    rng = make_rng(seed)
    universe = [f"i{k}" for k in range(n_items)]
    sets = []
    for sid in range(n_sets):
        items = frozenset(rng.sample(universe, rng.randint(1, 10)))
        threshold = rng.choice([None, None, 0.4, 0.9])
        sets.append(
            InputSet(
                sid=sid,
                items=items,
                weight=rng.randint(1, 5),
                threshold=threshold,
            )
        )
    bounds = {item: 2 for item in rng.sample(universe, n_items // 5)}
    return OCTInstance(
        sets, universe=universe, item_bounds=bounds, default_bound=1
    )


EQUIV_VARIANTS = [
    Variant.exact(),
    Variant.threshold_jaccard(0.5),
    Variant.cutoff_jaccard(0.7),
    Variant.threshold_f1(0.6),
    Variant.cutoff_f1(0.5),
    Variant.perfect_recall(0.5),
    Variant.perfect_recall(1.0),
]


def assert_same_analysis(old, new):
    assert old.conflicts == new.conflicts
    assert old.must_together == new.must_together
    assert old.can_separately == new.can_separately
    assert old.intersections == new.intersections


class TestPairwiseEquivalence:
    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_random_instances(self, variant):
        for seed in range(5):
            instance = random_instance(seed)
            assert_same_analysis(
                pairwise_reference(instance, variant),
                compute_pairwise(instance, variant),
            )

    def test_uniform_bound_fast_path(self):
        # No per-item overrides: the kernel reuses full intersection
        # counts for the bound-1 shared counts.
        rng = make_rng(99)
        universe = [f"i{k}" for k in range(30)]
        sets = [
            InputSet(sid=s, items=frozenset(rng.sample(universe, 5)))
            for s in range(20)
        ]
        instance = OCTInstance(sets, universe=universe)
        variant = Variant.threshold_jaccard(0.6)
        assert_same_analysis(
            pairwise_reference(instance, variant),
            compute_pairwise(instance, variant),
        )

    def test_paper_examples(self, figure2_instance, example32_instance, all_variants):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                assert_same_analysis(
                    pairwise_reference(instance, variant),
                    compute_pairwise(instance, variant),
                )


def build_fingerprint(instance, variant, **config):
    tree = CTCR(CTCRConfig(**config)).build(instance, variant)
    report = score_tree(tree, instance, variant)
    return tree_to_dict(tree), report.normalized, report.total, tree.to_text()


def assert_tree_matches_oracle(monkeypatch, instance, variant):
    """Default CTCR == CTCR classifying its pairs with the scalar oracle."""
    default = build_fingerprint(instance, variant)
    with monkeypatch.context() as patch:
        patch.setattr(ctcr_module, "compute_pairwise", pairwise_reference)
        oracle = build_fingerprint(instance, variant)
    assert default == oracle


class TestTreeEquivalence:
    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_random_instance_trees_identical(self, variant, monkeypatch):
        for seed in (17, 18, 19):
            assert_tree_matches_oracle(
                monkeypatch, random_instance(seed, n_sets=25), variant
            )

    def test_paper_examples_trees_identical(
        self, figure2_instance, example32_instance, all_variants, monkeypatch
    ):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                assert_tree_matches_oracle(monkeypatch, instance, variant)

    @pytest.mark.slow
    def test_tiny_dataset_trees_identical(self, tiny_dataset, monkeypatch):
        from repro.pipeline import preprocess

        for variant in (
            Variant.threshold_jaccard(0.8),
            Variant.perfect_recall(0.6),
            Variant.cutoff_f1(0.7),
        ):
            instance, _report = preprocess(tiny_dataset, variant)
            assert_tree_matches_oracle(monkeypatch, instance, variant)

    @pytest.mark.slow
    def test_n_jobs_parity(self, tiny_dataset):
        """Trees are identical for MIS n_jobs=1 vs 4."""
        from repro.pipeline import preprocess

        variant = Variant.perfect_recall(0.6)
        instance, _report = preprocess(tiny_dataset, variant)
        baseline = build_fingerprint(
            instance, variant, mis=MISConfig(n_jobs=1)
        )
        fanned = build_fingerprint(instance, variant, mis=MISConfig(n_jobs=4))
        assert fanned == baseline


class TestMISEngineEquivalence:
    """The MIS engine's one knob must never change the tree: serial and
    pooled components return an identical tree and score."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "variant",
        [Variant.perfect_recall(0.5), Variant.threshold_jaccard(0.5)],
        ids=lambda v: str(v),
    )
    def test_pooled_mis_grid(self, variant):
        """--mis-jobs 4 matches serial."""
        instance = random_instance(43, n_sets=35)
        base = build_fingerprint(instance, variant, mis=MISConfig())
        got = build_fingerprint(instance, variant, mis=MISConfig(n_jobs=4))
        assert got == base, "n_jobs=4"


def ctcr_fingerprint_with_diag(instance, variant, **config):
    """(tree, scores, diagnostics) — everything tracing must not change."""
    builder = CTCR(CTCRConfig(**config))
    tree = builder.build(instance, variant)
    report = score_tree(tree, instance, variant)
    return (
        tree_to_dict(tree),
        report.normalized,
        report.total,
        tree.to_text(),
        builder.last_diagnostics.as_dict(),
    )


class TestTracingEquivalence:
    """Tracing on vs. off is a no-op for every observable output."""

    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    @pytest.mark.parametrize("engine", ["sets", "bitset"])
    @pytest.mark.parametrize("mis_jobs", [1, 2], ids=["serial", "pool"])
    def test_ctcr_identical_under_tracing(
        self, variant, engine, mis_jobs, monkeypatch
    ):
        """``bitset`` classifies pairs with the incidence kernel; ``sets``
        swaps in the set-based oracle loop under the same
        ``compute_pairwise`` span and counters."""
        if engine == "sets":
            monkeypatch.setattr(
                two_conflicts,
                "_classify",
                lambda instance, variant, ranking, universe: (
                    pairwise_reference(instance, variant, ranking)
                ),
            )
        instance = random_instance(23, n_sets=25)
        config = dict(mis=MISConfig(n_jobs=mis_jobs))
        off = ctcr_fingerprint_with_diag(instance, variant, **config)
        with use_tracer(Tracer()) as tracer:
            on = ctcr_fingerprint_with_diag(instance, variant, **config)
        assert on == off
        # The traced run actually collected something.
        assert any(s.name == "ctcr.build" for s in tracer.spans.values())
        assert tracer.counters

    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_cct_identical_under_tracing(self, variant):
        instance = random_instance(29, n_sets=20)

        def fingerprint():
            tree = CCT().build(instance, variant)
            report = score_tree(tree, instance, variant)
            return tree_to_dict(tree), report.normalized, tree.to_text()

        off = fingerprint()
        with use_tracer(Tracer()) as tracer:
            on = fingerprint()
        assert on == off
        assert any(s.name == "cct.build" for s in tracer.spans.values())

    def test_paper_examples_identical_under_tracing(
        self, figure2_instance, example32_instance, all_variants
    ):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                off = ctcr_fingerprint_with_diag(instance, variant)
                with use_tracer(Tracer()):
                    on = ctcr_fingerprint_with_diag(instance, variant)
                assert on == off

    def test_pairwise_analysis_identical_under_tracing(self):
        variant = Variant.threshold_jaccard(0.5)
        instance = random_instance(31)
        off = compute_pairwise(instance, variant)
        with use_tracer(Tracer()):
            on = compute_pairwise(instance, variant)
        assert_same_analysis(off, on)
