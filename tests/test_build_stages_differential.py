"""Differential tier for the post-MIS build stages.

Item assignment (Algorithm 2) re-scores only the sets a round made
dirty, and intermediate categories (Algorithm 1, lines 21-23) merge
from a heap. The loops they replaced live in ``tests/oracles.py`` as
:func:`~tests.oracles.assign_duplicates_reference` and
:func:`~tests.oracles.add_intermediate_categories_reference`; this tier
pins both stages to them.

* **Stage level** — every production call also runs the oracle on a
  ``copy.deepcopy`` of the same :class:`BuildContext`, and the tree,
  ``minimal_of``, ``remaining_bound`` and ``target_sets`` must match;
  CTCR and CCT builds and the incremental ``delta_build`` are covered.
* **Tree level** — CTCR and CCT built with the oracles patched into
  :mod:`repro.algorithms.ctcr` / :mod:`repro.algorithms.cct` must give
  byte-identical trees and scores.
* **Targeted cases** — one hand-sized context per dirty trigger, each
  one the production loop gets wrong if that trigger is dropped, plus
  the heap's tie-break and a merged row whose halves both meet a third
  sibling in the same items.
"""

from __future__ import annotations

import copy

import pytest

import repro.algorithms.assignment as assignment_module
import repro.algorithms.cct as cct_module
import repro.algorithms.ctcr as ctcr_module
from repro.algorithms import CCT, CTCR
from repro.algorithms.assignment import assign_duplicates, assign_safe_items
from repro.algorithms.base import BuildContext
from repro.algorithms.intermediate import add_intermediate_categories
from repro.core import CategoryTree, Variant, score_tree
from repro.core.input_sets import InputSet, OCTInstance
from repro.io import tree_to_dict
from repro.observability import Tracer, use_tracer

from tests.oracles import (
    add_intermediate_categories_reference,
    assign_duplicates_reference,
)
from tests.test_ctcr_equivalence import EQUIV_VARIANTS, random_instance

# The four variants the build-stage gates are stated for.
STAGE_VARIANTS = [
    Variant.threshold_jaccard(0.8),
    Variant.perfect_recall(0.6),
    Variant.cutoff_f1(0.7),
    Variant.exact(),
]
BUILDERS = [CTCR, CCT]


def context_state(ctx: BuildContext) -> tuple:
    """Everything a post-MIS stage may change, in comparable form."""
    return (
        tree_to_dict(ctx.tree),
        {
            item: [cat.cid for cat in cats]
            for item, cats in ctx.minimal_of.items()
        },
        dict(ctx.remaining_bound),
        dict(ctx.target_sets),
    )


class StageSpy:
    """A production stage that replays each call on the oracle.

    The oracle runs on a deep copy of the context taken before the
    production call; both must return the same value and leave the same
    state behind.
    """

    def __init__(self, production, oracle) -> None:
        self.production = production
        self.oracle = oracle
        self.calls = 0

    def __call__(self, ctx, *args):
        twin_ctx, twin_args = copy.deepcopy((ctx, args))
        got = self.production(ctx, *args)
        want = self.oracle(twin_ctx, *twin_args)
        assert got == want
        assert context_state(ctx) == context_state(twin_ctx)
        self.calls += 1
        return got


@pytest.fixture
def stage_spies(monkeypatch):
    assign = StageSpy(assign_duplicates, assign_duplicates_reference)
    intermediate = StageSpy(
        add_intermediate_categories, add_intermediate_categories_reference
    )
    monkeypatch.setattr(ctcr_module, "assign_duplicates", assign)
    monkeypatch.setattr(cct_module, "assign_duplicates", assign)
    monkeypatch.setattr(
        ctcr_module, "add_intermediate_categories", intermediate
    )
    return assign, intermediate


def use_oracles(monkeypatch) -> None:
    monkeypatch.setattr(
        ctcr_module, "assign_duplicates", assign_duplicates_reference
    )
    monkeypatch.setattr(
        cct_module, "assign_duplicates", assign_duplicates_reference
    )
    monkeypatch.setattr(
        ctcr_module,
        "add_intermediate_categories",
        add_intermediate_categories_reference,
    )


def fingerprint(builder_cls, instance, variant) -> tuple:
    tree = builder_cls().build(instance, variant)
    report = score_tree(tree, instance, variant)
    return tree_to_dict(tree), report.normalized, report.total


def assert_trees_match_oracles(monkeypatch, instance, variants) -> None:
    for variant in variants:
        for builder_cls in BUILDERS:
            with monkeypatch.context() as patch:
                use_oracles(patch)
                want = fingerprint(builder_cls, instance, variant)
            got = fingerprint(builder_cls, instance, variant)
            assert got == want, f"{builder_cls.name} under {variant}"


# ---------------------------------------------------------------------------
# Targeted cases: one per dirty trigger.
# ---------------------------------------------------------------------------


def hand_context(parents, sets, weights, variant, bounds=None):
    """One category per set, ``parents[sid]`` the designated parent's sid
    (-1 for the root), then the safe stage; returns (ctx, duplicates)."""
    instance = OCTInstance(
        [
            InputSet(sid=sid, items=frozenset(items), weight=weight)
            for sid, (items, weight) in enumerate(zip(sets, weights))
        ],
        item_bounds=bounds or {},
    )
    tree = CategoryTree()
    ctx = BuildContext(tree=tree, instance=instance, variant=variant)
    for sid, parent in enumerate(parents):
        cat = tree.add_category(
            (),
            parent=None if parent < 0 else ctx.designated[parent],
            label=f"q{sid}",
        )
        ctx.designated[sid] = cat
        ctx.target_sets[cat.cid] = instance.get(sid).items
    duplicates = assign_safe_items(ctx, instance.sets)
    return ctx, duplicates


def run_both(ctx, duplicates):
    """Production on ``ctx``, the oracle on a copy; returns production's
    context after asserting both end in the same state."""
    twin = copy.deepcopy(ctx)
    assign_duplicates(ctx, ctx.instance.sets, duplicates)
    assign_duplicates_reference(twin, twin.instance.sets, set(duplicates))
    assert context_state(ctx) == context_state(twin)
    return ctx


def items_of(ctx, sid) -> set:
    return ctx.designated[sid].items


class TestDirtyTriggers:
    def test_failed_best_set_dirties_only_itself(self, monkeypatch):
        """root -> C(q0) -> C(q1); root -> C(q2).

        q1 = {c, e} is the best set of round 1, but adding its two
        duplicates to C(q1) would propagate into C(q0) and uncover
        q0 = {a, d}: the guard rejects it. Nothing was placed, so only
        q1 is re-scored — as failed — and round 2 gives ``c`` to q2
        (the leftover pass adds ``e``). A loop that kept q1's gain
        would pick it forever; the guard counts its calls so that shows
        up as a failure, not a hang, and this test runs first in the
        module so ``-x`` stops there before a larger build spins.
        """
        calls = []
        guard = assignment_module._breaks_covered_ancestors

        def bounded_guard(ctx, additions, rev):
            calls.append(additions)
            assert len(calls) < 50, "assignment did not terminate"
            return guard(ctx, additions, rev)

        monkeypatch.setattr(
            assignment_module, "_breaks_covered_ancestors", bounded_guard
        )
        ctx, duplicates = hand_context(
            parents=[-1, 0, -1],
            sets=["ad", "ce", "bce"],
            weights=[3, 2, 1],
            variant=Variant.threshold_jaccard(0.6),
        )
        with use_tracer(Tracer()) as tracer:
            ctx = run_both(ctx, duplicates)
        assert items_of(ctx, 1) == set()
        assert items_of(ctx, 2) == {"b", "c", "e"}
        # All three sets, then only the failed q1, then the two sets
        # holding ``c``.
        assert tracer.counters["assign.set_evaluations"] == 3 + 1 + 2
        assert tracer.counters["assign.rounds"] == 2

    def test_ancestor_cover_lost_to_foreign_duplicate(self):
        """root -> C(q0) -> {C(q1), C(q2)}; root -> C(q3).

        Round 1 places ``c`` at C(q1) for q1 = {c, d}; it propagates
        into C(q0) = {c}, which now covers q2 = {c, e} (Jaccard 1/2)
        although C(q2) is still empty. Round 2 places ``b`` for q0 at
        C(q0): ``b`` is foreign to q2, so q2 loses its only cover. q2
        holds no placed item and its designated category gained
        nothing — it is dirty only because its cover gained an item,
        and re-scoring it is what earns it ``e`` in round 3.
        """
        ctx, duplicates = hand_context(
            parents=[-1, 0, 0, -1],
            sets=["bcef", "cd", "ce", "abdef"],
            weights=[3, 4, 3, 3],
            variant=Variant.threshold_jaccard(0.5),
            bounds={"b": 2},
        )
        ctx = run_both(ctx, duplicates)
        assert items_of(ctx, 2) == {"e"}
        assert ctx.covered_on_branch(ctx.instance.get(2))

    def test_designated_category_gains_foreign_item(self):
        """root -> C(q0) -> C(q1); root -> C(q2).

        Round 1 places ``b`` at C(q1) for q1 = {a, b}; it propagates
        into C(q0), which already holds the foreign ``a``. Two foreign
        items put q0 = {c, d} out of reach (Jaccard 0.6 would need a gap
        of 3 from its two items). q0 holds no placed item and has no
        cover — it is dirty only because its designated category gained
        an item. Were its stale gain kept, it would tie q2 = {b, c, d}
        and win on the lower sid, taking ``c`` and ``d`` from q2.
        """
        ctx, duplicates = hand_context(
            parents=[-1, 0, -1],
            sets=["cd", "ab", "bcd"],
            weights=[3, 4, 3],
            variant=Variant.threshold_jaccard(0.6),
        )
        ctx = run_both(ctx, duplicates)
        assert items_of(ctx, 0) == {"a", "b"}
        assert items_of(ctx, 2) == {"c", "d"}

    def test_available_count_drops_when_bound_consumed_elsewhere(self):
        """root -> C(q0) -> {C(q1), C(q2)}.

        Round 1 places ``c`` at C(q2) for q2 = {b, c, d}, consuming its
        only branch. q1 = {c, d} keeps gap 2 but now has one available
        item, so it must leave the gain table: it is dirty only because
        it holds ``c``. Were its stale gain kept, round 2's branch match
        for ``d`` would weigh C(q1)'s branch by it and send ``d`` there
        instead of to C(q2).
        """
        ctx, duplicates = hand_context(
            parents=[-1, 0, 0],
            sets=["acd", "cd", "bcd"],
            weights=[2, 2, 4],
            variant=Variant.threshold_jaccard(0.6),
        )
        ctx = run_both(ctx, duplicates)
        assert items_of(ctx, 2) == {"b", "c", "d"}
        assert items_of(ctx, 1) == set()


# ---------------------------------------------------------------------------
# Intermediate categories: heap order and merged rows.
# ---------------------------------------------------------------------------


def sibling_context(child_sets):
    """Root children with the given target sets (and items)."""
    instance = OCTInstance(
        [
            InputSet(sid=sid, items=frozenset(items))
            for sid, items in enumerate(child_sets)
        ]
    )
    tree = CategoryTree()
    ctx = BuildContext(
        tree=tree, instance=instance, variant=Variant.threshold_jaccard(0.5)
    )
    for q in instance.sets:
        cat = tree.add_category(q.items, label=f"q{q.sid}")
        ctx.designated[q.sid] = cat
        ctx.target_sets[cat.cid] = q.items
    return ctx


def merge_labels(ctx) -> list[str]:
    """Labels of the inserted intermediate categories, in merge order."""
    inserted = [
        cat for cat in ctx.tree.categories() if cat.cid > len(ctx.designated)
    ]
    return [cat.label for cat in sorted(inserted, key=lambda c: c.cid)]


def run_intermediate_both(ctx):
    twin = copy.deepcopy(ctx)
    added = add_intermediate_categories(ctx)
    assert add_intermediate_categories_reference(twin) == added
    assert context_state(ctx) == context_state(twin)
    return ctx


class TestIntermediateHeap:
    def test_equal_ratios_break_toward_lower_cids(self):
        """Every neighbouring pair shares half of its smaller set; the
        heap must pop the tied pairs in ``(a, b)`` order, as the ``max``
        did."""
        ctx = sibling_context(["ab", "bc", "cd", "de", "ef", "fg"])
        ctx = run_intermediate_both(ctx)
        # (q0, q1), (q1, q2), ... all have ratio 1/2: q0+q1 merges first,
        # then the lowest live pair: q2 with q3.
        assert merge_labels(ctx)[:2] == ["q0 + q1", "q2 + q3"]

    def test_merged_row_counts_shared_items_once(self):
        """q0 = {1, 2} and q1 = {1, 2, 3} merge first (ratio 1, tied
        with q0-q2 and won on the lower cid). Their union meets
        q2 = {1, 2, 5, 6} in two items, not |A∩C| + |B∩C| = 4, so the
        union-q2 ratio is 2/3 and q3-q4 (3/4) merges next."""
        ctx = sibling_context(["12", "123", "1256", "789a", "789b"])
        ctx = run_intermediate_both(ctx)
        assert merge_labels(ctx) == [
            "q0 + q1",
            "q3 + q4",
            "q2 + q0 + q1",
        ]
        top = max(ctx.target_sets)
        assert ctx.target_sets[top] == frozenset("12356")

    def test_merge_counter_once_per_call(self):
        ctx = sibling_context(["ab", "bc", "cd", "de"])
        with use_tracer(Tracer()) as tracer:
            added = add_intermediate_categories(ctx)
        assert tracer.counters["intermediate.merges"] == added == 2


# ---------------------------------------------------------------------------
# Stage level.
# ---------------------------------------------------------------------------


class TestStageLevel:
    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=str)
    def test_random_instances(self, stage_spies, variant):
        for seed in range(8):
            instance = random_instance(seed, n_sets=30 + seed)
            for builder_cls in BUILDERS:
                builder_cls().build(instance, variant)
        assign, _intermediate = stage_spies
        assert assign.calls > 0

    def test_paper_examples(
        self, stage_spies, figure2_instance, example32_instance, all_variants
    ):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                for builder_cls in BUILDERS:
                    builder_cls().build(instance, variant)

    def test_delta_builds(self, stage_spies, dataset_a):
        """Publishing runs both stages inside ``delta_build``; every
        call along a churn sequence matches the oracle too."""
        import random

        from repro.incremental import IncrementalBuilder
        from repro.pipeline import preprocess
        from tests.churn import churn_sequence

        variant = Variant.threshold_jaccard(0.8)
        instance, _report = preprocess(dataset_a, variant)
        builder = IncrementalBuilder()
        _tree, state = builder.full_build(instance, variant)
        for churned in churn_sequence(
            instance, random.Random(5), steps=3, frac=0.05
        ):
            state = builder.delta_build(state, churned, variant).state
        assign, intermediate = stage_spies
        assert assign.calls == intermediate.calls == 4

    def test_dataset_a(self, stage_spies, dataset_a):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.8)
        instance, _report = preprocess(dataset_a, variant)
        for builder_cls in BUILDERS:
            builder_cls().build(instance, variant)
        assign, intermediate = stage_spies
        assert assign.calls == 2 and intermediate.calls == 1


# ---------------------------------------------------------------------------
# Tree level.
# ---------------------------------------------------------------------------


class TestTreeLevel:
    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=str)
    def test_random_instances(self, monkeypatch, variant):
        for seed in range(100, 112):
            instance = random_instance(seed, n_sets=25 + seed % 15)
            assert_trees_match_oracles(monkeypatch, instance, [variant])

    def test_paper_examples(
        self, monkeypatch, figure2_instance, example32_instance, all_variants
    ):
        for instance in (figure2_instance, example32_instance):
            assert_trees_match_oracles(monkeypatch, instance, all_variants)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_datasets(self, monkeypatch, name):
        from repro.catalog import load_dataset
        from repro.pipeline import preprocess

        dataset = load_dataset(name, seed=42)
        for variant in STAGE_VARIANTS:
            instance, _report = preprocess(dataset, variant)
            assert_trees_match_oracles(monkeypatch, instance, [variant])

    @pytest.mark.slow
    def test_dataset_d(self, monkeypatch):
        """The two variants under which CTCR runs both stages; the
        reference CCT takes about 16 s per variant here."""
        from repro.catalog import load_dataset
        from repro.pipeline import preprocess

        dataset = load_dataset("D", seed=42)
        for variant in (
            Variant.threshold_jaccard(0.8),
            Variant.cutoff_f1(0.7),
        ):
            instance, _report = preprocess(dataset, variant)
            assert_trees_match_oracles(monkeypatch, instance, [variant])

    @pytest.mark.slow
    def test_scale_catalog_20k_items_1k_sets(self, monkeypatch):
        from repro.scale import ExtremeCatalog, ScaleSpec

        instance = ExtremeCatalog(
            ScaleSpec(n_items=20_000, n_sets=1_000)
        ).instance()
        variant = Variant.threshold_jaccard(0.8)
        with monkeypatch.context() as patch:
            use_oracles(patch)
            want = fingerprint(CTCR, instance, variant)
        assert fingerprint(CTCR, instance, variant) == want
