"""Tests for the pairwise cover predicates against the paper's algebra.

The scalar predicates are the oracle ``pairwise_reference`` classifies
with (``tests/oracles.py``); ``compute_pairwise`` must agree with it pair
for pair (``tests/test_ctcr_equivalence.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InputSet, Variant

from tests.oracles import (
    can_cover_separately,
    can_cover_together,
    max_removable_items,
    min_cover_size,
)


def iset(sid: int, items: set) -> InputSet:
    return InputSet(sid=sid, items=frozenset(items))


class TestMaxRemovable:
    def test_exact_removes_nothing(self):
        assert max_removable_items(Variant.exact(), 10, 1.0) == 0

    def test_perfect_recall_removes_nothing(self):
        assert max_removable_items(Variant.perfect_recall(0.5), 10, 0.5) == 0

    def test_jaccard_budget(self):
        # |q| = 10, delta = 0.8: a subset of size 8 has J = 0.8 -> x = 2.
        v = Variant.threshold_jaccard(0.8)
        assert max_removable_items(v, 10, 0.8) == 2

    def test_f1_budget_exceeds_jaccard(self):
        # F1 tolerates more recall loss: r >= delta/(2-delta).
        vj = Variant.threshold_jaccard(0.8)
        vf = Variant.threshold_f1(0.8)
        for size in (5, 10, 40):
            assert max_removable_items(vf, size, 0.8) >= max_removable_items(
                vj, size, 0.8
            )

    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_removal_budget_is_achievable_and_tight(self, size, delta):
        """Removing x items keeps the score; removing x+1 drops it."""
        for ctor in (Variant.threshold_jaccard, Variant.threshold_f1):
            variant = ctor(min(delta, 1.0))
            x = max_removable_items(variant, size, variant.delta)
            q = frozenset(range(size))
            kept = frozenset(range(size - x))
            from repro.core import variant_score

            assert variant_score(variant, q, kept) > 0.0
            if x + 1 <= size:
                smaller = frozenset(range(size - x - 1))
                assert variant_score(variant, q, smaller) == 0.0

    def test_min_cover_size_complements(self):
        v = Variant.threshold_jaccard(0.7)
        assert min_cover_size(v, 10, 0.7) == 10 - max_removable_items(v, 10, 0.7)


class TestSeparately:
    def test_disjoint_always_separable(self):
        a, b = iset(0, {1, 2}), iset(1, {3, 4})
        for v in (Variant.exact(), Variant.perfect_recall(0.5),
                  Variant.threshold_jaccard(0.9)):
            assert can_cover_separately(v, a, b, v.delta, v.delta)

    def test_exact_intersecting_never_separable(self):
        a, b = iset(0, {1, 2, 3}), iset(1, {3, 4, 5})
        v = Variant.exact()
        assert not can_cover_separately(v, a, b, 1.0, 1.0)

    def test_perfect_recall_intersecting_never_separable(self):
        a, b = iset(0, set(range(20))), iset(1, set(range(19, 40)))
        v = Variant.perfect_recall(0.1)
        assert not can_cover_separately(v, a, b, 0.1, 0.1)

    def test_jaccard_partition_budget(self):
        # |I| = 2, x1 = x2 = 1 at delta 0.8 with sizes 10: 2 <= 2.
        a = iset(0, set(range(10)))
        b = iset(1, set(range(8, 18)))
        v = Variant.threshold_jaccard(0.8)
        assert can_cover_separately(v, a, b, 0.8, 0.8)

    def test_jaccard_partition_budget_exceeded(self):
        # |I| = 5 > x1 + x2 = 2 + 2.
        a = iset(0, set(range(10)))
        b = iset(1, set(range(5, 15)))
        v = Variant.threshold_jaccard(0.8)
        assert not can_cover_separately(v, a, b, 0.8, 0.8)

    def test_bound_items_relax_partition(self):
        a = iset(0, set(range(10)))
        b = iset(1, set(range(7, 17)))
        v = Variant.threshold_jaccard(0.8)
        # One of the three shared items may live on both branches.
        assert can_cover_separately(v, a, b, 0.8, 0.8, shared_bound1=2)

    def test_lower_delta_helps(self):
        a = iset(0, set(range(6)))
        b = iset(1, set(range(3, 9)))
        v = Variant.threshold_jaccard(0.9)
        assert not can_cover_separately(v, a, b, 0.9, 0.9)
        assert can_cover_separately(v.with_delta(0.5), a, b, 0.5, 0.5)


class TestTogether:
    def test_exact_requires_containment(self):
        big = iset(0, {1, 2, 3, 4})
        small = iset(1, {2, 3})
        other = iset(2, {3, 9})
        v = Variant.exact()
        assert can_cover_together(v, big, small, 1.0, 1.0)
        assert not can_cover_together(v, big, other, 1.0, 1.0)

    def test_perfect_recall_union_precision(self):
        # Example 3.2: q1 = {a,c,d,e,f}, q3 = {b,g,h}: |q1|/|q1 u q3| = 5/8.
        q1 = iset(0, {"a", "c", "d", "e", "f"})
        q3 = iset(1, {"b", "g", "h"})
        v61 = Variant.perfect_recall(0.61)
        assert can_cover_together(v61, q1, q3, 0.61, 0.61)  # 0.625 >= 0.61
        v70 = Variant.perfect_recall(0.7)
        assert not can_cover_together(v70, q1, q3, 0.7, 0.7)

    def test_jaccard_nested_always_together(self):
        big = iset(0, set(range(10)))
        small = iset(1, set(range(4)))
        v = Variant.threshold_jaccard(0.95)
        assert can_cover_together(v, big, small, 0.95, 0.95)

    def test_jaccard_disjoint_together_needs_budget(self):
        # Lower set forces y2 = ceil(delta |q2|) foreign items on the
        # upper category.
        big = iset(0, set(range(40)))
        small = iset(1, {100, 101})
        v = Variant.threshold_jaccard(0.8)
        # y2 = 2 <= 40 * 0.25 = 10 -> can cover together.
        assert can_cover_together(v, big, small, 0.8, 0.8)
        tiny = iset(2, set(range(4)))
        # upper budget = 4 * 0.25 = 1 < y2 = 2.
        assert not can_cover_together(v, tiny, small, 0.8, 0.8)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(0, 15), min_size=1, max_size=10),
        st.sets(st.integers(0, 15), min_size=1, max_size=10),
        st.floats(min_value=0.3, max_value=1.0),
    )
    def test_monotone_in_delta(self, a, b, delta):
        """Whatever is feasible at delta stays feasible below it."""
        upper = iset(0, a | b)  # ensure upper at least as large
        lower = iset(1, b)
        lower_delta = max(0.1, delta - 0.2)
        for ctor in (Variant.threshold_jaccard, Variant.threshold_f1,
                     Variant.perfect_recall):
            v_hi = ctor(delta)
            v_lo = ctor(lower_delta)
            if can_cover_separately(v_hi, upper, lower, delta, delta):
                assert can_cover_separately(
                    v_lo, upper, lower, lower_delta, lower_delta
                )
            if can_cover_together(v_hi, upper, lower, delta, delta):
                assert can_cover_together(
                    v_lo, upper, lower, lower_delta, lower_delta
                )
