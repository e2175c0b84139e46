"""Tree-builder interface and the shared construction context."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.input_sets import InputSet, Item, OCTInstance
from repro.core.similarity import variant_score
from repro.core.tree import Category, CategoryTree
from repro.core.variants import Variant


class TreeBuilder(abc.ABC):
    """Common interface of all category-tree construction algorithms."""

    name: str = "builder"

    @abc.abstractmethod
    def build(self, instance: OCTInstance, variant: Variant) -> CategoryTree:
        """Construct a valid category tree for an instance and variant."""


@dataclass
class BuildContext:
    """Mutable state threaded through the construction stages.

    ``designated`` maps each selected input set to the category created
    for it (``C(q)`` in the paper); ``target_sets`` maps category ids to
    the item set a category corresponds to (its input set, or the union
    of its children's sets for intermediate categories).
    """

    tree: CategoryTree
    instance: OCTInstance
    variant: Variant
    designated: dict[int, Category] = field(default_factory=dict)
    target_sets: dict[int, frozenset] = field(default_factory=dict)
    remaining_bound: dict[Item, int] = field(default_factory=dict)
    # Item -> its current most-specific categories. Maintained by
    # record_assignment so branch-bound questions avoid tree scans.
    minimal_of: dict[Item, list[Category]] = field(default_factory=dict)

    def delta(self, q: InputSet) -> float:
        return self.instance.effective_threshold(q, self.variant.delta)

    def bound_left(self, item: Item) -> int:
        if item not in self.remaining_bound:
            self.remaining_bound[item] = self.instance.bound(item)
        return self.remaining_bound[item]

    def consume_bound(self, item: Item) -> None:
        self.remaining_bound[item] = self.bound_left(item) - 1

    def record_assignment(self, item: Item, cat: Category) -> None:
        """Track that ``item`` was just listed in ``cat``.

        A previous minimal category that is an ancestor of ``cat`` stops
        being minimal (the item now continues down its branch); minimal
        categories on other branches are untouched.
        """
        current = self.minimal_of.get(item, [])
        kept = [
            m
            for m in current
            if m is not cat and not _is_strict_ancestor(m, cat)
        ]
        kept.append(cat)
        self.minimal_of[item] = kept

    def slides_down(self, item: Item, target: Category) -> bool:
        """True when listing ``item`` in ``target`` opens no new branch.

        Exactly one minimal category of the item can be an ancestor of
        ``target`` (upward closure forbids two on one branch); when one
        is, the item merely moves down its existing branch.
        """
        return any(
            _is_strict_ancestor(m, target)
            for m in self.minimal_of.get(item, ())
        )

    def covers_with(self, q: InputSet, cat: Category) -> bool:
        """Does a category currently cover an input set?"""
        return (
            variant_score(self.variant, q.items, cat.items, self.delta(q)) > 0.0
        )

    def covered_on_branch(self, q: InputSet) -> bool:
        """Is ``q`` covered by its designated category or any ancestor?

        Item additions propagate upwards, so during construction only the
        designated category's path to the root can cover the set.
        """
        return self.cover_on_branch(q) is not None

    def cover_on_branch(self, q: InputSet) -> Category | None:
        """The lowest category on ``q``'s designated branch covering it."""
        cat: Category | None = self.designated.get(q.sid)
        while cat is not None:
            if self.covers_with(q, cat):
                return cat
            cat = cat.parent
        return None


def _is_strict_ancestor(a: Category, b: Category) -> bool:
    """True when ``a`` is a strict ancestor of ``b`` (depth-bounded walk)."""
    steps = b.depth - a.depth
    if steps <= 0:
        return False
    node: Category | None = b
    for _ in range(steps):
        assert node is not None
        node = node.parent
    return node is a


def is_on_same_branch(a: Category, b: Category) -> bool:
    """True when one category is an ancestor of (or equal to) the other."""
    if a is b:
        return True
    da, db = a.depth, b.depth
    deep, shallow = (a, b) if da >= db else (b, a)
    node: Category | None = deep
    for _ in range(abs(da - db)):
        assert node is not None
        node = node.parent
    return node is shallow


def chain_deepest(categories: list[Category]) -> Category | None:
    """If the categories lie on one branch, return the deepest; else None."""
    if not categories:
        return None
    ordered = sorted(categories, key=lambda c: c.depth)
    for prev, nxt in zip(ordered, ordered[1:]):
        if not is_on_same_branch(prev, nxt):
            return None
    return ordered[-1]
