"""Tree condensing (Algorithm 1, lines 24-26).

After item assignment, items appearing only in uncovered input sets are
stripped (they can only hurt precision and are re-homed in the
miscellaneous category), and categories that are the best cover of no
input set are spliced out. Both operations can only increase the score.
Finally, every universe item absent from the tree lands in a fresh
``C_misc`` category under the root.
"""

from __future__ import annotations

from repro.core.input_sets import OCTInstance
from repro.core.scoring import best_cover, category_intersections, score_tree
from repro.core.tree import Category, CategoryTree
from repro.core.variants import Variant

MISC_LABEL = "C_misc"


def remove_noncovered_items(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> int:
    """Strip items that appear in no covered input set; returns count."""
    report = score_tree(tree, instance, variant)
    keep: set = set()
    for q in instance:
        if report.per_set[q.sid].covered:
            keep |= q.items
    removed: set = set()
    for cat in tree.categories():
        extraneous = cat.items - keep
        if extraneous:
            removed |= extraneous
            cat.items -= extraneous
    return len(removed)


def _best_nonroot_covers(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> set[int]:
    """cids of the best non-root cover of each coverable set.

    The root is deliberately ignored: its contents change when the
    miscellaneous category is added later, so a cover that exists only
    at the root cannot justify retaining anything.
    """
    cats = list(tree.non_root_categories())
    sizes = {c.cid: len(c.items) for c in cats}
    depths = {c.cid: c.depth for c in cats}
    inter = category_intersections(cats, instance)
    retained: set[int] = set()
    for q in instance:
        delta = instance.effective_threshold(q, variant.delta)
        best = best_cover(inter[q.sid], len(q), sizes, depths, variant, delta)
        if best is not None:
            retained.add(best[0])
    return retained


def remove_noncovering_categories(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> int:
    """Splice out categories that are no set's best cover; returns count.

    When several categories cover a set, only its best cover
    (:func:`repro.core.scoring.best_cover`) is retained. Covers provided
    solely by the root retain nothing — the root is not final until the
    miscellaneous category lands.
    """
    covering_cids = _best_nonroot_covers(tree, instance, variant)
    doomed = [
        cat
        for cat in tree.non_root_categories()
        if cat.cid not in covering_cids
    ]
    for cat in doomed:
        tree.remove_category(cat)
    return len(doomed)


def add_misc_category(
    tree: CategoryTree, instance: OCTInstance
) -> Category | None:
    """Gather universe items absent from the tree under ``C_misc``."""
    missing = set(instance.universe) - tree.root.items
    if not missing:
        return None
    return tree.add_category(missing, parent=tree.root, label=MISC_LABEL)


def condense(
    tree: CategoryTree, instance: OCTInstance, variant: Variant
) -> None:
    """Full condensing pass: strip items, drop categories, add misc."""
    remove_noncovered_items(tree, instance, variant)
    remove_noncovering_categories(tree, instance, variant)
    add_misc_category(tree, instance)
