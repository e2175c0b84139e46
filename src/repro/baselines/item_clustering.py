"""Shared machinery for the item-clustering baselines (IC-S, IC-Q).

Both baselines cluster *items* directly (unlike CCT, which clusters the
input sets): a dendrogram over item groups becomes the category tree,
each item sitting in exactly one leaf — automatically satisfying the
branch bound. Large catalogs are handled by (a) exact compression of
identical signatures and (b) nearest-seed reduction when the group count
still exceeds ``max_leaves``.
"""

from __future__ import annotations

import random
from typing import Hashable

import numpy as np

from repro.clustering.dendrogram import Dendrogram
from repro.core.tree import CategoryTree

Item = Hashable


def reduce_groups(
    vectors: np.ndarray,
    members: list[list[Item]],
    max_leaves: int,
    rng: random.Random,
) -> tuple[np.ndarray, list[list[Item]]]:
    """Cap the number of groups by folding each into its nearest seed.

    Seeds are a random sample of the existing groups; every other group
    joins the seed with the highest dot-product similarity (rows should
    be L2-normalized or binary). The reduction is only applied when
    needed.
    """
    n = len(members)
    if n <= max_leaves:
        return vectors, members
    seed_rows = sorted(rng.sample(range(n), max_leaves))
    seeds = vectors[seed_rows]
    sims = vectors @ seeds.T
    nearest = np.argmax(sims, axis=1)
    merged: list[list[Item]] = [[] for _ in seed_rows]
    for row in range(n):
        merged[int(nearest[row])].extend(members[row])
    keep = [i for i, m in enumerate(merged) if m]
    return seeds[keep], [sorted(merged[i], key=str) for i in keep]


def tree_from_item_dendrogram(
    dendrogram: Dendrogram,
    members: list[list[Item]],
    min_category_size: int = 2,
) -> CategoryTree:
    """Materialize an item dendrogram as a category tree.

    Subtrees holding fewer than ``min_category_size`` items collapse into
    a single category, keeping the tree at a realistic granularity
    instead of one singleton leaf per item.
    """
    tree = CategoryTree()
    child_map = dendrogram.children()

    def items_under(node_id: int) -> list[Item]:
        collected: list[Item] = []
        stack = [node_id]
        while stack:
            node = stack.pop()
            if node < dendrogram.n_leaves:
                collected.extend(members[node])
            else:
                stack.extend(child_map[node])
        return collected

    stack = [(dendrogram.root_id, tree.root)]
    while stack:
        node_id, parent = stack.pop()
        node_items = items_under(node_id)
        is_leaf = node_id < dendrogram.n_leaves
        if is_leaf or len(node_items) < 2 * min_category_size:
            tree.add_category(node_items, parent=parent)
            continue
        if node_id == dendrogram.root_id and parent is tree.root:
            cat = tree.root
        else:
            cat = tree.add_category((), parent=parent)
        for child in child_map[node_id]:
            stack.append((child, cat))
    return tree
