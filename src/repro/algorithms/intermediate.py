"""Intermediate categories (Algorithm 1, lines 21-23).

When recall errors are allowed, intersecting sets may end up covered on
separate branches with their shared items partitioned. For every
category with more than two children, a new child is repeatedly inserted
as the parent of the two child categories whose corresponding sets share
the largest fraction of the smaller set, recombining the partitioned
items; the new category corresponds to the union of its children's sets
and can itself be merged further in later iterations.

Pair intersections are seeded once through an item index. Merges pop
from a heap keyed ``(-shared / min_size, a, b)``, skipping pairs whose
cids have retired (a live pair's count never changes). The merged
node's row intersects its union ``A∪B`` only with the siblings that
overlapped ``A`` or ``B`` (any other sibling's overlap is zero), so no
merge scans every sibling; the union is the merged node's
``target_sets`` entry.
"""

from __future__ import annotations

import heapq

from repro.algorithms.base import BuildContext
from repro.core.tree import Category
from repro.observability import get_tracer


def _recombine_children(ctx: BuildContext, parent: Category) -> int:
    """Insert intermediate parents under one category; returns count."""
    child_sets: dict[int, frozenset] = {}
    cats: dict[int, Category] = {}
    for child in parent.children:
        target = ctx.target_sets.get(child.cid)
        if target:
            child_sets[child.cid] = target
            cats[child.cid] = child

    # Seed pairwise intersection counts (symmetric rows) through an item
    # index of the original children.
    index: dict = {}
    for cid, items in child_sets.items():
        for item in items:
            index.setdefault(item, []).append(cid)
    overlap: dict[int, dict[int, int]] = {cid: {} for cid in child_sets}
    for cids in index.values():
        for i, a in enumerate(cids):
            row = overlap[a]
            for b in cids[i + 1 :]:
                row[b] = row.get(b, 0) + 1
                overlap[b][a] = row[b]
    heap = [
        (-(shared / min(len(child_sets[a]), len(child_sets[b]))), a, b)
        for a, row in overlap.items()
        for b, shared in row.items()
        if a < b
    ]
    heapq.heapify(heap)

    added = 0
    while len(parent.children) > 2:
        while heap and (heap[0][1] not in cats or heap[0][2] not in cats):
            heapq.heappop(heap)
        if not heap:
            break
        _, a, b = heapq.heappop(heap)
        label = " + ".join(
            filter(None, (cats[a].label, cats[b].label))
        )
        node = ctx.tree.insert_parent([cats[a], cats[b]], label=label)
        union = frozenset(child_sets.pop(a) | child_sets.pop(b))
        ctx.target_sets[node.cid] = union
        added += 1

        # Retire a and b; the union node's row covers their neighbours.
        del cats[a], cats[b]
        row: dict[int, int] = {}
        for cid in (overlap.pop(a).keys() | overlap.pop(b).keys()) - {a, b}:
            common = len(union & child_sets[cid])
            other = overlap[cid]
            other.pop(a, None)
            other.pop(b, None)
            other[node.cid] = row[cid] = common
            ratio = common / min(len(union), len(child_sets[cid]))
            heapq.heappush(heap, (-ratio, cid, node.cid))
        overlap[node.cid] = row
        child_sets[node.cid] = union
        cats[node.cid] = node
    return added


def add_intermediate_categories(ctx: BuildContext) -> int:
    """Insert recombining intermediate categories; returns how many."""
    added = 0
    queue = [cat for cat in ctx.tree.categories() if len(cat.children) > 2]
    for parent in queue:
        added += _recombine_children(ctx, parent)
    get_tracer().count("intermediate.merges", added)
    return added
