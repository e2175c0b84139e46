"""Latency/memory-budgeted tree shaping (efficiency–precision trade-off).

Borrowing the framing of "Enabling Efficiency-Precision Trade-offs for
Label Trees in Extreme Classification" (PAPERS.md): a built category
tree is *post-processed* to meet an explicit serving budget, and the
quality it gives up is reported exactly, not estimated.

Four operations, applied in a fixed order on a **copy** of the input:

1. **Depth capping** — every category at ``max_depth`` has its whole
   subtree collapsed into it (descendant items are already present by
   the tree invariant, so this only deletes candidate categories).
2. **Hub splitting** — every category with more than ``max_children``
   children has them grouped under inserted intermediate nodes (the
   paper's intermediate-category operation) until the fan-out bound
   holds everywhere. This *adds* categories, trading snapshot bytes
   for bounded fan-out.
3. **Width pruning** — a lazy-greedy loop removes the categories with
   the best (quality lost / serving cost gained) ratio until the
   latency and/or memory budget is met, under the calibrated
   :class:`~repro.shaping.cost.CostModel`. When ``max_children`` is
   also budgeted, only leaves are pruned so splicing never re-widens a
   node past the bound.
4. A final **exact re-estimate** over the shaped tree produces the
   budget-met verdict — never the greedy loop's running approximation.

Exactness contract: per-(set, category) scores are static (shaping
never mutates an existing category's item set), so the shaper keeps
per-set candidate lists scored with the same
``variant_score_from_sizes`` calls the offline reference makes, and
sums the final total in instance iteration order. The reported
``score_after`` therefore equals ``score_tree(result.tree).normalized``
bit for bit — a property test in ``tests/test_shaping.py`` holds it to
``==``, not ``approx``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.input_sets import OCTInstance
from repro.core.scoring import category_intersections
from repro.core.similarity import variant_score_from_sizes
from repro.core.tree import Category, CategoryTree
from repro.core.variants import Variant
from repro.observability.tracer import get_tracer
from repro.shaping.cost import (
    CostEstimate,
    CostModel,
    category_encoded_bytes,
    estimate_cost,
)

_MAX_OUTER_ROUNDS = 64


@dataclass(frozen=True)
class ShapingBudget:
    """Explicit serving budget a shaped tree must meet.

    Any subset of the four constraints may be set; an all-``None``
    budget makes shaping the identity. ``max_query_ns`` is judged
    against the cost model's exact expectation, ``max_snapshot_bytes``
    against the measured varint encoding of every category.
    """

    max_query_ns: float | None = None
    max_snapshot_bytes: int | None = None
    max_depth: int | None = None
    max_children: int | None = None

    @property
    def unbounded(self) -> bool:
        return (
            self.max_query_ns is None
            and self.max_snapshot_bytes is None
            and self.max_depth is None
            and self.max_children is None
        )

    def satisfied_by(self, est: CostEstimate) -> bool:
        if self.max_query_ns is not None and est.expected_query_ns > self.max_query_ns:
            return False
        if (
            self.max_snapshot_bytes is not None
            and est.snapshot_bytes > self.max_snapshot_bytes
        ):
            return False
        if self.max_depth is not None and est.max_depth > self.max_depth:
            return False
        if self.max_children is not None and est.max_fanout > self.max_children:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "max_query_ns": self.max_query_ns,
            "max_snapshot_bytes": self.max_snapshot_bytes,
            "max_depth": self.max_depth,
            "max_children": self.max_children,
        }


@dataclass
class ShapingResult:
    """What shaping did, what it cost, and what it gave up."""

    tree: CategoryTree
    budget: ShapingBudget
    met: bool
    score_before: float      # normalized, == score_tree(input).normalized
    score_after: float       # normalized, == score_tree(tree).normalized
    total_before: float      # raw weighted totals (same summation order)
    total_after: float
    cost_before: CostEstimate
    cost_after: CostEstimate
    removed: int = 0
    hub_splits: int = 0
    depth_capped: int = 0
    width_pruned: int = 0

    @property
    def quality_given_up(self) -> float:
        """Normalized score surrendered to meet the budget (>= 0 - fp)."""
        return self.score_before - self.score_after

    def to_dict(self) -> dict:
        return {
            "budget": self.budget.to_dict(),
            "met": self.met,
            "score_before": self.score_before,
            "score_after": self.score_after,
            "quality_given_up": self.quality_given_up,
            "cost_before": self.cost_before.to_dict(),
            "cost_after": self.cost_after.to_dict(),
            "removed": self.removed,
            "hub_splits": self.hub_splits,
            "depth_capped": self.depth_capped,
            "width_pruned": self.width_pruned,
        }


class _Bookkeeping:
    """Static per-(set, category) scores with alive/dead tracking.

    Built once after the structural passes; greedy pruning only ever
    *deletes* candidates, so each set's candidate scores are computed
    exactly once with the reference scorer and the current best is the
    maximum over alive entries (a sorted list with a lazily advancing
    pointer).
    """

    def __init__(
        self, tree: CategoryTree, instance: OCTInstance, variant: Variant
    ) -> None:
        self.instance = instance
        self.inter = category_intersections(tree.categories(), instance)
        self.sizes = {cat.cid: len(cat.items) for cat in tree.categories()}
        self.alive: dict[int, bool] = {
            cat.cid: True for cat in tree.categories()
        }
        # Per set: candidate (score, cid) descending, plus a skip pointer.
        self.cands: dict[int, list[tuple[float, int]]] = {}
        self.ptr: dict[int, int] = {}
        self.sets_with: dict[int, list[int]] = {cid: [] for cid in self.alive}
        for q in instance:
            delta = instance.effective_threshold(q, variant.delta)
            entries: list[tuple[float, int]] = []
            for cid, common in self.inter[q.sid].items():
                s = variant_score_from_sizes(
                    variant, len(q.items), self.sizes[cid], common, delta
                )
                if s > 0.0:
                    entries.append((-s, cid))
                self.sets_with[cid].append(q.sid)
            entries.sort()
            self.cands[q.sid] = entries
            self.ptr[q.sid] = 0

    def best(self, sid: int) -> float:
        """Current best score of one set over alive candidates."""
        entries = self.cands[sid]
        i = self.ptr[sid]
        while i < len(entries) and not self.alive.get(entries[i][1], False):
            i += 1
        self.ptr[sid] = i
        return -entries[i][0] if i < len(entries) else 0.0

    def loss_if_removed(self, cid: int) -> float:
        """Raw weighted score lost if ``cid`` is removed right now."""
        loss = 0.0
        weight_of = self._weights()
        for sid in self.sets_with[cid]:
            entries = self.cands[sid]
            best = self.best(sid)
            if best <= 0.0:
                continue
            # Does cid hold the current best, and is it the only holder?
            i = self.ptr[sid]
            holder = False
            other_holder = False
            runner = 0.0
            while i < len(entries):
                val, entry_cid = -entries[i][0], entries[i][1]
                if not self.alive.get(entry_cid, False):
                    i += 1
                    continue
                if val < best:
                    runner = val
                    break
                if entry_cid == cid:
                    holder = True
                else:
                    other_holder = True
                i += 1
            if holder and not other_holder:
                loss += weight_of[sid] * (best - runner)
        return loss

    def remove(self, cid: int) -> None:
        self.alive[cid] = False

    def alive_inter(self) -> dict[int, dict[int, int]]:
        """The intersection table restricted to surviving categories.

        This is what cost estimation over the pruned tree must see —
        the raw ``inter`` still carries removed categories' counts.
        """
        alive = self.alive
        return {
            sid: {cid: n for cid, n in counts.items() if alive.get(cid)}
            for sid, counts in self.inter.items()
        }

    def exact_total(self) -> float:
        """Raw weighted total, summed exactly like ``score_tree``."""
        total = 0.0
        for q in self.instance:
            total += q.weight * self.best(q.sid)
        return total

    def _weights(self) -> dict[int, float]:
        cached = getattr(self, "_weight_cache", None)
        if cached is None:
            cached = {q.sid: q.weight for q in self.instance}
            self._weight_cache = cached
        return cached


class TreeShaper:
    """Shape trees against one (instance, variant, cost model) context."""

    def __init__(
        self,
        instance: OCTInstance,
        variant: Variant,
        model: CostModel | None = None,
    ) -> None:
        self.instance = instance
        self.variant = variant
        self.model = model if model is not None else CostModel()

    # -- structural passes -------------------------------------------------

    def _cap_depth(self, tree: CategoryTree, max_depth: int) -> int:
        """Collapse every subtree below ``max_depth`` into its root."""
        removed = 0
        frontier = [(tree.root, 0)]
        at_cap: list[Category] = []
        while frontier:
            cat, depth = frontier.pop()
            if depth >= max_depth:
                at_cap.append(cat)
                continue
            frontier.extend((child, depth + 1) for child in cat.children)
        for cat in at_cap:
            doomed = list(cat.descendants())
            for node in doomed:
                node.parent = None
                node.children = []
            cat.children = []
            removed += len(doomed)
        return removed

    def _split_hubs(self, tree: CategoryTree, max_children: int) -> int:
        """Insert intermediate parents until fan-out <= max_children."""
        splits = 0
        again = True
        while again:
            again = False
            for cat in list(tree.categories()):
                kids = sorted(cat.children, key=lambda c: c.cid)
                if len(kids) <= max_children:
                    continue
                for i in range(0, len(kids), max_children):
                    group = kids[i : i + max_children]
                    if len(group) == len(kids):
                        break
                    name = cat.label or f"C{cat.cid}"
                    tree.insert_parent(group, label=f"{name}/hub{i}")
                    splits += 1
                again = True
        return splits

    # -- the budgeted greedy -----------------------------------------------

    def shape(self, tree: CategoryTree, budget: ShapingBudget) -> ShapingResult:
        tracer = get_tracer()
        with tracer.span("shaping.shape"):
            result = self._shape(tree, budget, tracer)
        tracer.count("shaping.runs")
        tracer.count("shaping.removed", result.removed)
        tracer.count("shaping.hub_splits", result.hub_splits)
        tracer.gauge("shaping.quality_given_up", result.quality_given_up)
        tracer.gauge("shaping.met", 1.0 if result.met else 0.0)
        return result

    def _shape(
        self, tree: CategoryTree, budget: ShapingBudget, tracer
    ) -> ShapingResult:
        instance, variant, model = self.instance, self.variant, self.model
        before_book = _Bookkeeping(tree, instance, variant)
        total_before = before_book.exact_total()
        cost_before = estimate_cost(
            tree, instance, variant, model, inter=before_book.inter
        )
        work = tree.copy()

        # Hub splitting runs first: it inserts levels (deepening
        # subtrees), while depth capping and leaf pruning never widen a
        # node — so this order leaves both structural bounds standing.
        hub_splits = 0
        if budget.max_children is not None and budget.max_children >= 2:
            # Chunking into groups of m shrinks fan-out only for m >= 2;
            # max_children=1 is unreachable by splitting and is left to
            # the final verdict to report honestly.
            hub_splits = self._split_hubs(work, budget.max_children)
        depth_capped = 0
        if budget.max_depth is not None:
            depth_capped = self._cap_depth(work, budget.max_depth)

        book = _Bookkeeping(work, instance, variant)
        width_pruned = self._prune_width(work, budget, book, tracer)

        total_after = book.exact_total()
        cost_after = estimate_cost(
            work, instance, variant, model, inter=book.alive_inter()
        )
        denom = instance.total_weight
        return ShapingResult(
            tree=work,
            budget=budget,
            met=budget.satisfied_by(cost_after),
            score_before=total_before / denom if denom > 0 else 0.0,
            score_after=total_after / denom if denom > 0 else 0.0,
            total_before=total_before,
            total_after=total_after,
            cost_before=cost_before,
            cost_after=cost_after,
            removed=depth_capped + width_pruned,
            hub_splits=hub_splits,
            depth_capped=depth_capped,
            width_pruned=width_pruned,
        )

    def _prune_width(
        self,
        work: CategoryTree,
        budget: ShapingBudget,
        book: _Bookkeeping,
        tracer,
    ) -> int:
        """Lazy-greedy removal until the latency/memory budget is met."""
        if budget.max_query_ns is None and budget.max_snapshot_bytes is None:
            return 0
        instance, model = self.instance, self.model
        total_w = instance.total_weight
        norm = (1.0 / total_w) if total_w > 0 else 0.0
        leaves_only = budget.max_children is not None

        by_cid = {cat.cid: cat for cat in work.categories()}
        # Static per-category serving gains (removals elsewhere never
        # change another category's intersections).
        gain_ns: dict[int, float] = {}
        gain_bytes: dict[int, int] = {}
        for cid, cat in by_cid.items():
            post = cand = 0.0
            for sid in book.sets_with[cid]:
                w = book._weights()[sid] * norm
                post += w * book.inter[sid][cid]
                cand += w
            gain_ns[cid] = (
                model.ns_per_posting * post + model.ns_per_candidate * cand
            )
            gain_bytes[cid] = category_encoded_bytes(model, cat.items)

        est = estimate_cost(
            work, instance, self.variant, model, inter=book.inter
        )
        cur_ns = est.expected_query_ns
        cur_bytes = float(est.snapshot_bytes)

        # Fixed normalizers keep heap ratios comparable across the whole
        # run (the violation amounts shrink as pruning progresses, so
        # normalizing by them would re-scale later entries against
        # earlier ones).
        w_ns = (
            1.0 / max(budget.max_query_ns, 1.0)
            if budget.max_query_ns is not None
            else 0.0
        )
        w_bytes = (
            1.0 / max(budget.max_snapshot_bytes, 1.0)
            if budget.max_snapshot_bytes is not None
            else 0.0
        )

        def combined_gain(cid: int) -> float:
            return w_ns * gain_ns[cid] + w_bytes * gain_bytes[cid]

        def needs() -> tuple[float, float]:
            need_ns = (
                max(0.0, cur_ns - budget.max_query_ns)
                if budget.max_query_ns is not None
                else 0.0
            )
            need_bytes = (
                max(0.0, cur_bytes - budget.max_snapshot_bytes)
                if budget.max_snapshot_bytes is not None
                else 0.0
            )
            return need_ns, need_bytes

        removable = [cid for cid in by_cid if cid != work.root.cid]
        need_ns, need_bytes = needs()
        if need_ns <= 0 and need_bytes <= 0:
            return 0

        heap: list[tuple[float, int]] = []
        for cid in removable:
            g = combined_gain(cid)
            if g > 0:
                heapq.heappush(heap, (book.loss_if_removed(cid) / g, cid))
        deferred: dict[int, bool] = {}
        pruned = 0

        for _round in range(_MAX_OUTER_ROUNDS):
            need_ns, need_bytes = needs()
            if need_ns <= 0 and need_bytes <= 0:
                break
            progressed = False
            while heap:
                need_ns, need_bytes = needs()
                if need_ns <= 0 and need_bytes <= 0:
                    break
                ratio, cid = heapq.heappop(heap)
                if not book.alive.get(cid, False):
                    continue
                cat = by_cid[cid]
                if leaves_only and cat.children:
                    deferred[cid] = True
                    continue
                fresh = book.loss_if_removed(cid) / combined_gain(cid)
                if heap and fresh > heap[0][0] + 1e-18:
                    heapq.heappush(heap, (fresh, cid))
                    continue
                # Accept: remove from tree and bookkeeping, update loads.
                parent = cat.parent
                work.remove_category(cat)
                book.remove(cid)
                cur_ns -= gain_ns[cid]
                cur_bytes -= gain_bytes[cid]
                pruned += 1
                progressed = True
                if (
                    leaves_only
                    and parent is not None
                    and not parent.children
                    and deferred.pop(parent.cid, False)
                ):
                    heapq.heappush(
                        heap,
                        (
                            book.loss_if_removed(parent.cid)
                            / combined_gain(parent.cid),
                            parent.cid,
                        ),
                    )
            # Re-anchor the running estimate on the exact cost (the
            # inner loop froze the path term and ignored depth shifts).
            est = estimate_cost(
                work, instance, self.variant, model, inter=book.alive_inter()
            )
            cur_ns = est.expected_query_ns
            cur_bytes = float(est.snapshot_bytes)
            need_ns, need_bytes = needs()
            if (need_ns <= 0 and need_bytes <= 0) or not progressed:
                break
        tracer.count("shaping.width_pruned", pruned)
        return pruned


def shape_tree(
    tree: CategoryTree,
    instance: OCTInstance,
    variant: Variant,
    budget: ShapingBudget,
    model: CostModel | None = None,
) -> ShapingResult:
    """One-shot convenience wrapper around :class:`TreeShaper`."""
    return TreeShaper(instance, variant, model).shape(tree, budget)
