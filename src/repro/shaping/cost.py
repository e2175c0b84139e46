"""Serving cost model for tree shaping (calibrated, not guessed).

The shaper needs to predict two things about a candidate tree *without
publishing it*: the expected per-query latency of the succinct read
path, and the snapshot bytes it will occupy. Both decompose over the
workload because :meth:`SnapshotIndexes.best_category` is a loop
whose work is proportional to observable counts:

* it touches one **posting** per (query item, containing category) pair
  — summed over a query that is exactly ``sum(|q ∩ C|)``, the same
  table :func:`repro.core.scoring.category_intersections` builds;
* it scores one **candidate** per category with a nonzero intersection;
* answering derives the best category's **root path** (depth + 1 nodes).

So the expected per-query cost under a workload with weights ``w`` is::

    base_ns
      + ns_per_posting   * E_w[ postings touched ]
      + ns_per_candidate * E_w[ distinct candidates ]
      + ns_per_path_node * E_w[ best-path nodes ]

:func:`calibrate_cost_model` measures those coefficients by timing the
serving reader, :class:`~repro.serving.indexes.SnapshotIndexes`, on
sampled workload queries and solving the least-squares fit (numpy),
clamping coefficients at zero. Snapshot bytes are not modeled — they
are *measured*, by running every category's item list through the same
LEB128 delta-varint codec the flat snapshot uses
(:func:`repro.serving.succinct.encode_postings`), plus a per-category
overhead constant for the header/offset/label sections.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Iterable

from repro.core.input_sets import OCTInstance
from repro.core.scoring import best_cover, category_intersections
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.serving.succinct import encode_postings


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs of the succinct read path.

    ``ns_*`` coefficients come from :func:`calibrate_cost_model`;
    ``bytes_per_category`` covers the flat layout's fixed per-category
    overhead (offsets, sizes, depth, label pointer); ``bytes_per_posting``
    is only a fallback for item sets the varint codec cannot encode.
    """

    base_ns: float = 2000.0
    ns_per_posting: float = 120.0
    ns_per_candidate: float = 300.0
    ns_per_path_node: float = 150.0
    bytes_per_category: float = 64.0
    bytes_per_posting: float = 2.5

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CostModel":
        return cls(**{k: float(payload[k]) for k in asdict(cls())})


@dataclass(frozen=True)
class CostEstimate:
    """Predicted serving cost of one tree over one workload."""

    expected_query_ns: float
    snapshot_bytes: int
    expected_postings: float
    expected_candidates: float
    expected_path_nodes: float
    n_categories: int
    max_depth: int
    max_fanout: int

    def to_dict(self) -> dict:
        return asdict(self)


def category_encoded_bytes(model: CostModel, items: Iterable) -> int:
    """Snapshot bytes one category's item set costs (measured codec).

    Integer item sets run through the real LEB128 delta-varint codec;
    anything else falls back to ``bytes_per_posting`` per item.
    """
    items = list(items)
    try:
        codes = sorted(items)
        if codes and not isinstance(codes[0], int):
            raise TypeError
        payload = len(encode_postings(codes)) if codes else 0
    except (TypeError, ValueError):
        payload = int(round(model.bytes_per_posting * len(items)))
    return int(model.bytes_per_category) + payload


def workload_features(
    tree: CategoryTree,
    instance: OCTInstance,
    variant: Variant,
    inter: dict[int, dict[int, int]] | None = None,
) -> dict[int, tuple[int, int, int]]:
    """``{sid: (postings, candidates, path_nodes)}`` for each query.

    ``path_nodes`` is the best-scoring category's depth + 1 (the root
    path the read path derives for an answer), 0 for uncovered sets.
    When ``inter`` is supplied it must describe exactly the categories
    present in ``tree`` (the shaper passes an alive-filtered table).
    """
    cats = list(tree.categories())
    if inter is None:
        inter = category_intersections(cats, instance)
    sizes = {cat.cid: len(cat.items) for cat in cats}
    depths = {cat.cid: cat.depth for cat in cats}
    feats: dict[int, tuple[int, int, int]] = {}
    for q in instance:
        counts = inter[q.sid]
        delta = instance.effective_threshold(q, variant.delta)
        best = best_cover(counts, len(q), sizes, depths, variant, delta)
        feats[q.sid] = (
            sum(counts.values()),
            len(counts),
            depths[best[0]] + 1 if best is not None else 0,
        )
    return feats


def estimate_cost(
    tree: CategoryTree,
    instance: OCTInstance,
    variant: Variant,
    model: CostModel,
    inter: dict[int, dict[int, int]] | None = None,
) -> CostEstimate:
    """The exact cost-model evaluation of a tree over a workload.

    "Exact" meaning: the expectation terms are computed from the full
    intersection table, not sampled — this is the number the shaper's
    budget-met verdict is asserted against.
    """
    feats = workload_features(tree, instance, variant, inter=inter)
    total_w = instance.total_weight
    e_post = e_cand = e_path = 0.0
    for q in instance:
        w = q.weight / total_w if total_w > 0 else 0.0
        p, c, d = feats[q.sid]
        e_post += w * p
        e_cand += w * c
        e_path += w * d
    cats = list(tree.categories())
    snapshot_bytes = sum(
        category_encoded_bytes(model, cat.items) for cat in cats
    )
    return CostEstimate(
        expected_query_ns=(
            model.base_ns
            + model.ns_per_posting * e_post
            + model.ns_per_candidate * e_cand
            + model.ns_per_path_node * e_path
        ),
        snapshot_bytes=snapshot_bytes,
        expected_postings=e_post,
        expected_candidates=e_cand,
        expected_path_nodes=e_path,
        n_categories=len(cats),
        max_depth=max(cat.depth for cat in cats),
        max_fanout=max(len(cat.children) for cat in cats),
    )


def calibrate_cost_model(
    tree: CategoryTree,
    instance: OCTInstance,
    variant: Variant,
    samples: int = 256,
    repeats: int = 3,
    bytes_per_category: float = 64.0,
) -> CostModel:
    """Fit the ``ns_*`` coefficients by timing the succinct read path.

    Compiles the tree into the same :class:`SnapshotIndexes` reader the
    serving workers map (here over a buffer), times ``best_category`` on
    up to ``samples`` workload queries
    (best of ``repeats`` to shed scheduler noise), and least-squares
    fits ``t ≈ base + a·postings + b·candidates + c·path`` with numpy,
    clamping coefficients at zero. Falls back to the default constants
    when the fit is degenerate (e.g. all sampled queries identical).
    """
    import numpy as np

    from repro.serving.indexes import SnapshotIndexes

    indexes = SnapshotIndexes(tree, variant)
    feats = workload_features(tree, instance, variant)
    queries = sorted(instance, key=lambda q: -q.weight)[:samples]

    rows: list[tuple[float, float, float, float]] = []
    times: list[float] = []
    for q in queries:
        frozen = q.items
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            indexes.best_category(frozen)
            dt = time.perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        p, c, d = feats[q.sid]
        rows.append((1.0, float(p), float(c), float(d)))
        times.append(float(best))

    defaults = CostModel(bytes_per_category=bytes_per_category)
    if len(rows) < 4:
        return defaults
    a = np.array(rows)
    t = np.array(times)
    coef, _res, rank, _sv = np.linalg.lstsq(a, t, rcond=None)
    if rank < 4:
        return defaults
    base, per_post, per_cand, per_path = (max(0.0, float(x)) for x in coef)
    if per_post == 0.0 and per_cand == 0.0:
        return defaults
    return CostModel(
        base_ns=base,
        ns_per_posting=per_post,
        ns_per_candidate=per_cand,
        ns_per_path_node=per_path,
        bytes_per_category=bytes_per_category,
    )
