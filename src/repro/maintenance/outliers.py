"""Misassignment detection (paper Section 5.4, "Identifying errors").

Taxonomists routinely search for suboptimal assignments with a tool that
flags high pairwise distances between embeddings of items within a
category — the "Nike Blazer under Blazers" example. This module
reproduces that tool over TF-IDF title embeddings: an item whose
similarity to its category's centroid falls far below the category's
average is reported for manual review.

The same relative-threshold idiom powers
:func:`detect_distribution_outliers`: given an observed and an expected
share distribution over arbitrary keys, flag the keys whose shares
diverge by more than a multiplicative factor. The serving analytics
drift detector (:mod:`repro.analytics.drift`) feeds it live per-category
traffic against build-time weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.tree import CategoryTree
from repro.embeddings.text import tfidf_vectors
from repro.embeddings.vectors import centroid, cosine

Item = Hashable


@dataclass(frozen=True)
class OutlierReport:
    """One suspicious item assignment."""

    cid: int
    category_label: str
    item: Item
    similarity_to_centroid: float
    category_average: float


def detect_misassigned_items(
    tree: CategoryTree,
    titles: dict[Item, str],
    relative_threshold: float = 0.5,
    min_category_size: int = 4,
    leaf_only: bool = True,
) -> list[OutlierReport]:
    """Flag items far from their category's semantic centroid.

    An item is reported when its centroid similarity is below
    ``relative_threshold`` times the category's average centroid
    similarity. Results are sorted most-suspicious first.
    """
    item_list = sorted(titles, key=str)
    vectors = tfidf_vectors([titles[item] for item in item_list])
    vec_of = dict(zip(item_list, vectors))

    reports: list[OutlierReport] = []
    categories = tree.leaves() if leaf_only else list(tree.non_root_categories())
    for cat in categories:
        members = [item for item in cat.items if item in vec_of]
        if len(members) < min_category_size:
            continue
        center = centroid([vec_of[item] for item in members])
        sims = {item: cosine(vec_of[item], center) for item in members}
        average = sum(sims.values()) / len(sims)
        if average <= 0:
            continue
        for item, sim in sims.items():
            if sim < relative_threshold * average:
                reports.append(
                    OutlierReport(
                        cid=cat.cid,
                        category_label=cat.label or f"C{cat.cid}",
                        item=item,
                        similarity_to_centroid=sim,
                        category_average=average,
                    )
                )
    reports.sort(key=lambda r: r.similarity_to_centroid)
    return reports


@dataclass(frozen=True)
class DistributionOutlier:
    """One key whose observed share diverges from its expected share.

    ``ratio`` is the divergence factor ``max(obs/exp, exp/obs)`` (after
    smoothing), so 2.0 reads "twice the expected share, or half of it".
    """

    key: Hashable
    observed: float
    expected: float
    ratio: float


def detect_distribution_outliers(
    observed: dict,
    expected: dict,
    relative_threshold: float = 2.0,
    min_mass: float = 0.0,
    smoothing: float = 1e-3,
) -> list[DistributionOutlier]:
    """Flag keys whose observed share diverges from the expected one.

    Both arguments map keys to non-negative shares (they need not sum to
    one; missing keys count as zero). A key is reported when its
    divergence factor reaches ``relative_threshold`` — the same
    relative-to-baseline rule :func:`detect_misassigned_items` applies
    to centroid similarities. Keys where both shares are below
    ``min_mass`` are ignored (tail noise), and ``smoothing`` keeps
    zero-share keys finite. Results are sorted most-divergent first,
    ties broken by key order for determinism.
    """
    outliers: list[DistributionOutlier] = []
    for key in sorted(set(observed) | set(expected), key=str):
        obs = float(observed.get(key, 0.0))
        exp = float(expected.get(key, 0.0))
        if max(obs, exp) < min_mass:
            continue
        ratio = (obs + smoothing) / (exp + smoothing)
        divergence = max(ratio, 1.0 / ratio)
        if divergence >= relative_threshold:
            outliers.append(
                DistributionOutlier(
                    key=key, observed=obs, expected=exp, ratio=divergence
                )
            )
    outliers.sort(key=lambda r: (-r.ratio, str(r.key)))
    return outliers
