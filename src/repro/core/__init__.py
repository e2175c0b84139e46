"""Core OCT model: items, input sets, similarity variants, trees, scoring."""

from repro.core.exceptions import (
    InvalidInstanceError,
    InvalidTreeError,
    InvalidVariantError,
    ReproError,
    SolverError,
)
from repro.core.input_sets import InputSet, Item, OCTInstance, make_instance
from repro.core.scoring import (
    ScoreReport,
    SetScore,
    annotate_matches,
    best_cover,
    category_intersections,
    covering_categories,
    score_tree,
    upper_bound,
)
from repro.core.similarity import (
    covers,
    f1,
    jaccard,
    precision,
    raw_similarity,
    recall,
    variant_score,
)
from repro.core.tree import Category, CategoryTree
from repro.core.variants import ScoreMode, SimilarityKind, Variant

__all__ = [
    "Category",
    "CategoryTree",
    "InputSet",
    "InvalidInstanceError",
    "InvalidTreeError",
    "InvalidVariantError",
    "Item",
    "OCTInstance",
    "ReproError",
    "ScoreMode",
    "ScoreReport",
    "SetScore",
    "SimilarityKind",
    "SolverError",
    "Variant",
    "annotate_matches",
    "best_cover",
    "category_intersections",
    "covering_categories",
    "covers",
    "f1",
    "jaccard",
    "make_instance",
    "precision",
    "raw_similarity",
    "recall",
    "score_tree",
    "upper_bound",
    "variant_score",
]
