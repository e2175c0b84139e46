"""Category-tree construction algorithms: CTCR, CCT, and shared stages."""

from repro.algorithms.assignment import (
    assign_duplicates,
    assign_safe_items,
    cover_gap,
)
from repro.algorithms.base import BuildContext, TreeBuilder
from repro.algorithms.cct import CCT, CCTConfig, set_embeddings
from repro.algorithms.condense import (
    add_misc_category,
    condense,
    remove_noncovered_items,
    remove_noncovering_categories,
)
from repro.algorithms.ctcr import (
    CTCR,
    CTCRConfig,
    CTCRDiagnostics,
)
from repro.algorithms.intermediate import add_intermediate_categories

__all__ = [
    "BuildContext",
    "CCT",
    "CCTConfig",
    "CTCR",
    "CTCRConfig",
    "CTCRDiagnostics",
    "TreeBuilder",
    "add_intermediate_categories",
    "add_misc_category",
    "assign_duplicates",
    "assign_safe_items",
    "condense",
    "cover_gap",
    "remove_noncovered_items",
    "remove_noncovering_categories",
    "set_embeddings",
]
