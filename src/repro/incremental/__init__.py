"""Publishing churned catalogs.

The paper's pipeline rebuilds from scratch on every publish, and so does
this package's tree build; what a publish after small catalog churn
reuses is preprocessing:

* :mod:`repro.incremental.delta` — :class:`CatalogDelta` (added /
  removed / reweighted sets) with apply/compose algebra.
* :mod:`repro.incremental.builder` — :class:`IncrementalBuilder`: the
  full/delta build calls of a publisher, each one plain CTCR build.
* :mod:`repro.incremental.staging` — memoized re-preprocessing of a
  churned catalog (search-engine result sets are the dominant cost).
"""

from repro.incremental.builder import (
    BuildState,
    DeltaBuildResult,
    IncrementalBuilder,
)
from repro.incremental.delta import CatalogDelta, InvalidDeltaError
from repro.incremental.staging import (
    ResultSetCache,
    incremental_preprocess,
)

__all__ = [
    "BuildState",
    "CatalogDelta",
    "DeltaBuildResult",
    "IncrementalBuilder",
    "InvalidDeltaError",
    "ResultSetCache",
    "incremental_preprocess",
]
