"""Publishing churned catalogs.

The paper's pipeline rebuilds from scratch on every publish, and so does
this package's tree build; what a publish after small catalog churn
reuses is preprocessing:

* :mod:`repro.incremental.builder` — :class:`IncrementalBuilder`: the
  full/delta build calls of a publisher, each one plain CTCR build.
* :mod:`repro.incremental.staging` — memoized re-preprocessing of a
  churned catalog (the one search per query is the dominant cost).
"""

from repro.incremental.builder import (
    BuildState,
    DeltaBuildResult,
    IncrementalBuilder,
)
from repro.incremental.staging import (
    ResultSetCache,
    incremental_preprocess,
)

__all__ = [
    "BuildState",
    "DeltaBuildResult",
    "IncrementalBuilder",
    "ResultSetCache",
    "incremental_preprocess",
]
