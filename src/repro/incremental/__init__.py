"""Incremental delta rebuilds (ROADMAP: incremental maintenance).

The paper's pipeline rebuilds from scratch on every publish; this
package makes a publish after small catalog churn cost only the churned
neighborhood:

* :mod:`repro.incremental.delta` — :class:`CatalogDelta` (added /
  removed / reweighted sets) with apply/compose algebra, and content
  matching between instances.
* :mod:`repro.incremental.conflicts` — dirty-sid maintenance of the
  pairwise analysis and 3-conflict set.
* :mod:`repro.incremental.builder` — :class:`IncrementalBuilder`:
  full builds capture a :class:`BuildState`; delta builds reuse it and
  produce byte-identical trees.
* :mod:`repro.incremental.state` — per-snapshot persistence of build
  state next to a serving :class:`~repro.serving.SnapshotStore`.
* :mod:`repro.incremental.staging` — memoized re-preprocessing of a
  churned catalog (search-engine result sets are the dominant cost).
"""

from repro.incremental.builder import (
    BuildState,
    DeltaBuildResult,
    DeltaMismatchError,
    IncrementalBuilder,
)
from repro.incremental.conflicts import (
    PairwiseUpdateStats,
    TripleUpdateStats,
    update_pairwise,
    update_three_conflicts,
)
from repro.incremental.delta import (
    CatalogDelta,
    InstanceMatch,
    InvalidDeltaError,
    match_instances,
)
from repro.incremental.staging import (
    ResultSetCache,
    incremental_preprocess,
)
from repro.incremental.state import IncrementalStateStore

__all__ = [
    "BuildState",
    "CatalogDelta",
    "DeltaBuildResult",
    "DeltaMismatchError",
    "IncrementalBuilder",
    "IncrementalStateStore",
    "InstanceMatch",
    "InvalidDeltaError",
    "PairwiseUpdateStats",
    "ResultSetCache",
    "TripleUpdateStats",
    "incremental_preprocess",
    "match_instances",
    "update_pairwise",
    "update_three_conflicts",
]
