"""Publisher-shaped CTCR builds: one from-scratch build per catalog version.

:class:`IncrementalBuilder` keeps the two calls a publisher makes —
:meth:`~IncrementalBuilder.full_build` once, then
:meth:`~IncrementalBuilder.delta_build` per churned catalog — and each
runs one plain :class:`~repro.algorithms.CTCR` build inside an
``incremental.full_build`` / ``incremental.delta_build`` span. Carrying
conflicts and solved MIS components from one build to the next never
beat rebuilding (docs/operations.md, "Incremental builds"); what a
delta publish reuses is the memoized preprocessing of
:func:`repro.incremental.incremental_preprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.ctcr import CTCR, CTCRConfig
from repro.core.input_sets import OCTInstance
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.observability import get_tracer


@dataclass
class BuildState:
    """The instance and variant of the last build."""

    instance: OCTInstance
    variant: Variant


@dataclass
class DeltaBuildResult:
    tree: CategoryTree
    state: BuildState
    counters: dict[str, float] = field(default_factory=dict)


class IncrementalBuilder:
    """CTCR behind the full/delta calls of a publisher."""

    def __init__(self, config: CTCRConfig | None = None) -> None:
        self.config = config or CTCRConfig()

    def _build(
        self, span: str, instance: OCTInstance, variant: Variant
    ) -> tuple[CategoryTree, BuildState]:
        with get_tracer().span(span):
            tree = CTCR(self.config).build(instance, variant)
        return tree, BuildState(instance=instance, variant=variant)

    def full_build(
        self, instance: OCTInstance, variant: Variant
    ) -> tuple[CategoryTree, BuildState]:
        """The first build of a publisher."""
        return self._build("incremental.full_build", instance, variant)

    def delta_build(
        self, state: BuildState, new_instance: OCTInstance, variant: Variant
    ) -> DeltaBuildResult:
        """Build a churned catalog from scratch; ``counters`` is empty."""
        tree, new_state = self._build(
            "incremental.delta_build", new_instance, variant
        )
        return DeltaBuildResult(tree=tree, state=new_state)
