"""Hot-swap choreography: prepare off-path, publish with one flip.

A swap has two halves with very different costs:

1. **prepare** — map a stored snapshot, or rebuild a tree and compile
   its :class:`~repro.serving.indexes.SnapshotIndexes`. Arbitrarily slow;
   runs on a background thread (or before serving starts), never holding
   any lock the read path touches.
2. **publish** — :meth:`ServingEngine.publish`: assign the next
   generation number and flip one reference. In-flight requests finish
   on the generation they started with; requests that arrive after the
   flip see the new tree. No request is ever dropped or served a
   half-installed generation.

:class:`HotSwapper` packages the common sources of a new generation
(a snapshot store reload or a fresh builder run) behind that two-phase
protocol, synchronously or on a daemon thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.algorithms.base import TreeBuilder
from repro.core.input_sets import OCTInstance
from repro.core.variants import Variant
from repro.observability import get_tracer
from repro.serving.engine import Generation, ServingEngine, prepare_generation
from repro.serving.shm import prepare_mmap_generation
from repro.serving.snapshot import SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.shaping import CostModel, ShapingBudget, ShapingResult


class HotSwapper:
    """Builds new generations for one engine and publishes them atomically.

    With a ``shaping_budget``, every rebuilt tree is passed through
    :class:`~repro.shaping.TreeShaper` *before* it is snapshotted or
    published (shape-then-publish): serving only ever sees trees that
    were shaped against the budget, the snapshot store archives the
    shaped form, and ``last_shaping`` carries the exact quality/cost
    accounting of the most recent swap.
    """

    def __init__(
        self,
        engine: ServingEngine,
        shaping_budget: "ShapingBudget | None" = None,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self.engine = engine
        self.shaping_budget = shaping_budget
        self.cost_model = cost_model
        self.last_shaping: "ShapingResult | None" = None
        self._swap_lock = threading.Lock()  # serializes whole swaps

    def _maybe_shape(self, tree, instance: OCTInstance, variant: Variant):
        """Apply the configured shaping budget to a freshly built tree."""
        if self.shaping_budget is None or self.shaping_budget.unbounded:
            return tree
        from repro.shaping import TreeShaper

        tracer = get_tracer()
        with tracer.span("serving.shape"):
            result = TreeShaper(instance, variant, self.cost_model).shape(
                tree, self.shaping_budget
            )
        self.last_shaping = result
        return result.tree

    # -- generation sources --------------------------------------------------

    def generation_from_store(
        self, store: SnapshotStore, snapshot_id: str | None = None
    ) -> Generation:
        """Prepare (not publish) a generation from a stored snapshot.

        The snapshot's flat files are mapped read-only instead of
        deserializing its JSON payloads.
        """
        return prepare_mmap_generation(store, snapshot_id)

    def generation_from_build(
        self,
        builder: TreeBuilder,
        instance: OCTInstance,
        variant: Variant,
        store: SnapshotStore | None = None,
    ) -> Generation:
        """Prepare a generation by running a tree builder from scratch.

        With ``store`` the rebuilt tree is also saved (and activated) as
        a snapshot, so the rebuild is durable and rollback-able.
        """
        tracer = get_tracer()
        with tracer.span("serving.rebuild"):
            tree = builder.build(instance, variant)
        tree = self._maybe_shape(tree, instance, variant)
        if store is not None:
            snapshot_id = store.save(tree, instance, variant).snapshot_id
            # Serve the snapshot's canonical (round-tripped) form, so a
            # later reload from disk is indistinguishable from this build.
            return self.generation_from_store(store, snapshot_id)
        return prepare_generation(tree, instance, variant)

    # -- swapping ------------------------------------------------------------

    def swap(self, prepare: Callable[[], Generation]) -> Generation:
        """Run a prepare callable and publish its result (synchronous).

        Swaps are serialized against each other so two concurrent
        rebuilds cannot publish out of order; the read path is never
        blocked by this lock.
        """
        with self._swap_lock:
            generation = prepare()
            return self.engine.publish(generation)

    def swap_from_store(
        self, store: SnapshotStore, snapshot_id: str | None = None
    ) -> Generation:
        """Reload a snapshot (default: CURRENT) and publish it."""
        return self.swap(lambda: self.generation_from_store(store, snapshot_id))

    def swap_from_build(
        self,
        builder: TreeBuilder,
        instance: OCTInstance,
        variant: Variant,
        store: SnapshotStore | None = None,
    ) -> Generation:
        """Rebuild from scratch and publish the result."""
        return self.swap(
            lambda: self.generation_from_build(builder, instance, variant, store)
        )

    def swap_in_background(
        self,
        prepare: Callable[[], Generation],
        on_published: Callable[[Generation], None] | None = None,
    ) -> threading.Thread:
        """Start a daemon thread doing prepare+publish; returns it.

        The caller can ``join()`` the thread to wait for the publish or
        pass ``on_published`` to be notified with the new generation.
        """

        def worker() -> None:
            generation = self.swap(prepare)
            if on_published is not None:
                on_published(generation)

        thread = threading.Thread(
            target=worker, name="repro-serving-hotswap", daemon=True
        )
        thread.start()
        return thread
