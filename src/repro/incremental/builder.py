"""Delta-aware CTCR builds: full once, then churned-neighborhood work.

:class:`IncrementalBuilder` wraps :class:`~repro.algorithms.CTCR` with a
carry-over :class:`BuildState`: the previous instance, its pairwise
analysis and 3-conflict set, and a payload-keeping MIS component cache.
A *full* build populates the state from scratch (and measures its own
wall time — the honest baseline a delta build reports its speedup
against); a *delta* build matches the new instance against the state by
content, relabels everything clean, reclassifies only the dirty
neighborhood (:mod:`repro.incremental.conflicts`), seeds the component
cache across the sid rename (:meth:`MISComponentCache.seed_from_payload`),
and hands the result to ``CTCR.build(reuse=...)``.

The output tree is byte-identical to a from-scratch build — delta mode
is an optimization, never an approximation. The differential churn
suite (tests/test_incremental_differential.py) enforces this at every
step of randomized 200-step delta sequences.

Every delta build stamps ``incremental.*`` gauges on the active tracer,
so run manifests record how much work was actually reused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.algorithms.ctcr import CTCR, BuildReuse, CTCRConfig
from repro.conflicts.ranking import rank_sets
from repro.conflicts.three_conflicts import Triple, compute_three_conflicts
from repro.conflicts.two_conflicts import PairwiseAnalysis, compute_pairwise
from repro.core.exceptions import ReproError
from repro.core.input_sets import OCTInstance
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.incremental.conflicts import (
    update_pairwise,
    update_three_conflicts,
)
from repro.incremental.delta import InstanceMatch, match_instances
from repro.mis.cache import MISComponentCache
from repro.mis.hypergraph_mis import DEFAULT_MAX_EXACT_COMPONENT
from repro.observability import get_tracer
from repro.observability.manifest import instance_fingerprint


class DeltaMismatchError(ReproError):
    """The carried state does not fit this build (variant/config drift).

    Callers treat this as "fall back to a full rebuild" — the serving
    layer counts the fallback and rebuilds from scratch.
    """


@dataclass
class BuildState:
    """Everything a later delta build can reuse from this build."""

    fingerprint: str
    variant: Variant
    instance: OCTInstance
    analysis: PairwiseAnalysis
    triples: set[Triple]
    mis_cache: MISComponentCache
    full_build_wall_s: float

    def matches(self, instance: OCTInstance) -> bool:
        """True when ``instance`` is exactly the state's base instance."""
        return instance_fingerprint(instance)["sha256"] == self.fingerprint


@dataclass
class DeltaBuildResult:
    tree: CategoryTree
    state: BuildState
    counters: dict[str, float] = field(default_factory=dict)


class IncrementalBuilder:
    """CTCR with cross-build reuse of conflicts and MIS components."""

    def __init__(self, config: CTCRConfig | None = None) -> None:
        self.config = config or CTCRConfig()

    # -- knobs shared with the component cache key ------------------------

    def _cache_knobs(self) -> tuple[int, bool, int]:
        mis = self.config.mis
        return (
            mis.hyper_node_budget,
            mis.exact,
            DEFAULT_MAX_EXACT_COMPONENT,
        )

    def _uses_triples(self, variant: Variant) -> bool:
        return not variant.is_exact and self.config.use_three_conflicts

    # -- builds -----------------------------------------------------------

    def full_build(
        self, instance: OCTInstance, variant: Variant
    ) -> tuple[CategoryTree, BuildState]:
        """From-scratch build that also captures the reusable state."""
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("incremental.full_build"):
            ranking = rank_sets(instance)
            analysis = compute_pairwise(instance, variant, ranking)
            triples: set[Triple] = set()
            if self._uses_triples(variant):
                triples = compute_three_conflicts(analysis)
            cache = MISComponentCache(keep_payloads=True)
            tree = CTCR(self.config).build(
                instance,
                variant,
                reuse=BuildReuse(
                    analysis=analysis,
                    triples=triples if self._uses_triples(variant) else None,
                    mis_cache=cache,
                ),
            )
        wall = time.perf_counter() - start
        state = BuildState(
            fingerprint=instance_fingerprint(instance)["sha256"],
            variant=variant,
            instance=instance,
            analysis=analysis,
            triples=triples,
            mis_cache=cache,
            full_build_wall_s=wall,
        )
        return tree, state

    def delta_build(
        self,
        state: BuildState,
        new_instance: OCTInstance,
        variant: Variant,
        match: InstanceMatch | None = None,
    ) -> DeltaBuildResult:
        """Build the new instance's tree, reusing the carried state.

        ``match`` may be supplied when the caller already knows the
        old→new correspondence; by default it is recovered by content
        matching. Raises :class:`DeltaMismatchError` when the state was
        produced under a different variant — the caller falls back to
        :meth:`full_build`.
        """
        if variant != state.variant:
            raise DeltaMismatchError(
                f"carried state was built for variant {state.variant}, "
                f"delta build requested {variant}"
            )
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("incremental.delta_build"):
            if match is None:
                match = match_instances(state.instance, new_instance)
            analysis, pair_stats, triple_dirty = update_pairwise(
                state.analysis, new_instance, match, variant
            )
            triples: set[Triple] = set()
            triple_stats = None
            if self._uses_triples(variant):
                triples, triple_stats = update_three_conflicts(
                    state.triples, analysis, match, triple_dirty
                )
            cache = MISComponentCache(keep_payloads=True)
            node_budget, exact, max_exact = self._cache_knobs()
            seeded = cache.seed_from_payload(
                state.mis_cache.to_payload_dict(),
                sid_map=match.renames,
                node_budget=node_budget,
                exact=exact,
                max_exact_component=max_exact,
            )
            tree = CTCR(self.config).build(
                new_instance,
                variant,
                reuse=BuildReuse(
                    analysis=analysis,
                    triples=triples if self._uses_triples(variant) else None,
                    mis_cache=cache,
                ),
            )
        wall = time.perf_counter() - start

        counters: dict[str, float] = {
            "incremental.sets_added": len(match.added),
            "incremental.sets_removed": len(match.removed),
            "incremental.sets_reweighted": len(match.reweighted),
            "incremental.pairs_reused": pair_stats.reused,
            "incremental.pairs_reclassified": pair_stats.reclassified,
            "incremental.pairs_added": pair_stats.added,
            "incremental.pairs_dropped": pair_stats.dropped,
            "incremental.components_seeded": seeded,
            "incremental.components_reused": cache.hits,
            "incremental.components_resolved": cache.misses,
            "incremental.delta_wall_s": wall,
            "incremental.est_full_wall_s": state.full_build_wall_s,
        }
        if triple_stats is not None:
            counters["incremental.triples_reused"] = triple_stats.reused
            counters["incremental.triples_recomputed"] = (
                triple_stats.recomputed
            )
            counters["incremental.triples_dropped"] = triple_stats.dropped
        for name, value in counters.items():
            tracer.gauge(name, value)

        new_state = BuildState(
            fingerprint=instance_fingerprint(new_instance)["sha256"],
            variant=variant,
            instance=new_instance,
            analysis=analysis,
            triples=triples,
            mis_cache=cache,
            # Full-build cost drifts slowly with instance size; the
            # carried estimate is the last *measured* full build.
            full_build_wall_s=state.full_build_wall_s,
        )
        return DeltaBuildResult(tree=tree, state=new_state, counters=counters)
