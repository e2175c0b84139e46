"""Run manifests: one JSON document describing one pipeline run.

A :class:`RunManifest` is the machine-readable record the benchmarks and
the CLI emit next to their human-readable output: which code ran (tool,
config, variant), on what (dataset fingerprint, seed), how long each
stage took (the tracer's span aggregates), what the counters saw, the
process's peak RSS, and the final score.  The schema is versioned and
pinned by a golden-file test; bump :data:`SCHEMA_VERSION` whenever a
field is added, renamed, or changes meaning.

Reading a manifest: sort ``spans`` by ``wall_s`` and the dominant stage
is at the top; ``counters`` explain *why* (e.g. a large
``conflicts.pairs_enumerated`` with few ``conflicts.two_conflicts``
means the pairwise stage is enumeration-bound, not classification-bound).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.observability.tracer import NullTracer, Tracer

# v2: ctcr.diag.mis_cache_{hits,misses} gauges and the mis.cache_* /
# mis.kernel_removed counters from the kernelized MIS engine.
# v3: cct.cache_{hits,misses} counters from CCT's embedding cache.
# v4: incremental.* gauges/counters from delta rebuilds (dirty pairs,
# reused/resolved MIS components, staging hits, delta vs full wall).
# v5: serving.workers.* gauges/counters from multi-process serving
# (worker count, respawns, poll errors) and serving.flat_bytes from the
# flat mmap snapshot compiler.
# v6: serving.succinct.* counters from the succinct read path (requests
# served by succinct generations, varint postings decoded, bitset
# large-fan-in fallbacks, batched-LCA sweeps).
# v7: serving.querycat.* counters from free-text query categorization
# (per-stage outcomes exact/overlap/backoff/nohit/empty, unmatched,
# backoff_steps, per-category traffic.<cid> / backoff_traffic.<cid>) —
# the raw material of the repro.analytics report and drift detector.
# v8: shaping.* counters/gauges from latency/memory-budgeted tree
# shaping (runs, removed, hub_splits, width_pruned, quality_given_up,
# met) emitted by repro.shaping.TreeShaper (and, until v13, by the
# swap path's shape-then-publish hook).
# v9: serving.succinct.requests (equal to serving.requests now that every
# generation reads the succinct layout) and serving.succinct.bitset_fanin
# (its dense-kernel path is gone) are no longer emitted.
# v10: one build engine per stage — the counters bitset.words_touched,
# bitset.words_packed, bitset.pairwise_cache_hits, cct.cache_hits,
# cct.cache_misses, conflicts.pairs_classified and incremental.cct_replayed,
# and the span ctcr.pack, are no longer emitted.
# v11: output-sensitive post-MIS stages — the counters assign.rounds,
# assign.set_evaluations (one count each per assign_duplicates call) and
# intermediate.merges (one count per add_intermediate_categories call).
# v12: delta builds are plain CTCR builds — the gauges
# incremental.sets_{added,removed,reweighted},
# incremental.pairs_{reused,reclassified,added,dropped},
# incremental.components_{seeded,reused,resolved},
# incremental.triples_{reused,recomputed,dropped},
# incremental.delta_wall_s and incremental.est_full_wall_s, and the
# counter incremental.fallbacks, are no longer emitted
# (incremental.staging_{hits,misses} stay).
# v13: one swap path and no MIS component cache — the counters
# serving.succinct.batched_lca, mis.cache_hits and mis.cache_misses, the
# gauges ctcr.diag.mis_cache_hits and ctcr.diag.mis_cache_misses, and
# the spans serving.prepare, serving.rebuild and serving.shape are no
# longer emitted.
SCHEMA_VERSION = 13

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size, or None if unavailable."""
    if resource is None:  # pragma: no cover
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes; normalize to bytes.
    return peak * 1024 if os.uname().sysname == "Linux" else peak


def make_run_id(prefix: str = "run") -> str:
    """A filesystem-safe, human-sortable run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    return f"{prefix}-{stamp}-p{os.getpid()}"


def instance_fingerprint(instance) -> dict:
    """A stable content fingerprint of an :class:`OCTInstance`.

    Size fields identify the shape at a glance; the digest pins the
    exact content (sids, items, weights, thresholds, bounds), so two
    manifests with equal fingerprints ran on identical inputs.
    """
    digest = hashlib.sha256()
    for q in sorted(instance.sets, key=lambda q: q.sid):
        digest.update(
            repr(
                (q.sid, sorted(map(str, q.items)), q.weight, q.threshold)
            ).encode()
        )
    universe = sorted(map(str, instance.universe))
    digest.update(repr(universe).encode())
    digest.update(
        repr(sorted((str(i), instance.bound(i)) for i in instance.universe)).encode()
    )
    return {
        "n_sets": len(instance.sets),
        "n_items": len(instance.universe),
        "total_weight": sum(q.weight for q in instance.sets),
        "sha256": digest.hexdigest(),
    }


@dataclass
class RunManifest:
    """Everything one run wants to report, as one JSON document."""

    run_id: str
    tool: str
    created_at: str
    schema_version: int = SCHEMA_VERSION
    config: dict = field(default_factory=dict)
    dataset: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    score: dict = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        tracer: Tracer | NullTracer,
        run_id: str | None = None,
        tool: str = "repro",
        config: Mapping | None = None,
        dataset: Mapping | None = None,
        score: Mapping | None = None,
    ) -> "RunManifest":
        """Snapshot a tracer (plus run metadata) into a manifest.

        ``dataset`` and ``score`` default to the tracer's
        ``dataset.fingerprint`` / ``score`` annotations when present (the
        CLI records both while running).
        """
        annotations = dict(tracer.annotations)
        if dataset is None:
            dataset = annotations.pop("dataset.fingerprint", {})
        if score is None:
            score = annotations.pop("score", {})
        spans = [s.to_dict() for s in tracer.spans.values()]
        totals = {
            "wall_s": sum(s["wall_s"] for s in spans if s["depth"] == 0),
            "cpu_s": sum(s["cpu_s"] for s in spans if s["depth"] == 0),
            "peak_rss_bytes": peak_rss_bytes(),
        }
        return cls(
            run_id=run_id or make_run_id(),
            tool=tool,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime()),
            config=dict(config or {}),
            dataset=dict(dataset),
            spans=spans,
            counters=dict(tracer.counters),
            gauges=dict(tracer.gauges),
            annotations=annotations,
            totals=totals,
            score=dict(score or {}),
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "tool": self.tool,
            "created_at": self.created_at,
            "config": self.config,
            "dataset": self.dataset,
            "totals": self.totals,
            "score": self.score,
            "spans": self.spans,
            "counters": self.counters,
            "gauges": self.gauges,
            "annotations": self.annotations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunManifest":
        known = {
            "run_id", "tool", "created_at", "schema_version", "config",
            "dataset", "spans", "counters", "gauges", "annotations",
            "totals", "score",
        }
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    # -- reading -----------------------------------------------------------

    def dominant_spans(self, top: int = 5) -> list:
        """Span dicts sorted by wall time, heaviest first."""
        return sorted(self.spans, key=lambda s: -s["wall_s"])[:top]
