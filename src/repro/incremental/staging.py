"""Memoized re-preprocessing of a churned catalog (the staging layer).

Profiling the publish pipeline shows preprocessing — not tree
construction — dominates: :func:`~repro.pipeline.compute_result_sets`
issues one :meth:`~repro.search.SearchEngine.result_set` call per
frequent query, and on the large datasets those searches cost an order
of magnitude more than the CTCR build they feed. But ``result_set`` is
a pure function of the query text and threshold for a fixed engine, and
catalog churn leaves most query texts untouched — so an incremental
publish re-runs the *same* preprocessing code through a memoizing
engine proxy and pays the engine only for queries it has never seen.

Everything downstream of the search (scatter filter, weighting,
merging, sid assignment) is cheap and re-runs verbatim, which is what
makes the staged instance byte-identical to a cold ``preprocess`` of
the same dataset — pinned by the pipeline differential tests.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.input_sets import OCTInstance
from repro.observability import get_tracer
from repro.pipeline.preprocess import (
    PreprocessConfig,
    PreprocessReport,
    preprocess,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.catalog.datasets import SyntheticDataset
    from repro.core.variants import Variant


class ResultSetCache:
    """Memo of ``(query text, threshold, top_k) -> frozenset`` results.

    One cache outlives many preprocess runs; it is keyed purely on the
    engine's inputs, so it is only valid while the underlying engine
    (the product catalog and its index) is unchanged. Callers that
    mutate the catalog itself must start a fresh cache.
    """

    def __init__(self) -> None:
        self._results: dict[tuple, frozenset] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._results)

    def lookup(self, key: tuple) -> frozenset | None:
        entry = self._results.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store(self, key: tuple, result: frozenset) -> None:
        self._results[key] = result


class _MemoizingEngine:
    """Engine proxy: answers ``result_set`` from the cache when it can.

    Every other attribute (``search``, index internals, ...) delegates
    to the wrapped engine untouched.
    """

    def __init__(self, engine, cache: ResultSetCache) -> None:
        self._engine = engine
        self._cache = cache

    def result_set(
        self, query: str, relevance_threshold: float, top_k: int | None = None
    ) -> frozenset:
        key = (query, relevance_threshold, top_k)
        cached = self._cache.lookup(key)
        if cached is not None:
            return cached
        result = self._engine.result_set(
            query, relevance_threshold, top_k=top_k
        )
        self._cache.store(key, result)
        return result

    def __getattr__(self, name):
        return getattr(self._engine, name)


def incremental_preprocess(
    dataset: "SyntheticDataset",
    variant: "Variant",
    cache: ResultSetCache,
    config: PreprocessConfig | None = None,
) -> tuple[OCTInstance, PreprocessReport]:
    """:func:`repro.pipeline.preprocess` with memoized engine calls.

    Byte-identical output to a cold run on the same dataset; the only
    difference is that queries already staged in ``cache`` skip the
    search engine. Emits ``incremental.staging_hits`` /
    ``incremental.staging_misses`` counters for the run manifest.
    """
    tracer = get_tracer()
    hits0, misses0 = cache.hits, cache.misses
    staged = dataclasses.replace(
        dataset, engine=_MemoizingEngine(dataset.engine, cache)
    )
    with tracer.span("incremental.preprocess"):
        instance, report = preprocess(staged, variant, config)
    tracer.count("incremental.staging_hits", cache.hits - hits0)
    tracer.count("incremental.staging_misses", cache.misses - misses0)
    return instance, report
