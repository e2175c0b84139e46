"""The thread-safe category-tree serving engine.

A :class:`ServingEngine` answers navigation and categorization queries
against one *generation* — one opened
:class:`~repro.serving.indexes.SnapshotIndexes`. Requests read the
current generation through a single attribute load (atomic under the
GIL), so readers never block each other and never see a half-installed
tree. :meth:`ServingEngine.swap` maps a stored snapshot and publishes it
with one reference flip; in-flight requests keep using the generation
they started on.

Read results are memoized in an LRU cache keyed by (generation, op,
args), so a swap invalidates logically without a stop-the-world flush:
new-generation keys miss, old-generation entries age out. A batch op
caches nothing of its own: it looks each element up under the key of
its single op (``categorize`` / ``categorize_query``) and stores only
the misses, so the cache holds single-element answers whatever the
batch length, and an element seen in a batch hits when asked alone.
Per-request latency goes to the engine's local stats (exposed by
:meth:`stats` and the ``/stats`` HTTP endpoint); each cache lookup is
counted once, in the cache, which feeds both ``/stats`` and the
tracer's ``serving.cache_hits`` / ``serving.cache_misses`` when tracing
is enabled.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.exceptions import ReproError
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.observability import get_tracer, percentile
from repro.serving.indexes import BestCategory, SnapshotIndexes
from repro.serving.querycat import categorize_query as _categorize_query
from repro.serving.querycat import record_query_counters
from repro.serving.shm import prepare_mmap_generation
from repro.serving.snapshot import LoadedSnapshot, SnapshotStore

# ``stats()`` takes latency percentiles over this many latest requests.
LATENCY_WINDOW = 65536

Item = Hashable


class ServingError(ReproError):
    """Raised on serving-layer misuse (e.g. querying before publish)."""


def _placements(ix: SnapshotIndexes, items) -> list[list[dict]]:
    """Each item's placements, resolving each distinct cid's path once."""
    placements = [ix.placements(item) for item in items]
    paths = {
        cid: [ix.label_of(p) for p in ix.path_to_root(cid)]
        for cids in placements
        for cid in cids
    }
    return [
        [
            {"cid": cid, "label": ix.label_of(cid), "path": paths[cid]}
            for cid in cids
        ]
        for cids in placements
    ]


@dataclass
class Generation:
    """One immutable, queryable build of the category tree.

    ``number`` is assigned by :meth:`ServingEngine.publish` (monotonic,
    starting at 1); before publication it is 0. The indexes alone answer
    every read op, whether compiled in process or mapped from a store.
    """

    indexes: SnapshotIndexes
    snapshot_id: str = ""
    number: int = 0


class _LRUCache:
    """A tiny thread-safe LRU with hit/miss counters; size 0 disables.

    Every lookup is counted here, in ``hits`` / ``misses`` and in the
    tracer, so ``/stats`` and the trace report the same number.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = max(0, int(maxsize))
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key) -> tuple[bool, object]:
        with self._lock:
            hit = key in self._data
            if hit:
                self._data.move_to_end(key)
                value = self._data[key]
                self.hits += 1
            else:
                value = None
                self.misses += 1
        get_tracer().count(
            "serving.cache_hits" if hit else "serving.cache_misses"
        )
        return hit, value

    def put(self, key, value) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class _OpStats:
    requests: int = 0
    errors: int = 0
    wall_s: float = 0.0


class ServingEngine:
    """Concurrent query interface over hot-swappable tree generations."""

    def __init__(self, cache_size: int = 4096) -> None:
        self._gen: Generation | None = None
        # Re-entrant: swap() holds it across prepare + publish, so two
        # swaps cannot publish out of order.
        self._publish_lock = threading.RLock()
        self._generation_counter = 0
        self._cache = _LRUCache(cache_size)
        self._op_stats: dict[str, _OpStats] = {}
        self._stats_lock = threading.Lock()
        # deque.append is atomic; percentile readers copy a snapshot.
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        # Per-thread record of the generation the last op *actually*
        # used, so the HTTP layer can attribute each response exactly —
        # a concurrent publish between compute and reply cannot skew it.
        self._served = threading.local()

    # -- construction / swapping -------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        loaded: LoadedSnapshot,
        cache_size: int = 4096,
    ) -> "ServingEngine":
        """An engine serving one loaded snapshot (generation 1)."""
        engine = cls(cache_size=cache_size)
        indexes = SnapshotIndexes(loaded.tree, loaded.variant)
        engine.publish(Generation(indexes, loaded.info.snapshot_id))
        return engine

    @classmethod
    def from_tree(
        cls,
        tree: CategoryTree,
        variant: Variant,
        cache_size: int = 4096,
    ) -> "ServingEngine":
        """An engine serving an in-memory tree (no snapshot store)."""
        engine = cls(cache_size=cache_size)
        engine.publish(Generation(SnapshotIndexes(tree, variant)))
        return engine

    def publish(self, generation: Generation) -> Generation:
        """Atomically make a prepared generation the serving one.

        The only mutation readers can observe is the single ``_gen``
        reference flip: requests that already grabbed the old generation
        finish on it untouched, new requests see the new tree. Returns
        the generation with its number assigned.
        """
        with self._publish_lock:
            self._generation_counter += 1
            generation.number = self._generation_counter
            self._gen = generation  # the atomic flip
        tracer = get_tracer()
        tracer.count("serving.swaps")
        tracer.gauge("serving.generation", generation.number)
        return generation

    def swap(
        self, store: SnapshotStore, snapshot_id: str | None = None
    ) -> Generation:
        """Map a stored snapshot (default: CURRENT) and publish it.

        Mapping the flat file is the slow half and never touches the
        read path; the lock only orders concurrent swaps.
        """
        with self._publish_lock:
            return self.publish(prepare_mmap_generation(store, snapshot_id))

    @property
    def generation(self) -> int:
        """The serving generation number (0 before the first publish)."""
        gen = self._gen
        return gen.number if gen is not None else 0

    @property
    def current(self) -> Generation:
        """The serving generation; raises before the first publish."""
        gen = self._gen
        if gen is None:
            raise ServingError("no generation published yet")
        return gen

    def generation_info(self) -> tuple[int, str]:
        """``(number, snapshot_id)`` of the serving generation, atomically."""
        gen = self._gen
        return (gen.number, gen.snapshot_id) if gen is not None else (0, "")

    def pop_served_marker(self) -> tuple[int, str] | None:
        """Take this thread's (generation, snapshot) attribution marker.

        Set by every op to the generation that computed the answer;
        popping clears it, so one marker attributes exactly one request.
        """
        marker = getattr(self._served, "marker", None)
        self._served.marker = None
        return marker

    # -- the request path ---------------------------------------------------

    def _serve(self, op: str, key, compute):
        """One request: resolve generation, consult cache, record stats."""
        t0 = time.perf_counter()
        gen = self._gen  # one atomic read; the whole request uses it
        if gen is None:
            raise ServingError("no generation published yet")
        self._served.marker = (gen.number, gen.snapshot_id)
        tracer = get_tracer()
        error = False
        try:
            if key is None:
                value = compute(gen)
            else:
                full_key = (gen.number, op, key)
                hit, value = self._cache.get(full_key)
                if not hit:
                    value = compute(gen)
                    self._cache.put(full_key, value)
            return value
        except Exception:
            error = True
            raise
        finally:
            wall = time.perf_counter() - t0
            self._latencies.append(wall)
            with self._stats_lock:
                stats = self._op_stats.setdefault(op, _OpStats())
                stats.requests += 1
                stats.wall_s += wall
                if error:
                    stats.errors += 1
            tracer.count("serving.requests")
            tracer.count(f"serving.op.{op}")
            tracer.count("serving.latency_us", int(wall * 1e6))

    def _serve_each(self, batch_op: str, op: str, keys: list, compute):
        """One ``batch_op`` request, cached per element under ``op``'s keys.

        Each key is one cache lookup under ``(generation, op, key)``, the
        key the single op uses. ``compute(gen, missed)`` answers the
        distinct keys that missed, in order, and each answer is stored;
        the batch as a whole is never cached.
        """

        def answer(gen: Generation) -> list:
            answers = {}
            for key in keys:
                hit, value = self._cache.get((gen.number, op, key))
                if hit:
                    answers[key] = value
            missed = [key for key in dict.fromkeys(keys) if key not in answers]
            for key, value in zip(missed, compute(gen, missed)):
                self._cache.put((gen.number, op, key), value)
                answers[key] = value
            return [answers[key] for key in keys]

        return self._serve(batch_op, None, answer)

    # -- read operations ----------------------------------------------------

    def categorize_item(self, item: Item) -> list[dict]:
        """The item's branch placements: its most-specific categories.

        Each placement carries the cid, label, and the root-to-category
        label path. Unknown items yield an empty list.
        """
        return self._serve(
            "categorize", item, lambda gen: _placements(gen.indexes, [item])[0]
        )

    def categorize_items(self, items: Iterable[Item]) -> list[list[dict]]:
        """Batched :meth:`categorize_item`: one result list per item.

        Each item is looked up in the cache as :meth:`categorize_item`
        would; among the misses, each distinct placement cid resolves its
        root path once. Results are exactly what the per-item op returns,
        in input order.
        """
        return self._serve_each(
            "categorize_batch", "categorize", list(items),
            lambda gen, missed: _placements(gen.indexes, missed),
        )

    def best_category(
        self,
        items: Iterable[Item],
        variant: Variant | None = None,
        delta: float | None = None,
    ) -> BestCategory | None:
        """The best-scoring category for a query result set.

        ``variant`` defaults to the snapshot's build variant; ``delta``
        overrides its threshold (the per-set-thresholds extension).
        Returns None when the query is not covered.
        """
        q = items if isinstance(items, frozenset) else frozenset(items)
        key = (q, variant, delta)

        def compute(gen: Generation) -> BestCategory | None:
            return gen.indexes.best_category(q, variant=variant, delta=delta)

        return self._serve("best_category", key, compute)

    def browse(self, cid: int | None = None) -> dict:
        """One navigation page: a category, its path, and its children.

        ``cid=None`` browses the root. Raises ``KeyError`` for unknown
        cids (the HTTP layer maps that to 404).
        """

        def compute(gen: Generation) -> dict:
            ix = gen.indexes
            target = ix.root_cid if cid is None else cid
            cat = ix.category(target)
            return {
                "cid": cat.cid,
                "label": ix.label_of(cat.cid),
                "n_items": ix.sizes[cat.cid],
                "depth": ix.depths[cat.cid],
                "path": [
                    {"cid": p, "label": ix.label_of(p)}
                    for p in ix.path_to_root(cat.cid)
                ],
                "children": [
                    {
                        "cid": child,
                        "label": ix.label_of(child),
                        "n_items": ix.sizes[child],
                        "n_children": len(ix.children_of[child]),
                    }
                    for child in ix.children_of[cat.cid]
                ],
            }

        return self._serve("browse", "root" if cid is None else cid, compute)

    def path_to_root(self, cid: int) -> list[dict]:
        """Root-to-category breadcrumb for a cid (raises on unknown)."""

        def compute(gen: Generation) -> list[dict]:
            ix = gen.indexes
            ix.category(cid)  # raise KeyError before caching anything
            return [
                {"cid": p, "label": ix.label_of(p)}
                for p in ix.path_to_root(cid)
            ]

        return self._serve("path", cid, compute)

    def find_categories(self, query: str, top_k: int = 10) -> list[dict]:
        """Free-text label search over the categories (best first)."""

        def compute(gen: Generation) -> list[dict]:
            ix = gen.indexes
            return [
                {
                    "cid": hit.doc_id,
                    "label": ix.label_of(hit.doc_id),
                    "relevance": hit.relevance,
                }
                for hit in ix.find_labels(query, top_k=top_k)
            ]

        return self._serve("search", (query, top_k), compute)

    def categorize_query(
        self,
        text: str,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> dict:
        """Map one free-text query onto the tree (staged back-off).

        Runs the :mod:`repro.serving.querycat` decision procedure —
        exact label hit, then token-overlap scoring, then
        confidence-thresholded back-off up the hierarchy — and returns
        its JSON-native result dict. ``serving.querycat.*`` counters are
        recorded per request, cache hit or not.
        """

        def compute(gen: Generation) -> dict:
            return _categorize_query(
                gen.indexes, text, threshold=threshold, top_k=top_k
            )

        result = self._serve(
            "categorize_query", (text, threshold, top_k), compute
        )
        record_query_counters(result)
        return result

    def categorize_queries(
        self,
        texts: Iterable[str],
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[dict]:
        """Batched :meth:`categorize_query`: one result per query.

        The whole batch resolves against a single generation read, so a
        mid-batch hot swap can never split the batch across trees. Each
        query is looked up in the cache as :meth:`categorize_query`
        would, and only the misses are computed.
        """

        def compute(gen: Generation, missed: list) -> list[dict]:
            return [
                _categorize_query(
                    gen.indexes, text, threshold=threshold, top_k=top_k
                )
                for text, _, _ in missed
            ]

        results = self._serve_each(
            "categorize_query_batch", "categorize_query",
            [(text, threshold, top_k) for text in texts], compute,
        )
        for result in results:
            record_query_counters(result)
        return results

    # -- introspection -------------------------------------------------------

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99/max over the recent latency window, in ms."""
        samples = sorted(self._latencies)
        return {
            "p50_ms": percentile(samples, 0.50) * 1000.0,
            "p95_ms": percentile(samples, 0.95) * 1000.0,
            "p99_ms": percentile(samples, 0.99) * 1000.0,
            "max_ms": percentile(samples, 1.0) * 1000.0,
        }

    def stats(self) -> dict:
        """A JSON-ready health/throughput/cache report for this engine."""
        gen = self._gen
        cache = self._cache
        with self._stats_lock:
            ops = {
                op: {
                    "requests": s.requests,
                    "errors": s.errors,
                    "wall_s": s.wall_s,
                }
                for op, s in sorted(self._op_stats.items())
            }
        hits, misses = cache.hits, cache.misses
        lookups = hits + misses
        return {
            "generation": gen.number if gen is not None else 0,
            "snapshot_id": gen.snapshot_id if gen is not None else "",
            "variant": (
                gen.indexes.variant.describe() if gen is not None else ""
            ),
            "n_categories": gen.indexes.n_categories if gen is not None else 0,
            "cache": {
                "size": len(cache),
                "maxsize": cache.maxsize,
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
            },
            "ops": ops,
            "requests": sum(s["requests"] for s in ops.values()),
            "latency": self.latency_percentiles(),
        }
