"""Serving: snapshot-based query serving over built category trees.

The offline pipeline (CTCR/CCT) *builds* trees; this subsystem *serves*
them: versioned on-disk snapshots (:mod:`repro.serving.snapshot`), one
versioned flat binary snapshot layout (:mod:`repro.serving.shm`) with a
succinct tree representation — pre-order subtree intervals and
delta-compressed varint postings (:mod:`repro.serving.succinct`) — and
one reader over it (:mod:`repro.serving.indexes`), which opens either
an in-process buffer compiled from a tree or a snapshot's one flat
file mapped read-only. On top sit a thread-safe query engine with an
LRU result cache that hot-swaps to any stored snapshot
(:mod:`repro.serving.engine`), a zero-dependency HTTP/JSON frontend
(:mod:`repro.serving.http`), a multi-process SO_REUSEPORT supervisor
whose workers map the same file and follow the store's ``CURRENT``
pointer (:mod:`repro.serving.supervisor`, CLI: ``python -m repro serve
--snapshot-dir DIR [--workers N]``), and staged free-text query
categorization with
confidence-thresholded back-off up the hierarchy
(:mod:`repro.serving.querycat`, CLI: ``python -m repro
categorize-query``).

Quickstart::

    from repro.serving import ServingEngine, SnapshotStore

    store = SnapshotStore("snapshots/")
    store.save(tree, instance, variant)           # content-addressed
    engine = ServingEngine()
    engine.swap(store)                            # map + publish CURRENT
    engine.best_category({"p1", "p2"})            # scored best category
    engine.categorize_item("p1")                  # branch placements
    engine.browse()                               # root navigation page
"""

from repro.serving.engine import Generation, ServingEngine, ServingError
from repro.serving.http import ServingHTTPServer, make_server, serve_in_background
from repro.serving.indexes import BestCategory, SnapshotIndexes
from repro.serving.querycat import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_TOP_K,
    categorize_query,
    record_query_counters,
)
from repro.serving.shm import (
    FLAT_FORMAT_VERSION,
    SECTION_GROUPS,
    compile_flat_indexes,
    describe_flat,
    flat_header,
    prepare_mmap_generation,
)
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    LoadedSnapshot,
    SnapshotError,
    SnapshotInfo,
    SnapshotStore,
    variant_from_spec,
    variant_spec,
)
from repro.serving.succinct import EulerTour, decode_postings, encode_postings
from repro.serving.supervisor import ServingSupervisor, WorkerConfig

__all__ = [
    "BestCategory",
    "DEFAULT_CONFIDENCE_THRESHOLD",
    "DEFAULT_TOP_K",
    "EulerTour",
    "FLAT_FORMAT_VERSION",
    "Generation",
    "LoadedSnapshot",
    "SECTION_GROUPS",
    "SNAPSHOT_FORMAT_VERSION",
    "ServingEngine",
    "ServingError",
    "ServingHTTPServer",
    "ServingSupervisor",
    "SnapshotError",
    "SnapshotIndexes",
    "SnapshotInfo",
    "SnapshotStore",
    "WorkerConfig",
    "categorize_query",
    "compile_flat_indexes",
    "decode_postings",
    "describe_flat",
    "encode_postings",
    "flat_header",
    "make_server",
    "prepare_mmap_generation",
    "record_query_counters",
    "serve_in_background",
    "variant_from_spec",
    "variant_spec",
]
