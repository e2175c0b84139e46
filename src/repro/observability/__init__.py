"""Observability: structured tracing, counters, and run manifests.

Zero-dependency (stdlib only).  The active tracer defaults to a no-op
:data:`NULL_TRACER`; enable collection with :func:`use_tracer` and
snapshot a run into a :class:`RunManifest` for the machine-readable
record.  See docs/operations.md for the operator guide.
"""

from repro.observability.manifest import (
    RunManifest,
    SCHEMA_VERSION,
    instance_fingerprint,
    make_run_id,
    peak_rss_bytes,
)
from repro.observability.quantiles import percentile
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanStats,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RunManifest",
    "SCHEMA_VERSION",
    "SpanStats",
    "Tracer",
    "get_tracer",
    "instance_fingerprint",
    "make_run_id",
    "peak_rss_bytes",
    "percentile",
    "set_tracer",
    "use_tracer",
]
