"""Zero-dependency structured tracing: nested spans, counters, gauges.

One :class:`Tracer` collects everything a run wants to report: *spans*
(nested wall/CPU timings aggregated by path, so a stage that runs inside
``ctcr.build`` shows up as ``ctcr.build/ctcr.pairwise``), integer
*counters* (pairs enumerated, MIS nodes expanded, 3-conflicts found),
float *gauges* (last-write-wins measurements such as diagnostics), and
free-form *annotations* (JSON-serializable metadata like a dataset
fingerprint).

The layer is strictly pay-for-what-you-use.  The module-level active
tracer defaults to :data:`NULL_TRACER`, whose methods are no-ops that
allocate nothing — instrumented hot paths cost one attribute lookup and
one call per event when tracing is off (pinned by the overhead
regression test).  Enable tracing for a region with :func:`use_tracer`::

    with use_tracer(Tracer()) as tracer:
        tree = CTCR().build(instance, variant)
    print(tracer.format_tree())

Spans survive exceptions: a span body that raises still closes, records
its elapsed time, and increments the span's ``errors`` count.  Process
pools are handled by :mod:`repro.utils.parallel`, which installs a fresh
tracer in each worker and merges worker counter deltas back into the
parent tracer (worker-local spans are intentionally not merged — wall
time of parallel stages is attributed to the parent's enclosing span).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

SEP = "/"  # joins nested span names into an aggregation path


@dataclass
class SpanStats:
    """Aggregate of every execution of one span path."""

    path: str
    name: str
    depth: int
    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "name": self.name,
            "depth": self.depth,
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "errors": self.errors,
        }


class _Span:
    """Reentrant-per-instance context manager recording one span run."""

    __slots__ = ("_tracer", "_name", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer._push(self._name)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._tracer._pop(self._name, wall, cpu, error=exc_type is not None)
        return False  # never swallow the exception


class Tracer:
    """An enabled collector of spans, counters, gauges, and annotations."""

    enabled = True

    def __init__(self) -> None:
        self._stack: list[str] = []
        self.spans: dict[str, SpanStats] = {}  # path -> stats, insertion-ordered
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.annotations: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Context manager timing one named, possibly nested, region."""
        return _Span(self, name)

    def _push(self, name: str) -> None:
        self._stack.append(name)
        # Register at entry so the span table lists parents before
        # children and siblings in execution order.
        path = SEP.join(self._stack)
        if path not in self.spans:
            self.spans[path] = SpanStats(
                path=path, name=name, depth=len(self._stack) - 1
            )

    def _pop(self, name: str, wall: float, cpu: float, error: bool) -> None:
        path = SEP.join(self._stack)
        self._stack.pop()
        stats = self.spans[path]
        stats.calls += 1
        stats.wall_s += wall
        stats.cpu_s += cpu
        if error:
            stats.errors += 1

    @property
    def current_path(self) -> str:
        """Dotted path of the innermost open span ('' at top level)."""
        return SEP.join(self._stack)

    # -- counters / gauges / annotations -----------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to an integer counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time measurement (last write wins)."""
        self.gauges[name] = float(value)

    def annotate(self, key: str, value: object) -> None:
        """Attach arbitrary JSON-serializable metadata to the run."""
        self.annotations[key] = value

    def merge_counters(self, delta: dict[str, int]) -> None:
        """Fold a worker's counter deltas into this tracer."""
        for name, n in delta.items():
            self.count(name, n)

    # -- reporting ---------------------------------------------------------

    def format_tree(self) -> str:
        """Human-readable span tree with wall/CPU totals and counters."""
        lines = ["spans (wall_s  cpu_s  calls):"]
        for stats in self.spans.values():
            lines.append(
                f"  {'  ' * stats.depth}{stats.name:<28s}"
                f" {stats.wall_s:9.4f} {stats.cpu_s:9.4f} {stats.calls:6d}"
                + (f"  errors={stats.errors}" if stats.errors else "")
            )
        if len(lines) == 1:
            lines.append("  (none)")
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name} = {self.counters[name]}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name} = {self.gauges[name]:g}")
        return "\n".join(lines)


class _NullSpan:
    """Shared, stateless no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_EMPTY: dict = {}


class NullTracer:
    """Disabled tracer: every operation is a constant-time no-op.

    Shares the read-only surface of :class:`Tracer` (``spans``,
    ``counters``, ``gauges``, ``annotations`` are permanently empty) so
    instrumentation sites never need an ``if tracing:`` branch.
    """

    enabled = False
    spans = _EMPTY
    counters = _EMPTY
    gauges = _EMPTY
    annotations = _EMPTY
    current_path = ""

    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def annotate(self, key: str, value: object) -> None:
        pass

    def merge_counters(self, delta: dict[str, int]) -> None:
        pass

    def format_tree(self) -> str:
        return "tracing disabled"


NULL_TRACER = NullTracer()

_ACTIVE: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide active tracer (the null tracer by default)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` as the active tracer (``None`` disables)."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return _ACTIVE


@contextmanager
def use_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Scope a tracer: activate it, yield it, restore the previous one."""
    active = tracer if tracer is not None else Tracer()
    previous = _ACTIVE
    set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
