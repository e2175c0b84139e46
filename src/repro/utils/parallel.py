"""Parallel mapping helper.

:func:`parallel_map` is the single switch point between serial and
process-pool execution — with ``n_jobs=1`` (the default) everything runs
serially and deterministically, while ``n_jobs>1`` fans chunks out to a
process pool. Its consumer is the per-component hypergraph MIS solve
(``MISConfig.n_jobs``, ``--mis-jobs``): independent conflict components
are solved in parallel.

Tracing (:mod:`repro.observability`) survives the pool: when the parent
has an enabled tracer, each worker is given a fresh tracer through the
pool initializer and every chunk ships its counter deltas back alongside
its results, so parent counters are identical to a serial run.  Worker
span timings are deliberately *not* merged — concurrent wall clocks do
not add up; the parent's enclosing span already times the fan-out.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Sequence, TypeVar

from repro.observability import Tracer, get_tracer, set_tracer

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(n_jobs: int) -> int:
    """Normalize an ``n_jobs`` request: ``-1`` means all CPUs."""
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def chunked(seq: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split a sequence into at most ``n_chunks`` contiguous chunks."""
    if not seq:
        return []
    n_chunks = max(1, min(n_chunks, len(seq)))
    size, extra = divmod(len(seq), n_chunks)
    chunks: list[list[T]] = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(seq[start:end]))
        start = end
    return chunks


def chunked_by_size(seq: Sequence[T], chunk_size: int) -> list[list[T]]:
    """Split a sequence into contiguous chunks of ``chunk_size`` items."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        list(seq[start : start + chunk_size])
        for start in range(0, len(seq), chunk_size)
    ]


# -- tracing shims (module-level so they pickle into workers) --------------


def _traced_initializer() -> None:
    """Worker bootstrap: install a fresh tracer."""
    set_tracer(Tracer())


def _traced_chunk(fn: Callable, chunk: list) -> tuple[list, dict[str, int]]:
    """Run one chunk and return its results plus worker counter deltas.

    Workers persist across chunks, so deltas are measured against a
    snapshot taken at chunk entry rather than assuming zeroed counters.
    """
    tracer = get_tracer()
    before = dict(tracer.counters)
    results = fn(chunk)
    delta = {
        name: value - before.get(name, 0)
        for name, value in tracer.counters.items()
        if value != before.get(name, 0)
    }
    return results, delta


def parallel_map(
    fn: Callable[[list[T]], list[R]],
    items: Sequence[T],
    n_jobs: int = 1,
    chunk_size: int | None = None,
) -> list[R]:
    """Apply a chunk-level function over ``items``, preserving order.

    ``fn`` receives a chunk (list) of items and returns a list of results;
    chunk results are concatenated in order, so the output is identical
    for any ``n_jobs``. ``fn`` must be picklable (a module-level function)
    when ``n_jobs > 1``.

    By default items split into ``n_jobs * 4`` even chunks — right for
    homogeneous work. Pass ``chunk_size`` when item costs are wildly
    uneven (e.g. MIS components sorted by size): ``chunk_size=1`` gives
    every item its own pool task so one giant item cannot strand the
    other workers behind it.
    """
    n_jobs = resolve_jobs(n_jobs)
    if n_jobs == 1 or len(items) <= 1:
        return fn(list(items))
    if chunk_size is not None:
        chunks = chunked_by_size(items, chunk_size)
    else:
        chunks = chunked(items, n_jobs * 4)
    results: list[R] = []
    tracer = get_tracer()
    if tracer.enabled:
        wrapped = partial(_traced_chunk, fn)
        with ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_traced_initializer
        ) as pool:
            for part, delta in pool.map(wrapped, chunks):
                results.extend(part)
                tracer.merge_counters(delta)
        return results
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        for part in pool.map(fn, chunks):
            results.extend(part)
    return results
