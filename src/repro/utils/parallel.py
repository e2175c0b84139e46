"""Parallel mapping helper.

:func:`parallel_map` is the single switch point between serial and
process-pool execution — with ``n_jobs=1`` (the default) everything runs
serially and deterministically, while ``n_jobs>1`` gives every item its
own pool task, so one expensive item cannot strand the others behind
it. Its consumer is the per-component hypergraph MIS solve
(``MISConfig.n_jobs``, ``--mis-jobs``): independent conflict components,
whose costs are wildly uneven, are solved in parallel.

Tracing (:mod:`repro.observability`) survives the pool: when the parent
has an enabled tracer, each worker is given a fresh tracer through the
pool initializer and every task ships its counter deltas back alongside
its result, so parent counters are identical to a serial run.  Worker
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


# -- tracing shims (module-level so they pickle into workers) --------------


def _traced_initializer() -> None:
    """Worker bootstrap: install a fresh tracer."""
    set_tracer(Tracer())


def _traced_call(fn: Callable, item) -> tuple:
    """Run ``fn(item)``; return its result plus worker counter deltas.

    Workers persist across tasks, so deltas are measured against a
    snapshot taken at task entry rather than assuming zeroed counters.
    """
    tracer = get_tracer()
    before = dict(tracer.counters)
    result = fn(item)
    delta = {
        name: value - before.get(name, 0)
        for name, value in tracer.counters.items()
        if value != before.get(name, 0)
    }
    return result, delta


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], n_jobs: int = 1
) -> list[R]:
    """``[fn(item) for item in items]``, identical for any ``n_jobs``.

    With ``n_jobs > 1`` each item is its own pool task, and ``fn`` must
    be picklable (a module-level function or a ``partial`` of one).
    """
    n_jobs = resolve_jobs(n_jobs)
    if n_jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    tracer = get_tracer()
    if tracer.enabled:
        results: list[R] = []
        with ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_traced_initializer
        ) as pool:
            for result, delta in pool.map(partial(_traced_call, fn), items):
                results.append(result)
                tracer.merge_counters(delta)
        return results
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, items))
