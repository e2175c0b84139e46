"""Multi-process serving: aggregate HTTP throughput vs worker count.

One snapshotted CTCR tree served by a :class:`ServingSupervisor` at
1/2/4/8 worker processes, each cell hammered over real sockets by the
HTTP load generator — with a mid-run hot swap (``CURRENT`` flip to a
second, larger snapshot) fired in **every** cell.  Written to
``benchmarks/BENCH_serving_multi.json``:

- per-cell ``throughput_rps`` / ``latency_ms.{p50,p95,p99}`` /
  ``per_worker`` tallies and ``min_fair_share_ratio`` (kernel-level
  ``SO_REUSEPORT`` balance);
- **zero failed requests asserted in every cell**, swap included — the
  flip is provably invisible to clients even across processes;
- balance asserted for every multi-worker cell (no worker below 10% of
  its fair connection share);
- ``scaling``: aggregate throughput at 4 workers over 1 worker.  The
  >= 2.5x floor is only *enforced* where it can physically hold — the
  host must actually have >= 4 CPUs; the JSON records the honest curve
  either way, with the gate spelled out in ``scaling_floor``;
- ``sequential``: the same requests from 1 keep-alive connection to 1
  worker, no swap, so each request's latency is the edge's own, with
  nothing queued behind it.  Its p50 is asserted at most 1 ms on C.

``--tiny`` runs a seconds-scale 1-vs-2-worker version on dataset A for
CI smoke (own file ``BENCH_serving_multi_tiny.json``; the zero-error
and balance assertions still hold, and the sequential p50 must be at
most 20 ms, half the ~40 ms delayed-ACK wait that a keep-alive reply
written as two small packets under Nagle's algorithm pays).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import available_cpus, bench_report, write_bench_json
from benchmarks.conftest import instance_for
from benchmarks.loadgen import build_workload, run_http_loadgen
from repro.algorithms import CTCR
from repro.core import Variant, make_instance
from repro.observability import get_tracer
from repro.serving import SnapshotStore

VARIANT = Variant.threshold_jaccard(0.8)

# dataset, requests per cell, worker counts, sequential p50 gate (ms).
FULL = ("C", 2_000, (1, 2, 4, 8), 1.0)
TINY = ("A", 300, (1, 2), 20.0)

SCALING_FLOOR = 2.5  # x aggregate throughput at 4 workers vs 1
SCALING_WORKERS = 4


def _grown_instance(instance, extra: int):
    """The same instance plus ``extra`` synthetic sets.

    The grown tree has at least as many categories, and cids are
    contiguous preorder numbers, so every browse/path cid drawn from the
    base tree resolves in *both* snapshots — the swap can never 404 a
    pre-generated request.
    """
    sets = [q.items for q in instance.sets]
    weights = [q.weight for q in instance.sets]
    labels = [q.label for q in instance.sets]
    anchor = sorted(instance.universe, key=str)[0]
    for i in range(extra):
        sets.append({f"bench-x{i}", f"bench-y{i}", anchor})
        weights.append(1.0)
        labels.append(f"bench extra {i}")
    return make_instance(sets, weights=weights, labels=labels)


def run(tiny: bool = False) -> dict:
    dataset_name, n_requests, worker_counts, sequential_gate_ms = (
        TINY if tiny else FULL
    )
    cpus = available_cpus()
    instance = instance_for(dataset_name, VARIANT)

    from repro.serving import ServingSupervisor

    with tempfile.TemporaryDirectory(prefix="bench-serving-multi-") as tmp:
        store = SnapshotStore(tmp)
        # Two content-distinct snapshots: the base one served at cell
        # start, and a strictly larger one the mid-run swap flips to.
        base_info = store.save(
            CTCR().build(instance, VARIANT), instance, VARIANT,
            build_run_id="bench",
        )
        grown = _grown_instance(instance, extra=4)
        grown_info = store.save(
            CTCR().build(grown, VARIANT), grown, VARIANT, activate=False,
            build_run_id="bench",
        )
        assert grown_info.n_categories >= base_info.n_categories
        loaded = store.load(base_info.snapshot_id)
        workload = build_workload(
            loaded.instance, loaded.tree, n_requests, seed=1234
        )

        store.activate(base_info.snapshot_id)
        with ServingSupervisor(store, n_workers=1) as supervisor:
            sequential = run_http_loadgen(
                supervisor.base_url, workload, n_connections=1
            )
        assert sequential.errors == 0, sequential.error_messages
        assert sequential.p50_ms <= sequential_gate_ms, (
            f"sequential keep-alive p50 {sequential.p50_ms:.2f} ms "
            f"over the {sequential_gate_ms} ms gate"
        )

        cells = []
        for n_workers in worker_counts:
            store.activate(base_info.snapshot_id)
            supervisor = ServingSupervisor(
                store, n_workers=n_workers, poll_interval=0.1
            )
            with supervisor:
                # 8 connections per worker: the kernel balances whole
                # connections (not requests), so each worker must hold
                # several for the no-starvation assertion to be sound.
                result = run_http_loadgen(
                    supervisor.base_url,
                    workload,
                    n_connections=max(8, 8 * n_workers),
                    swap_at=0.5,
                    swap=lambda: store.activate(grown_info.snapshot_id),
                )
            assert result.errors == 0, (
                f"{n_workers} workers dropped requests: "
                f"{result.error_messages}"
            )
            assert result.swap_performed
            # Every response attributable to exactly one of the two
            # published snapshots — no torn state, no third generation.
            assert set(result.per_snapshot) <= {
                base_info.snapshot_id, grown_info.snapshot_id
            }, result.per_snapshot
            if n_workers > 1:
                assert len(result.per_worker) == n_workers, result.per_worker
                assert result.min_fair_share_ratio() >= 0.1, (
                    result.per_worker
                )
            cells.append((n_workers, result))

    by_workers = dict(cells)
    scaling = None
    if 1 in by_workers and SCALING_WORKERS in by_workers:
        scaling = (
            by_workers[SCALING_WORKERS].throughput_rps
            / by_workers[1].throughput_rps
        )
    enforce_floor = scaling is not None and cpus >= SCALING_WORKERS
    if enforce_floor:
        assert scaling >= SCALING_FLOOR, (
            f"aggregate throughput scaled only {scaling:.2f}x at "
            f"{SCALING_WORKERS} workers (floor {SCALING_FLOOR}x, "
            f"{cpus} CPUs)"
        )

    tracer = get_tracer()
    tracer.gauge("serving.workers.configured", max(worker_counts))
    tracer.gauge("serving.workers.cpus", cpus)

    bench_report(
        f"Multi-process serving — {dataset_name}, {n_requests} requests "
        f"per cell, CURRENT flip mid-run, {cpus} CPUs",
        "every cell swaps hot with zero failed requests; sequential "
        f"(1 connection, no swap) p50 <= {sequential_gate_ms} ms; "
        + (
            f"4-worker scaling floor {SCALING_FLOOR}x enforced"
            if enforce_floor
            else f"scaling floor not enforced (needs >= {SCALING_WORKERS} CPUs)"
        ),
        ["workers", "conns", "rps", "p50 ms", "p95 ms", "p99 ms",
         "min fair share", "retries", "errors"],
        [
            [n, r.n_connections, round(r.throughput_rps), r.p50_ms,
             r.p95_ms, r.p99_ms, f"{r.min_fair_share_ratio():.2f}",
             r.retries, r.errors]
            for n, r in cells
        ]
        + [
            ["1 seq", 1, round(sequential.throughput_rps), sequential.p50_ms,
             sequential.p95_ms, sequential.p99_ms, "-", sequential.retries,
             sequential.errors]
        ],
    )

    payload = {
        "mode": "tiny" if tiny else "full",
        "dataset": dataset_name,
        "variant": "threshold-jaccard:0.8",
        "snapshot_id": base_info.snapshot_id,
        "swap_snapshot_id": grown_info.snapshot_id,
        "n_categories": base_info.n_categories,
        "requests_per_cell": n_requests,
        "cells": {str(n): r.to_dict() for n, r in cells},
        "scaling": {
            "workers": SCALING_WORKERS,
            "throughput_ratio": round(scaling, 3) if scaling else None,
        },
        "scaling_floor": {
            "required": SCALING_FLOOR,
            "enforced": enforce_floor,
            "cpus": cpus,
        },
        "sequential": {
            **sequential.to_dict(),
            "p50_gate_ms": sequential_gate_ms,
        },
    }
    write_bench_json(
        "serving_multi_tiny" if tiny else "serving_multi", payload
    )
    return payload


def test_serving_multi_load(benchmark):
    benchmark.pedantic(run, kwargs={"tiny": True}, rounds=1, iterations=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="dataset A, 1-vs-2 workers, 300 requests — CI smoke",
    )
    args = parser.parse_args(argv)
    run(tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
