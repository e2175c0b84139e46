"""The four end-to-end workloads. Each runs in a fresh interpreter.

* ``build``: catalog to servable snapshot (preprocess, CTCR, save), then
  CCT, over catalogs generated from the seed. The serving layers stay
  idle.
* ``serve_hot``: a dataset-C CTCR snapshot behind a one-worker
  ``ServingSupervisor``; a storefront mix over a small hot key set, so
  the engine's LRU cache answers almost everything and HTTP dominates.
* ``serve_cold``: a ``repro.scale`` catalog with a planted tree; batched
  categorization and best-category over uniformly drawn keys, so every
  request misses the cache and reaches the index.
* ``publish``: a forked publisher applies 1% query-log churn deltas back
  to back (incremental preprocess, delta build, save, activate) while
  the client reads the storefront mix; the op is one delta, timed until
  a read response names the new snapshot.

Every workload sets no build or serving knob, so it measures the
defaults a user gets. Helper processes are forked only while this
process runs a single thread (before a supervisor or client thread
exists), which keeps ``fork`` safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing as mp
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from repro.algorithms import CCT, CTCR
from repro.catalog import load_dataset
from repro.core import Variant
from repro.core.exceptions import InvalidTreeError
from repro.core.input_sets import OCTInstance
from repro.core.scoring import score_tree
from repro.incremental import (
    IncrementalBuilder,
    ResultSetCache,
    incremental_preprocess,
)
from repro.io import tree_to_dict
from repro.observability import Tracer, get_tracer, set_tracer
from repro.pipeline import preprocess
from repro.scale import ExtremeCatalog, scaled_spec
from repro.serving.engine import ServingEngine
from repro.serving.shm import prepare_mmap_generation
from repro.serving.snapshot import SnapshotStore
from repro.serving.supervisor import ServingSupervisor

from benchmarks.e2e.churn import churn_query_log
from benchmarks.e2e.client import (
    LoopResult,
    encode_get,
    get_json,
    percentile,
    run_closed_loop,
    run_open_loop,
)

QUERY_VARIANT = Variant.threshold_jaccard(0.8)
SCALE_VARIANT = Variant.threshold_jaccard(0.1)

# Storefront op mix (serve_hot and the publish readers), Zipf(1.1) keys
# over a hot set small enough for the 4,096-entry engine cache.
MIX = (("best_category", 45), ("categorize", 30), ("browse", 15),
       ("path", 5), ("search", 5))
HOT_KEYS = {"best_category": 32, "categorize": 32, "browse": 16,
            "path": 8, "search": 8}
ZIPF_S = 1.1
BATCH_ITEMS = 32  # items per serve_cold /categorize-batch request

OPEN_SHARE = 0.8  # of a serve window: open loop, then closed loop
CHECK_ONE_IN = 8  # share of reply bodies compared with in-process answers
PUBLISH_TAIL_S = 8.0  # reads continue until the last delta is visible
REPLAY_MAX = 2000  # requests replayed in-process for index timings
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates. ``FULL`` is the benchmark, ``SMOKE`` its self-test."""

    name: str
    setups: int  # set-ups per run; setup_s is their median
    build_dataset: str
    build_catalogs: int  # distinct catalogs one build run cycles through
    hot_dataset: str
    cold_items: int
    cold_sets: int
    cold_nodes: int
    publish_dataset: str
    rate_rps: float  # open-loop arrival rate of every workload's reads
    deltas: int  # churn deltas prepared per publish run


FULL = Sizes("full", 3, "B", 8, "C", 30_000, 2_000, 500, "B", 20.0, 40)
SMOKE = Sizes("smoke", 2, "A", 2, "A", 20_000, 1_000, 250, "A", 10.0, 12)

# Every end-to-end metric a run reports, with its unit.
METRIC_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "ops_per_s": "1/s",
    "rss_mb": "MB",
}

# Per-layer metric -> the span names (leaf names, summed over every
# nesting path) whose wall time it reports, per build.
SPAN_LAYERS = {
    "pipeline.preprocess_s": ("pipeline.clean", "pipeline.result_sets",
                              "pipeline.weighting", "pipeline.merge"),
    "pipeline.clean_s": ("pipeline.clean",),
    "pipeline.result_sets_s": ("pipeline.result_sets",),
    "pipeline.merge_s": ("pipeline.merge",),
    "conflicts.two_conflicts_s": ("ctcr.two_conflicts",),
    "conflicts.structure_s": ("ctcr.conflict_structure",),
    "mis.solve_s": ("ctcr.mis",),
    "algorithms.assign_s": ("ctcr.assign",),
    "algorithms.intermediate_s": ("ctcr.intermediate",),
    "algorithms.condense_s": ("ctcr.condense", "cct.condense"),
    "algorithms.cct_assign_s": ("cct.assign",),
    "embeddings.cct_s": ("cct.embeddings",),
    "clustering.hac_s": ("cct.clustering",),
    "incremental.preprocess_s": ("incremental.preprocess",),
    "incremental.delta_build_s": ("incremental.delta_build",),
    "snapshot.save_s": ("bench.save",),
    "shm.compile_flat_s": ("serving.compile_flat",),
}
# Leaf layers that partition a build pass: their sum is the attributed
# part of the pass (compile_flat runs inside save, pipeline stages
# inside incremental.preprocess).
BUILD_PASS_LAYERS = (
    "pipeline.preprocess_s", "conflicts.two_conflicts_s",
    "conflicts.structure_s", "mis.solve_s", "algorithms.assign_s",
    "algorithms.intermediate_s", "algorithms.condense_s",
    "algorithms.cct_assign_s", "embeddings.cct_s", "clustering.hac_s",
    "snapshot.save_s",
)
COUNT_LAYERS = (
    "pipeline.merged_sets", "conflicts.pairs_enumerated",
    "conflicts.three_conflicts", "bitset.words_touched", "mis.components",
    "mis.nodes_expanded", "mis.greedy_fallbacks",
)

# Every per-layer metric with its unit; a layer a workload bypasses
# reads 0.
LAYER_UNITS = {
    **{name: "s" for name in SPAN_LAYERS},
    **{name: "count" for name in COUNT_LAYERS},
    "incremental.component_reuse_frac": "ratio",
    "incremental.pairs_reused": "count",
    "incremental.triples_recomputed": "count",
    "shm.flat_mb": "MB",
    "hotswap.visible_s": "s",
    "engine.busy_ms": "ms",
    "engine.cache_hit_frac": "ratio",
    "indexes.request_us.p50": "us",
    "indexes.request_us.p99": "us",
    "indexes.best_category_us.p50": "us",
    "indexes.best_category_us.p99": "us",
    "indexes.categorize_batch_us.p50": "us",
    "indexes.categorize_batch_us.p99": "us",
    "indexes.uses_bitset": "flag",
    "http.unattributed_ms": "ms",
    "client.late_ms.p99": "ms",
    "client.cpu_frac": "ratio",
    "unattributed_ms": "ms",
}


# -- run bookkeeping ---------------------------------------------------------


class Run:
    """One workload run: inputs, failures, metrics and per-layer data."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 sizes: Sizes, trace: bool, workdir: Path,
                 expected: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.trace = trace
        self.workdir = workdir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.layers = {
            name: {"value": 0.0, "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        self.info: dict = {}
        self._dirs = itertools.count()

    def rng(self) -> random.Random:
        """The request stream's generator (string seeds are stable)."""
        return random.Random(f"e2e/{self.workload}/requests/{self.seed}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def metric(self, name: str, value: float, n: int | None = None) -> None:
        self.metrics[name] = {"value": float(value),
                              "unit": METRIC_UNITS[name], "n": n}

    def layer(self, name: str, value: float) -> None:
        self.layers[name]["value"] = float(value)

    def fresh_dir(self, tag: str) -> str:
        path = self.workdir / f"{tag}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return str(path)

    def result(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "sizes": self.sizes.name,
            "trace": int(self.trace),
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "metrics": self.metrics,
            "layers": self.layers if self.trace else {},
            "info": self.info,
        }


def trace_summary(tracer=None) -> dict:
    """Span wall time by leaf name, and counters, of a tracer."""
    tracer = tracer if tracer is not None else get_tracer()
    spans: dict[str, float] = {}
    for stats in tracer.spans.values():
        spans[stats.name] = spans.get(stats.name, 0.0) + stats.wall_s
    return {"spans": spans, "counts": dict(tracer.counters)}


def merge_summaries(summaries) -> dict:
    merged: dict = {"spans": {}, "counts": {}}
    for summary in summaries:
        for part in ("spans", "counts"):
            for name, value in summary[part].items():
                merged[part][name] = merged[part].get(name, 0) + value
    return merged


def record_build_layers(run: Run, summary: dict, builds: int) -> None:
    """Per-build means of the build-side layer spans and counters."""
    builds = max(1, builds)
    for name, spans in SPAN_LAYERS.items():
        total = sum(summary["spans"].get(span, 0.0) for span in spans)
        run.layer(name, total / builds)
    for name in COUNT_LAYERS:
        run.layer(name, summary["counts"].get(name, 0) / builds)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def flat_mb(store: SnapshotStore, snapshot_id: str) -> float:
    return sum(p.stat().st_size for p in store.flat_paths(snapshot_id)) / 1e6


def tree_sha256(tree) -> str:
    payload = json.dumps(tree_to_dict(tree), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def latency_metrics(run: Run, latencies_s: list[float]) -> None:
    ms = sorted(x * 1000.0 for x in latencies_s)
    for name, q in (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)):
        value, n = percentile(ms, q)
        run.metric(name, value, n)


# -- helper processes --------------------------------------------------------


def _forked_main(target, conn, parent_conn, trace: bool, args) -> None:
    # Without the inherited parent end, closing it in the parent reaches
    # this process as EOF.
    parent_conn.close()
    if trace:
        set_tracer(Tracer())  # this process's own spans only
    try:
        target(conn, *args)
    finally:
        conn.close()


class Forked:
    """A helper process forked from this one, with a message pipe."""

    def __init__(self, target, *args, trace: bool = False) -> None:
        ctx = mp.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_forked_main,
            args=(target, child_conn, self.conn, trace, args),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def send(self, message) -> None:
        self.conn.send(message)

    def recv(self, timeout: float):
        if not self.conn.poll(timeout):
            raise TimeoutError(f"{self.proc.name} sent nothing in {timeout}s")
        return self.conn.recv()

    def stop(self, timeout: float = 10.0) -> None:
        """Close the pipe (a helper waiting on it exits) and join."""
        self.conn.close()
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)


def _build_query_snapshot(conn, dataset: str, seed: int, root: str) -> None:
    """Build process: catalog -> CTCR snapshot in ``root``."""
    ds = load_dataset(dataset, seed=seed)
    instance, _ = preprocess(ds, QUERY_VARIANT)
    tree = CTCR().build(instance, QUERY_VARIANT)
    with get_tracer().span("bench.save"):
        info = SnapshotStore(root).save(tree, instance, QUERY_VARIANT)
    conn.send({"snapshot_id": info.snapshot_id, "trace": trace_summary()})


def _string_items(tree, catalog: ExtremeCatalog):
    """The planted tree and candidate sets with items renamed to strings.

    HTTP passes item keys as strings, and an int-keyed snapshot answers
    a string key with empty placements.
    """
    for cat in tree.categories():
        cat.items = {f"i{x}" for x in cat.items}
    sets = [
        dataclasses.replace(q, items=frozenset(f"i{x}" for x in q.items))
        for q in catalog.iter_input_sets()
    ]
    universe = [f"i{x}" for x in range(catalog.spec.n_items)]
    return tree, OCTInstance(sets, universe=universe)


def _build_scale_snapshot(conn, sizes: Sizes, seed: int, root: str) -> None:
    """Build process: ``repro.scale`` catalog -> planted-tree snapshot."""
    catalog = ExtremeCatalog(scaled_spec(
        sizes.cold_items, sizes.cold_sets, seed=seed, n_nodes=sizes.cold_nodes
    ))
    tree, instance = _string_items(catalog.planted_tree(), catalog)
    with get_tracer().span("bench.save"):
        info = SnapshotStore(root).save(tree, instance, SCALE_VARIANT)
    conn.send({"snapshot_id": info.snapshot_id, "trace": trace_summary()})


def _publisher(conn, dataset: str, seed: int, root: str, n_deltas: int,
               trace: bool) -> None:
    """Publisher process: bootstrap, then publish deltas until a deadline.

    The base catalog is the same for every seed; the seed draws the
    churn. Catalog-to-catalog build cost would otherwise dominate the
    run-to-run spread of a workload that builds one catalog.
    """
    ds = load_dataset(dataset, seed=0)
    cache = ResultSetCache()
    store = SnapshotStore(root)
    incremental = IncrementalBuilder()
    instance, _ = incremental_preprocess(ds, QUERY_VARIANT, cache)
    tree, state = incremental.full_build(instance, QUERY_VARIANT)
    current = store.save(tree, instance, QUERY_VARIANT).snapshot_id
    churn_rng = random.Random(f"e2e/publish/churn/{seed}")
    churned = []
    for _ in range(n_deltas):
        ds = churn_query_log(ds, churn_rng, frac=0.01)
        churned.append(ds)
    conn.send(current)
    try:
        deadline = conn.recv()
    except EOFError:
        return  # closed without a start time: an unmeasured set-up
    if trace:
        set_tracer(Tracer())  # the deltas' spans only, not the bootstrap
    tracer = get_tracer()
    deltas = []
    for ds in churned:
        if time.monotonic() >= deadline:
            break
        start = time.monotonic()
        instance, _ = incremental_preprocess(ds, QUERY_VARIANT, cache)
        result = incremental.delta_build(state, instance, QUERY_VARIANT)
        state = result.state
        with tracer.span("bench.save"):
            info = store.save(result.tree, instance, QUERY_VARIANT,
                              activate=False)
        with tracer.span("bench.activate"):
            store.activate(info.snapshot_id)
        deltas.append({
            "snapshot_id": info.snapshot_id,
            "previous": current,
            "start": start,
            "activated": time.monotonic(),
            "counters": result.counters,
        })
        current = info.snapshot_id
    conn.send((deltas, trace_summary(tracer), vm_hwm_mb()))


# -- requests and answers ----------------------------------------------------


def request_path(op: str, arg) -> str:
    if op == "best_category":
        return "/best-category?items=" + quote(",".join(sorted(arg)), safe="")
    if op == "categorize":
        return "/categorize?item=" + quote(arg, safe="")
    if op == "categorize_batch":
        return "/categorize-batch?items=" + quote(",".join(arg), safe="")
    if op in ("browse", "path"):
        return f"/{op}?cid={int(arg)}"
    if op == "search":
        return "/search?q=" + quote(arg, safe="")
    raise ValueError(f"unknown op {op!r}")


def answer(engine: ServingEngine, op: str, arg):
    """The reply body the HTTP layer builds for one request."""
    if op == "best_category":
        best = engine.best_category(arg)
        return {
            "items": sorted(arg),
            "covered": best is not None,
            "best": None if best is None else {
                "cid": best.cid, "label": best.label, "score": best.score,
                "precision": best.precision, "depth": best.depth,
            },
        }
    if op == "categorize":
        return {"item": arg, "placements": engine.categorize_item(arg)}
    if op == "categorize_batch":
        return {"items": list(arg), "results": engine.categorize_items(arg)}
    if op == "browse":
        return engine.browse(arg)
    if op == "path":
        return {"cid": arg, "path": engine.path_to_root(arg)}
    if op == "search":
        return {"q": arg, "hits": engine.find_categories(arg, 10)}
    raise ValueError(f"unknown op {op!r}")


class Oracle:
    """In-process answers from ``SnapshotIndexes`` over ``store.load()``."""

    def __init__(self, store: SnapshotStore) -> None:
        self.store = store
        self._engines: dict[str, ServingEngine] = {}
        self._answers: dict = {}

    def __call__(self, snapshot_id: str, op: str, arg):
        key = (snapshot_id, op, arg)
        if key not in self._answers:
            engine = self._engines.get(snapshot_id)
            if engine is None:
                engine = ServingEngine.from_snapshot(
                    self.store.load(snapshot_id), cache_size=0
                )
                self._engines[snapshot_id] = engine
            # A JSON round trip turns tuples into lists, as on the wire.
            self._answers[key] = json.loads(json.dumps(answer(engine, op, arg)))
        return self._answers[key]


def hot_keys(rng: random.Random, loaded, cid_limit: int | None = None):
    """A storefront's hot key set, drawn from the loaded snapshot.

    Cids come from the loaded tree, because ``save`` renumbers them; a
    quarter of the best-category keys drop one item of their set.
    """
    sets = sorted(loaded.instance.sets, key=lambda q: q.sid)
    best = []
    for i, q in enumerate(rng.sample(sets, min(HOT_KEYS["best_category"],
                                               len(sets)))):
        items = sorted(q.items)
        if i % 4 == 3 and len(items) > 1:
            items.pop(rng.randrange(len(items)))
        best.append(frozenset(items))
    universe = sorted(loaded.instance.universe)
    cids = sorted(
        c.cid for c in loaded.tree.categories()
        if cid_limit is None or c.cid < cid_limit
    )
    labels = sorted({q.label for q in sets if q.label})

    def pick(pool, op):
        return rng.sample(pool, min(HOT_KEYS[op], len(pool)))

    return {
        "best_category": best,
        "categorize": pick(universe, "categorize"),
        "browse": pick(cids, "browse"),
        "path": pick(cids, "path"),
        "search": pick(labels, "search"),
    }


def zipf_requests(rng: random.Random, keys: dict, n: int) -> list:
    ops = [op for op, _ in MIX]
    cum = {
        op: list(itertools.accumulate(
            (rank + 1) ** -ZIPF_S for rank in range(len(keys[op]))
        ))
        for op in ops
    }
    return [
        (op, rng.choices(keys[op], cum_weights=cum[op])[0])
        for op in rng.choices(ops, weights=[w for _, w in MIX], k=n)
    ]


def cold_requests(rng: random.Random, loaded, n: int) -> list:
    """Half batched categorization, half best-category, uniform keys."""
    sets = [sorted(q.items) for q in loaded.instance.sets]
    universe = sorted(loaded.instance.universe)
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            out.append(("categorize_batch",
                        tuple(rng.sample(universe, BATCH_ITEMS))))
            continue
        items = list(rng.choice(sets))
        if len(items) > 1 and rng.random() < 0.25:
            items.pop(rng.randrange(len(items)))
        out.append(("best_category", frozenset(items)))
    return out


def poisson_offsets(rng: random.Random, rate: float, seconds: float):
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def sampled(rng: random.Random, n: int) -> set[int]:
    return {i for i in range(n) if rng.randrange(CHECK_ONE_IN) == 0}


def check_replies(run: Run, loop: LoopResult, requests: list,
                  oracle: Oracle, published: set[str],
                  nonempty: list[int]) -> None:
    """Count every reply as attempted and every wrong one as failed.

    Statuses and attribution headers are checked on every reply; the
    sampled bodies are compared with the in-process answer of the
    snapshot the reply names. ``nonempty`` accumulates [non-empty,
    total] over the sampled categorization answers.
    """
    last_generation: dict[int, int] = {}
    for s in loop.samples:
        run.attempted += 1
        op, arg = requests[s.index]
        where = f"{op} {request_path(op, arg)[:80]}"
        if s.error:
            run.fail(f"{where}: {s.error}")
            continue
        if s.status != 200:
            run.fail(f"{where}: HTTP {s.status} {s.body[:120]!r}")
            continue
        if s.snapshot not in published:
            run.fail(f"{where}: served by unpublished snapshot {s.snapshot!r}")
            continue
        if s.generation < last_generation.get(s.conn, -1):
            run.fail(f"{where}: generation went back to {s.generation}")
        last_generation[s.conn] = max(s.generation,
                                      last_generation.get(s.conn, -1))
        if s.body is None:
            continue
        got = json.loads(s.body)
        if got != oracle(s.snapshot, op, arg):
            run.fail(f"{where}: reply differs from the in-process answer")
        elif op == "categorize":
            nonempty[0] += bool(got["placements"])
            nonempty[1] += 1
        elif op == "categorize_batch":
            nonempty[0] += sum(bool(r) for r in got["results"])
            nonempty[1] += len(got["results"])


def check_nonempty(run: Run, nonempty: list[int]) -> None:
    hits, total = nonempty
    run.info["categorize_nonempty"] = [hits, total]
    if total and hits < 0.9 * total:
        run.fail(f"only {hits}/{total} sampled categorize answers non-empty")


def engine_delta(before: dict, after: dict) -> dict:
    def wall(stats):
        return sum(op["wall_s"] for op in stats["ops"].values())

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    requests = after["requests"] - before["requests"]
    return {
        "busy_ms": (wall(after) - wall(before)) * 1000.0 / max(1, requests),
        "hit_frac": hits / (hits + misses) if hits + misses else 0.0,
    }


def replay_indexes(run: Run, store: SnapshotStore, requests: list) -> None:
    """Time the window's requests in-process against the mmap indexes."""
    generation = prepare_mmap_generation(store)
    engine = ServingEngine(cache_size=0)
    engine.publish(generation)
    per_op: dict[str, list[float]] = {}
    for op, arg in requests[:REPLAY_MAX]:
        t0 = time.perf_counter()
        answer(engine, op, arg)
        per_op.setdefault(op, []).append((time.perf_counter() - t0) * 1e6)
    every = sorted(x for xs in per_op.values() for x in xs)
    for prefix, values in (("indexes.request_us", every),
                           ("indexes.best_category_us",
                            sorted(per_op.get("best_category", []))),
                           ("indexes.categorize_batch_us",
                            sorted(per_op.get("categorize_batch", [])))):
        run.layer(f"{prefix}.p50", percentile(values, 0.50)[0])
        run.layer(f"{prefix}.p99", percentile(values, 0.99)[0])
    run.layer("indexes.uses_bitset", float(generation.indexes.uses_bitset))
    generation.indexes.close()


def client_layers(run: Run, loop: LoopResult) -> None:
    late = sorted(s.late * 1000.0 for s in loop.samples)
    run.layer("client.late_ms.p99", percentile(late, 0.99)[0])
    run.layer("client.cpu_frac", loop.cpu_s / loop.wall_s if loop.wall_s else 0.0)


def service_ms(loop: LoopResult) -> float:
    """Mean send-to-reply time of the successful requests, in ms."""
    ok = loop.ok()
    return sum(s.done - s.sent for s in ok) * 1000.0 / len(ok) if ok else 0.0


def warm_up(run: Run, host: str, port: int, requests: list, oracle: Oracle,
            published: set[str], nonempty: list[int]) -> None:
    """One closed-loop pass over ``requests`` before timing starts."""
    encoded = [encode_get(request_path(op, arg)) for op, arg in requests]
    loop = run_closed_loop(host, port, encoded, seconds=120.0,
                           keep_body=set(), once=True)
    check_replies(run, loop, requests, oracle, published, nonempty)


# -- workloads ---------------------------------------------------------------


def build(run: Run) -> None:
    sizes = run.sizes
    setup = []
    for _ in range(sizes.setups):
        t0 = time.perf_counter()
        catalogs = [
            load_dataset(sizes.build_dataset, seed=run.seed * 100 + j)
            for j in range(sizes.build_catalogs)
        ]
        setup.append(time.perf_counter() - t0)
    run.metric("setup_s", statistics.median(setup), len(setup))

    pins = run.expected.get("build", {}).get(sizes.name, {}).get(str(run.seed))
    tracer = set_tracer(Tracer()) if run.trace else get_tracer()
    passes, ctcr_s, cct_s, digests = [], [], [], {}
    deadline = time.monotonic() + run.seconds
    while not passes or time.monotonic() < deadline:
        j = len(passes) % len(catalogs)
        store = SnapshotStore(run.fresh_dir("build"))
        t0 = time.perf_counter()
        instance, _ = preprocess(catalogs[j], QUERY_VARIANT)
        tree = CTCR().build(instance, QUERY_VARIANT)
        with tracer.span("bench.save"):
            info = store.save(tree, instance, QUERY_VARIANT)
        t1 = time.perf_counter()
        cct_tree = CCT().build(instance, QUERY_VARIANT)
        t2 = time.perf_counter()
        passes.append(t2 - t0)
        ctcr_s.append(t1 - t0)
        cct_s.append(t2 - t1)
        run.attempted += 1
        digest = _check_build(run, instance, tree, cct_tree, store, info)
        if digest is not None:
            if j in digests and digests[j] != digest:
                run.fail(f"catalog {j}: rebuild differs from the first build")
            if pins is not None and j < len(pins) and pins[j] != digest:
                run.fail(f"catalog {j}: {digest} differs from pin {pins[j]}")
            digests.setdefault(j, digest)
        snapshot_mb = flat_mb(store, info.snapshot_id)
        shutil.rmtree(store.root)

    latency_metrics(run, passes)
    run.metric("ops_per_s", len(passes) / sum(passes), len(passes))
    run.metric("rss_mb", vm_hwm_mb())
    run.info.update(
        build_s=statistics.median(ctcr_s), cct_build_s=statistics.median(cct_s),
        digests=[digests[j] for j in sorted(digests)],
    )
    if run.trace:
        record_build_layers(run, trace_summary(tracer), len(passes))
        run.layer("shm.flat_mb", snapshot_mb)
        attributed = sum(run.layers[n]["value"] for n in BUILD_PASS_LAYERS)
        run.layer("unattributed_ms",
                  (sum(passes) / len(passes) - attributed) * 1000.0)


def _check_build(run: Run, instance, tree, cct_tree, store, info):
    """Validate both trees and re-score the saved snapshot; the digest."""
    try:
        tree.validate(universe=instance.universe, bound=instance.bound)
        cct_tree.validate(universe=instance.universe, bound=instance.bound)
    except InvalidTreeError as exc:
        run.fail(f"invalid tree: {exc}")
        return None
    loaded = store.load(info.snapshot_id)
    rescore = score_tree(loaded.tree, loaded.instance, QUERY_VARIANT).normalized
    if rescore != info.score:
        run.fail(f"re-score {rescore!r} != saved score {info.score!r}")
        return None
    return {
        "ctcr_sha256": tree_sha256(tree),
        "ctcr_score": info.score,
        "cct_sha256": tree_sha256(cct_tree),
        "cct_score": score_tree(cct_tree, instance, QUERY_VARIANT).normalized,
    }


def serve_hot(run: Run) -> None:
    _serve(run, _build_query_snapshot,
           (run.sizes.hot_dataset, run.seed), hot=True)


def serve_cold(run: Run) -> None:
    _serve(run, _build_scale_snapshot, (run.sizes, run.seed), hot=False)


def _serve(run: Run, target, args: tuple, hot: bool) -> None:
    sizes = run.sizes
    supervisor = None
    try:
        setup, builds = [], []
        for _ in range(sizes.setups):
            if supervisor is not None:
                supervisor.stop()
                shutil.rmtree(root)
            root = run.fresh_dir("store")
            t0 = time.perf_counter()
            maker = Forked(target, *args, root, trace=run.trace)
            try:
                built = maker.recv(CHILD_TIMEOUT_S)
            finally:
                maker.stop()
            supervisor = ServingSupervisor(root, n_workers=1).start()
            setup.append(time.perf_counter() - t0)
            builds.append(built["trace"])
        run.metric("setup_s", statistics.median(setup), len(setup))
        _serve_window(run, supervisor, SnapshotStore(root), hot)
        if run.trace:
            record_build_layers(run, merge_summaries(builds), len(builds))
    finally:
        if supervisor is not None:
            supervisor.stop()


def _serve_window(run: Run, supervisor, store: SnapshotStore,
                  hot: bool) -> None:
    host, port = supervisor.host, supervisor.port
    loaded = store.load()
    snapshot_id = loaded.info.snapshot_id
    rng = run.rng()
    open_s = run.seconds * OPEN_SHARE
    offsets = poisson_offsets(rng, run.sizes.rate_rps, open_s)
    if hot:
        keys = hot_keys(rng, loaded)
        warm = [(op, arg) for op, args in keys.items() for arg in args]
        open_reqs = zipf_requests(rng, keys, len(offsets))
        closed_reqs = zipf_requests(rng, keys, 20_000)
    else:
        warm = cold_requests(rng, loaded, 16)
        open_reqs = cold_requests(rng, loaded, len(offsets))
        closed_reqs = cold_requests(rng, loaded, 10_000)
    oracle = Oracle(store)
    published = {snapshot_id}
    nonempty = [0, 0]
    warm_up(run, host, port, warm, oracle, published, nonempty)

    stats = [get_json(host, port, "/stats")] if run.trace else []
    open_loop = run_open_loop(
        host, port, [encode_get(request_path(*r)) for r in open_reqs],
        offsets, keep_body=sampled(rng, len(open_reqs)),
    )
    if run.trace:
        stats.append(get_json(host, port, "/stats"))
    closed_loop = run_closed_loop(
        host, port, [encode_get(request_path(*r)) for r in closed_reqs],
        run.seconds - open_s, keep_body=sampled(rng, len(closed_reqs)),
    )
    if run.trace:
        stats.append(get_json(host, port, "/stats"))
    run.metric("rss_mb", vm_hwm_mb(supervisor.pids()[0]))

    check_replies(run, open_loop, open_reqs, oracle, published, nonempty)
    check_replies(run, closed_loop, closed_reqs, oracle, published, nonempty)
    check_nonempty(run, nonempty)
    latency_metrics(run, [s.latency for s in open_loop.samples])
    run.metric("ops_per_s", len(closed_loop.ok()) / closed_loop.wall_s,
               len(closed_loop.samples))
    run.info["snapshot_id"] = snapshot_id

    if run.trace:
        closed = engine_delta(stats[1], stats[2])
        run.layer("engine.busy_ms", closed["busy_ms"])
        run.layer("engine.cache_hit_frac",
                  engine_delta(stats[0], stats[2])["hit_frac"])
        http_ms = service_ms(closed_loop) - closed["busy_ms"]
        run.layer("http.unattributed_ms", http_ms)
        run.layer("unattributed_ms", http_ms)
        run.layer("shm.flat_mb", flat_mb(store, snapshot_id))
        client_layers(run, open_loop)
        done = [open_reqs[s.index] for s in open_loop.samples]
        done += [closed_reqs[s.index] for s in closed_loop.samples]
        replay_indexes(run, store, done)


def publish(run: Run) -> None:
    sizes = run.sizes
    supervisor = publisher = None
    try:
        setup = []
        for _ in range(sizes.setups):
            # Serving workers inherit the publisher's pipe: stop them
            # first, so that closing it reaches the publisher as EOF.
            if supervisor is not None:
                supervisor.stop()
                publisher.stop()
                shutil.rmtree(root)
            root = run.fresh_dir("store")
            t0 = time.perf_counter()
            publisher = Forked(
                _publisher, sizes.publish_dataset, run.seed, root, sizes.deltas,
                run.trace,
            )
            first_id = publisher.recv(CHILD_TIMEOUT_S)
            supervisor = ServingSupervisor(root, n_workers=1).start()
            setup.append(time.perf_counter() - t0)
        run.metric("setup_s", statistics.median(setup), len(setup))
        _publish_window(run, supervisor, publisher, SnapshotStore(root),
                        first_id)
    finally:
        if supervisor is not None:
            supervisor.stop()
        if publisher is not None:
            publisher.stop()


def _publish_window(run: Run, supervisor, publisher: Forked,
                    store: SnapshotStore, first_id: str) -> None:
    host, port = supervisor.host, supervisor.port
    loaded = store.load(first_id)
    rng = run.rng()
    # Browse/path cids stay below 80% of the first tree's size, so they
    # exist in every snapshot a 1% churn delta produces.
    keys = hot_keys(rng, loaded, cid_limit=int(0.8 * len(loaded.tree)))
    warm = zipf_requests(rng, keys, 16)
    offsets = poisson_offsets(rng, run.sizes.rate_rps,
                              run.seconds + PUBLISH_TAIL_S)
    reqs = zipf_requests(rng, keys, len(offsets))
    oracle = Oracle(store)
    nonempty = [0, 0]
    warm_up(run, host, port, warm, oracle, {first_id}, nonempty)

    first_seen: dict[str, float] = {}

    def on_reply(sample) -> None:
        if not sample.error and sample.status == 200:
            first_seen.setdefault(sample.snapshot, sample.done)

    stop = threading.Event()
    box: list[LoopResult] = []
    client = threading.Thread(
        target=lambda: box.append(run_open_loop(
            host, port, [encode_get(request_path(*r)) for r in reqs],
            offsets, keep_body=sampled(rng, len(reqs)), stop=stop,
            on_reply=on_reply,
        )),
        name="e2e-publish-client",
    )
    stats = [get_json(host, port, "/stats")] if run.trace else []
    client.start()
    try:
        publisher.send(time.monotonic() + run.seconds)
        deltas, trace, publisher_rss = publisher.recv(
            run.seconds + CHILD_TIMEOUT_S
        )
        last_id = deltas[-1]["snapshot_id"] if deltas else first_id
        wait_until = time.monotonic() + PUBLISH_TAIL_S / 2
        while last_id not in first_seen and time.monotonic() < wait_until:
            time.sleep(0.01)
    finally:
        stop.set()
        client.join()
    reads = box[0]
    if run.trace:
        stats.append(get_json(host, port, "/stats"))

    published = {first_id} | {d["snapshot_id"] for d in deltas}
    check_replies(run, reads, reqs, oracle, published, nonempty)
    check_nonempty(run, nonempty)

    fresh, publish_s, visible = [], [], []
    for d in deltas:
        run.attempted += 1
        if d["snapshot_id"] == d["previous"]:
            continue  # churn left the instance unchanged: nothing to see
        publish_s.append(d["activated"] - d["start"])
        seen = first_seen.get(d["snapshot_id"])
        if seen is not None:
            fresh.append(seen - d["start"])
            visible.append(seen - d["activated"])
        elif d is deltas[-1]:
            run.fail(f"last delta {d['snapshot_id']} was never served")
    if not fresh:
        run.fail("no delta became visible")
        return
    latency_metrics(run, fresh)
    run.metric("ops_per_s",
               len(publish_s) / (deltas[-1]["activated"] - deltas[0]["start"]),
               len(publish_s))
    run.metric("rss_mb", publisher_rss)
    read_ms = sorted(s.latency * 1000.0 for s in reads.samples)
    run.info.update(
        deltas=len(deltas), fresh=len(fresh),
        publish_s=statistics.median(publish_s), fresh_s=statistics.median(fresh),
        read_p50_ms=percentile(read_ms, 0.50)[0],
        read_p99_ms=percentile(read_ms, 0.99)[0],
    )

    if run.trace:
        record_build_layers(run, trace, len(deltas))
        counters = [d["counters"] for d in deltas]
        reused = sum(c.get("incremental.components_reused", 0) for c in counters)
        resolved = sum(c.get("incremental.components_resolved", 0)
                       for c in counters)
        run.layer("incremental.component_reuse_frac",
                  reused / (reused + resolved) if reused + resolved else 0.0)
        for name in ("incremental.pairs_reused",
                     "incremental.triples_recomputed"):
            run.layer(name, sum(c.get(name, 0) for c in counters) / len(deltas))
        run.layer("hotswap.visible_s", statistics.median(visible))
        run.layer("shm.flat_mb", flat_mb(store, last_id))
        window = engine_delta(stats[0], stats[1])
        run.layer("engine.busy_ms", window["busy_ms"])
        run.layer("engine.cache_hit_frac", window["hit_frac"])
        run.layer("http.unattributed_ms", service_ms(reads) - window["busy_ms"])
        client_layers(run, reads)
        attributed = sum(run.layers[n]["value"] for n in (
            "incremental.preprocess_s", "incremental.delta_build_s",
            "snapshot.save_s", "hotswap.visible_s",
        ))
        run.layer("unattributed_ms",
                  (sum(fresh) / len(fresh) - attributed) * 1000.0)
        replay_indexes(run, store, [reqs[s.index] for s in reads.samples])


WORKLOADS = {
    "build": build,
    "serve_hot": serve_hot,
    "serve_cold": serve_cold,
    "publish": publish,
}
