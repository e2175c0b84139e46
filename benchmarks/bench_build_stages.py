"""Post-MIS build stages: dirty-set assignment and heap merges vs the old loops.

Item assignment re-scores only the sets a round made dirty, and
intermediate categories merge from a heap. This benchmark times both
stages against the loops they replaced, ``assign_duplicates_reference``
and ``add_intermediate_categories_reference`` in ``tests/oracles.py``,
patched into :mod:`repro.algorithms.ctcr` / :mod:`repro.algorithms.cct`
for the reference runs.

Every (point, engine) run is a child process of its own
(:func:`benchmarks.common.run_child`), so its peak RSS is that run's
alone. A child builds its instance, then each of the point's trees under
a tracer, and reports the per-stage spans (wall seconds), the
``assign.*`` / ``intermediate.*`` counters and the tree sha256. The
parent records each child's peak RSS, the host's CPU count and whether
production and reference trees are byte-identical.

Points (threshold-Jaccard 0.8, the Figure 8f protocol's variant):

* ``D`` — dataset D, CTCR and CCT;
* ``20k/1k`` — a ``repro.scale`` catalog of 20,000 items and 1,000
  candidate sets, CTCR.

Full mode asserts the gates in ``GATES`` (speedup of reference over
production wall per stage) and identical trees, and writes
``BENCH_build.json``. ``--tiny`` runs dataset B and a 5k/300 catalog,
asserts only identical trees, and writes ``BENCH_build_tiny.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_build_stages.py [--tiny]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

VARIANT_SPEC = "threshold-jaccard:0.8"
ENGINES = ("reference", "production")

# name -> instance source and builders.
FULL_POINTS = [
    {"name": "D", "dataset": "D", "builders": ["CTCR", "CCT"]},
    {"name": "20k/1k", "n_items": 20_000, "n_sets": 1_000,
     "builders": ["CTCR"]},
]
TINY_POINTS = [
    {"name": "B", "dataset": "B", "builders": ["CTCR", "CCT"]},
    {"name": "5k/300", "n_items": 5_000, "n_sets": 300,
     "builders": ["CTCR"]},
]
# (point, builder, span, minimum reference/production wall ratio)
GATES = [
    ("D", "CTCR", "ctcr.assign", 5.0),
    ("D", "CCT", "cct.assign", 5.0),
    ("20k/1k", "CTCR", "ctcr.intermediate", 5.0),
    ("20k/1k", "CTCR", "ctcr.build", 3.0),
]


def _instance(point: dict):
    from repro.core import Variant

    variant = Variant.threshold_jaccard(0.8)
    if "dataset" in point:
        from repro.catalog import load_dataset
        from repro.pipeline import preprocess

        dataset = load_dataset(point["dataset"], seed=42)
        return preprocess(dataset, variant)[0], variant
    from repro.scale import ExtremeCatalog, ScaleSpec

    spec = ScaleSpec(n_items=point["n_items"], n_sets=point["n_sets"])
    return ExtremeCatalog(spec).instance(), variant


def _use_reference_loops() -> None:
    import repro.algorithms.cct as cct_module
    import repro.algorithms.ctcr as ctcr_module
    from tests.oracles import (
        add_intermediate_categories_reference,
        assign_duplicates_reference,
    )

    ctcr_module.assign_duplicates = assign_duplicates_reference
    ctcr_module.add_intermediate_categories = (
        add_intermediate_categories_reference
    )
    cct_module.assign_duplicates = assign_duplicates_reference


def run_point(point: dict, engine: str) -> dict:
    """Build one point's trees with one engine; meant for a child process."""
    from repro.algorithms import CCT, CTCR
    from repro.io import tree_to_dict
    from repro.observability import Tracer, use_tracer

    if engine == "reference":
        _use_reference_loops()
    t0 = time.perf_counter()
    instance, variant = _instance(point)
    instance_s = time.perf_counter() - t0

    builds = {}
    for name in point["builders"]:
        builder = {"CTCR": CTCR, "CCT": CCT}[name]()
        with use_tracer(Tracer()) as tracer:
            tree = builder.build(instance, variant)
        payload = json.dumps(tree_to_dict(tree), sort_keys=True)
        builds[name] = {
            "spans": {
                stats.name: round(stats.wall_s, 4)
                for stats in tracer.spans.values()
            },
            "counters": {
                key: value
                for key, value in tracer.counters.items()
                if key.startswith(("assign.", "intermediate."))
            },
            "categories": len(tree),
            "tree_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
    return {
        "point": point["name"],
        "engine": engine,
        "sets": len(instance),
        "items": len(instance.universe),
        "instance_s": round(instance_s, 2),
        "builds": builds,
    }


def _stage_rows(records: list[dict]) -> list[dict]:
    """One row per (point, builder, stage) that both engines timed."""
    by_key = {(r["point"], r["engine"]): r for r in records}
    rows = []
    for (point, engine), record in by_key.items():
        if engine != "production":
            continue
        reference = by_key[(point, "reference")]
        for builder, build in record["builds"].items():
            ref_build = reference["builds"][builder]
            prefix = builder.lower() + "."
            for span in (prefix + "assign", prefix + "intermediate",
                         prefix + "build"):
                if span not in build["spans"]:
                    continue
                old = ref_build["spans"][span]
                new = build["spans"][span]
                rows.append({
                    "point": point,
                    "builder": builder,
                    "span": span,
                    "reference_s": old,
                    "production_s": new,
                    "speedup": round(old / new, 2) if new else None,
                    "same_tree": build["tree_sha256"]
                    == ref_build["tree_sha256"],
                })
    return rows


def _check_gates(rows: list[dict]) -> list[dict]:
    results = []
    for point, builder, span, minimum in GATES:
        row = next(
            (r for r in rows if (r["point"], r["builder"], r["span"])
             == (point, builder, span)),
            None,
        )
        speedup = row["speedup"] if row else None
        results.append({
            "point": point, "builder": builder, "span": span,
            "min_speedup": minimum, "speedup": speedup,
            "passed": speedup is not None and speedup >= minimum,
        })
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI-sized points, identity check only (BENCH_build_tiny.json)",
    )
    parser.add_argument("--_child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args._child:
        spec = json.loads(args._child)
        print(json.dumps(run_point(spec["point"], spec["engine"])))
        return 0

    from benchmarks.common import (
        available_cpus,
        bench_report,
        run_child,
        write_bench_json,
    )

    records = []
    for point in TINY_POINTS if args.tiny else FULL_POINTS:
        for engine in ENGINES:
            t0 = time.perf_counter()
            record = run_child(__file__, {"point": point, "engine": engine})
            record["child_wall_s"] = round(time.perf_counter() - t0, 2)
            records.append(record)
            walls = ", ".join(
                f"{name} {build['spans'][name.lower() + '.build']}s"
                for name, build in record["builds"].items()
            )
            print(
                f"  {point['name']} {engine}: {walls}, "
                f"rss {record['peak_rss_mb']}MB",
                file=sys.__stdout__,
            )

    rows = _stage_rows(records)
    gates = [] if args.tiny else _check_gates(rows)
    bench_report(
        "Post-MIS build stages — dirty-set assignment and heap merges"
        + (" (tiny)" if args.tiny else ""),
        "the stages redo no finished work: same trees, several times "
        "faster on D and the 20k/1k scale catalog",
        ["point", "builder", "span", "reference s", "production s",
         "speedup", "same tree"],
        [
            [r["point"], r["builder"], r["span"], r["reference_s"],
             r["production_s"], r["speedup"], r["same_tree"]]
            for r in rows
        ],
    )
    write_bench_json(
        "build_tiny" if args.tiny else "build",
        {
            "mode": "tiny" if args.tiny else "full",
            "variant": VARIANT_SPEC,
            "cpus": available_cpus(),
            "points": records,
            "stage_rows": rows,
            "gates": gates,
        },
    )
    mismatched = sorted({r["point"] for r in rows if not r["same_tree"]})
    assert not mismatched, f"reference and production trees differ: {mismatched}"
    failed = [g for g in gates if not g["passed"]]
    assert not failed, f"stage gates failed: {failed}"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
