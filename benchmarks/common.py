"""Reporting helpers shared by the benchmarks.

Benchmark output must reach the console even under pytest's capture, so
the report writer targets the real stdout and also appends to
``benchmarks/results.log`` for the EXPERIMENTS.md record.

Every benchmark process gets one run id.  Each ``results.log`` block is
stamped with it, and a machine-readable :class:`RunManifest` — config,
span timings, counters, peak RSS — is written to
``benchmarks/manifests/<run-id>.json`` alongside the log, so repeated
bench runs are distinguishable and diffable instead of silently appended
look-alikes.  Importing this module enables tracing for the process
(benchmarks always want stage timings; the overhead is bounded by the
observability regression test).

Benchmarks that record per-point peak RSS run each point in a child
process of its own (:func:`run_child`); the child does not import this
module, so it runs untraced.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from repro.algorithms import CCT, CTCR
from repro.baselines import ExistingTree, ICQ, ICS
from repro.evaluation import format_table
from repro.observability import RunManifest, Tracer, make_run_id, set_tracer

ROOT = Path(__file__).resolve().parents[1]
RESULTS_LOG = Path(__file__).parent / "results.log"
MANIFEST_DIR = Path(__file__).parent / "manifests"

# One tracer and run id per benchmark process: every experiment block the
# process emits shares them, and the manifest accumulates across blocks.
TRACER = set_tracer(Tracer())
_RUN_ID: str | None = None
_EXPERIMENTS: list[str] = []


def bench_run_id() -> str:
    """This process's run id (created lazily on first report)."""
    global _RUN_ID
    if _RUN_ID is None:
        _RUN_ID = make_run_id(prefix="bench")
    return _RUN_ID


def manifest_path() -> Path:
    return MANIFEST_DIR / f"{bench_run_id()}.json"


def _write_manifest() -> None:
    MANIFEST_DIR.mkdir(exist_ok=True)
    manifest = RunManifest.collect(
        TRACER,
        run_id=bench_run_id(),
        tool="benchmarks",
        config={"experiments": list(_EXPERIMENTS)},
    )
    manifest.save(manifest_path())


def bench_report(
    title: str,
    paper_expectation: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Print one experiment block to the real stdout and the log file.

    The block carries the process's run id, tying it to the manifest at
    ``benchmarks/manifests/<run-id>.json`` (rewritten after every block
    so it always covers the whole run so far).
    """
    _EXPERIMENTS.append(title)
    rid = bench_run_id()
    block = "\n".join(
        [
            "",
            f"=== {title} ===",
            f"run-id: {rid} (manifest: manifests/{rid}.json)",
            f"paper: {paper_expectation}",
            format_table(headers, rows),
            "",
        ]
    )
    print(block, file=sys.__stdout__)
    with RESULTS_LOG.open("a", encoding="utf-8") as f:
        f.write(block + "\n")
    _write_manifest()


def write_bench_json(name: str, payload: dict) -> Path:
    """Write a machine-readable result file ``benchmarks/BENCH_<name>.json``.

    Unlike the per-run manifests, these files live at a stable path so
    the benchmark *trajectory* is diffable across commits: each writer
    overwrites its own file with the latest numbers plus the run id that
    produced them (the matching manifest keeps the full span/counter
    context).
    """
    path = Path(__file__).parent / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "run_id": bench_run_id(),
        "created_at": datetime.now(timezone.utc).isoformat(),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    print(f"bench json written to {path}", file=sys.__stdout__)
    return path


def all_builders(dataset):
    """The paper's five algorithms, wired to one dataset's metadata."""
    return [
        CTCR(),
        CCT(),
        ICQ(),
        ICS(dataset.titles),
        ExistingTree(dataset.existing_tree),
    ]


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _rss_mb(maxrss: int) -> float:
    scale = 1024 if sys.platform.startswith("linux") else 1  # KB vs bytes
    return round(maxrss * scale / (1024 * 1024), 1)


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return _rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_child(script: Path | str, spec: dict) -> dict:
    """Run ``script --_child <spec as JSON>`` in a fresh interpreter.

    The child prints its record as the last line of its stdout, one JSON
    object. The record returned gains ``peak_rss_mb``: the child's own
    peak, read from its rusage when it is reaped, so one point's peak is
    never a running maximum over the points before it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, str(Path(script).resolve()), "--_child",
             json.dumps(spec)],
            stdout=out, stderr=err, env=env, cwd=str(ROOT),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().decode().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"{Path(script).name} {spec} failed (exit "
                f"{proc.returncode}):\n{err.read().decode()}"
            )
    record = json.loads(lines[-1])
    record["peak_rss_mb"] = _rss_mb(usage.ru_maxrss)
    return record
