"""End-to-end benchmark: build, serve_hot, serve_cold and publish.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 0 --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 0 [--workload W] [--trace] [--out FILE]

Every workload runs in a fresh interpreter, tracing off unless
``--trace`` is given. With ``--trace`` the workload runs twice, untraced
then traced, and the difference is printed as the tracing overhead.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or its
per-layer metrics with ``--trace``). The exit code is 1 when any answer
check fails. README.md in this directory describes the workloads, the
metrics and how the regression bounds were derived.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("build", "serve_hot", "serve_cold", "publish")
SMOKE_SECONDS = 3.0
# Keeps one workload's runs (untraced and traced) under 180 s.
BUDGET_PER_WORKLOAD_S = 170.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of catalog build, serving and "
        "publishing.",
    )
    parser.add_argument(
        "--workload", choices=(*WORKLOAD_NAMES, "all"), default="all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured window of one run (default: run_seconds of "
        "BENCHMARK.json, or 3 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run traced and report per-layer metrics",
    )
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs (dataset A, a 20k-item scale catalog, 10 rps)",
    )
    parser.add_argument(
        "--expected", default=str(Path(__file__).with_name("expected.json")),
        help="pinned build answers",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def program_importable() -> bool:
    """Put this checkout's ``src`` first on the path; False when absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2e: no program sources at {src}", file=sys.stderr)
        return False
    for path in (str(ROOT), str(src)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    return True


def host_record() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


# -- one workload in this interpreter ----------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from benchmarks.e2e import workloads
    from repro.observability import Tracer, set_tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    expected = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    workdir = ROOT / ".e2e-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    if args.trace:
        set_tracer(Tracer())  # forked helpers and serving workers inherit it
    run = workloads.Run(
        args.workload, args.seed, args.seconds, sizes, bool(args.trace),
        workdir, expected,
    )
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(run.result()))
    return 0


# -- orchestration -----------------------------------------------------------


def _stop_group(pgid: int) -> None:
    """Kill what is left of a run's process group and wait for it to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn_run(args: argparse.Namespace, workload: str, seconds: float,
              trace: int, deadline: float) -> dict | None:
    """Run one workload in a fresh interpreter; its result, or None."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--expected", args.expected,
    ] + (["--smoke"] if args.smoke else [])
    # Its own session, so every helper it forks can be stopped with it.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"e2e: {workload} overran its time budget", file=sys.stderr)
        _stop_group(proc.pid)
        proc.communicate()
        return None
    finally:
        _stop_group(proc.pid)
    if proc.returncode != 0 or not out.strip():
        print(f"e2e: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def print_run(result: dict) -> None:
    tag = f"[{result['workload']}{' traced' if result['trace'] else ''}]"
    for name, m in result["metrics"].items():
        n = f" (n={m['n']})" if m["n"] is not None else ""
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']}{n}")
    for name, value in result["info"].items():
        print(f"{tag} info {name} = {json.dumps(value)}")
    for name, layer in result["layers"].items():
        print(f"{tag} layer {name} = {layer['value']:.6g} {layer['unit']}")
    print(f"{tag} attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for error in result["errors"]:
        print(f"{tag} error: {error}")


def print_overhead(workload: str, runs: dict, spec: dict) -> None:
    for m in spec["end_to_end"]:
        plain = runs["untraced"]["metrics"][m["name"]]["value"]
        traced = runs["traced"]["metrics"][m["name"]]["value"]
        share = f" ({(traced - plain) / plain:+.1%})" if plain else ""
        print(f"[{workload}] tracing overhead {m['name']} = "
              f"{traced - plain:+.6g} {m['unit']}{share}")


def final_line(results: dict, spec: dict, trace: int) -> dict:
    """The last output line: BENCHMARK.json metrics of the (un)traced runs."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    which = "traced" if trace else "untraced"
    single = len(results) == 1
    metrics = {}
    for workload, runs in results.items():
        source = runs[which]["layers" if trace else "metrics"]
        for m in wanted:
            got = source[m["name"]]
            if got["unit"] != m["unit"]:
                raise ValueError(
                    f"{m['name']} is measured in {got['unit']}, "
                    f"BENCHMARK.json says {m['unit']}"
                )
            key = m["name"] if single else f"{workload}.{m['name']}"
            metrics[key] = {"value": got["value"], "unit": m["unit"]}
    every = [run for runs in results.values() for run in runs.values()]
    return {
        "correct": all(run["correct"] for run in every),
        "attempted": sum(run["attempted"] for run in every),
        "failed": sum(run["failed"] for run in every),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not program_importable():
        return 2
    if args.child:
        return child_main(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"e2e: missing {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    )
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    host = host_record()
    print(f"# host {json.dumps(host)}")
    deadline = time.monotonic() + BUDGET_PER_WORKLOAD_S * len(workloads)
    results: dict[str, dict] = {}
    for workload in workloads:
        runs = {}
        for trace in (0, 1) if args.trace else (0,):
            result = spawn_run(args, workload, seconds, trace, deadline)
            if result is None:
                return 1
            print_run(result)
            runs["traced" if trace else "untraced"] = result
        if args.trace:
            print_overhead(workload, runs, spec)
        results[workload] = runs
    if args.out:
        document = {"host": host, "seed": args.seed, "seconds": seconds,
                    "smoke": args.smoke, "workloads": results}
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n",
                                  encoding="utf-8")
    summary = final_line(results, spec, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
