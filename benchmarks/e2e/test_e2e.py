"""Self-test of the end-to-end benchmark, run by explicit path::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

Both tests run the benchmark's ``--smoke`` mode (dataset A, a 20k-item
scale catalog, 10 rps, 3 s windows) in a subprocess.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_emits_every_metric_without_failures(tmp_path):
    out = tmp_path / "e2e.json"
    proc = _smoke("--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["host"]["cpus"] >= 1
    assert [w["name"] for w in SPEC["workloads"]] == list(document["workloads"])
    for name, runs in document["workloads"].items():
        for run in runs.values():
            assert run["failed"] == 0, (name, run["errors"])
        for metric in SPEC["end_to_end"]:
            got = runs["untraced"]["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric)
            assert got["value"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            got = runs["traced"]["layers"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric)
    for metric in SPEC["per_layer"]:
        assert f"build.{metric['name']}" in summary["metrics"]


def test_corrupted_expected_answer_fails_the_run(tmp_path):
    pins = json.loads(
        (RUN.with_name("expected.json")).read_text(encoding="utf-8")
    )
    pins["build"]["smoke"]["0"][0]["ctcr_score"] += 1e-9
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(pins), encoding="utf-8")
    proc = _smoke("--workload", "build", "--expected", str(corrupted))
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not summary["correct"] and summary["failed"] >= 1
