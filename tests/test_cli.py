"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import _ctcr_config, main, make_parser, parse_variant
from repro.core import ScoreMode, SimilarityKind


class TestParseVariant:
    def test_exact(self):
        assert parse_variant("exact").is_exact

    def test_threshold_jaccard(self):
        v = parse_variant("threshold-jaccard:0.8")
        assert v.kind is SimilarityKind.JACCARD
        assert v.mode is ScoreMode.THRESHOLD
        assert v.delta == 0.8

    def test_perfect_recall(self):
        v = parse_variant("perfect-recall:0.6")
        assert v.is_perfect_recall and v.delta == 0.6

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            parse_variant("jaccard")
        with pytest.raises(SystemExit):
            parse_variant("nope:0.5")
        with pytest.raises(SystemExit):
            parse_variant("threshold-jaccard:high")


class TestCommands:
    COMMON = ["--dataset", "A", "--scale", "0.01", "--seed", "7"]

    def test_build_prints_score(self, capsys):
        rc = main(["build", *self.COMMON, "--algorithm", "ctcr"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CTCR: score=" in out

    def test_build_show_and_output(self, capsys, tmp_path):
        out_path = tmp_path / "tree.json"
        rc = main(
            [
                "build", *self.COMMON,
                "--output", str(out_path), "--show",
            ]
        )
        assert rc == 0
        assert out_path.exists()
        assert "root" in capsys.readouterr().out

    def test_evaluate_saved_tree(self, capsys, tmp_path):
        out_path = tmp_path / "tree.json"
        main(["build", *self.COMMON, "--output", str(out_path)])
        capsys.readouterr()
        rc = main(["evaluate", *self.COMMON, "--tree", str(out_path)])
        assert rc == 0
        assert "score=" in capsys.readouterr().out

    def test_compare_lists_all_algorithms(self, capsys):
        rc = main(["compare", *self.COMMON])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("CTCR", "CCT", "IC-Q", "IC-S", "ET"):
            assert name in out

    def test_sweep(self, capsys):
        rc = main(
            [
                "sweep", *self.COMMON,
                "--start", "0.7", "--stop", "0.9", "--step", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.7000" in out and "0.9000" in out

    def test_instance_json_input(self, capsys, tmp_path):
        from repro.core import make_instance
        from repro.io import dump_instance

        inst = make_instance([{"a", "b"}, {"c", "d"}])
        path = tmp_path / "inst.json"
        dump_instance(inst, str(path))
        rc = main(
            [
                "build", "--instance", str(path),
                "--variant", "exact", "--algorithm", "cct",
            ]
        )
        assert rc == 0
        assert "CCT: score=" in capsys.readouterr().out

    def test_baseline_requires_dataset(self, tmp_path):
        from repro.core import make_instance
        from repro.io import dump_instance

        inst = make_instance([{"a"}])
        path = tmp_path / "inst.json"
        dump_instance(inst, str(path))
        with pytest.raises(SystemExit):
            main(["build", "--instance", str(path), "--algorithm", "ic-s"])

    def test_preprocess_exports_instance(self, capsys, tmp_path):
        out_path = tmp_path / "inst.json"
        rc = main(["preprocess", *self.COMMON, "--output", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "candidate sets" in out
        from repro.io import load_instance

        instance = load_instance(str(out_path))
        assert len(instance) > 0

    def test_trends_command(self, capsys):
        rc = main(["trends", *self.COMMON, "--window", "14"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trending queries" in out
        assert "fading queries" in out


class TestBuildEngineFlags:
    """--mis-jobs is registered only where a CTCR build reads it; the
    removed engine switches are rejected everywhere."""

    TREE_BUILDERS = ["build", "oct", "compare", "sweep", "serve",
                     "categorize-query"]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--tree", "tree.json"],
        ["trends"],
        ["inspect-snapshot", "snapshots"],
    ], ids=lambda argv: argv[0])
    def test_other_commands_reject_mis_jobs(self, argv, capsys):
        make_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args([*argv, "--mis-jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mis-jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", TREE_BUILDERS)
    def test_tree_builders_accept_mis_flags(self, command):
        args = make_parser().parse_args([command, "--mis-jobs", "2"])
        assert _ctcr_config(args).mis.n_jobs == 2

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"],
        ["--bitset", "on"],
        ["--cct-cache", "on"],
        ["--cct-cluster", "legacy"],
        ["--delta-from", "snapshots"],
        ["--mis-cache", "on"],
    ], ids=lambda flag: flag[0])
    def test_removed_engine_switches_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", *TestCommands.COMMON, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInputFlags:
    """An input flag is registered only on the commands that read it."""

    BASE = {
        "analytics": ["analytics", "report", "--manifests", "m.json",
                      "--snapshot-dir", "snapshots"],
        "inspect-snapshot": ["inspect-snapshot", "snapshots"],
        "synthesize": ["synthesize", "--items", "200", "--sets", "20"],
        "trends": ["trends"],
        "preprocess": ["preprocess", "--output", "instance.json"],
    }
    ALL_INPUTS = ["--dataset", "--instance", "--scale", "--seed", "--variant"]
    UNREAD = {
        "analytics": ALL_INPUTS,
        "inspect-snapshot": ALL_INPUTS,
        "synthesize": ["--dataset", "--instance", "--scale", "--variant"],
        "trends": ["--instance", "--variant"],
        "preprocess": ["--instance"],
    }
    VALUES = {"--dataset": "B", "--instance": "/nonexistent.json",
              "--scale": "3", "--seed": "1", "--variant": "exact"}

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c, flags in UNREAD.items() for f in flags],
        ids=lambda value: value,
    )
    def test_unread_input_flag_exits_2(self, command, flag, capsys):
        argv = self.BASE[command]
        make_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, self.VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestObservabilityFlags:
    COMMON = ["--dataset", "A", "--scale", "0.01", "--seed", "7"]

    def test_oct_alias_builds_a_tree(self, capsys):
        rc = main(["oct", *self.COMMON])
        assert rc == 0
        assert "CTCR: score=" in capsys.readouterr().out

    def test_trace_prints_span_tree(self, capsys):
        rc = main(["oct", *self.COMMON, "--trace"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "ctcr.build" in captured.err
        assert "counters:" in captured.err

    def test_manifest_written_with_spans_counters_score(self, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        rc = main(["oct", *self.COMMON, "--manifest", str(path)])
        assert rc == 0
        manifest = json.loads(path.read_text())
        assert len({s["name"] for s in manifest["spans"]}) >= 6
        assert len(manifest["counters"]) >= 4
        assert manifest["score"]["algorithm"] == "CTCR"
        assert 0.0 <= manifest["score"]["normalized"] <= 1.0
        assert manifest["dataset"]["n_sets"] > 0
        assert manifest["config"]["seed"] == 7
        assert manifest["tool"] == "repro oct"

    def test_manifest_round_trips_through_loader(self, tmp_path):
        from repro.observability import RunManifest

        path = tmp_path / "manifest.json"
        main(["build", *self.COMMON, "--manifest", str(path)])
        manifest = RunManifest.load(path)
        assert manifest.totals["wall_s"] > 0
        assert manifest.dominant_spans(top=1)[0]["wall_s"] > 0

    def test_tracing_does_not_change_the_tree(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        main(["build", *self.COMMON, "--output", str(plain)])
        main(
            [
                "build", *self.COMMON, "--output", str(traced),
                "--trace", "--manifest", str(tmp_path / "m.json"),
            ]
        )
        capsys.readouterr()
        assert plain.read_text() == traced.read_text()

    def test_profile_dump(self, tmp_path):
        import pstats

        path = tmp_path / "run.prof"
        rc = main(["oct", *self.COMMON, "--profile", str(path)])
        assert rc == 0
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_tracer_restored_after_run(self):
        # The previously active tracer (usually the null tracer, but e.g.
        # the benchmark suite installs its own) comes back afterwards.
        from repro.observability import get_tracer

        before = get_tracer()
        main(["oct", *self.COMMON, "--trace"])
        assert get_tracer() is before

    def test_manifest_for_other_commands(self, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", *self.COMMON, "--manifest", str(path),
                "--start", "0.8", "--stop", "0.9", "--step", "0.1",
            ]
        )
        assert rc == 0
        manifest = json.loads(path.read_text())
        assert manifest["tool"] == "repro sweep"
        assert any(s["name"] == "ctcr.build" for s in manifest["spans"])


class TestServingCommands:
    COMMON = ["--dataset", "A", "--scale", "0.01", "--seed", "7"]

    @pytest.mark.parametrize("stored", [False, True])
    def test_multi_worker_serve_builds_no_engine(
        self, tmp_path, monkeypatch, stored
    ):
        # The workers map the store's files; the parent process must not
        # hold an engine of its own for the server's lifetime.
        import repro.cli as cli
        from repro.serving import ServingEngine, SnapshotStore

        store_dir = tmp_path / "store"
        if stored:
            # Builds the tree and saves it as the store's CURRENT.
            assert main(
                ["categorize-query", *self.COMMON,
                 "--snapshot-dir", str(store_dir), "--query", "shirt"]
            ) == 0

        def no_engine(*args, **kwargs):
            raise AssertionError("the multi-worker path built an engine")

        served = []
        monkeypatch.setattr(ServingEngine, "from_snapshot", no_engine)
        monkeypatch.setattr(ServingEngine, "from_tree", no_engine)
        monkeypatch.setattr(ServingEngine, "swap", no_engine)
        monkeypatch.setattr(
            cli, "_serve_supervised",
            lambda args, store: served.append(args.workers) or 0,
        )
        for workers in (["--workers", "2"], []):
            rc = main(
                ["serve", *self.COMMON, "--snapshot-dir", str(store_dir),
                 *workers]
            )
            assert rc == 0
        # A store is always served by the supervisor, one worker or many.
        assert served == [2, 1]
        assert SnapshotStore(store_dir).current_id() is not None

    def test_in_memory_serve_counts_every_reply(self, capsys, monkeypatch):
        import repro.serving

        servers = []
        make_server = repro.serving.make_server

        def recording(*args, **kwargs):
            servers.append(make_server(*args, **kwargs))
            return servers[-1]

        monkeypatch.setattr(repro.serving, "make_server", recording)
        rcs = []
        thread = threading.Thread(
            target=lambda: rcs.append(main(
                ["serve", *self.COMMON, "--port", "0",
                 "--max-requests", "4"]
            )),
            daemon=True,
        )
        thread.start()
        while not servers and thread.is_alive():
            time.sleep(0.05)
        base = f"http://127.0.0.1:{servers[0].server_port}"

        def status(path):
            try:
                with urllib.request.urlopen(base + path, timeout=10) as r:
                    return r.status
            except urllib.error.HTTPError as exc:
                return exc.code

        assert [
            status("/categorize?item=x"),
            status("/healthz"),
            status("/browse?cid=99999"),
            status("/categorize"),
        ] == [200, 200, 404, 400]
        thread.join(timeout=30)
        assert rcs == [0]
        assert "served 4 requests" in capsys.readouterr().out

    def test_closed_stdout_exits_1_without_traceback(self):
        # The parent closes its end of the pipe before the child writes,
        # so the child's first flush fails with EPIPE every time.
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "build", *self.COMMON, "--show"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    @pytest.mark.parametrize("stored", [False, True])
    def test_zero_request_budget_exits_without_serving(self, tmp_path, stored):
        # The docs/cli.md example: build (and save), then return at once
        # instead of waiting for a first request.
        from repro.serving import SnapshotStore

        store_dir = tmp_path / "snapshots"
        store_args = ["--snapshot-dir", str(store_dir)] if stored else []
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "A",
             "--scale", "0.05", *store_args, "--max-requests", "0",
             "--port", "0"],
            stdout=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        try:
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                # Still serving: end the server and any worker it forked.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if stored:
            assert SnapshotStore(store_dir).current_id() is not None

    @pytest.mark.parametrize("stored", [False, True])
    def test_manifest_records_what_was_served(self, tmp_path, stored):
        # With a store the requests are served by a worker process; its
        # counters reach the parent's manifest when its budget is spent.
        import json
        import socket

        from repro.serving.supervisor import _free_port

        manifest = tmp_path / "m.json"
        store_args = (
            ["--snapshot-dir", str(tmp_path / "snapshots")] if stored else []
        )
        port = _free_port("127.0.0.1")
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "A",
             "--scale", "0.05", *store_args, "--port", str(port),
             "--max-requests", "4", "--manifest", str(manifest)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        try:
            # A bare connect sends no request, so it spends no budget.
            deadline = time.monotonic() + 120
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port), 1).close()
                    break
                except OSError:
                    assert proc.poll() is None, "serve exited before serving"
                    assert time.monotonic() < deadline, "serve never bound"
                    time.sleep(0.2)
            for query in ("shirt", "red+shoes", "phone+case", "zzz"):
                url = f"http://127.0.0.1:{port}/categorize-query?q={query}"
                with urllib.request.urlopen(url, timeout=30) as response:
                    assert response.status == 200
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        counters = json.loads(manifest.read_text())["counters"]
        assert counters["serving.requests"] == 4
        assert counters["serving.querycat.requests"] == 4

    def test_negative_request_budget_exits_2(self, capsys, monkeypatch):
        import repro.cli as cli

        def no_build(args):
            raise AssertionError("built before checking the budget")

        monkeypatch.setattr(cli, "_serving_source", no_build)
        rc = main(["serve", *self.COMMON, "--max-requests", "-1"])
        assert rc == 2
        assert "--max-requests must be >= 0" in capsys.readouterr().err

    def test_removed_shards_flag_exits_2(self, capsys):
        # Every snapshot holds one flat file; there is nothing to split.
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["serve", "--shards", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_categorize_query_top_k_below_one(self, capsys, top_k):
        rc = main(
            ["categorize-query", *self.COMMON, "--query", "shirt",
             "--top-k", top_k]
        )
        assert rc == 2
        assert "--top-k must be >= 1" in capsys.readouterr().err
