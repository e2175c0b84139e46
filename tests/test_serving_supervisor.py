"""Cross-process consistency tier, part 2: multi-process serving.

Real worker *processes* on a real SO_REUSEPORT socket, hammered over
HTTP while the control plane does its worst:

- stress: every response is correct JSON, zero errors, and no worker is
  starved below 10% of its fair share (the kernel balances connections);
- hot swap mid-run: a publisher flips ``CURRENT`` while clients read;
  every response is attributable (via ``X-Repro-*`` headers) to exactly
  one of {old, new} generation — no torn reads, no third state;
- crash injection: ``kill -9`` a worker mid-run; retrying clients see
  zero failed requests and the watchdog respawns the worker;
- named swap: ``POST /admin/swap`` naming a snapshot moves ``CURRENT``,
  so every worker's poller converges on it instead of undoing it;
- cross-process identity: the same request answered by different worker
  processes returns byte-identical bodies.

Workers need a store on disk and ~1s of process startup each, so the
suites share one module-scoped catalog; the long churn run is ``slow``.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from benchmarks.loadgen import build_workload, run_http_loadgen
from repro.algorithms import CTCR
from repro.core import Variant, make_instance
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.serving import ServingSupervisor, SnapshotError, SnapshotStore

VARIANT = Variant.threshold_jaccard(0.6)


def catalog_instance(extra: int = 0):
    """A small fashion-ish catalog; ``extra`` grows it deterministically.

    Different ``extra`` values change the item sets, so the saved
    snapshots are content-distinct (distinct snapshot ids) — a plain
    re-save of the same tree would dedupe to the same id and make hot
    swap flips unobservable.
    """
    sets = [
        {"a", "b", "c", "d", "e"},
        {"a", "b"},
        {"c", "d", "e", "f"},
        {"a", "b", "f", "g", "h"},
    ]
    labels = ["black shirt", "black adidas shirt", "nike shirt", "long sleeve"]
    for i in range(extra):
        sets.append({f"x{i}", f"y{i}", "a"})
        labels.append(f"extra line {i}")
    return make_instance(
        sets, weights=[2.0] + [1.0] * (len(sets) - 1), labels=labels
    )


def publish(store: SnapshotStore, extra: int = 0):
    """Build, label, save; returns (info, instance, tree) as *served*.

    The returned tree/instance are the snapshot's round-tripped form
    (cids can be renumbered by serialization), so workloads built from
    them address the categories the workers actually serve.
    """
    instance = catalog_instance(extra)
    tree = CTCR().build(instance, VARIANT)
    apply_label_suggestions(tree, suggest_labels(tree, instance, VARIANT))
    info = store.save(tree, instance, VARIANT)
    loaded = store.load(info.snapshot_id)
    return info, loaded.instance, loaded.tree


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """One store + 2-worker supervisor shared by the fast tests."""
    store = SnapshotStore(tmp_path_factory.mktemp("snapshots"))
    info, instance, tree = publish(store)
    supervisor = ServingSupervisor(store, n_workers=2, poll_interval=0.05)
    supervisor.start()
    yield supervisor, store, info, instance, tree
    supervisor.stop()


def get_json(base_url: str, path: str):
    with urllib.request.urlopen(base_url + path, timeout=10) as response:
        return (
            response.status,
            json.loads(response.read()),
            {k: v for k, v in response.getheaders()},
        )


def snapshots_by_worker(base_url: str, n_workers: int) -> dict[str, str]:
    """``X-Repro-Worker`` -> served snapshot id, once every worker answered.

    Each request opens a new connection, so the kernel spreads them over
    the workers; the loop ends when every worker has been heard from.
    """
    seen: dict[str, str] = {}
    deadline = time.monotonic() + 30
    while len(seen) < n_workers and time.monotonic() < deadline:
        _, body, headers = get_json(base_url, "/healthz")
        seen[headers["X-Repro-Worker"]] = body["snapshot_id"]
    assert len(seen) == n_workers, "kernel never balanced to every worker"
    return seen


class TestSupervisorBasics:
    def test_requires_published_snapshot(self, tmp_path):
        supervisor = ServingSupervisor(SnapshotStore(tmp_path), n_workers=1)
        with pytest.raises(SnapshotError, match="no current snapshot"):
            supervisor.start()

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError, match="n_workers"):
            ServingSupervisor(SnapshotStore(tmp_path), n_workers=0)

    def test_workers_alive_and_attributed(self, stack):
        supervisor, _, info, _, _ = stack
        assert supervisor.alive_count() == 2
        assert len(set(supervisor.pids())) == 2
        status, body, headers = get_json(supervisor.base_url, "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert headers["X-Repro-Snapshot"] == info.snapshot_id
        assert headers["X-Repro-Worker"] in {"0", "1"}

    def test_gauges(self, stack):
        supervisor, _, _, _, _ = stack
        gauges = supervisor.gauges()
        assert gauges["serving.workers.count"] == 2
        assert gauges["serving.workers.configured"] == 2
        assert gauges["serving.workers.respawns"] == supervisor.respawns

    def test_both_workers_answer_identically(self, stack):
        # The same request, answered by whichever process the kernel
        # picks, must return byte-identical bodies: the mmap'd snapshot
        # and the shared scoring code leave nothing process-local.
        supervisor, _, _, instance, _ = stack
        items = ",".join(sorted(instance.sets[0].items))
        by_worker: dict[str, bytes] = {}
        deadline = time.monotonic() + 30
        while len(by_worker) < 2 and time.monotonic() < deadline:
            url = f"{supervisor.base_url}/best-category?items={items}"
            with urllib.request.urlopen(url, timeout=10) as response:
                body = response.read()
                by_worker.setdefault(
                    response.headers["X-Repro-Worker"], body
                )
        assert len(by_worker) == 2, "kernel never balanced to both workers"
        bodies = set(by_worker.values())
        assert len(bodies) == 1, f"workers disagree: {bodies}"


class TestMultiprocessStress:
    def test_stress_zero_errors_and_fair_share(self, stack):
        supervisor, _, info, instance, tree = stack
        workload = build_workload(instance, tree, n_requests=400, seed=11)
        result = run_http_loadgen(
            supervisor.base_url, workload, n_connections=32
        )
        assert result.errors == 0, result.error_messages
        assert result.n_requests == 400
        # Both workers answered, neither starved below 10% of fair share.
        assert set(result.per_worker) == {"0", "1"}
        assert result.min_fair_share_ratio() >= 0.1, result.per_worker
        # Every response attributable to the one published snapshot.
        assert set(result.per_snapshot) == {info.snapshot_id}
        assert sum(result.per_snapshot.values()) == 400

    def test_hot_swap_mid_run(self, stack):
        supervisor, store, _, instance, tree = stack
        before = store.current_id()
        swapped_to = []

        def swap():
            info, _, _ = publish(store, extra=2)
            swapped_to.append(info.snapshot_id)

        workload = build_workload(instance, tree, n_requests=600, seed=23)
        result = run_http_loadgen(
            supervisor.base_url,
            workload,
            n_connections=16,
            swap_at=0.3,
            swap=swap,
        )
        assert result.swap_performed and swapped_to
        assert result.errors == 0, result.error_messages
        # Every response came from the old or the new snapshot - nothing
        # else, no torn state, and the flip actually propagated.
        assert set(result.per_snapshot) <= {before, swapped_to[0]}
        assert sum(result.per_snapshot.values()) == 600
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            _, body, _ = get_json(supervisor.base_url, "/healthz")
            if body["snapshot_id"] == swapped_to[0]:
                break
            time.sleep(0.05)
        else:
            pytest.fail("workers never converged on the new snapshot")
        # Restore the original snapshot for the other tests.
        store.activate(before)
        time.sleep(0.3)

    def test_kill9_worker_mid_run_zero_failures(self, stack):
        supervisor, store, _, instance, tree = stack
        respawns_before = supervisor.respawns
        workload = build_workload(instance, tree, n_requests=400, seed=37)
        killed = []

        def crash():
            killed.append(supervisor.kill_worker(0))

        result = run_http_loadgen(
            supervisor.base_url,
            workload,
            n_connections=16,
            swap_at=0.25,
            swap=crash,
        )
        assert killed
        assert result.errors == 0, result.error_messages
        assert sum(result.per_worker.values()) == 400
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if (
                supervisor.alive_count() == 2
                and supervisor.respawns > respawns_before
            ):
                break
            time.sleep(0.05)
        assert supervisor.alive_count() == 2
        assert supervisor.respawns > respawns_before
        # The respawned worker serves too.
        status, _, _ = get_json(supervisor.base_url, "/healthz")
        assert status == 200


class TestNamedSwap:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_named_swap_holds_on_every_worker(self, tmp_path, n_workers):
        store = SnapshotStore(tmp_path)
        first, _, _ = publish(store)
        second, _, _ = publish(store, extra=1)
        store.activate(first.snapshot_id)
        interval = 0.1
        supervisor = ServingSupervisor(
            store, n_workers=n_workers, poll_interval=interval
        )
        with supervisor:
            request = urllib.request.Request(
                supervisor.base_url + "/admin/swap",
                data=json.dumps({"snapshot_id": second.snapshot_id}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                assert json.loads(response.read())["snapshot_id"] == (
                    second.snapshot_id
                )
            time.sleep(3 * interval)
            want = {str(w): second.snapshot_id for w in range(n_workers)}
            assert snapshots_by_worker(supervisor.base_url, n_workers) == want
            assert store.current_id() == second.snapshot_id


@pytest.mark.slow
class TestChurn:
    def test_long_churn_swaps_and_crashes(self, tmp_path):
        """Sustained load + repeated publishes + a kill -9: still zero errors."""
        store = SnapshotStore(tmp_path)
        info, instance, tree = publish(store)
        seen_snapshots = {info.snapshot_id}
        supervisor = ServingSupervisor(store, n_workers=3, poll_interval=0.05)
        with supervisor:
            for round_no in range(1, 4):
                def churn(round_no=round_no):
                    new_info, _, _ = publish(store, extra=round_no)
                    seen_snapshots.add(new_info.snapshot_id)
                    if round_no == 2:
                        supervisor.kill_worker(round_no % 3)

                workload = build_workload(
                    instance, tree, n_requests=300, seed=round_no
                )
                result = run_http_loadgen(
                    supervisor.base_url,
                    workload,
                    n_connections=12,
                    swap_at=0.5,
                    swap=churn,
                )
                assert result.errors == 0, result.error_messages
                # Attribution stays closed over the published snapshots.
                assert set(result.per_snapshot) <= seen_snapshots
            deadline = time.monotonic() + 15
            while supervisor.alive_count() < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert supervisor.alive_count() == 3
            assert supervisor.respawns >= 1
