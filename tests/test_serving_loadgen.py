"""Tests for the deterministic load generator and its hot-swap proof."""

import pytest

from benchmarks.loadgen import DEFAULT_MIX, build_workload, run_loadgen
from repro.algorithms import CTCR
from repro.core import Variant
from repro.observability import percentile
from repro.serving import ServingEngine, SnapshotStore


@pytest.fixture()
def built(figure2_instance):
    variant = Variant.threshold_jaccard(0.6)
    tree = CTCR().build(figure2_instance, variant)
    return tree, figure2_instance, variant


class TestWorkload:
    def test_deterministic_for_same_seed(self, built):
        tree, instance, _ = built
        a = build_workload(instance, tree, 200, seed=5)
        b = build_workload(instance, tree, 200, seed=5)
        assert a == b

    def test_different_seeds_differ(self, built):
        tree, instance, _ = built
        a = build_workload(instance, tree, 200, seed=5)
        b = build_workload(instance, tree, 200, seed=6)
        assert a != b

    def test_mix_respected(self, built):
        tree, instance, _ = built
        workload = build_workload(
            instance, tree, 100, mix={"browse": 1.0}
        )
        assert all(r.op == "browse" for r in workload)

    def test_all_default_ops_appear(self, built):
        tree, instance, _ = built
        ops = {r.op for r in build_workload(instance, tree, 500, seed=1)}
        assert ops == set(DEFAULT_MIX)

    def test_unknown_op_rejected(self, built):
        tree, instance, _ = built
        with pytest.raises(ValueError):
            build_workload(instance, tree, 10, mix={"nope": 1.0})


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.01) == 1.0

    def test_rank_is_ceil_of_q_times_n(self):
        """p95 and p99 of 1..10 are the 10th sample, not the 9th."""
        samples = [float(v) for v in range(1, 11)]
        assert percentile(samples, 0.50) == 5.0
        assert percentile(samples, 0.90) == 9.0
        assert percentile(samples, 0.95) == 10.0
        assert percentile(samples, 0.99) == 10.0
        assert percentile(samples, 0.0) == 1.0


class TestRunLoadgen:
    def test_result_sanity(self, built):
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant)
        workload = build_workload(instance, tree, 300, seed=2)
        result = run_loadgen(engine, workload, n_workers=4)
        assert result.errors == 0
        assert result.n_requests == 300
        assert sum(result.per_op.values()) == 300
        assert result.throughput_rps > 0
        assert 0.0 <= result.p50_ms <= result.p95_ms <= result.p99_ms
        assert result.p99_ms <= result.max_ms
        assert 0.0 <= result.cache_hit_rate <= 1.0
        assert result.covered_fraction > 0.0
        assert result.swap_performed is False
        payload = result.to_dict()
        assert payload["latency_ms"]["p50"] == result.p50_ms

    def test_mid_run_swap_zero_errors(self, tmp_path, built):
        tree, instance, variant = built
        store = SnapshotStore(tmp_path)
        store.save(tree, instance, variant)
        loaded = store.load()
        engine = ServingEngine.from_snapshot(loaded)
        # cids are reassigned on reload, so draw them from the tree
        # actually being served, not the in-memory build.
        workload = build_workload(instance, loaded.tree, 400, seed=3)
        result = run_loadgen(
            engine,
            workload,
            n_workers=8,
            swap_at=0.5,
            swap=lambda: engine.swap(store),
        )
        assert result.errors == 0, result.error_messages
        assert result.swap_performed is True
        assert result.generation_after == result.generation_before + 1

    def test_single_worker(self, built):
        tree, instance, variant = built
        engine = ServingEngine.from_tree(tree, variant)
        workload = build_workload(instance, tree, 50, seed=4)
        result = run_loadgen(engine, workload, n_workers=1)
        assert result.errors == 0
        assert result.n_workers == 1
