"""Serving analytics: the category report, drift detection, and the loop.

End-to-end: serve real queries under a tracer, write real run
manifests, aggregate them into the category-performance report, then
feed a synthetically skewed traffic log to the drift detector and act
on its rebuild recommendation (rebuild, save, hot-swap) — the full
traffic-to-rebuild loop, in-process.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import CTCR
from repro.analytics import (
    RebuildRecommendation,
    apply_recommendation,
    build_category_shares,
    category_performance,
    detect_traffic_drift,
    load_serving_counters,
    reweighted_instance,
    subtree_totals,
    traffic_by_category,
)
from repro.cli import main
from repro.core import Variant, make_instance
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.maintenance import (
    DistributionOutlier,
    detect_distribution_outliers,
)
from repro.observability import RunManifest, Tracer, use_tracer
from repro.serving import (
    ServingEngine,
    SnapshotIndexes,
    SnapshotStore,
)

VARIANT = Variant.threshold_jaccard(0.6)


def shop_instance():
    sets = [
        {"s1", "s2", "s3", "s4"},
        {"s1", "s2"},
        {"d1", "d2", "d3", "d4"},
        {"l1", "l2", "l3", "l4"},
        {"l1", "l2"},
        {"h1", "h2"},
        {"h3", "h4"},
    ]
    labels = [
        "running shoes",
        "trail running shoes",
        "dress shoes",
        "laptops",
        "gaming laptops",
        "red hats",
        "red scarves",
    ]
    return make_instance(
        sets, weights=[4, 2, 4, 4, 2, 1, 1], labels=labels
    )


def build_stack():
    instance = shop_instance()
    tree = CTCR().build(instance, VARIANT)
    apply_label_suggestions(tree, suggest_labels(tree, instance, VARIANT))
    indexes = SnapshotIndexes(tree, VARIANT)
    return instance, tree, indexes


def label_cids(indexes):
    return {
        indexes.label_of(cid): cid for cid in indexes.sizes
    }


class TestOutlierPrimitive:
    def test_flags_divergent_keys_most_divergent_first(self):
        outliers = detect_distribution_outliers(
            {"a": 0.8, "b": 0.1, "c": 0.1},
            {"a": 0.1, "b": 0.1, "c": 0.8},
        )
        # a and c diverge by the same factor; ties order by key.
        assert [o.key for o in outliers] == ["a", "c"]
        assert all(isinstance(o, DistributionOutlier) for o in outliers)
        assert outliers[0].ratio >= outliers[1].ratio >= 2.0

    def test_min_mass_drops_tail_noise(self):
        outliers = detect_distribution_outliers(
            {"tiny": 0.001}, {"tiny": 0.0}, min_mass=0.01
        )
        assert outliers == []

    def test_agreement_is_quiet(self):
        shares = {"a": 0.5, "b": 0.5}
        assert detect_distribution_outliers(shares, dict(shares)) == []


class TestReport:
    def test_manifest_roundtrip_and_rollup(self, tmp_path):
        instance, tree, indexes = build_stack()
        engine = ServingEngine.from_tree(tree, VARIANT)
        queries = (
            ["dress shoes"] * 3
            + ["trail running shoes"] * 2
            + ["shoes"]          # backs off to root at 0.8
            + ["quantum flux"]   # unmatched
        )
        # Two serving "processes", each writing its own manifest.
        for half, name in ((queries[:4], "m1"), (queries[4:], "m2")):
            with use_tracer(Tracer()) as tracer:
                engine.categorize_queries(half, threshold=0.8)
            RunManifest.collect(tracer, tool="serve").save(
                tmp_path / f"{name}.json"
            )

        counters = load_serving_counters([tmp_path])
        assert counters["serving.querycat.requests"] == len(queries)
        report = category_performance(
            indexes, counters, instance=instance
        )
        cids = label_cids(indexes)
        by_cid = {row.cid: row for row in report.rows}

        assert report.total_requests == len(queries)
        assert report.unmatched == 1
        assert report.matched_traffic == len(queries) - 1
        dress = by_cid[cids["dress shoes"]]
        assert dress.traffic == 3
        assert dress.traffic_share == pytest.approx(3 / 6)
        assert dress.coverage == 1.0
        root = by_cid[indexes.root_cid]
        assert root.subtree_traffic == 6
        assert root.subtree_share == 1.0
        # One query backed off into the root's subtree.
        assert root.coverage == pytest.approx(5 / 6)
        assert report.backoff_rate == pytest.approx(1 / len(queries))
        # Heaviest subtree first.
        assert report.rows[0].cid == indexes.root_cid

    def test_subtree_totals_accumulate_to_ancestors(self):
        _instance, _tree, indexes = build_stack()
        cids = label_cids(indexes)
        totals = subtree_totals(
            indexes, {cids["trail running shoes"]: 2.0, cids["laptops"]: 1.0}
        )
        assert totals[cids["trail running shoes"]] == 2.0
        assert totals[cids["running shoes"]] == 2.0
        assert totals[cids["laptops"]] == 1.0
        assert totals[indexes.root_cid] == 3.0

    def test_build_shares_sum_to_one(self):
        instance, _tree, indexes = build_stack()
        shares = build_category_shares(indexes, instance)
        assert sum(shares.values()) == pytest.approx(1.0)
        cids = label_cids(indexes)
        assert shares[cids["running shoes"]] == pytest.approx(4 / 18)

    def test_penetration_compares_live_to_build(self):
        instance, _tree, indexes = build_stack()
        cids = label_cids(indexes)
        # All live traffic on "red hats" (build share 1/18).
        counters = {
            f"serving.querycat.traffic.{cids['red hats']}": 18,
            "serving.querycat.requests": 18,
        }
        report = category_performance(indexes, counters, instance=instance)
        hats = {row.cid: row for row in report.rows}[cids["red hats"]]
        assert hats.penetration == pytest.approx(18.0)

    def test_counters_from_stale_cids_are_ignored(self):
        _instance, _tree, indexes = build_stack()
        report = category_performance(
            indexes, {"serving.querycat.traffic.99999": 7}
        )
        assert report.matched_traffic == 0
        assert report.rows == ()


class TestDrift:
    def test_skewed_traffic_triggers_rebuild(self):
        instance, _tree, indexes = build_stack()
        cids = label_cids(indexes)
        counters = {f"serving.querycat.traffic.{cids['red hats']}": 90}
        recommendation = detect_traffic_drift(indexes, instance, counters)
        assert isinstance(recommendation, RebuildRecommendation)
        assert recommendation.should_rebuild
        assert recommendation.total_variation >= 0.25
        drifted_cids = [o.key for o in recommendation.drifted]
        assert cids["red hats"] in drifted_cids
        assert "diverges" in recommendation.reason
        # JSON-ready for the CLI/--output path.
        assert json.loads(json.dumps(recommendation.to_dict()))

    def test_balanced_traffic_is_quiet(self):
        instance, _tree, indexes = build_stack()
        shares = build_category_shares(indexes, instance)
        counters = {
            f"serving.querycat.traffic.{cid}": share * 1800
            for cid, share in shares.items()
        }
        recommendation = detect_traffic_drift(indexes, instance, counters)
        assert not recommendation.should_rebuild
        assert recommendation.drifted == ()
        assert recommendation.suggested_weights == {}

    def test_no_traffic_is_quiet(self):
        instance, _tree, indexes = build_stack()
        recommendation = detect_traffic_drift(indexes, instance, {})
        assert not recommendation.should_rebuild
        assert "no live querycat traffic" in recommendation.reason

    def test_reweighting_follows_live_traffic(self):
        instance, _tree, indexes = build_stack()
        cids = label_cids(indexes)
        # Hats dominate; every category keeps some traffic so all
        # suggested weights stay positive.
        counters = {
            f"serving.querycat.traffic.{cid}": 2.0
            for cid in cids.values()
            if cid != indexes.root_cid
        }
        counters[f"serving.querycat.traffic.{cids['red hats']}"] = 88.0
        recommendation = detect_traffic_drift(indexes, instance, counters)
        assert recommendation.should_rebuild
        reweighted = reweighted_instance(instance, recommendation)
        by_label = {q.label: q for q in reweighted.sets}
        original = {q.label: q for q in instance.sets}
        assert by_label["red hats"].weight > original["red hats"].weight
        assert by_label["laptops"].weight < original["laptops"].weight
        assert all(q.weight > 0 for q in reweighted.sets)
        assert reweighted.universe == instance.universe

    def test_apply_recommendation_hot_swaps(self, tmp_path):
        instance, tree, indexes = build_stack()
        store = SnapshotStore(tmp_path / "snapshots")
        info = store.save(tree, instance, VARIANT)
        engine = ServingEngine.from_snapshot(store.load(info.snapshot_id))
        generation_before = engine.generation
        cids = label_cids(indexes)
        counters = {
            f"serving.querycat.traffic.{cid}": 2.0
            for cid in cids.values()
            if cid != indexes.root_cid
        }
        counters[f"serving.querycat.traffic.{cids['red hats']}"] = 88.0
        recommendation = detect_traffic_drift(indexes, instance, counters)
        generation = apply_recommendation(
            recommendation, engine, CTCR(), instance, VARIANT, store=store
        )
        assert generation is not None
        assert engine.generation == generation_before + 1
        assert len(store.list()) == 2  # reweighted build saved as new
        # A quiet recommendation is a no-op.
        quiet = detect_traffic_drift(indexes, instance, {})
        assert (
            apply_recommendation(
                quiet, engine, CTCR(), instance, VARIANT, store=store
            )
            is None
        )
        assert engine.generation == generation_before + 1


class TestCLI:
    def publish(self, tmp_path):
        instance, tree, _indexes = build_stack()
        store_dir = tmp_path / "snapshots"
        store = SnapshotStore(store_dir)
        store.save(tree, instance, VARIANT)
        return store_dir

    def manifest_from_queries(self, tmp_path, store_dir, queries):
        path = tmp_path / "queries.txt"
        path.write_text("".join(q + "\n" for q in queries))
        manifest = tmp_path / "serve-manifest.json"
        rc = main(
            [
                "categorize-query",
                "--snapshot-dir", str(store_dir),
                "--queries-file", str(path),
                "--manifest", str(manifest),
            ]
        )
        assert rc == 0
        return manifest

    def test_report_and_drift_from_real_manifests(self, tmp_path, capsys):
        store_dir = self.publish(tmp_path)
        manifest = self.manifest_from_queries(
            tmp_path, store_dir, ["dress shoes"] * 5 + ["red hats"] * 2
        )
        out_json = tmp_path / "report.json"
        rc = main(
            [
                "analytics", "report",
                "--manifests", str(manifest),
                "--snapshot-dir", str(store_dir),
                "--min-traffic", "0",
                "--output", str(out_json),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dress shoes" in out
        assert "requests=7" in out
        payload = json.loads(out_json.read_text())
        assert payload["total_requests"] == 7
        assert any(
            row["label"] == "dress shoes" and row["traffic"] == 5
            for row in payload["rows"]
        )

        rc = main(
            [
                "analytics", "drift",
                "--manifests", str(manifest),
                "--snapshot-dir", str(store_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "REBUILD RECOMMENDED" in out

    def test_categorize_query_cli_json(self, tmp_path, capsys):
        store_dir = self.publish(tmp_path)
        rc = main(
            [
                "categorize-query",
                "--snapshot-dir", str(store_dir),
                "--query", "dress shoes",
                "--json",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        start = out.index("[")
        results = json.loads(out[start:])
        assert results[0]["stage"] == "exact"
        assert results[0]["label"] == "dress shoes"

    def test_categorize_query_requires_queries(self, tmp_path):
        assert main(["categorize-query"]) == 2

    def test_analytics_requires_snapshot(self, tmp_path):
        rc = main(
            [
                "analytics", "report",
                "--manifests", str(tmp_path),
                "--snapshot-dir", str(tmp_path / "empty-store"),
            ]
        )
        assert rc == 2
