"""Tests for the tracing core and run manifests.

Covers span nesting/ordering, exception safety, counter aggregation
across worker processes, manifest JSON round-trips, golden-file schema
stability, and the disabled-tracer overhead bound.

Regenerate the golden manifest after an intentional schema change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_observability.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant, make_instance
from repro.observability import (
    NULL_TRACER,
    RunManifest,
    SCHEMA_VERSION,
    Tracer,
    get_tracer,
    instance_fingerprint,
    make_run_id,
    set_tracer,
    use_tracer,
)
from repro.utils.parallel import parallel_map

GOLDEN_PATH = Path(__file__).parent / "data" / "manifest_golden.json"


def figure2_like():
    return make_instance(
        [
            {"a", "b", "c", "d", "e"},
            {"a", "b"},
            {"c", "d", "e", "f"},
            {"a", "b", "f", "g", "h"},
        ],
        weights=[2.0, 1.0, 1.0, 1.0],
    )


# ---------------------------------------------------------------------------
# Span mechanics
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_paths_and_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        with tracer.span("other"):
            pass
        paths = list(tracer.spans)
        assert paths == ["outer", "outer/inner", "other"]
        assert tracer.spans["outer"].depth == 0
        assert tracer.spans["outer/inner"].depth == 1
        assert tracer.spans["outer/inner"].calls == 2
        assert tracer.spans["outer"].calls == 1

    def test_parents_listed_before_children(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert list(tracer.spans) == ["a", "a/b", "a/b/c"]

    def test_same_name_different_parents_kept_apart(self):
        tracer = Tracer()
        with tracer.span("x"):
            with tracer.span("work"):
                pass
        with tracer.span("y"):
            with tracer.span("work"):
                pass
        assert "x/work" in tracer.spans and "y/work" in tracer.spans

    def test_wall_and_cpu_accumulate(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("sleepy"):
                time.sleep(0.01)
        stats = tracer.spans["sleepy"]
        assert stats.calls == 2
        assert stats.wall_s >= 0.02
        assert stats.cpu_s >= 0.0

    def test_exception_closes_span_and_counts_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("boom"):
                    raise ValueError("bang")
        # Both spans closed and recorded despite the exception...
        assert tracer.spans["outer/boom"].errors == 1
        assert tracer.spans["outer"].errors == 1
        assert tracer.spans["outer"].calls == 1
        # ...and the stack unwound completely: new spans are top-level.
        assert tracer.current_path == ""
        with tracer.span("after"):
            assert tracer.current_path == "after"
        assert tracer.spans["after"].depth == 0

    def test_format_tree_mentions_spans_and_counters(self):
        tracer = Tracer()
        with tracer.span("stage"):
            tracer.count("things", 3)
        tracer.gauge("level", 0.5)
        text = tracer.format_tree()
        assert "stage" in text
        assert "things = 3" in text
        assert "level = 0.5" in text


class TestCountersAndGauges:
    def test_count_accumulates(self):
        tracer = Tracer()
        tracer.count("n")
        tracer.count("n", 4)
        assert tracer.counters == {"n": 5}

    def test_gauge_last_write_wins(self):
        tracer = Tracer()
        tracer.gauge("g", 1.0)
        tracer.gauge("g", 2.5)
        assert tracer.gauges == {"g": 2.5}

    def test_merge_counters(self):
        tracer = Tracer()
        tracer.count("a", 1)
        tracer.merge_counters({"a": 2, "b": 7})
        assert tracer.counters == {"a": 3, "b": 7}


class TestActiveTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_use_tracer_restores_previous(self):
        outer = Tracer()
        with use_tracer(outer):
            assert get_tracer() is outer
            with use_tracer() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_disables(self):
        set_tracer(Tracer())
        try:
            assert get_tracer().enabled
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("ignored"):
            NULL_TRACER.count("x", 5)
            NULL_TRACER.gauge("y", 1.0)
            NULL_TRACER.annotate("z", {})
        assert NULL_TRACER.spans == {}
        assert NULL_TRACER.counters == {}
        assert NULL_TRACER.format_tree() == "tracing disabled"


# ---------------------------------------------------------------------------
# Cross-process counter aggregation
# ---------------------------------------------------------------------------


def _traced_double(x):
    get_tracer().count("test.items_seen")
    return x * 2


class TestWorkerAggregation:
    def test_counters_aggregate_from_pool_workers(self):
        with use_tracer(Tracer()) as tracer:
            results = parallel_map(_traced_double, list(range(50)), n_jobs=2)
        assert results == [x * 2 for x in range(50)]
        assert tracer.counters["test.items_seen"] == 50

    def test_pool_counters_match_serial(self):
        with use_tracer(Tracer()) as serial:
            parallel_map(_traced_double, list(range(37)), n_jobs=1)
        with use_tracer(Tracer()) as pooled:
            parallel_map(_traced_double, list(range(37)), n_jobs=2)
        assert serial.counters == pooled.counters

    def test_production_counters_match_serial(self):
        """The MIS stage's worker counters survive the component pool."""
        from repro.core.input_sets import InputSet, OCTInstance
        from repro.mis import MISConfig
        from tests.test_ctcr_equivalence import random_instance

        # Two blocks over disjoint items: two conflict components, so
        # the pooled run really fans out.
        sets, universe = [], []
        for block, seed in enumerate((0, 1)):
            part = random_instance(seed, n_sets=40, n_items=60)
            universe += [f"b{block}{item}" for item in part.universe]
            for q in part.sets:
                items = frozenset(f"b{block}{item}" for item in q.items)
                sets.append(
                    InputSet(sid=len(sets), items=items, weight=q.weight)
                )
        instance = OCTInstance(sets, universe=universe)
        variant = Variant.perfect_recall(0.6)
        counters = []
        for n_jobs in (1, 2):
            builder = CTCR(CTCRConfig(mis=MISConfig(n_jobs=n_jobs)))
            with use_tracer(Tracer()) as tracer:
                builder.build(instance, variant)
            counters.append(tracer.counters)
        serial, pooled = counters
        assert serial["mis.components"] == 2
        assert serial["mis.nodes_expanded"] > 0  # counted in the workers
        assert serial == pooled

    def test_disabled_pool_path_unchanged(self):
        assert not get_tracer().enabled
        results = parallel_map(_traced_double, list(range(20)), n_jobs=2)
        assert results == [x * 2 for x in range(20)]


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def collect_reference_manifest() -> RunManifest:
    """A fully deterministic manifest from a tiny CTCR run."""
    instance = figure2_like()
    variant = Variant.threshold_jaccard(0.8)
    with use_tracer(Tracer()) as tracer:
        tracer.annotate("dataset.fingerprint", instance_fingerprint(instance))
        CTCR().build(instance, variant)
    return RunManifest.collect(
        tracer,
        run_id="golden",
        tool="golden-test",
        config={"variant": str(variant)},
    )


def normalize(data: dict) -> dict:
    """Zero out the volatile fields (timings, timestamps, memory)."""
    out = json.loads(json.dumps(data))
    out["created_at"] = "<normalized>"
    out["totals"] = {k: 0 for k in out["totals"]}
    for span in out["spans"]:
        span["wall_s"] = 0.0
        span["cpu_s"] = 0.0
    return out


class TestRunManifest:
    def test_json_round_trip(self, tmp_path):
        manifest = collect_reference_manifest()
        path = tmp_path / "m.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_contains_spans_counters_gauges_and_fingerprint(self):
        manifest = collect_reference_manifest()
        assert manifest.schema_version == SCHEMA_VERSION
        span_names = {s["name"] for s in manifest.spans}
        assert {"ctcr.build", "ctcr.two_conflicts", "ctcr.mis"} <= span_names
        assert len(span_names) >= 6
        assert len(manifest.counters) >= 4
        assert manifest.dataset["n_sets"] == 4
        assert len(manifest.dataset["sha256"]) == 64
        assert manifest.gauges["ctcr.diag.num_sets"] == 4

    def test_dominant_spans_sorted_by_wall(self):
        manifest = collect_reference_manifest()
        walls = [s["wall_s"] for s in manifest.dominant_spans(top=4)]
        assert walls == sorted(walls, reverse=True)

    def test_totals_cover_top_level_spans_only(self):
        tracer = Tracer()
        with tracer.span("top"):
            with tracer.span("nested"):
                time.sleep(0.01)
        manifest = RunManifest.collect(tracer)
        top = next(s for s in manifest.spans if s["path"] == "top")
        assert manifest.totals["wall_s"] == pytest.approx(top["wall_s"])

    def test_fingerprint_is_content_sensitive(self):
        a = instance_fingerprint(figure2_like())
        b = instance_fingerprint(figure2_like())
        assert a == b
        changed = instance_fingerprint(
            make_instance([{"a", "b"}, {"c"}], weights=[1.0, 1.0])
        )
        assert changed["sha256"] != a["sha256"]

    def test_run_ids_are_filesystem_safe(self):
        rid = make_run_id()
        assert rid.replace("-", "").replace("p", "").isalnum()

    def test_diagnostics_view_round_trips(self, tmp_path):
        from repro.algorithms.ctcr import CTCRDiagnostics

        instance = figure2_like()
        variant = Variant.threshold_jaccard(0.8)
        builder = CTCR()
        with use_tracer(Tracer()) as tracer:
            builder.build(instance, variant)
        manifest = RunManifest.collect(tracer)
        path = tmp_path / "m.json"
        manifest.save(path)
        recovered = CTCRDiagnostics.from_manifest(RunManifest.load(path))
        assert recovered == builder.last_diagnostics

    def test_schema_golden_file(self):
        manifest = collect_reference_manifest()
        current = normalize(manifest.to_dict())
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(exist_ok=True)
            GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert current == golden, (
            "manifest schema or deterministic content drifted; if the "
            "change is intentional, bump SCHEMA_VERSION and regenerate "
            "with REGEN_GOLDEN=1 (see module docstring)"
        )


# ---------------------------------------------------------------------------
# Overhead regression
# ---------------------------------------------------------------------------


class _EventCountingTracer(Tracer):
    """Counts instrumentation call sites hit during an enabled run."""

    def __init__(self) -> None:
        super().__init__()
        self.events = 0

    def span(self, name):
        self.events += 2  # enter + exit
        return super().span(name)

    def count(self, name, n=1):
        self.events += 1
        super().count(name, n)

    def gauge(self, name, value):
        self.events += 1
        super().gauge(name, value)


@pytest.mark.slow
def test_disabled_tracer_overhead_under_5_percent():
    """No-op instrumentation must cost < 5% of a small CTCR build.

    Deterministic variant of an A/B timing test: count the exact number
    of instrumentation events one build emits, measure the per-event
    cost of the null tracer, and bound their product against the build's
    wall time (with a 2x safety factor on the event count).
    """
    from repro.utils import make_rng
    from repro.core.input_sets import InputSet, OCTInstance

    rng = make_rng(5)
    universe = [f"i{k}" for k in range(120)]
    sets = [
        InputSet(sid=s, items=frozenset(rng.sample(universe, rng.randint(3, 15))))
        for s in range(60)
    ]
    instance = OCTInstance(sets, universe=universe)
    variant = Variant.threshold_jaccard(0.6)
    builder = CTCR()

    counting = _EventCountingTracer()
    with use_tracer(counting):
        builder.build(instance, variant)
    events = counting.events
    assert events > 0

    build_wall = min(
        _timed(lambda: builder.build(instance, variant)) for _ in range(5)
    )

    reps = 200_000
    null_wall = min(_timed(_null_events, reps) for _ in range(3))
    per_event = null_wall / reps

    overhead = 2 * events * per_event
    assert overhead < 0.05 * build_wall, (
        f"{events} events x {per_event * 1e9:.0f}ns = {overhead * 1e3:.3f}ms "
        f"vs build {build_wall * 1e3:.1f}ms"
    )


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _null_events(reps: int) -> None:
    tracer = NULL_TRACER
    for _ in range(reps):
        with tracer.span("x"):
            tracer.count("c")
