"""Differential tier: ``preprocess`` against the two-pass oracle.

``preprocess`` searches each frequent query once and runs the scatter
filter over the result sets. :func:`tests.oracles.preprocess_reference`
keeps the paper's order: its scatter filter searches every frequent
query, and its result-set stage searches every survivor again. Both
must give the same ``OCTInstance`` (``instance_to_dict``) and the same
``PreprocessReport``, on datasets A, B and E (``seed=42``) and the tiny
fixture, under four variants and four configurations.

Both sides search through one memo per dataset: what differs between
them is the order of the filters, not the engine, and the memo keeps
the 64 cases cheap. ``tests/test_pipeline.py`` counts the searches
``preprocess`` makes on the real engine.
"""

from __future__ import annotations

import dataclasses
import functools
import types

import pytest

from tests.oracles import preprocess_reference
from repro.catalog import load_dataset
from repro.core import Variant
from repro.io import instance_to_dict
from repro.pipeline import CleaningConfig, PreprocessConfig, preprocess

VARIANTS = {
    "threshold-jaccard-0.8": Variant.threshold_jaccard(0.8),
    "perfect-recall-0.6": Variant.perfect_recall(0.6),
    "cutoff-f1-0.7": Variant.cutoff_f1(0.7),
    "exact": Variant.exact(),
}
CONFIGS = {
    "default": PreprocessConfig(),
    "unmerged": PreprocessConfig(merge_queries=False),
    "recent14": PreprocessConfig(recent_window=14),
    # The default bound of 10 branches drops no query on these
    # datasets; 2 drops some on A and B.
    "scatter2": PreprocessConfig(cleaning=CleaningConfig(max_branches=2)),
}


@pytest.fixture(scope="module")
def memoized(tiny_dataset):
    """Datasets by name, each engine's searches memoized across cases."""
    loaded = {}

    def get(name):
        if name not in loaded:
            dataset = (
                tiny_dataset if name == "tiny"
                else load_dataset(name, seed=42)
            )
            search = functools.lru_cache(maxsize=None)(
                dataset.engine.result_set
            )
            loaded[name] = dataclasses.replace(
                dataset, engine=types.SimpleNamespace(result_set=search)
            )
        return loaded[name]

    return get


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("variant_name", list(VARIANTS))
@pytest.mark.parametrize("dataset_name", ["A", "B", "E", "tiny"])
def test_preprocess_matches_two_pass_oracle(
    memoized, dataset_name, variant_name, config_name
):
    dataset = memoized(dataset_name)
    variant = VARIANTS[variant_name]
    config = CONFIGS[config_name]
    instance, report = preprocess(dataset, variant, config)
    expected, expected_report = preprocess_reference(dataset, variant, config)
    assert instance_to_dict(instance) == instance_to_dict(expected)
    assert dataclasses.asdict(report) == dataclasses.asdict(expected_report)
