"""Pinned answers: the trees CTCR and CCT build on datasets A-D.

For each dataset (``load_dataset(X, seed=42)``, then ``preprocess``)
and four variants, ``tests/data/trees_golden.json`` records

* the preprocessed instance's ``instance_fingerprint`` sha256;
* the ``PreprocessReport`` fields;
* for CTCR and CCT, the sha256 of the canonical tree JSON
  (``json.dumps(tree_to_dict(tree), sort_keys=True)``) and the
  normalized score, compared with ``==``.

Any change to preprocessing or to either builder that moves one item,
one category or one score fails here. D takes about a minute and is
marked ``slow``. After an intentional change to the answers,
regenerate (and list each changed case with its reason) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trees_golden.py -q -m ""
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.algorithms import CCT, CTCR
from repro.catalog import load_dataset
from repro.core import Variant
from repro.core.scoring import score_tree
from repro.io import tree_to_dict
from repro.observability import instance_fingerprint
from repro.pipeline import preprocess

GOLDEN_PATH = Path(__file__).parent / "data" / "trees_golden.json"
SEED = 42
VARIANTS = {
    "threshold-jaccard-0.8": Variant.threshold_jaccard(0.8),
    "perfect-recall-0.6": Variant.perfect_recall(0.6),
    "cutoff-f1-0.7": Variant.cutoff_f1(0.7),
    "exact": Variant.exact(),
}
DATASETS = [
    "A",
    "B",
    "C",
    pytest.param("D", marks=pytest.mark.slow),
]


@pytest.fixture(scope="module")
def datasets():
    """One generated catalog per dataset name, shared by its variants."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = load_dataset(name, seed=SEED)
        return cache[name]

    return get


def tree_sha256(tree) -> str:
    text = json.dumps(tree_to_dict(tree), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def answers(dataset, variant) -> dict:
    instance, report = preprocess(dataset, variant)
    record = {
        "instance_sha256": instance_fingerprint(instance)["sha256"],
        "report": dataclasses.asdict(report),
    }
    for builder in (CTCR(), CCT()):
        tree = builder.build(instance, variant)
        record[builder.name] = {
            "tree_sha256": tree_sha256(tree),
            "normalized": score_tree(tree, instance, variant).normalized,
        }
    return record


@pytest.mark.parametrize("variant_name", list(VARIANTS))
@pytest.mark.parametrize("dataset_name", DATASETS)
def test_trees_match_golden(datasets, dataset_name, variant_name):
    key = f"{dataset_name}/{variant_name}"
    current = answers(datasets(dataset_name), VARIANTS[variant_name])
    if os.environ.get("REGEN_GOLDEN"):
        golden = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        golden[key] = current
        GOLDEN_PATH.write_text(
            json.dumps(dict(sorted(golden.items())), indent=2) + "\n"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert current == golden[key], (
        f"answers for {key} drifted; if the change is intentional, "
        "regenerate with REGEN_GOLDEN=1 (see module docstring)"
    )
