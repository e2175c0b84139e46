"""Free-text query categorization: the staged decision procedure.

Maps the traffic e-commerce serving actually receives — free-text search
queries — onto the built category tree. The procedure follows the
chain-of-thought query-categorization spec (PAPERS.md) and the
taxonomist rule of SNIPPETS.md Snippet 1 ("if uncertain between
categories: choose the broader one"): decide in stages, and back off
*up* the hierarchy whenever confidence falls below a threshold instead
of committing to a wrong leaf.

Stages, in order:

1. **exact** — the query's token set equals a category label's token set
   (both through :func:`repro.search.analyzer.tokenize`): confidence 1.
2. **overlap** — candidate labels from
   :meth:`~repro.serving.indexes.SnapshotIndexes.find_labels` are scored
   by token-set Jaccard; the best candidate wins outright when its
   Jaccard reaches the confidence threshold.
3. **backoff** — otherwise walk the best candidate's root path upward
   (pre-order interval ancestor tests) and stop at the
   deepest ancestor whose *subtree* accumulates enough relevance mass
   from all candidates, bottoming out at the root.

Queries with no usable tokens resolve to stage ``empty``; queries whose
tokens match no label resolve to stage ``nohit`` (both uncategorized).

Everything here is written against a small read API —
``find_labels``, ``label_of``, ``path_to_root``, ``is_ancestor``,
``depths`` — which :class:`~repro.serving.indexes.SnapshotIndexes`
serves identically from a buffer, a mapping or supervisor workers (the
differential tier in ``tests/test_querycat.py`` checks all of them
against a brute-force walk of the tree). Results are
JSON-native dicts, so an HTTP round trip preserves them exactly.
"""

from __future__ import annotations

from typing import Iterable

from repro.observability import get_tracer
from repro.search.analyzer import tokenize

# Below this Jaccard confidence the overlap stage refuses to commit and
# the procedure backs off up the hierarchy. 0.5 means "the query and the
# label agree on at least half their combined vocabulary".
DEFAULT_CONFIDENCE_THRESHOLD = 0.5

# How many label-search candidates feed the overlap/back-off stages.
DEFAULT_TOP_K = 10


def overlap_sizes(
    query_tokens: frozenset, candidate_tokens: Iterable[frozenset]
) -> list[int]:
    """``|query ∩ candidate|`` per candidate token set."""
    return [len(query_tokens & ts) for ts in candidate_tokens]


def _result(
    indexes,
    query: str,
    tokens: list[str],
    *,
    cid: int | None,
    stage: str,
    confidence: float,
    stages: list[dict],
    backoff_steps: int = 0,
) -> dict:
    path = indexes.path_to_root(cid) if cid is not None else []
    return {
        "query": query,
        "tokens": list(tokens),
        "matched": cid is not None,
        "cid": cid,
        "label": indexes.label_of(cid) if cid is not None else None,
        "confidence": float(confidence),
        "stage": stage,
        "backoff_steps": int(backoff_steps),
        "path": [{"cid": c, "label": indexes.label_of(c)} for c in path],
        "stages": stages,
    }


def categorize_query(
    indexes,
    text: str,
    threshold: float | None = None,
    top_k: int | None = None,
) -> dict:
    """Run the staged decision procedure for one free-text query.

    Returns a JSON-native dict: the winning ``cid``/``label`` (None when
    uncategorized), its root ``path``, the final ``confidence``, which
    ``stage`` decided (``exact``/``overlap``/``backoff``/``nohit``/
    ``empty``), how many levels the back-off climbed, and the per-stage
    confidence trail in ``stages``.
    """
    threshold = (
        DEFAULT_CONFIDENCE_THRESHOLD if threshold is None else float(threshold)
    )
    top_k = DEFAULT_TOP_K if top_k is None else int(top_k)
    tokens = tokenize(text)
    if not tokens:
        return _result(
            indexes, text, tokens, cid=None, stage="empty", confidence=0.0,
            stages=[{"stage": "empty", "confidence": 0.0}],
        )
    hits = indexes.find_labels(text, top_k=top_k)
    if not hits:
        return _result(
            indexes, text, tokens, cid=None, stage="nohit", confidence=0.0,
            stages=[{"stage": "nohit", "confidence": 0.0}],
        )
    query_set = frozenset(tokens)
    candidate_sets = [
        frozenset(tokenize(indexes.label_of(hit.doc_id))) for hit in hits
    ]
    common_sizes = overlap_sizes(query_set, candidate_sets)
    stages: list[dict] = []

    # Stage 1: exact label hit. Hits arrive best-first in a
    # deterministic order, so the first equal token set wins.
    for hit, tokens_c, common in zip(hits, candidate_sets, common_sizes):
        if common == len(query_set) and len(tokens_c) == len(query_set):
            stages.append({"stage": "exact", "confidence": 1.0})
            return _result(
                indexes, text, tokens, cid=hit.doc_id, stage="exact",
                confidence=1.0, stages=stages,
            )
    stages.append({"stage": "exact", "confidence": 0.0})

    # Stage 2: token-overlap (Jaccard) scoring over the candidates.
    # Ties break on search relevance, then toward the lower cid.
    best_cid: int | None = None
    best_key: tuple | None = None
    best_confidence = 0.0
    for hit, tokens_c, common in zip(hits, candidate_sets, common_sizes):
        union = len(query_set) + len(tokens_c) - common
        confidence = common / union if union else 0.0
        key = (confidence, hit.relevance, -hit.doc_id)
        if best_key is None or key > best_key:
            best_key = key
            best_cid = hit.doc_id
            best_confidence = confidence
    stages.append({"stage": "overlap", "confidence": float(best_confidence)})
    if best_confidence >= threshold:
        return _result(
            indexes, text, tokens, cid=best_cid, stage="overlap",
            confidence=best_confidence, stages=stages,
        )

    # Stage 3: back off up the hierarchy. An ancestor's confidence is
    # the relevance mass of all candidates inside its subtree (capped at
    # 1); commit to the deepest ancestor that clears the threshold, or
    # the root if none does. Summation runs in hit order, so the floats
    # are identical in every process.
    path = indexes.path_to_root(best_cid)
    ancestors = path[:-1] if len(path) > 1 else path
    final_cid = path[0]
    final_confidence = 0.0
    for ancestor in reversed(ancestors):
        mass = 0.0
        for hit in hits:
            if indexes.is_ancestor(ancestor, hit.doc_id):
                mass += hit.relevance
        confidence = min(1.0, mass)
        if confidence >= threshold or ancestor == path[0]:
            final_cid = ancestor
            final_confidence = confidence
            break
    steps = indexes.depths[best_cid] - indexes.depths[final_cid]
    stages.append({"stage": "backoff", "confidence": float(final_confidence)})
    return _result(
        indexes, text, tokens, cid=final_cid, stage="backoff",
        confidence=final_confidence, stages=stages, backoff_steps=steps,
    )


def record_query_counters(result: dict, tracer=None) -> None:
    """Emit the ``serving.querycat.*`` counters for one result.

    Called by the engine *outside* the LRU-cached compute, so repeated
    (cached) queries still record traffic — the analytics report counts
    requests, not distinct queries.
    """
    tracer = tracer if tracer is not None else get_tracer()
    tracer.count("serving.querycat.requests")
    tracer.count(f"serving.querycat.{result['stage']}")
    if result["cid"] is None:
        tracer.count("serving.querycat.unmatched")
        return
    tracer.count(f"serving.querycat.traffic.{result['cid']}")
    if result["stage"] == "backoff":
        tracer.count("serving.querycat.backoff_steps", result["backoff_steps"])
        tracer.count(f"serving.querycat.backoff_traffic.{result['cid']}")
