"""Churn simulator: randomized catalog churn for the differential tier.

Two levels of churn, matching the two inputs a publish can see change:

* **instance-level** — :func:`churn_instance` / :func:`churn_sequence`
  add, remove and reweight sets of an
  :class:`~repro.core.input_sets.OCTInstance`. After every step the
  publish path's tree must be byte-identical to a from-scratch build of
  the churned instance.
* **query-log-level** — :func:`churn_query_log` perturbs a synthetic
  dataset's raw query log (new conjunction queries, dropped queries,
  scaled daily counts), driving the staged-preprocess differential.

This module is deliberately NOT named ``test_*`` — pytest must not
collect it; the differential/property suites import from it.
"""

from __future__ import annotations

import dataclasses
import random

from repro.catalog.queries import (
    QueryLog,
    RawQuery,
    _conjunction_query,
    _daily_counts,
)
from repro.core.input_sets import InputSet, OCTInstance


def churn_instance(
    instance: OCTInstance,
    rng: random.Random,
    frac: float = 0.1,
    mix: tuple[float, float, float] = (1.0, 1.0, 1.0),
    tag: str = "churn",
) -> OCTInstance:
    """``instance`` after one random step touching about ``frac`` of its sets.

    ``mix`` weights the add/remove/reweight draw. Added sets sample
    2-6 items from the instance universe and get fresh sids above the
    current maximum; removals and reweights pick uniformly among the
    surviving original sets. The step applies removals, then reweights,
    then additions: survivors keep their order, added sets are appended,
    the universe grows by the added items (it never shrinks) and item
    bounds carry over.
    """
    sids = sorted(q.sid for q in instance.sets)
    universe = sorted(instance.universe)
    n_changes = max(1, round(frac * len(sids)))
    next_sid = (max(sids) + 1) if sids else 0

    added: list[InputSet] = []
    removed: set[int] = set()
    reweighted: dict[int, float] = {}
    kinds = ("add", "remove", "reweight")
    for _ in range(n_changes):
        kind = rng.choices(kinds, weights=mix)[0]
        live = [s for s in sids if s not in removed]
        if kind == "add" or not live:
            size = rng.randint(2, min(6, max(2, len(universe))))
            items = frozenset(rng.sample(universe, size))
            added.append(
                InputSet(
                    sid=next_sid,
                    items=items,
                    weight=round(rng.uniform(0.5, 20.0), 3),
                    label=f"{tag}-{next_sid}",
                )
            )
            next_sid += 1
        elif kind == "remove":
            sid = rng.choice(live)
            removed.add(sid)
            reweighted.pop(sid, None)
        else:  # reweight
            sid = rng.choice(live)
            reweighted[sid] = round(rng.uniform(0.5, 20.0), 3)

    sets = [
        dataclasses.replace(q, weight=reweighted[q.sid])
        if q.sid in reweighted
        else q
        for q in instance.sets
        if q.sid not in removed
    ]
    sets.extend(added)
    return OCTInstance(
        sets,
        universe=set(instance.universe).union(*(q.items for q in added)),
        item_bounds={
            item: instance.bound(item)
            for item in instance.universe
            if instance.bound(item) != instance.default_bound
        },
        default_bound=instance.default_bound,
    )


def churn_sequence(
    instance: OCTInstance,
    rng: random.Random,
    steps: int,
    frac: float = 0.1,
    mix: tuple[float, float, float] = (1.0, 1.0, 1.0),
):
    """Yield the churned instance of each of ``steps`` rounds.

    Each round churns the previous round's instance, so the sequence
    models sustained catalog churn rather than independent
    perturbations of one snapshot.
    """
    current = instance
    for step in range(steps):
        current = churn_instance(
            current, rng, frac=frac, mix=mix, tag=f"churn{step}"
        )
        yield current


def churn_query_log(dataset, rng: random.Random, frac: float = 0.05):
    """A copy of ``dataset`` with roughly ``frac`` of its queries churned.

    Mirrors real catalog drift: some queries disappear, some change
    volume, and some brand-new conjunction queries appear (generated
    with the same grammar the synthetic generator uses, so they are
    answerable by the dataset's search engine). The product catalog and
    engine are untouched — which is exactly the regime where the staged
    ``ResultSetCache`` stays valid.
    """
    log = dataset.query_log
    queries = list(log.queries)
    existing = {q.text for q in queries}
    n_changes = max(1, round(frac * len(queries)))
    for _ in range(n_changes):
        op = rng.choice(("add", "remove", "rescale"))
        if op == "remove" and len(queries) > 1:
            queries.pop(rng.randrange(len(queries)))
        elif op == "rescale" and queries:
            i = rng.randrange(len(queries))
            q = queries[i]
            factor = rng.uniform(0.3, 3.0)
            counts = tuple(
                max(0, round(c * factor)) for c in q.daily_counts
            )
            queries[i] = dataclasses.replace(q, daily_counts=counts)
        else:  # add
            text = None
            for _attempt in range(20):
                candidate = _conjunction_query(dataset.schema, rng)
                if candidate not in existing:
                    text = candidate
                    break
            if text is None:
                continue  # grammar exhausted at this scale; skip
            existing.add(text)
            queries.append(
                RawQuery(
                    text=text,
                    daily_counts=_daily_counts(
                        rng.uniform(2.0, 60.0), log.days, rng
                    ),
                )
            )
    return dataclasses.replace(
        dataset,
        query_log=QueryLog(
            queries=queries,
            days=log.days,
            trend_events=list(log.trend_events),
        ),
    )
