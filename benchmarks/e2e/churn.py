"""Query-log churn for the publish workload.

A copy of the query-log churn generator in ``tests/churn.py``, kept here
so that editing the test tier never changes what the benchmark measures.
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


def churn_query_log(dataset, rng: random.Random, frac: float = 0.01):
    """A copy of ``dataset`` with roughly ``frac`` of its queries churned.

    Some queries disappear, some change volume, and new conjunction
    queries appear, drawn from the same grammar as the synthetic
    generator. The product catalog and its search engine are untouched,
    so a staged ``ResultSetCache`` stays valid across the churn.
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
