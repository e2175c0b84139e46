"""Input sets and OCT problem instances (paper Section 2.1).

An OCT instance is ``⟨Q, W⟩``: a family of *candidate categories* — item
sets over a finite universe — each with a non-negative weight. Candidate
categories typically come from search-query result sets, the categories
of an existing tree, or taxonomist-curated property sets; the ``source``
field records which, so experiments such as Table 1 can attribute score
contributions per source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.core.exceptions import InvalidInstanceError

Item = Hashable


@dataclass(frozen=True)
class InputSet:
    """One candidate category: an item set with a weight and metadata.

    ``threshold`` overrides the variant's default ``delta`` for this set
    (the paper's non-uniform-thresholds extension); ``None`` means "use
    the default". ``label`` carries the originating query text or category
    name, which the paper uses to hint category names.
    """

    sid: int
    items: frozenset[Item]
    weight: float = 1.0
    threshold: float | None = None
    label: str = ""
    source: str = "query"

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise InvalidInstanceError(
                f"input set {self.sid} has negative weight {self.weight}"
            )
        if not self.items:
            raise InvalidInstanceError(f"input set {self.sid} is empty")
        if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
            raise InvalidInstanceError(
                f"input set {self.sid} has threshold {self.threshold} "
                "outside (0, 1]"
            )

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items


class OCTInstance:
    """An OCT problem instance: input sets plus the item universe.

    The universe defaults to the union of the input sets, but may be given
    explicitly to include items that no candidate category mentions (these
    end up in the miscellaneous category of any solution).

    ``item_bounds`` maps items to the maximum number of branches they may
    appear on (the paper's per-item bound extension); the default bound is
    ``default_bound`` (1 on most platforms, 2 on e.g. eBay with a fee).
    """

    def __init__(
        self,
        sets: Iterable[InputSet],
        universe: Iterable[Item] | None = None,
        item_bounds: Mapping[Item, int] | None = None,
        default_bound: int = 1,
    ) -> None:
        self.sets: list[InputSet] = list(sets)
        seen_ids = set()
        for q in self.sets:
            if q.sid in seen_ids:
                raise InvalidInstanceError(f"duplicate input-set id {q.sid}")
            seen_ids.add(q.sid)
        union: set[Item] = set()
        for q in self.sets:
            union |= q.items
        if universe is None:
            self.universe: frozenset[Item] = frozenset(union)
        else:
            self.universe = frozenset(universe)
            if not union <= self.universe:
                raise InvalidInstanceError(
                    "input sets mention items outside the given universe"
                )
        if default_bound < 1:
            raise InvalidInstanceError("default_bound must be at least 1")
        self.default_bound = default_bound
        self._item_bounds: dict[Item, int] = dict(item_bounds or {})
        for item, bound in self._item_bounds.items():
            if bound < 1:
                raise InvalidInstanceError(
                    f"item {item!r} has bound {bound} < 1"
                )
        self._by_id: dict[int, InputSet] = {q.sid: q for q in self.sets}

    # -- basic accessors --------------------------------------------------

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def get(self, sid: int) -> InputSet:
        return self._by_id[sid]

    def bound(self, item: Item) -> int:
        """Branch bound for one item."""
        return self._item_bounds.get(item, self.default_bound)

    def uniform_bound(self) -> int | None:
        """The single branch bound shared by every item, or ``None``.

        Lets hot paths skip per-item bound lookups (e.g. the pairwise
        kernel reuses full intersection counts for the bound-1 shared
        counts when the bound is uniformly 1).
        """
        if all(b == self.default_bound for b in self._item_bounds.values()):
            return self.default_bound
        return None

    @property
    def total_weight(self) -> float:
        """Sum of all weights — the paper's normalization denominator."""
        return sum(q.weight for q in self.sets)

    def effective_threshold(self, q: InputSet, default_delta: float) -> float:
        """The threshold in force for one input set."""
        return default_delta if q.threshold is None else q.threshold

    # -- derived structures used throughout the algorithms ----------------

    def sets_containing(self) -> dict[Item, list[InputSet]]:
        """Index from each item to the input sets containing it."""
        index: dict[Item, list[InputSet]] = {}
        for q in self.sets:
            for item in q.items:
                index.setdefault(item, []).append(q)
        return index

    def restricted_to(self, sids: Iterable[int]) -> "OCTInstance":
        """A sub-instance over a subset of the input sets (same universe)."""
        wanted = set(sids)
        return OCTInstance(
            [q for q in self.sets if q.sid in wanted],
            universe=self.universe,
            item_bounds=self._item_bounds,
            default_bound=self.default_bound,
        )

    def with_extra_sets(self, extra: Iterable[InputSet]) -> "OCTInstance":
        """A new instance with additional candidate categories appended.

        Used for continual conservative updates: the categories of the
        existing tree are added as input sets with tunable weights.
        """
        extra = list(extra)
        universe = set(self.universe)
        for q in extra:
            universe |= q.items
        return OCTInstance(
            self.sets + extra,
            universe=universe,
            item_bounds=self._item_bounds,
            default_bound=self.default_bound,
        )


def make_instance(
    raw_sets: Iterable[Iterable[Item]],
    weights: Iterable[float] | None = None,
    labels: Iterable[str] | None = None,
    **kwargs,
) -> OCTInstance:
    """Convenience constructor from plain collections.

    >>> inst = make_instance([{"a", "b"}, {"b", "c"}], weights=[2.0, 1.0])
    >>> len(inst)
    2
    """
    raw = [frozenset(s) for s in raw_sets]
    w = list(weights) if weights is not None else [1.0] * len(raw)
    lab = list(labels) if labels is not None else [""] * len(raw)
    if len(w) != len(raw) or len(lab) != len(raw):
        raise InvalidInstanceError("weights/labels length mismatch")
    sets = [
        InputSet(sid=i, items=items, weight=wi, label=li)
        for i, (items, wi, li) in enumerate(zip(raw, w, lab))
    ]
    return OCTInstance(sets, **kwargs)
