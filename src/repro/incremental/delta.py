"""Catalog deltas: the unit of change between two OCT instances.

A :class:`CatalogDelta` describes one refresh of the candidate-category
family — query sets *added*, *removed*, and *reweighted* — without
restating the unchanged sets. The churn simulator emits deltas,
``apply`` materializes the next instance, and ``compose`` collapses a
sequence of deltas into one (the algebra the property tests pin:
``apply(apply(I, d1), d2) == apply(I, compose(d1, d2))``).

Deltas speak *set identity*, not position: a removed or reweighted set
is named by its sid, and an added set arrives as a full
:class:`~repro.core.input_sets.InputSet`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import ReproError
from repro.core.input_sets import InputSet, OCTInstance


class InvalidDeltaError(ReproError):
    """Raised when a delta does not fit the instance it is applied to."""


def _set_to_dict(q: InputSet) -> dict:
    return {
        "sid": q.sid,
        "items": sorted(q.items, key=str),
        "weight": q.weight,
        "threshold": q.threshold,
        "label": q.label,
        "source": q.source,
    }


def _set_from_dict(payload: dict) -> InputSet:
    return InputSet(
        sid=payload["sid"],
        items=frozenset(payload["items"]),
        weight=payload["weight"],
        threshold=payload.get("threshold"),
        label=payload.get("label", ""),
        source=payload.get("source", "query"),
    )


@dataclass(frozen=True)
class CatalogDelta:
    """One refresh step: sets added, removed (by sid), reweighted (by sid).

    Application order is removals first, then reweights (over the
    survivors), then additions — so a delta may legally remove a sid and
    add a different set under the same sid (a full replacement).
    """

    added: tuple[InputSet, ...] = ()
    removed: frozenset[int] = frozenset()
    reweighted: tuple[tuple[int, float], ...] = ()

    # -- basics -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.reweighted)

    @property
    def num_changes(self) -> int:
        return len(self.added) + len(self.removed) + len(self.reweighted)

    def reweight_map(self) -> dict[int, float]:
        return dict(self.reweighted)

    def validate(self, instance: OCTInstance) -> None:
        """Raise :class:`InvalidDeltaError` unless ``apply`` would succeed."""
        sids = {q.sid for q in instance.sets}
        unknown = set(self.removed) - sids
        if unknown:
            raise InvalidDeltaError(
                f"delta removes unknown sids {sorted(unknown)}"
            )
        reweights = self.reweight_map()
        bad = set(reweights) - (sids - set(self.removed))
        if bad:
            raise InvalidDeltaError(
                f"delta reweights missing or removed sids {sorted(bad)}"
            )
        for sid, weight in reweights.items():
            if weight < 0:
                raise InvalidDeltaError(
                    f"delta reweights sid {sid} to negative weight {weight}"
                )
        surviving = sids - set(self.removed)
        fresh = set()
        for q in self.added:
            if q.sid in surviving or q.sid in fresh:
                raise InvalidDeltaError(
                    f"delta adds duplicate sid {q.sid}"
                )
            fresh.add(q.sid)

    # -- application ------------------------------------------------------

    def apply(self, instance: OCTInstance) -> OCTInstance:
        """The instance after this delta (validates first).

        Survivors keep their position in the instance order; added sets
        are appended in delta order. The universe grows by the added
        sets' items (it never shrinks — absent items still need a home
        in the miscellaneous category); item bounds carry over.
        """
        self.validate(instance)
        reweights = self.reweight_map()
        sets: list[InputSet] = []
        for q in instance.sets:
            if q.sid in self.removed:
                continue
            if q.sid in reweights:
                q = InputSet(
                    sid=q.sid, items=q.items, weight=reweights[q.sid],
                    threshold=q.threshold, label=q.label, source=q.source,
                )
            sets.append(q)
        sets.extend(self.added)
        universe = set(instance.universe)
        for q in self.added:
            universe |= q.items
        return OCTInstance(
            sets,
            universe=universe,
            item_bounds={
                item: instance.bound(item)
                for item in instance.universe
                if instance.bound(item) != instance.default_bound
            },
            default_bound=instance.default_bound,
        )

    # -- algebra ----------------------------------------------------------

    def compose(self, later: "CatalogDelta") -> "CatalogDelta":
        """One delta equivalent to applying ``self`` then ``later``."""
        added_by_sid = {q.sid: q for q in self.added}
        later_reweights = later.reweight_map()

        # Sets this delta added: dropped again, reweighted, or kept.
        surviving_added: list[InputSet] = []
        for q in self.added:
            if q.sid in later.removed:
                continue
            if q.sid in later_reweights:
                q = InputSet(
                    sid=q.sid, items=q.items,
                    weight=later_reweights[q.sid],
                    threshold=q.threshold, label=q.label, source=q.source,
                )
            surviving_added.append(q)
        surviving_added.extend(later.added)

        removed = set(self.removed)
        removed |= {sid for sid in later.removed if sid not in added_by_sid}
        # A sid that was removed and later re-added stays in ``removed``
        # *and* appears in ``added`` (apply removes before adding).

        reweights: dict[int, float] = {}
        for sid, weight in self.reweighted:
            if sid in later.removed:
                continue
            reweights[sid] = weight
        for sid, weight in later.reweighted:
            if sid in added_by_sid:
                continue  # folded into the surviving added set above
            reweights[sid] = weight

        return CatalogDelta(
            added=tuple(surviving_added),
            removed=frozenset(removed),
            reweighted=tuple(sorted(reweights.items())),
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "added": [_set_to_dict(q) for q in self.added],
            "removed": sorted(self.removed),
            "reweighted": [[sid, w] for sid, w in sorted(self.reweighted)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CatalogDelta":
        return cls(
            added=tuple(_set_from_dict(p) for p in payload.get("added", [])),
            removed=frozenset(payload.get("removed", [])),
            reweighted=tuple(
                (int(sid), float(w))
                for sid, w in payload.get("reweighted", [])
            ),
        )

    @classmethod
    def between(
        cls, old: OCTInstance, new: OCTInstance
    ) -> "CatalogDelta":
        """The delta turning ``old`` into ``new``, matching sets by sid.

        Sets whose sid survives with identical content but a different
        weight become reweights; content changes under one sid become a
        remove + add.
        """
        old_by_sid = {q.sid: q for q in old.sets}
        new_by_sid = {q.sid: q for q in new.sets}
        added: list[InputSet] = []
        removed: set[int] = set()
        reweighted: dict[int, float] = {}
        for sid, q in old_by_sid.items():
            other = new_by_sid.get(sid)
            if other is None:
                removed.add(sid)
            elif (q.items, q.threshold, q.label, q.source) != (
                other.items, other.threshold, other.label, other.source
            ):
                removed.add(sid)
                added.append(other)
            elif q.weight != other.weight:
                reweighted[sid] = other.weight
        for sid, q in new_by_sid.items():
            if sid not in old_by_sid:
                added.append(q)
        added.sort(key=lambda q: q.sid)
        return cls(
            added=tuple(added),
            removed=frozenset(removed),
            reweighted=tuple(sorted(reweighted.items())),
        )
