"""Versioned on-disk snapshots of built category trees.

A *snapshot* is the unit the serving layer loads, swaps, and rolls back:
one built :class:`~repro.core.tree.CategoryTree` together with the
:class:`~repro.core.input_sets.OCTInstance` it was built from, the
similarity variant, and manifest-style metadata (score, dataset
fingerprint, build run-id). Snapshots are immutable once written and
content-addressed — the snapshot id is a digest of the tree, instance,
and variant payloads, so saving identical content twice yields the same
id and no duplicate directory.

Store layout (everything JSON, reusing :mod:`repro.io` payload shapes)::

    <root>/
      CURRENT                     # the active snapshot id (one line)
      snap-<digest>/
        manifest.json             # SNAPSHOT_FORMAT_VERSION + metadata
        tree.json                 # repro.io tree payload
        instance.json             # repro.io instance payload
        indexes.flat              # compiled read layout (repro.serving.shm)

Writes are atomic at the directory level: content is staged into a
temporary sibling and published with ``os.replace``, and ``CURRENT`` is
rewritten the same way, so a reader (or a crashed writer) never observes
a half-written snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.core.exceptions import ReproError
from repro.core.input_sets import OCTInstance
from repro.core.scoring import score_tree
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.io import instance_from_dict, instance_to_dict, tree_from_dict, tree_to_dict
from repro.observability.manifest import instance_fingerprint

SNAPSHOT_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_TREE = "tree.json"
_INSTANCE = "instance.json"
_CURRENT = "CURRENT"
FLAT_FILE = "indexes.flat"
# Every id snapshot_digest can produce, and nothing else: ids name
# directories, so anything else ("..", "/") could escape the store.
_SNAPSHOT_ID = re.compile(r"snap-[0-9a-f]{16}")


class SnapshotError(ReproError):
    """Raised on malformed snapshots or impossible store operations."""


# -- variant specs -----------------------------------------------------------


_KIND_NAMES = {"jaccard": "jaccard", "f1": "f1"}


def variant_spec(variant: Variant) -> str:
    """The CLI spelling of a variant (``threshold-jaccard:0.8``, ...).

    Round-trips through :func:`variant_from_spec`. The Exact variant is
    spelled through its Jaccard embedding (``threshold-jaccard:1``).
    """
    if variant.is_perfect_recall:
        return f"perfect-recall:{variant.delta:g}"
    kind = _KIND_NAMES[variant.kind.value]
    return f"{variant.mode.value}-{kind}:{variant.delta:g}"


def variant_from_spec(spec: str) -> Variant:
    """Parse a :func:`variant_spec` string back into a :class:`Variant`."""
    if spec == "exact":
        return Variant.exact()
    name, sep, raw_delta = spec.partition(":")
    constructors = {
        "threshold-jaccard": Variant.threshold_jaccard,
        "cutoff-jaccard": Variant.cutoff_jaccard,
        "threshold-f1": Variant.threshold_f1,
        "cutoff-f1": Variant.cutoff_f1,
        "perfect-recall": Variant.perfect_recall,
    }
    if not sep or name not in constructors:
        raise SnapshotError(f"bad variant spec {spec!r}")
    try:
        delta = float(raw_delta)
    except ValueError as exc:
        raise SnapshotError(f"bad variant spec {spec!r}") from exc
    return constructors[name](delta)


# -- snapshot records --------------------------------------------------------


@dataclass(frozen=True)
class SnapshotInfo:
    """The manifest of one snapshot: what was built, from what, how well."""

    snapshot_id: str
    variant: str  # variant_spec string
    delta: float
    score: float  # normalized score of the tree over its instance
    created_at: str
    n_categories: int
    n_sets: int
    n_items: int
    dataset: dict = field(default_factory=dict)  # instance fingerprint
    build_run_id: str = ""
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "snapshot_id": self.snapshot_id,
            "variant": self.variant,
            "delta": self.delta,
            "score": self.score,
            "created_at": self.created_at,
            "n_categories": self.n_categories,
            "n_sets": self.n_sets,
            "n_items": self.n_items,
            "dataset": self.dataset,
            "build_run_id": self.build_run_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SnapshotInfo":
        version = payload.get("format_version")
        if isinstance(version, int) and version > SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format_version {version} is newer than supported "
                f"version {SNAPSHOT_FORMAT_VERSION}; upgrade repro to read it"
            )
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot format_version {version!r} "
                f"(supported: {SNAPSHOT_FORMAT_VERSION})"
            )
        try:
            return cls(
                snapshot_id=payload["snapshot_id"],
                variant=payload["variant"],
                delta=payload["delta"],
                score=payload["score"],
                created_at=payload["created_at"],
                n_categories=payload["n_categories"],
                n_sets=payload["n_sets"],
                n_items=payload["n_items"],
                dataset=dict(payload.get("dataset", {})),
                build_run_id=payload.get("build_run_id", ""),
            )
        except KeyError as exc:
            raise SnapshotError(f"snapshot manifest missing field {exc}") from exc


@dataclass(frozen=True)
class LoadedSnapshot:
    """A fully materialized snapshot, ready to index and serve."""

    info: SnapshotInfo
    tree: CategoryTree
    instance: OCTInstance

    @property
    def variant(self) -> Variant:
        return variant_from_spec(self.info.variant)


def snapshot_digest(
    tree_payload: dict, instance_payload: dict, variant: Variant
) -> str:
    """Content-addressed snapshot id over the canonical JSON payloads."""
    digest = hashlib.sha256()
    for part in (
        json.dumps(tree_payload, sort_keys=True),
        json.dumps(instance_payload, sort_keys=True),
        variant_spec(variant),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return f"snap-{digest.hexdigest()[:16]}"


# -- the store ---------------------------------------------------------------


class SnapshotStore:
    """A directory of immutable snapshots plus one ``CURRENT`` pointer."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- writing -----------------------------------------------------------

    def save(
        self,
        tree: CategoryTree,
        instance: OCTInstance,
        variant: Variant,
        build_run_id: str = "",
        activate: bool = True,
    ) -> SnapshotInfo:
        """Persist a built tree as a snapshot; returns its manifest.

        The normalized score and the instance fingerprint are computed
        here so every snapshot records how good it was at build time.
        Saving content that already exists is a no-op (same id); with
        ``activate`` (the default) the snapshot also becomes ``CURRENT``.

        The mmap-able flat layout (:mod:`repro.serving.shm`) is compiled
        into the staged directory too, so the snapshot publishes
        atomically with both formats.
        """
        tree_payload = tree_to_dict(tree)
        instance_payload = instance_to_dict(instance)
        snapshot_id = snapshot_digest(tree_payload, instance_payload, variant)
        target = self.root / snapshot_id
        if not target.exists():
            info = SnapshotInfo(
                snapshot_id=snapshot_id,
                variant=variant_spec(variant),
                delta=variant.delta,
                score=score_tree(tree, instance, variant).normalized,
                created_at=time.strftime(
                    "%Y-%m-%dT%H:%M:%S", time.localtime()
                ),
                n_categories=len(tree),
                n_sets=len(instance),
                n_items=len(instance.universe),
                dataset=instance_fingerprint(instance),
                build_run_id=build_run_id,
            )
            staging = self.root / f".staging-{snapshot_id}-{os.getpid()}"
            staging.mkdir(parents=True, exist_ok=True)
            try:
                for name, payload in (
                    (_TREE, tree_payload),
                    (_INSTANCE, instance_payload),
                    (_MANIFEST, info.to_dict()),
                ):
                    (staging / name).write_text(
                        json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8",
                    )
                self._write_flat(staging, tree_payload)
                try:
                    os.replace(staging, target)
                except OSError:  # pragma: no cover - concurrent save race
                    if not target.exists():
                        raise
            finally:
                if staging.exists():  # pragma: no cover - failure cleanup
                    for leftover in staging.iterdir():
                        leftover.unlink()
                    staging.rmdir()
        if activate:
            self.activate(snapshot_id)
        return self.info(snapshot_id)

    def _write_flat(self, directory: Path, tree_payload: dict) -> Path:
        """Compile and write the flat file into a snapshot dir.

        Compiles from the *round-tripped* tree (the JSON payload a later
        reload would see) so the mapped file answers exactly what a
        reloaded snapshot compiled in process would. The file lands via
        write-to-temp + ``os.replace``, so a concurrent compiler (two
        workers racing :meth:`ensure_flat`) just overwrites identical
        content.
        """
        from repro.serving.shm import compile_flat_indexes

        # The variant only stamps the header; read it back from the
        # manifest (staging writes it before the flat file).
        manifest = json.loads(
            (directory / _MANIFEST).read_text(encoding="utf-8")
        )
        variant = variant_from_spec(manifest["variant"])
        blob = compile_flat_indexes(tree_from_dict(tree_payload), variant)
        path = directory / FLAT_FILE
        tmp = directory / f".{FLAT_FILE}.tmp-{os.getpid()}"
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return path

    def _dir(self, snapshot_id: str) -> Path:
        """The directory of a snapshot id (which need not exist yet).

        Raises :class:`SnapshotError` for any id :func:`snapshot_digest`
        cannot produce, so no id reaches outside the store.
        """
        if not isinstance(snapshot_id, str) or not _SNAPSHOT_ID.fullmatch(
            snapshot_id
        ):
            raise SnapshotError(f"no snapshot {snapshot_id!r} in {self.root}")
        return self.root / snapshot_id

    def flat_paths(self, snapshot_id: str) -> list[Path]:
        """The snapshot's flat file as a list (empty when absent)."""
        path = self._dir(snapshot_id) / FLAT_FILE
        return [path] if path.exists() else []

    def ensure_flat(self, snapshot_id: str) -> Path:
        """The snapshot's flat file, compiling it first when needed.

        ``indexes.flat`` is compiled from ``tree.json`` when it is
        missing or has an older format version, so stores written before
        the current format upgrade on first read. The compile is
        idempotent and the file is published atomically, so concurrent
        workers race harmlessly and readers only ever see whole files.
        Flat files of older layouts under other names are left in place
        and never read.
        """
        from repro.serving.shm import FLAT_FORMAT_VERSION, flat_header

        directory = self._dir(snapshot_id)
        path = directory / FLAT_FILE
        if path.exists() and flat_header(path)[0] >= FLAT_FORMAT_VERSION:
            return path
        if not (directory / _MANIFEST).exists():
            raise SnapshotError(f"no snapshot {snapshot_id!r} in {self.root}")
        tree_payload = json.loads(
            (directory / _TREE).read_text(encoding="utf-8")
        )
        return self._write_flat(directory, tree_payload)

    def activate(self, snapshot_id: str) -> None:
        """Point ``CURRENT`` at an existing snapshot (atomic replace)."""
        if not (self._dir(snapshot_id) / _MANIFEST).exists():
            raise SnapshotError(f"no snapshot {snapshot_id!r} in {self.root}")
        tmp = self.root / f".{_CURRENT}.tmp-{os.getpid()}"
        tmp.write_text(snapshot_id + "\n", encoding="utf-8")
        os.replace(tmp, self.root / _CURRENT)

    # -- reading -----------------------------------------------------------

    def current_id(self) -> str | None:
        """The active snapshot id, or None when nothing was activated."""
        try:
            text = (self.root / _CURRENT).read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return None
        return text or None

    def info(self, snapshot_id: str) -> SnapshotInfo:
        """Read one snapshot's manifest (without the tree payload)."""
        path = self._dir(snapshot_id) / _MANIFEST
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise SnapshotError(
                f"no snapshot {snapshot_id!r} in {self.root}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"corrupt manifest at {path}") from exc
        return SnapshotInfo.from_dict(payload)

    def load(self, snapshot_id: str | None = None) -> LoadedSnapshot:
        """Materialize a snapshot (default: the ``CURRENT`` one)."""
        if snapshot_id is None:
            snapshot_id = self.current_id()
            if snapshot_id is None:
                raise SnapshotError(f"no current snapshot in {self.root}")
        info = self.info(snapshot_id)
        directory = self._dir(snapshot_id)
        tree = tree_from_dict(
            json.loads((directory / _TREE).read_text(encoding="utf-8"))
        )
        instance = instance_from_dict(
            json.loads((directory / _INSTANCE).read_text(encoding="utf-8"))
        )
        return LoadedSnapshot(info=info, tree=tree, instance=instance)

    def list(self) -> list[SnapshotInfo]:
        """Manifests of every snapshot, oldest first (then by id)."""
        infos = [
            self.info(p.name)
            for p in sorted(self.root.iterdir())
            if _SNAPSHOT_ID.fullmatch(p.name) and (p / _MANIFEST).exists()
        ]
        infos.sort(key=lambda i: (i.created_at, i.snapshot_id))
        return infos

    def __iter__(self) -> Iterator[SnapshotInfo]:
        return iter(self.list())

    def __len__(self) -> int:
        return len(self.list())
