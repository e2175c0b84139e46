"""The flat snapshot layout: one format, read from a buffer or a mapping.

Every read op is answered from this layout. The in-process backend
compiles a tree into ``bytes`` and reads the buffer; worker processes
(:mod:`repro.serving.supervisor`) ``mmap`` the *same* read-only file
from the snapshot store, so the kernel shares one page-cache copy of the
indexes across every worker — no per-process deserialization, no
per-process heap. Both go through :class:`_FlatFile` and the one reader
class, :class:`~repro.serving.indexes.SnapshotIndexes`.

The layout is a single self-describing binary blob, stored as
``indexes.flat`` in each snapshot directory::

    magic "ROCT" | u32 format_version | u64 header_len
    header JSON  (section table: name -> {offset, count, kind}, plus
                  variant spec, category/item/label counts)
    8-aligned native-endian sections (offsets relative to the 8-aligned
                  end of the header)
    trailer "TROC" | u64 file_size

The trailer is written last and echoes the total size, so a torn or
truncated write is detected structurally before any section is trusted
(the staged ``os.replace`` publish in :class:`~repro.serving.snapshot.
SnapshotStore` means readers should never see one, but crash-injection
tests do).

Sections (read through zero-copy ``memoryview.cast`` views):

===================  =======================================================
``cat_cids``         row -> cid, category pre-order (root first)
``cat_parent``       row -> parent row (-1 for the root)
``cat_depth``        row -> depth
``cat_size``         row -> ``|items|``
``cat_children``     child rows, ``cat_children_off[row] .. [row+1]``
``cat_labels``       utf-8 label blob, ``cat_label_off`` byte offsets
``cid_to_row``       cid -> row (-1 when the cid does not exist)
``cat_tout``         row -> end of its pre-order subtree interval (i32)
``item_keys``        canonical JSON item keys, sorted, ``item_off`` offsets
``item_post_var``    item -> containing category rows, delta varints
                     (``item_post_voff`` byte offsets)
``item_place_var``   item -> minimal category rows, delta varints
                     (``item_place_voff`` byte offsets)
``tok_blob``         sorted label-search tokens (``tok_off`` offsets)
``tok_df``           token -> document frequency
``tok_post``         token -> label doc rows (``tok_post_off``)
===================  =======================================================

Format version 4 carries exactly these sections in one file. Files of
older versions (v1 to v3) are rejected on open with a hint to run
:meth:`SnapshotStore.ensure_flat`, which compiles ``indexes.flat`` from
the snapshot's ``tree.json``. The differential tests in ``tests/``
check every read op against a brute-force walk of the tree
(``tests/oracles.py``).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Sequence

from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.observability import get_tracer
from repro.search.engine import SearchEngine
from repro.serving.snapshot import SnapshotError, variant_spec
from repro.serving.succinct import EulerTour, concat_postings, decode_postings

Item = Hashable

FLAT_MAGIC = b"ROCT"
FLAT_FORMAT_VERSION = 4
_TRAILER_MAGIC = b"TROC"
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header byte length
_TRAILER = struct.Struct("<4sQ")  # trailer magic, total file size

# Section element kinds -> (memoryview cast format, element size).
_KINDS = {"i64": ("q", 8), "u64": ("Q", 8), "u8": ("B", 1), "i32": ("i", 4)}

# Logical section groups: byte accounting for `repro inspect-snapshot`
# and the required-section check on open. Every group is in every file.
SECTION_GROUPS: dict[str, tuple[str, ...]] = {
    "tree": (
        "cat_cids", "cat_parent", "cat_depth", "cat_size",
        "cat_children_off", "cat_children", "cat_label_off", "cat_labels",
        "cid_to_row", "cat_tout",
    ),
    "items": ("item_off", "item_keys"),
    "postings": (
        "item_post_voff", "item_post_var", "item_place_voff",
        "item_place_var",
    ),
    "tokens": ("tok_off", "tok_blob", "tok_df", "tok_post_off", "tok_post"),
}


def _align8(n: int) -> int:
    return (n + 7) & ~7


def encode_item(item: Item) -> bytes | None:
    """The canonical byte key of an item (None when not encodable).

    Canonical JSON is injective over the JSON-representable items the
    snapshot payloads allow, so lookups by key agree with lookups by
    value. Query items that cannot be encoded (arbitrary hashables)
    simply miss, exactly like an unknown item.
    """
    try:
        payload = json.dumps(
            item, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError):
        return None
    return payload.encode("utf-8")


# -- compiler ----------------------------------------------------------------


class _SectionWriter:
    """Accumulates 8-aligned sections and renders the final file bytes."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._table: dict[str, dict] = {}
        self._cursor = 0

    def add(self, name: str, kind: str, payload: bytes, count: int) -> None:
        self._table[name] = {
            "offset": self._cursor, "count": count, "kind": kind
        }
        padded = payload + b"\0" * (_align8(len(payload)) - len(payload))
        self._chunks.append(padded)
        self._cursor += len(padded)

    def add_i64(self, name: str, values: Sequence[int]) -> None:
        self.add(
            name, "i64", struct.pack(f"<{len(values)}q", *values), len(values)
        )

    def add_i32(self, name: str, values: Sequence[int]) -> None:
        self.add(
            name, "i32", struct.pack(f"<{len(values)}i", *values), len(values)
        )

    def add_blob(self, name: str, payload: bytes) -> None:
        self.add(name, "u8", payload, len(payload))

    def render(self, header: dict) -> bytes:
        header = dict(header)
        header["sections"] = self._table
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        prefix = _PREFIX.pack(FLAT_MAGIC, FLAT_FORMAT_VERSION, len(header_bytes))
        data_start = _align8(len(prefix) + len(header_bytes))
        pad = b"\0" * (data_start - len(prefix) - len(header_bytes))
        body = b"".join([prefix, header_bytes, pad, *self._chunks])
        return body + _TRAILER.pack(
            _TRAILER_MAGIC, len(body) + _TRAILER.size
        )


def _offsets(lengths: Sequence[int]) -> list[int]:
    """Prefix-sum offsets array: ``len(lengths) + 1`` entries from 0."""
    out = [0]
    for n in lengths:
        out.append(out[-1] + n)
    return out


def compile_flat_indexes(tree: CategoryTree, variant: Variant) -> bytes:
    """Compile a tree into one flat snapshot blob.

    Item postings are every category containing the item (pre-order);
    placements are the *minimal* (most-specific) ones, i.e. the item's
    branch placements. The variant only stamps the header: it is the
    default scoring variant of ``best_category``.
    """
    tracer = get_tracer()
    with tracer.span("serving.compile_flat"):
        cats = list(tree.categories())  # pre-order, root first
        cids = [cat.cid for cat in cats]
        if any(cid < 0 for cid in cids):
            raise SnapshotError("flat snapshot layout requires cids >= 0")
        row_of = {cid: row for row, cid in enumerate(cids)}
        n_cats = len(cids)
        max_cid = max(cids)
        parents = [
            row_of[cat.parent.cid] if cat.parent is not None else -1
            for cat in cats
        ]
        tout = EulerTour.build(parents).tout

        labels = [(cat.label or "").encode("utf-8") for cat in cats]
        cid_to_row = [-1] * (max_cid + 1)
        for row, cid in enumerate(cids):
            cid_to_row[cid] = row
        children = [
            [row_of[child.cid] for child in cat.children] for cat in cats
        ]

        # Label search: the same SearchEngine the offline search uses, so
        # tokenization and document frequencies agree. Sorted token order
        # makes the per-token binary search possible; posting order within
        # a token does not affect scores.
        engine = SearchEngine()
        for cat in cats:
            if cat.label:
                engine.add_document(cat.cid, cat.label)
        tok_index = engine.index
        tokens = sorted(tok_index.postings)
        tok_blobs = [t.encode("utf-8") for t in tokens]
        tok_posts = [
            sorted(row_of[doc_id] for doc_id in tok_index.postings[t])
            for t in tokens
        ]

        # Item -> containing rows and item -> minimal rows, both strictly
        # increasing because rows are visited in pre-order.
        postings: dict[Item, list[int]] = {}
        placements: dict[Item, list[int]] = {}
        for row, cat in enumerate(cats):
            covered: set[Item] = set()
            for child in cat.children:
                covered |= child.items
            for item in cat.items:
                postings.setdefault(item, []).append(row)
                if item not in covered:
                    placements.setdefault(item, []).append(row)

        # Items sorted by canonical key, for the binary search on lookup.
        entries: list[tuple[bytes, Item]] = []
        for item in postings:
            key = encode_item(item)
            if key is None:
                raise SnapshotError(
                    "flat snapshot layout requires JSON-representable "
                    f"items, got {type(item).__name__}: {item!r}"
                )
            entries.append((key, item))
        entries.sort(key=lambda kv: kv[0])
        keys = [key for key, _ in entries]
        post_blob, post_voff = concat_postings(
            [postings[item] for _, item in entries]
        )
        place_blob, place_voff = concat_postings(
            [placements.get(item, ()) for _, item in entries]
        )

        writer = _SectionWriter()
        writer.add_i64("cat_cids", cids)
        writer.add_i64("cat_parent", parents)
        writer.add_i64("cat_depth", [cat.depth for cat in cats])
        writer.add_i64("cat_size", [len(cat.items) for cat in cats])
        writer.add_i64("cat_children_off", _offsets(map(len, children)))
        writer.add_i64(
            "cat_children", [row for per in children for row in per]
        )
        writer.add_i64("cat_label_off", _offsets(map(len, labels)))
        writer.add_blob("cat_labels", b"".join(labels))
        writer.add_i64("cid_to_row", cid_to_row)
        writer.add_i32("cat_tout", tout)
        writer.add_i64("item_off", _offsets(map(len, keys)))
        writer.add_blob("item_keys", b"".join(keys))
        writer.add_i32("item_post_voff", post_voff)
        writer.add_blob("item_post_var", post_blob)
        writer.add_i32("item_place_voff", place_voff)
        writer.add_blob("item_place_var", place_blob)
        writer.add_i64("tok_off", _offsets(map(len, tok_blobs)))
        writer.add_blob("tok_blob", b"".join(tok_blobs))
        writer.add_i64("tok_df", [len(tok_index.postings[t]) for t in tokens])
        writer.add_i64("tok_post_off", _offsets(map(len, tok_posts)))
        writer.add_i64("tok_post", [r for per in tok_posts for r in per])

        blob = writer.render(
            {
                "format": "repro-flat-snapshot",
                "byteorder": sys.byteorder,
                "variant": variant_spec(variant),
                "root_cid": tree.root.cid,
                "n_categories": n_cats,
                "max_cid": max_cid,
                "universe_size": len(postings),
                "n_label_docs": len(tok_index.doc_lengths),
            }
        )
        tracer.count("serving.flat_bytes", len(blob))
    return blob


# -- reader ------------------------------------------------------------------


def _read_header(
    path: str | Path, size: int, read: Callable[[int, int], bytes]
) -> tuple[int, dict, int]:
    """Parse a flat file's prefix and header JSON, whatever its version.

    ``read(lo, hi)`` returns bytes ``lo:hi`` of a file of ``size``
    bytes. Returns ``(format_version, header, data_start)``, where the
    sections begin at ``data_start``. Nothing after the header is read.
    """
    if size < _PREFIX.size + _TRAILER.size:
        raise SnapshotError(
            f"flat snapshot {path} is truncated "
            f"({size} bytes is smaller than any valid file)"
        )
    magic, version, header_len = _PREFIX.unpack(read(0, _PREFIX.size))
    if magic != FLAT_MAGIC:
        raise SnapshotError(
            f"{path} is not a flat snapshot "
            f"(bad magic {magic!r}, expected {FLAT_MAGIC!r})"
        )
    header_end = _PREFIX.size + header_len
    if header_end > size - _TRAILER.size:
        raise SnapshotError(f"flat snapshot {path} header overruns the file")
    try:
        header = json.loads(read(_PREFIX.size, header_end))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise SnapshotError(
            f"flat snapshot {path} has a corrupt header"
        ) from exc
    return version, header, _align8(header_end)


def flat_header(path: str | Path) -> tuple[int, dict]:
    """``(format_version, header dict)`` of a flat file, without mapping.

    Reads only the prefix and the header JSON; section payloads and the
    trailer are not touched, so this works on any version — it is how
    :meth:`SnapshotStore.ensure_flat` detects stale files that need a
    recompile.
    """
    with open(path, "rb") as fh:

        def read(lo: int, hi: int) -> bytes:
            fh.seek(lo)
            return fh.read(hi - lo)

        version, header, _ = _read_header(
            path, os.fstat(fh.fileno()).st_size, read
        )
    return version, header


def describe_flat(path: str | Path) -> dict:
    """The section table of one flat file, for ``repro inspect-snapshot``.

    Returns ``{"path", "format_version", "header", "file_bytes",
    "sections": [{"name", "group", "kind", "count", "bytes"}, ...]}``
    with sections in file-offset order. Works on any readable version —
    unknown sections land in group ``"?"``.
    """
    path = Path(path)
    version, header = flat_header(path)
    group_of = {
        name: group
        for group, names in SECTION_GROUPS.items()
        for name in names
    }
    sections = []
    for name, spec in sorted(
        header.get("sections", {}).items(), key=lambda kv: kv[1]["offset"]
    ):
        width = _KINDS.get(spec["kind"], (None, 1))[1]
        sections.append(
            {
                "name": name,
                "group": group_of.get(name, "?"),
                "kind": spec["kind"],
                "count": spec["count"],
                "bytes": spec["count"] * width,
            }
        )
    return {
        "path": str(path),
        "format_version": version,
        "header": {
            k: v for k, v in header.items() if k != "sections"
        },
        "file_bytes": path.stat().st_size,
        "sections": sections,
    }


@dataclass(frozen=True)
class FlatCategory:
    """A lightweight category view resolved from the flat layout."""

    cid: int
    label: str | None
    depth: int
    n_items: int


def _decode_rows(voff, blob, code: int) -> Sequence[int]:
    """Decode one item's varint row list."""
    lo, hi = voff[code], voff[code + 1]
    if hi - lo == 1:
        # One posting with gap < 128 — a single byte holding value + 1
        # (gaps are taken against -1). Placement lists are
        # overwhelmingly singletons, so skip the decoder loop.
        return (blob[lo] - 1,)
    return decode_postings(blob[lo:hi])


class _FlatFile:
    """One flat file: validated header + zero-copy section views.

    ``source`` is either a compiled ``bytes`` buffer (the in-process
    backend) or the path of a flat file, which is mapped read-only.
    """

    def __init__(self, source: str | Path | bytes) -> None:
        self._file = None
        if isinstance(source, bytes):
            self.path: str | Path = "<buffer>"
            data = source
        else:
            self.path = Path(source)
            data = self._map()
        try:
            self.header, data_start = self._validate(data)
            view = memoryview(data)
            self._views: dict[str, memoryview] = {}
            for name, spec in self.header["sections"].items():
                fmt, width = _KINDS[spec["kind"]]
                lo = data_start + spec["offset"]
                hi = lo + spec["count"] * width
                if hi > len(data) - _TRAILER.size:
                    raise SnapshotError(
                        f"flat snapshot {self.path}: section {name!r} "
                        "extends past the end of the file"
                    )
                self._views[name] = view[lo:hi].cast(fmt)
            for names in SECTION_GROUPS.values():
                for name in names:
                    if name not in self._views:
                        raise SnapshotError(
                            f"flat snapshot {self.path} is missing "
                            f"section {name!r}"
                        )
        except Exception:
            self.close()
            raise
        views = self._views
        self.post = (views["item_post_voff"], views["item_post_var"])
        self.place = (views["item_place_voff"], views["item_place_var"])

    def _map(self) -> mmap.mmap:
        self._file = open(self.path, "rb")
        try:
            return mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:  # ValueError: an empty file
            self._file.close()
            raise SnapshotError(
                f"cannot map flat snapshot {self.path}: {exc}"
            ) from exc

    def _validate(self, data) -> tuple[dict, int]:
        """``(header, data_start)`` of a whole, current-version file."""
        size = len(data)
        # The trailer is checked first: a cut can fall inside the header.
        trailer = _TRAILER.pack(_TRAILER_MAGIC, size)
        if bytes(data[-_TRAILER.size:]) != trailer:
            raise SnapshotError(
                f"flat snapshot {self.path} is torn or truncated "
                f"(no trailer recording its {size} bytes)"
            )
        version, header, data_start = _read_header(
            self.path, size, lambda lo, hi: data[lo:hi]
        )
        if version > FLAT_FORMAT_VERSION:
            raise SnapshotError(
                f"flat snapshot format version {version} is newer than "
                f"supported version {FLAT_FORMAT_VERSION}; upgrade repro "
                "to read it"
            )
        if version != FLAT_FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported flat snapshot format version {version!r} "
                f"(supported: {FLAT_FORMAT_VERSION}); recompile it with "
                "SnapshotStore.ensure_flat"
            )
        if header.get("byteorder") != sys.byteorder:
            raise SnapshotError(
                f"flat snapshot {self.path} was written on a "
                f"{header.get('byteorder')}-endian machine; this one is "
                f"{sys.byteorder}-endian"
            )
        return header, data_start

    # -- lookups -------------------------------------------------------------

    @staticmethod
    def _search(offsets, blob, key: bytes) -> int | None:
        """Binary search a sorted offset-delimited blob; index or None."""
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            probe = bytes(blob[offsets[mid]: offsets[mid + 1]])
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                return mid
        return None

    def find_item(self, key: bytes) -> int | None:
        """The item code of a canonical item key, or None."""
        return self._search(
            self._views["item_off"], self._views["item_keys"], key
        )

    def find_token(self, token: str) -> int | None:
        """The index of a label-search token, or None."""
        return self._search(
            self._views["tok_off"], self._views["tok_blob"],
            token.encode("utf-8"),
        )

    def close(self) -> None:
        # Closing the descriptor releases the fd immediately; the mapping
        # itself stays valid for any live views and is reclaimed with
        # them. Idempotent, and a no-op for buffers.
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "_FlatFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _RowMapping:
    """cid-keyed read-only mapping over a per-row i64 section view."""

    __slots__ = ("_flat", "_view")

    def __init__(self, flat: _FlatFile, name: str) -> None:
        self._flat = flat
        self._view = flat._views[name]

    def _row(self, cid: int) -> int:
        cid_to_row = self._flat._views["cid_to_row"]
        if isinstance(cid, int) and 0 <= cid < len(cid_to_row):
            row = cid_to_row[cid]
            if row >= 0:
                return row
        raise KeyError(cid)

    def __getitem__(self, cid: int) -> int:
        return self._view[self._row(cid)]

    def __contains__(self, cid) -> bool:
        try:
            self._row(cid)
        except (KeyError, TypeError):
            return False
        return True

    def __len__(self) -> int:
        return self._flat.header["n_categories"]

    def __iter__(self):
        return iter(self._flat._views["cat_cids"])


class _ParentMapping(_RowMapping):
    """cid -> parent cid (None at the root), resolved through rows."""

    def __getitem__(self, cid: int) -> int | None:
        parent_row = self._view[self._row(cid)]
        if parent_row < 0:
            return None
        return self._flat._views["cat_cids"][parent_row]


class _ChildrenMapping(_RowMapping):
    """cid -> tuple of child cids, in tree (pre-)order."""

    def __init__(self, flat: _FlatFile) -> None:
        super().__init__(flat, "cat_children_off")

    def __getitem__(self, cid: int) -> tuple[int, ...]:
        row = self._row(cid)
        children = self._flat._views["cat_children"]
        cat_cids = self._flat._views["cat_cids"]
        return tuple(
            cat_cids[child_row]
            for child_row in children[self._view[row]: self._view[row + 1]]
        )


def prepare_mmap_generation(store, snapshot_id: str | None = None):
    """Prepare (not publish) a generation over a store's mapped file.

    No tree or instance is deserialized: the flat file is mapped
    read-only (compiled on demand for stores written before the current
    format). :meth:`repro.serving.engine.ServingEngine.swap` publishes
    the result.
    """
    from repro.serving.engine import Generation
    from repro.serving.indexes import SnapshotIndexes

    if snapshot_id is None:
        snapshot_id = store.current_id()
        if snapshot_id is None:
            raise SnapshotError(f"no current snapshot in {store.root}")
    tracer = get_tracer()
    with tracer.span("serving.prepare_mmap"):
        indexes = SnapshotIndexes.open(store.ensure_flat(snapshot_id))
    return Generation(indexes, snapshot_id)
