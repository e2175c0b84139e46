"""Succinct tree-retrieval structures for the serving read path.

The read path answers ``browse``/``path``/``categorize`` over a tree
laid out the way the tree-retrieval literature suggests
(Belazzougui–Kucherov "Efficient tree-structured categorical
retrieval"), with two structures:

* **Pre-order intervals** — the categories are laid out in pre-order,
  so each row ``v`` owns the half-open row interval ``[v, tout[v])``
  covering exactly its subtree. Ancestor tests become two integer
  comparisons instead of a pointer walk; root paths are parent-array
  walks, O(depth) each.
* **Delta-compressed varint postings** — item→category lists are
  strictly increasing row sequences, so they store as LEB128 varints of
  gaps (~1-2 bytes per posting instead of 8).

:class:`EulerTour` reads its arrays through plain indexing, so the same
code runs over lists and over zero-copy ``memoryview`` casts of a flat
snapshot's sections (:mod:`repro.serving.shm`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

# -- delta-compressed varint postings ----------------------------------------


def encode_postings(values: Iterable[int]) -> bytes:
    """LEB128 varints of the gaps of a strictly increasing sequence.

    The first gap is taken against -1, so any non-negative strictly
    increasing sequence (including one starting at 0) encodes with every
    gap >= 1. Raises ``ValueError`` on a non-increasing input — postings
    are pre-order row lists, which are strictly increasing by
    construction.
    """
    out = bytearray()
    prev = -1
    for value in values:
        gap = value - prev
        if gap <= 0:
            raise ValueError(
                f"postings must be strictly increasing; {value} follows {prev}"
            )
        prev = value
        while gap >= 0x80:
            out.append((gap & 0x7F) | 0x80)
            gap >>= 7
        out.append(gap)
    return bytes(out)


def decode_postings(buf) -> list[int]:
    """Invert :func:`encode_postings` (accepts bytes or a u8 memoryview)."""
    out: list[int] = []
    prev = -1
    gap = 0
    shift = 0
    for byte in buf:
        gap |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            prev += gap
            out.append(prev)
            gap = 0
            shift = 0
    if shift:
        raise ValueError("truncated varint postings")
    return out


def concat_postings(lists: Sequence[Iterable[int]]) -> tuple[bytes, list[int]]:
    """Encode many postings lists into one blob plus byte offsets.

    Returns ``(blob, offsets)`` with ``len(lists) + 1`` offsets;
    list ``i`` decodes from ``blob[offsets[i]:offsets[i + 1]]``.
    """
    chunks = [encode_postings(values) for values in lists]
    offsets = [0]
    for chunk in chunks:
        offsets.append(offsets[-1] + len(chunk))
    return b"".join(chunks), offsets


# -- pre-order intervals -----------------------------------------------------


class EulerTour:
    """Pre-order subtree intervals over one category tree.

    Nodes are pre-order rows (root = 0, ``parent[v] < v``), so a node's
    Euler-tour entry time is its row and only the exit time ``tout``
    needs storing. The arrays may be lists or ``memoryview`` casts of
    mapped sections; only indexing is used.
    """

    __slots__ = ("parent", "tout")

    def __init__(self, parent: Sequence[int], tout: Sequence[int]) -> None:
        self.parent = parent
        self.tout = tout

    @classmethod
    def build(cls, parent: Sequence[int]) -> "EulerTour":
        """Compute ``tout`` from a pre-order parent array.

        ``parent[0]`` must be -1 (the root) and every other node's
        parent must precede it, with each subtree laid out contiguously —
        exactly the layout ``tree.categories()`` guarantees.
        """
        n = len(parent)
        if n == 0:
            raise ValueError("cannot build an EulerTour over zero nodes")
        if parent[0] != -1:
            raise ValueError("row 0 must be the root (parent -1)")
        # Subtree sizes accumulated leaf-to-root; tout = row + size.
        size = [1] * n
        for v in range(n - 1, 0, -1):
            p = parent[v]
            if not 0 <= p < v:
                raise ValueError(
                    f"row {v} has parent {p}; pre-order requires parent < row"
                )
            size[p] += size[v]
        tout = [v + size[v] for v in range(n)]
        for v in range(1, n):
            # parent < row alone is only topological order; the interval
            # trick additionally needs each subtree laid out contiguously,
            # i.e. every row inside its parent's interval.
            if v >= tout[parent[v]]:
                raise ValueError(
                    f"row {v} falls outside its parent's subtree interval; "
                    "the layout is not a contiguous pre-order"
                )
        return cls(list(parent), tout)

    def is_ancestor(self, u: int, v: int) -> bool:
        """Whether ``u`` is an ancestor of ``v`` (inclusive): a range check."""
        return u <= v < self.tout[u]

    def walk_to_root(self, v: int) -> list[int]:
        """Root-to-``v`` row path via the parent array."""
        path = [v]
        p = self.parent[v]
        while p >= 0:
            path.append(p)
            p = self.parent[p]
        path.reverse()
        return path
