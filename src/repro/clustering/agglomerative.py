"""Agglomerative (hierarchical) clustering with Lance–Williams updates.

CCT (paper Section 4) merges the two closest clusters repeatedly,
measuring inter-cluster distance as the average of all pairwise
distances (UPGMA / average linkage); single and complete linkage are
provided for experimentation.

Merges are found with the nearest-neighbor-chain algorithm: follow
nearest-neighbor links until a mutually-nearest pair appears, merge it,
and continue from the remaining chain. All three linkages here are
*reducible*, so a merge never invalidates the chain behind it and every
cluster is visited O(1) amortized times — worst-case O(n²) time on the
dense distance matrix, with no per-step global scan. Merges are
discovered out of height order, so they are stably sorted by height and
relabeled through a union-find into the :class:`Dendrogram` node-id
convention (the same scheme SciPy uses).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.distance import distance_matrix

_LINKAGES = ("average", "single", "complete")


def _lance_williams(
    linkage: str,
    d_ki: np.ndarray,
    d_kj: np.ndarray,
    size_i: int,
    size_j: int,
) -> np.ndarray:
    """Distance from every cluster k to the merge of clusters i and j."""
    if linkage == "average":
        total = size_i + size_j
        return (size_i * d_ki + size_j * d_kj) / total
    if linkage == "single":
        return np.minimum(d_ki, d_kj)
    return np.maximum(d_ki, d_kj)  # complete


def agglomerative_clustering(
    vectors: np.ndarray,
    linkage: str = "average",
    metric: str = "euclidean",
    precomputed: np.ndarray | None = None,
) -> Dendrogram:
    """Cluster row vectors into a dendrogram.

    Pass ``precomputed`` to supply a ready distance matrix (``metric`` is
    then ignored). Ties in the minimum distance break deterministically
    towards the lowest-index candidate, so on the classic equidistant
    chain the left pair merges first and the dendrogram is left-leaning:

    >>> points = np.array([[0.0], [1.0], [2.0]])   # d(0,1) == d(1,2)
    >>> d = agglomerative_clustering(points)
    >>> [(m.left, m.right, m.node_id) for m in d.merges]
    [(0, 1, 3), (2, 3, 4)]
    """
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    if precomputed is not None:
        dist = np.array(precomputed, dtype=np.float64)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("precomputed distance matrix must be square")
    else:
        x = np.asarray(vectors, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        dist = distance_matrix(x, metric)
    n = dist.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero observations")
    if n == 1:
        return Dendrogram(n_leaves=1, merges=[])
    return _cluster_nn_chain(dist, linkage)


def _cluster_nn_chain(dist: np.ndarray, linkage: str) -> Dendrogram:
    """Nearest-neighbor-chain agglomeration over a dense matrix."""
    n = dist.shape[0]
    inf = np.inf
    work = dist.copy()
    np.fill_diagonal(work, inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)

    # Raw merges in chain-discovery order: (rep_a, rep_b, height) where
    # reps are matrix slots; the merged cluster keeps living in rep_b.
    raw: list[tuple[int, int, float]] = []
    chain = np.empty(n, dtype=np.int64)
    chain_len = 0
    next_start = 0  # lowest slot that might still be active

    for _step in range(n - 1):
        if chain_len == 0:
            while not active[next_start]:
                next_start += 1
            chain[0] = next_start
            chain_len = 1
        while True:
            x = int(chain[chain_len - 1])
            # Nearest active neighbor of x, preferring the previous
            # chain element on ties so a tied mutual pair terminates
            # the walk instead of oscillating.
            if chain_len > 1:
                y = int(chain[chain_len - 2])
                d_min = work[x, y]
            else:
                y = -1
                d_min = inf
            row = np.where(active, work[x], inf)
            k = int(row.argmin())
            if row[k] < d_min:
                y, d_min = k, row[k]
            if chain_len > 1 and y == chain[chain_len - 2]:
                break  # x and y are mutually nearest: merge them
            chain[chain_len] = y
            chain_len += 1
        chain_len -= 2
        raw.append((x, y, float(d_min)))

        # Lance–Williams merge of x into y; retire slot x. Reducibility
        # of the three linkages guarantees the surviving chain prefix is
        # still a valid nearest-neighbor chain.
        new_row = _lance_williams(
            linkage, work[y], work[x], int(sizes[y]), int(sizes[x])
        )
        work[y, :] = new_row
        work[:, y] = new_row
        work[y, y] = inf
        active[x] = False
        work[x, :] = inf
        work[:, x] = inf
        sizes[y] += sizes[x]

    # Chain discovery finds merges out of height order; a stable sort by
    # height plus union-find relabeling recovers the bottom-up node-id
    # convention (SciPy's ``label`` step). Stability keeps dependent
    # tied merges in a valid (children-first) order.
    order = sorted(range(len(raw)), key=lambda t: raw[t][2])
    parent = list(range(n))
    node_at = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    merges: list[Merge] = []
    for t, idx in enumerate(order):
        a, b, height = raw[idx]
        ra, rb = find(a), find(b)
        left, right = sorted((node_at[ra], node_at[rb]))
        parent[rb] = ra
        node_at[ra] = n + t
        merges.append(Merge(left=left, right=right, height=height, node_id=n + t))
    return Dendrogram(n_leaves=n, merges=merges)
