"""Undirected friendship graph over dense integer user ids.

Adjacency is stored in compressed sparse row form: the neighbours of user
``u`` are ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending, so a
neighbour list is one slice and membership is a binary search. The graph is
immutable once built and is stored once, as the ``indptr`` and ``indices``
arrays of the profile store ``profiles.npz``.
"""

from __future__ import annotations

import numpy as np


class SocialGraph:
    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def degree(self, u: int) -> int:
        if 0 <= u < len(self.indptr) - 1:
            return int(self.indptr[u + 1] - self.indptr[u])
        return 0

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        if 0 <= u < len(self.indptr) - 1:
            return self.indices[self.indptr[u]:self.indptr[u + 1]]
        return self.indices[:0]

    def are_friends(self, u: int, v: int) -> bool:
        """True iff the undirected edge (u, v) exists. Unknown ids are never friends."""
        if u == v or not (0 <= v < len(self.indptr) - 1):
            return False
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and nbrs[i] == v


def build_graph(src, dst, n_nodes: int) -> SocialGraph:
    """Build the friendship graph from friend listings (``src[i]`` lists ``dst[i]``).

    The closure is symmetric: a one-sided listing still yields the edge.
    Self-loops and duplicate listings are dropped. Every id in ``[0, n_nodes)``
    is a node, listed or not; an id outside that range raises ValueError.
    """
    # Integer id arrays keep their width (ingest passes int32): only the keys
    # below are int64, so no widened copy of the listings is made.
    src, dst = (ids if isinstance(ids, np.ndarray) else np.asarray(ids, dtype=np.int64)
                for ids in (src, dst))
    lo = min(src.min(initial=0), dst.min(initial=0))
    hi = max(src.max(initial=-1), dst.max(initial=-1))
    if lo < 0 or hi >= n_nodes:
        raise ValueError(f"user id {lo if lo < 0 else hi} out of range for n_nodes={n_nodes}")
    keep = src != dst
    # One row * n_nodes + col key per direction; sorted keys list each row's
    # neighbours in ascending order, and equal keys are duplicate listings.
    n = int(np.count_nonzero(keep))
    keys = np.empty(2 * n, dtype=np.int64)
    for half, row, col in ((keys[:n], src, dst), (keys[n:], dst, src)):
        half[:] = row[keep]
        half *= n_nodes
        half += col[keep]
    del src, dst, row, col, keep
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1, dtype=np.int64) * n_nodes)
    keys %= n_nodes
    return SocialGraph(indptr.astype(np.int32), keys.astype(np.int32))
