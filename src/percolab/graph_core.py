"""Immutable d-regular simple graphs and elementary set queries.

The adjacency is stored as ``neighbors``, the flat length-n*d array of
neighbor ids in which row v is ``neighbors[v*d:(v+1)*d]``, sorted
ascending: regularity makes the row offsets implicit.

Vertex ids are dense 0-based integers.  A graph carries no record of
how it was built: a blow-up's blocks are read off its rows (the
pairing-bound check in tests/oracles.py does so).

Set queries take ids in and give masks out: a set is an array of
distinct vertex ids, as the checkers in :mod:`percolab.verify` draw
them, and ``external_neighborhood`` returns a length-n bool mask.  Ids
outside [0, n), and a mask passed in place of ids, are rejected.  ``VertexSet`` (a bool bitmap) remains only
as the reference-set argument of ``check_corollary_2_3``.

Edge-count convention: ``edge_count_between`` counts ordered pairs, so
edges with both endpoints in the intersection of the two sets contribute
twice.  This is the convention under which the mixing-bound checkers in
:mod:`percolab.verify` need no case split for overlapping sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegularGraph",
    "VertexSet",
    "edge_count_between",
    "external_neighborhood",
]


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """A simple d-regular graph on vertices 0..n-1.

    Fields
    ------
    n : int
        Vertex count.
    d : int
        Common degree, >= 1.
    neighbors : np.ndarray
        int32 flat array of length n*d; row i is ``neighbors[i*d:(i+1)*d]``,
        sorted ascending.
    """

    n: int
    d: int
    neighbors: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, d: int, u: np.ndarray, v: np.ndarray) -> "RegularGraph":
        """Build and validate from an undirected edge list: each edge once,
        either way round, in any order.  Row v is v's lower neighbours, in
        the order of one sort of the pairs (hi, lo), then its upper ones, in
        the order of the pairs (lo, hi), sorted only if they are not already."""
        if n <= 0:
            raise ValueError("vertex count must be positive")
        if d < 1:
            raise ValueError("degree must be >= 1")
        if n * d % 2 != 0:
            raise ValueError(f"n*d must be even, got n={n} d={d}")
        # generate's int32 edges are read as they are, any others as int64
        u, v = (x if x.dtype == np.int32 else x.astype(np.int64, copy=False)
                for x in map(np.asarray, (u, v)))
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("edge arrays must be equal-length 1-d")
        if u.size != n * d // 2:
            raise ValueError(f"expected {n * d // 2} edges for n={n} d={d}, got {u.size}")
        if np.all(u < v):  # as generate and _upper_edges give them: no copies
            lo, hi = u, v
        else:
            lo, hi = np.minimum(u, v), np.maximum(u, v)
        if u.size and (lo.min() < 0 or hi.max() >= n):
            raise ValueError("vertex id out of range")
        if np.any(lo == hi):
            bad = int(lo[np.argmax(lo == hi)])
            raise ValueError(f"self-loop at vertex {bad}")
        ups = np.bincount(lo, minlength=n)  # a row's upper neighbours fill its last slots
        deg = ups + np.bincount(hi, minlength=n)
        if np.any(deg != d):
            bad = int(np.argmax(deg != d))
            raise ValueError(f"vertex {bad} has degree {int(deg[bad])}, expected {d}")
        keys = _pair_keys(lo, hi)
        if np.any(keys[1:] < keys[:-1]):  # put the edges in (lo, hi) order
            keys.sort()
            lo, hi = keys >> 32, keys & 0xFFFFFFFF
        repeat = keys[1:] == keys[:-1]
        if np.any(repeat):  # the first repeated edge's lo is the least such vertex
            bad = int(lo[np.argmax(repeat)])
            raise ValueError(f"repeated neighbor at vertex {bad}")
        keys = _pair_keys(hi, lo)  # sorted, each row's lower neighbours in order
        keys.sort()
        # row v's mask is row d - ups[v] of the table of all d + 1 masks
        is_upper = (np.arange(d) >= np.arange(d + 1)[:, None]).take(d - ups, axis=0)
        rows = np.empty((n, d), dtype=np.int32)
        rows[is_upper] = hi
        rows[~is_upper] = np.bitwise_and(keys, 0xFFFFFFFF, out=keys)
        return cls(n=n, d=d, neighbors=rows.ravel())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nbrs2d(self) -> np.ndarray:
        """Adjacency viewed as an (n, d) array; row i = sorted neighbors of i."""
        return self.neighbors.reshape(self.n, self.d)

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edges (u, v) with u < v, lexicographically sorted."""
        return _upper_edges(self.nbrs2d)

    def structurally_equal(self, other: "RegularGraph") -> bool:
        return (
            self.n == other.n
            and self.d == other.d
            and np.array_equal(self.neighbors, other.neighbors)
        )


def _pair_keys(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The int64 edge keys lo << 32 | hi, which sort as the pairs (lo, hi) do."""
    key = lo.astype(np.int64)
    key <<= 32
    key |= hi
    return key


def _upper_edges(nbrs) -> tuple[np.ndarray, np.ndarray]:
    """Each edge (u, v), u < v, of an (n, d) neighbour table once, as int64;
    lexicographically sorted when its rows are."""
    n, d = nbrs.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), d)
    cols = nbrs.ravel().astype(np.int64, copy=False)
    keep = cols > rows
    return rows[keep], cols[keep]


class VertexSet:
    """Subset of vertices as a bool bitmap; the reference-set argument of
    :func:`percolab.verify.check_corollary_2_3`, which reads every vertex's
    degree into the set off the mask."""

    __slots__ = ("mask",)

    def __init__(self, mask: np.ndarray):
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("mask must be 1-d")
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, ids) -> "VertexSet":
        mask = np.zeros(n, dtype=bool)
        mask[_checked_ids(n, ids)] = True
        return cls(mask)

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mask))


# ----------------------------------------------------------------------
# set queries
# ----------------------------------------------------------------------
def _checked_ids(n: int, ids) -> np.ndarray:
    """``ids`` as an int64 array.  A bool mask and ids outside [0, n) are
    rejected: numpy would read the mask as ids 0 and 1 and wrap a negative
    id, both silently."""
    ids = np.asarray(ids)
    if ids.dtype == bool:
        raise TypeError("set queries take vertex ids, not a bool mask")
    ids = ids.astype(np.int64, copy=False)
    if ids.size:
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= n:
            raise ValueError(f"vertex id {lo if lo < 0 else hi} out of range [0, {n})")
    return ids


def edge_count_between(g: RegularGraph, B, C) -> int:
    """Ordered pairs (u, v) with u in B, v in C, uv an edge; B and C are
    arrays of distinct vertex ids.

    Edges inside B ∩ C are counted twice (once per orientation).
    """
    B, C = _checked_ids(g.n, B), _checked_ids(g.n, C)
    # symmetric, so gather the rows of the smaller side.  take() gathers
    # random ids about 1.5x faster than fancy indexing does
    if C.size < B.size:
        B, C = C, B
    in_c = np.zeros(g.n, dtype=bool)
    in_c[C] = True
    return int(np.count_nonzero(in_c.take(g.nbrs2d.take(B, axis=0))))


def external_neighborhood(g: RegularGraph, S) -> np.ndarray:
    """Length-n bool mask of {v not in S : some u in S has uv an edge},
    for an array S of vertex ids."""
    S = _checked_ids(g.n, S)
    mask = np.zeros(g.n, dtype=bool)
    mask[g.nbrs2d.take(S, axis=0)] = True
    mask[S] = False
    return mask

