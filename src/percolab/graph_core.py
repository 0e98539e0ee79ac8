"""Immutable d-regular simple graphs and elementary set queries.

The adjacency is stored as ``neighbors``, the flat length-n*d array of
neighbor ids in which row v is ``neighbors[v*d:(v+1)*d]``, sorted
ascending: regularity makes the row offsets implicit.  Sorted rows give
a canonical serialization.

Vertex ids are dense 0-based integers.

Edge-count convention: ``edge_count_between`` counts ordered pairs, so
edges with both endpoints in the intersection of the two sets contribute
twice.  This is the convention under which the mixing-bound checkers in
:mod:`percolab.verify` need no case split for overlapping sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphFormatError",
    "RegularityError",
    "RegularGraph",
    "VertexSet",
    "degree_into",
    "edge_count_between",
    "external_neighborhood",
    "read_graph",
    "write_graph",
]

FORMAT_MAGIC = "ndl-graph 1"


class GraphFormatError(ValueError):
    """Malformed graph file; message carries the 1-based line number."""


class RegularityError(ValueError):
    """Adjacency data violates the d-regular simple-graph invariants."""


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
    blowup_factor : int or None
        Set by the blow-up generator; None for every other origin.
    """

    n: int
    d: int
    neighbors: np.ndarray
    blowup_factor: int | None = field(default=None)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        d: int,
        u: np.ndarray,
        v: np.ndarray,
        blowup_factor: int | None = None,
    ) -> "RegularGraph":
        """Build and validate from an undirected edge list (each edge once)."""
        if n <= 0:
            raise RegularityError("vertex count must be positive")
        if d < 1:
            raise RegularityError("degree must be >= 1")
        if n * d % 2 != 0:
            raise RegularityError(f"n*d must be even, got n={n} d={d}")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise RegularityError("edge arrays must be equal-length 1-d")
        if u.size != n * d // 2:
            raise RegularityError(
                f"expected {n * d // 2} edges for n={n} d={d}, got {u.size}"
            )
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise RegularityError("vertex id out of range")
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise RegularityError(f"self-loop at vertex {bad}")

        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        deg = np.bincount(src, minlength=n)
        off_target = np.full(n, d, dtype=np.int64)
        if not np.array_equal(deg, off_target):
            bad = int(np.argmax(deg != d))
            raise RegularityError(
                f"vertex {bad} has degree {int(deg[bad])}, expected {d}"
            )
        # one in-place sort of the int64 key src*n + dst orders the entries
        # by (src, dst), so key % n holds the sorted rows back to back
        key = src
        key *= n
        key += dst
        del dst
        key.sort()
        nbrs = np.remainder(key, n, out=key)
        rows = nbrs.reshape(n, d)
        if d > 1 and np.any(np.diff(rows, axis=1) <= 0):
            bad = int(np.argmax(np.any(np.diff(rows, axis=1) <= 0, axis=1)))
            raise RegularityError(f"repeated neighbor at vertex {bad}")
        return cls(
            n=n,
            d=d,
            neighbors=nbrs.astype(np.int32),
            blowup_factor=blowup_factor,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nbrs2d(self) -> np.ndarray:
        """Adjacency viewed as an (n, d) array; row i = sorted neighbors of i."""
        return self.neighbors.reshape(self.n, self.d)

    def neighbors_of(self, v: int) -> np.ndarray:
        lo = int(v) * self.d
        return self.neighbors[lo : lo + self.d]

    def has_edge(self, u, v):
        """Whether uv is an edge, elementwise over broadcastable id arrays.
        Ids outside [0, n) are adjacent to nothing (they do not wrap)."""
        u = np.asarray(u)
        inside = (u >= 0) & (u < self.n)
        rows = self.nbrs2d[np.where(inside, u, 0)]
        return (rows == np.expand_dims(v, -1)).any(axis=-1) & inside

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edges (u, v) with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.d)
        cols = self.neighbors.astype(np.int64)
        keep = cols > rows
        return rows[keep], cols[keep]

    def structurally_equal(self, other: "RegularGraph") -> bool:
        return (
            self.n == other.n
            and self.d == other.d
            and np.array_equal(self.neighbors, other.neighbors)
        )


class VertexSet:
    """Subset of vertices as a bool bitmap with cached cardinality.

    Single-owner mutable: callers that need to edit the mask should do so
    before handing the set to query functions, then call ``refresh``.
    """

    __slots__ = ("mask", "_count")

    def __init__(self, mask: np.ndarray):
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("mask must be 1-d")
        self.mask = mask
        self._count = int(np.count_nonzero(mask))

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(np.zeros(n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_indices(cls, n: int, ids) -> "VertexSet":
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("vertex id out of range")
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return cls(mask)

    @property
    def n(self) -> int:
        return self.mask.size

    @property
    def cardinality(self) -> int:
        return self._count

    def refresh(self) -> None:
        self._count = int(np.count_nonzero(self.mask))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains(self, v: int) -> bool:
        return bool(self.mask[v])


# ----------------------------------------------------------------------
# set queries
# ----------------------------------------------------------------------
def _check_set(g: RegularGraph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError(f"vertex set over {s.n} vertices used on graph with n={g.n}")


def degree_into(g: RegularGraph, v: int, B: VertexSet) -> int:
    """|N(v) ∩ B|."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex id {v} out of range for n={g.n}")
    _check_set(g, B)
    return int(np.count_nonzero(B.mask[g.neighbors_of(v)]))


def edge_count_between(g: RegularGraph, B: VertexSet, C: VertexSet) -> int:
    """Ordered pairs (u, v) with u in B, v in C, uv an edge.

    Edges inside B ∩ C are counted twice (once per orientation).
    """
    _check_set(g, B)
    _check_set(g, C)
    # symmetric, so gather rows of the smaller side
    if C.cardinality < B.cardinality:
        B, C = C, B
    idx = B.indices()
    if idx.size == 0:
        return 0
    return int(np.count_nonzero(C.mask[g.nbrs2d[idx]]))


def external_neighborhood(g: RegularGraph, S: VertexSet) -> VertexSet:
    """{v not in S : some u in S has uv an edge}."""
    _check_set(g, S)
    idx = S.indices()
    mask = np.zeros(g.n, dtype=bool)
    if idx.size:
        mask[g.nbrs2d[idx].ravel()] = True
        mask &= ~S.mask
    return VertexSet(mask)


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def write_graph(g: RegularGraph, path) -> None:
    """Write the canonical text format (see module docstring of format)."""
    u, v = g.edge_list()
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{FORMAT_MAGIC}\n")
        fh.write(f"{g.n} {g.d}\n")
        fh.write("\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())))
        if u.size:
            fh.write("\n")


def _parse_int_pair(line: str, lineno: int) -> tuple[int, int]:
    parts = line.split(" ")
    if len(parts) != 2:
        raise GraphFormatError(
            f"line {lineno}: expected two space-separated integers, got {line!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: non-integer field in {line!r}") from exc


def read_graph(path) -> RegularGraph:
    """Parse the text format; rejects non-regular or non-simple inputs."""
    with open(path, "r", newline="\n") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != FORMAT_MAGIC:
        raise GraphFormatError(f"line 1: expected header {FORMAT_MAGIC!r}")
    if len(lines) < 2:
        raise GraphFormatError("line 2: missing '<n> <d>' line")
    n, d = _parse_int_pair(lines[1], 2)
    if n <= 0 or d < 1:
        raise GraphFormatError(f"line 2: invalid n={n} d={d}")
    if n * d % 2 != 0:
        raise GraphFormatError(f"line 2: n*d odd for n={n} d={d}")
    m = n * d // 2
    body = lines[2:]
    if len(body) != m:
        raise GraphFormatError(
            f"line {len(lines) + 1}: expected {m} edge lines, found {len(body)}"
        )
    uu = np.empty(m, dtype=np.int64)
    vv = np.empty(m, dtype=np.int64)
    for i, line in enumerate(body):
        a, b = _parse_int_pair(line, i + 3)
        if not a < b:
            raise GraphFormatError(f"line {i + 3}: edge must satisfy u < v, got {line!r}")
        if a < 0 or b >= n:
            raise GraphFormatError(f"line {i + 3}: vertex id out of range (n={n}) in {line!r}")
        uu[i] = a
        vv[i] = b
    return RegularGraph.from_edges(n, d, uu, vv)
