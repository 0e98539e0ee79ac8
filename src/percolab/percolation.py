"""Seeded site percolation and the stack exploration process.

The exploration walks the graph with four vertex pools: unvisited,
active stack, completed, and rejected.  While the stack is nonempty the
top vertex queries its unvisited neighbors in ascending order and one
coin is flipped for the first hit (heads pushes it, tails rejects it);
a top with no unvisited neighbors is completed.  While the stack is
empty the smallest unvisited vertex gets a coin, and a heads there
opens a new epoch.  Every vertex consumes exactly one coin, so the
accepted set is distributed exactly like an independent Bernoulli(p)
vertex sample, and epochs are exactly the connected components of the
induced subgraph on the accepted set.  Each epoch opens at its
component's smallest member, so epoch ids ascend with it.

components_oracle labels the same components with scipy, independently
of the exploration, numbering them by smallest member as the epochs are;
it is the tests' oracle, and no production path calls it.  The tests'
other references (a set-based re-run of the exploration, a direct
Bernoulli vertex sample) live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph_core import RegularGraph
from .rng import TAG_COINS, make_generator

__all__ = [
    "CoinStream",
    "DfsTrace",
    "PercolationSample",
    "components_oracle",
    "require_probability",
    "run_dfs",
]


@dataclass(frozen=True)
class PercolationSample:
    """Outcome of retaining each vertex independently with probability p."""

    p: float
    seed: int
    membership: np.ndarray  # bool, length n
    retained_count: int

    @classmethod
    def from_membership(cls, p: float, seed: int, mask: np.ndarray) -> "PercolationSample":
        mask = np.ascontiguousarray(mask, dtype=bool)
        return cls(p=p, seed=seed, membership=mask, retained_count=int(mask.sum()))


def require_probability(p: float) -> None:
    """Reject a retention probability outside [0, 1], nan included."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"retention probability must be in [0,1], got {p}")


class CoinStream:
    """Pre-drawn read-only Bernoulli(p) coins; draw i is a pure function of (seed, i)."""

    __slots__ = ("flips",)

    def __init__(self, n: int, p: float, seed: int):
        require_probability(p)
        rng = make_generator(seed, TAG_COINS)
        self.flips = (rng.random(n) < p).astype(np.uint8)

    @classmethod
    def from_bits(cls, bits) -> "CoinStream":
        """Explicit 1-D 0/1 (or bool) coins, for tests and stream checkers."""
        flips = np.asarray(bits)
        if flips.ndim != 1:
            raise ValueError(f"coins must be 1-D, got shape {flips.shape}")
        if ((flips != 0) & (flips != 1)).any():
            raise ValueError(f"coins must be 0 or 1, got {np.setdiff1d(flips, (0, 1))}")
        obj = cls.__new__(cls)
        obj.flips = flips.astype(np.uint8)
        return obj

    @property
    def n(self) -> int:
        return self.flips.size


@dataclass(frozen=True)
class DfsTrace:
    """What the exploration did: its epochs and its depth-first forest.

    component_of is -1 for rejected vertices; epoch ids count from 0 in
    discovery order.  depth[w] is the stack depth at which w was pushed
    (0 for an epoch root, -1 for rejected vertices): the stack is always
    a path in the graph, so the accepted vertices and their push edges
    form a depth-first forest of the retained induced subgraph, and
    take_census reads its labels and long-cycle bound from this trace.
    epoch_starts[j] is the index of the coin that opened epoch j.
    """

    epoch_starts: np.ndarray
    component_of: np.ndarray
    depth: np.ndarray
    accepted_count: int

    @property
    def num_epochs(self) -> int:
        return self.epoch_starts.size

    @property
    def consumed(self) -> int:
        return self.component_of.size  # one coin per vertex

    @property
    def rejected_count(self) -> int:
        return self.consumed - self.accepted_count

    def accepted_mask(self) -> np.ndarray:
        return self.component_of >= 0

    def epoch_sizes(self) -> np.ndarray:
        return np.bincount(self.component_of[self.accepted_mask()], minlength=self.num_epochs)

    def summary(self) -> dict:
        sizes = self.epoch_sizes()
        return {
            "epochs": int(self.num_epochs),
            "accepted": int(self.accepted_count),
            "rejected": int(self.rejected_count),
            "largest_epoch": int(sizes.max()) if sizes.size else 0,
            "coins": int(self.consumed),
        }


def run_dfs(g: RegularGraph, stream: CoinStream) -> DfsTrace:
    """Run the exploration; it reads exactly g.n coins, one per vertex."""
    if stream.n != g.n:
        raise ValueError(f"stream has {stream.n} coins, graph needs {g.n}")
    n = g.n
    used, comp, depth, epoch_starts, accepted = _explore(
        g.neighbors, g.d, stream.flips, np.zeros(n, dtype=np.uint8)
    )
    assert used == n, "exploration must consume exactly one coin per vertex"
    return DfsTrace(epoch_starts=epoch_starts, component_of=comp, depth=depth,
                    accepted_count=accepted)


def _explore(nbrs, d, coins, state):
    """dfs_explore on arrays, with fresh outputs: (coins_used, comp, depth,
    epoch_starts, n_accepted); comp and depth are -1 off the forest.
    state (length n) keeps its nonzero vertices out and is not written;
    coins holds one coin per other vertex.  Each epoch is the run of
    acceptance order from its root's offset to the next root's, so comp
    is scattered from the run lengths."""
    n = state.size
    untouched = n - np.count_nonzero(state)
    if coins.size != untouched:  # else the kernel's root search can run past state's end
        raise ValueError(f"{coins.size} coins for {untouched} untouched vertices; need one each")
    used, acc, accd, starts, estart = _kernels.dfs_explore(
        memoryview(nbrs), d, coins.tobytes(), bytearray(state))
    na, ne = len(acc), len(starts)
    acc = np.array(acc, dtype=np.int32)
    comp = np.full(n, -1, dtype=np.int32)
    comp[acc] = np.repeat(np.arange(ne, dtype=np.int32),
                          np.diff(np.array(estart, dtype=np.int64), append=na))
    depth = np.full(n, -1, dtype=np.int32)
    depth[acc] = accd
    return used, comp, depth, np.array(starts, dtype=np.int64), na


def _induced_csr(g: RegularGraph, mask: np.ndarray):
    """(kept, adj): kept = flatnonzero(mask), and adj the CSR adjacency of
    the subgraph induced on it in local ids, row i for vertex kept[i],
    each row's columns ascending like the graph's own rows."""
    from scipy.sparse import csr_matrix  # scipy loads only where it is used

    kept = np.flatnonzero(mask)
    rows = g.nbrs2d[kept]
    hit = mask[rows]
    local = np.empty(g.n, dtype=np.int64)
    local[kept] = np.arange(kept.size)
    indptr = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(hit, axis=1), out=indptr[1:])
    return kept, csr_matrix((np.ones(indptr[-1], dtype=np.int8), local[rows[hit]], indptr),
                            shape=(kept.size, kept.size))


def components_oracle(g: RegularGraph, sample: PercolationSample) -> np.ndarray:
    """Component labels of the retained induced subgraph from scipy's
    connected_components: ids 0..k-1 by smallest member vertex, -1 for
    vertices outside the sample.  Independent of run_dfs: the tests'
    oracle for the exploration's labels."""
    from scipy.sparse.csgraph import connected_components

    labels = np.full(g.n, -1, dtype=np.int64)
    kept, adj = _induced_csr(g, sample.membership)
    _, labels[kept] = connected_components(adj, directed=False)
    return labels
