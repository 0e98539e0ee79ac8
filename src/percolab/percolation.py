"""Seeded site percolation and the stack exploration process.

The exploration keeps one byte per vertex, touched or not, and a stack
of accepted vertices.  While the stack is nonempty the top vertex scans
its neighbors in ascending order and one coin is flipped for the first
untouched hit (heads pushes it, tails rejects it; either way it is
touched); a top with no untouched neighbors is popped.  While the stack
is empty the smallest untouched vertex gets a coin, and a heads there
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
    used, comp, depth, epoch_starts, accepted = _explore(g, stream.flips)
    assert used == g.n, "exploration must consume exactly one coin per vertex"
    return DfsTrace(epoch_starts=epoch_starts, component_of=comp, depth=depth,
                    accepted_count=accepted)


def _explore(g: RegularGraph, coins: np.ndarray, keep_out: np.ndarray | None = None):
    """The exploration's depth-first walk, for run_dfs and the census.

    keep_out (bool, length n, not written) marks vertices the walk never
    touches; coins holds one 0/1 coin per other vertex, read in the order
    the walk touches them, roots tried in vertex order.  Returns
    (coins_used, comp, depth, epoch_starts, n_accepted): comp[w] is w's
    epoch and depth[w] the stack depth it was pushed at (0 for a root),
    both -1 off the forest; epoch_starts[j] is the coin that opened epoch
    j.  The stack is always a path in g, so the epochs are the components
    of the accepted subgraph and the push edges a depth-first forest of
    it; with every coin heads over a sample the walk rebuilds the forest
    of the exploration that drew it.

    Each coin acts on the stack the last one left, so the interpreter
    walks it, handing every run of work it can to C.  Accepted vertices
    and their depths are listed in acceptance order, where each epoch is
    the run that its depth-0 root opens, and numpy scatters them at the
    end.  Between epochs a whole run of tails is placed at once:
    bytes.find finds the next heads coin, bytearray.find and count walk
    the state to the vertex it reaches, skipping touched runs, and one
    slice assignment marks the skipped vertices touched.  Within an epoch
    the stack holds iterators over memoryview slices of the rows, so each
    vertex resumes its scan where it left it.
    """
    n, d = g.n, g.d
    state = bytearray(n if keep_out is None else np.asarray(keep_out, dtype=bool).tobytes())
    if coins.size != (untouched := state.count(0)):  # else the root search runs past state's end
        raise ValueError(f"{coins.size} coins for {untouched} untouched vertices; need one each")
    rows = memoryview(g.neighbors)
    coins = coins.tobytes()
    acc, accd, starts = [], [], []
    used = 0
    r = 0  # every vertex below r is touched
    while True:
        heads = coins.find(1, used)
        if heads < 0:  # the coins left are tails, one per untouched vertex
            used += state.count(0, r)
            break
        # the heads - used tails before it reject as many untouched
        # vertices as roots; the next untouched vertex is the root
        need = heads - used
        s = r
        while need:
            s = state.find(0, s)
            s, need = s + need, need - state.count(0, s, s + need)
        root = state.find(0, s)
        if heads > used:
            state[r:root] = b"\1" * (root - r)
        starts.append(heads)
        used = heads + 1
        r = root + 1
        state[root] = 1
        acc.append(root)
        accd.append(0)
        # the top of the stack resumes `it`; below holds the iterators of
        # the vertices under it, top is its depth
        it = iter(rows[root * d:root * d + d])
        below = []
        top = 0
        while True:
            for w in it:
                if state[w]:
                    continue
                state[w] = 1
                if coins[used]:
                    used += 1
                    top += 1
                    acc.append(w)
                    accd.append(top)
                    below.append(it)
                    it = iter(rows[w * d:w * d + d])
                    break
                used += 1
            else:
                if not top:
                    break
                top -= 1
                it = below.pop()
    acc, accd = np.array(acc, dtype=np.int32), np.array(accd, dtype=np.int32)
    comp = np.full(n, -1, dtype=np.int32)
    comp[acc] = np.cumsum(accd == 0) - 1  # each root opens the next epoch
    depth = np.full(n, -1, dtype=np.int32)
    depth[acc] = accd
    return used, comp, depth, np.array(starts, dtype=np.int64), acc.size


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
