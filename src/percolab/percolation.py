"""Seeded site percolation and the stack exploration process.

The exploration walks the graph with four vertex pools: unvisited,
active stack, completed, and rejected.  While the stack is nonempty the
top vertex queries its unvisited neighbors in priority order and one
coin is flipped for the first hit (heads pushes it, tails rejects it);
a top with no unvisited neighbors is completed.  While the stack is
empty the next unvisited vertex in priority order gets a coin, and a
heads there opens a new epoch.  Every vertex consumes exactly one coin,
so the accepted set is distributed exactly like an independent
Bernoulli(p) vertex sample, and epochs are exactly the connected
components of the induced subgraph on the accepted set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import _kernels
from .graph_core import RegularGraph
from .rng import TAG_COINS, TAG_SAMPLE, make_generator

__all__ = [
    "CoinStream",
    "DfsTrace",
    "PercolationSample",
    "canonicalize_labels",
    "components_oracle",
    "run_dfs",
    "sample_vertices",
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


def sample_vertices(n: int, p: float, seed: int) -> PercolationSample:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"retention probability must be in [0,1], got {p}")
    rng = make_generator(seed, TAG_SAMPLE)
    mask = rng.random(n) < p
    return PercolationSample.from_membership(p, seed, mask)


class CoinStream:
    """Pre-drawn Bernoulli(p) coins; draw i is a pure function of (seed, i)."""

    __slots__ = ("seed", "p", "flips", "consumed")

    def __init__(self, n: int, p: float, seed: int):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"retention probability must be in [0,1], got {p}")
        rng = make_generator(seed, TAG_COINS)
        self.seed = seed
        self.p = p
        self.flips = (rng.random(n) < p).astype(np.uint8)
        self.consumed = 0

    @classmethod
    def from_bits(cls, bits, p: float = 0.5, seed: int = -1) -> "CoinStream":
        """Adversarial/explicit stream for tests and stream checkers."""
        obj = cls.__new__(cls)
        obj.seed = seed
        obj.p = p
        obj.flips = np.ascontiguousarray(bits, dtype=np.uint8)
        obj.consumed = 0
        return obj

    @property
    def n(self) -> int:
        return self.flips.size


@dataclass(frozen=True)
class DfsTrace:
    """What the exploration did: epochs, labels, acceptance order, coins.

    component_of is -1 for rejected vertices; epoch ids count from 0 in
    discovery order.  depth[w] is the stack depth at which w was pushed
    (0 for an epoch root, -1 for rejected vertices): the stack is always
    a path in the graph, so the accepted vertices and their push edges
    form a depth-first forest of the retained induced subgraph, and
    take_census can read its long-cycle bound from this depth.
    queries_per_epoch counts the coins flipped inside each epoch
    (opening coin included); coins that failed to open an epoch belong
    to no epoch, so queries_per_epoch sums to n minus the number of
    rejected epoch-opening coins.
    """

    epoch_starts: np.ndarray
    component_of: np.ndarray
    depth: np.ndarray
    accepted_order: np.ndarray
    queries_per_epoch: np.ndarray
    accepted_count: int
    rejected_count: int
    consumed: int

    @property
    def num_epochs(self) -> int:
        return self.epoch_starts.size

    def accepted_mask(self) -> np.ndarray:
        return self.component_of >= 0

    def epoch_sizes(self) -> np.ndarray:
        if self.num_epochs == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(
            self.component_of[self.component_of >= 0], minlength=self.num_epochs
        )

    def summary(self) -> dict:
        sizes = self.epoch_sizes()
        return {
            "epochs": int(self.num_epochs),
            "accepted": int(self.accepted_count),
            "rejected": int(self.rejected_count),
            "largest_epoch": int(sizes.max()) if sizes.size else 0,
            "coins": int(self.consumed),
        }


def _priority_order(g: RegularGraph, priority):
    """Returns (order, nbrs_flat) with neighbor rows sorted by scan priority."""
    if priority is None:
        return np.arange(g.n, dtype=np.int64), g.neighbors
    order = np.asarray(priority, dtype=np.int64)
    if order.size != g.n or np.any(np.sort(order) != np.arange(g.n)):
        raise ValueError("priority must be a permutation of all vertices")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    rows = g.nbrs2d
    key = rank[rows]
    sorter = np.argsort(key, axis=1, kind="stable")
    sorted_rows = np.take_along_axis(rows, sorter, axis=1)
    return order, np.ascontiguousarray(sorted_rows.ravel())


def run_dfs(g: RegularGraph, stream: CoinStream, priority=None) -> DfsTrace:
    """Run the exploration; consumes exactly g.n coins from a fresh stream."""
    if stream.consumed != 0:
        raise ValueError("coin stream already partially consumed")
    if stream.n != g.n:
        raise ValueError(f"stream has {stream.n} coins, graph needs {g.n}")
    order, nbrs = _priority_order(g, priority)
    n = g.n
    used, comp, depth, accepted_order, epoch_starts, queries = _explore(
        nbrs, g.d, order, stream.flips, np.zeros(n, dtype=np.uint8)
    )
    assert used == n, "exploration must consume exactly one coin per vertex"
    stream.consumed = used
    return DfsTrace(
        epoch_starts=epoch_starts,
        component_of=comp,
        depth=depth,
        accepted_order=accepted_order,
        queries_per_epoch=queries,
        accepted_count=accepted_order.size,
        rejected_count=n - accepted_order.size,
        consumed=used,
    )


def _explore(nbrs, d, order, coins, state):
    """dfs_explore with fresh outputs: (coins_used, comp, depth,
    accepted_order, epoch_starts, queries), the last three trimmed;
    comp and depth are -1 off the forest."""
    n = state.size
    comp = np.full(n, -1, dtype=np.int32)
    depth = np.full(n, -1, dtype=np.int32)
    acc = np.empty(n, dtype=np.int32)
    starts = np.empty(n, dtype=np.int64)
    queries = np.zeros(n, dtype=np.int64)
    used, n_epochs, n_acc = _kernels.dfs_explore(
        nbrs, d, order, coins, state, comp, depth, acc, starts, queries,
        np.empty(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
    )
    return (int(used), comp, depth,
            acc[:n_acc].copy(), starts[:n_epochs].copy(), queries[:n_epochs].copy())


def run_dfs_reference(g: RegularGraph, stream: CoinStream, priority=None) -> DfsTrace:
    """Set-based reimplementation of run_dfs for cross-checking kernels.

    Also asserts the frontier invariant at every epoch boundary: all
    neighbors of completed vertices have been seen (stack or rejected),
    i.e. completed and unvisited vertices never touch.
    """
    order, nbrs = _priority_order(g, priority)
    rows = nbrs.reshape(g.n, g.d)
    n = g.n
    unvisited = set(range(n))
    on_stack: list[int] = []
    done: set[int] = set()
    rejected: set[int] = set()
    comp = np.full(n, -1, dtype=np.int32)
    depth = np.full(n, -1, dtype=np.int32)
    accepted_order: list[int] = []
    epoch_starts: list[int] = []
    queries: list[int] = []
    coin_i = 0
    cursor = 0

    def assert_frontier():
        for u in done:
            for w in rows[u]:
                assert int(w) not in unvisited, "completed vertex touching unvisited"

    while on_stack or unvisited:
        if on_stack:
            v = on_stack[-1]
            hit = None
            for w in rows[v]:
                if int(w) in unvisited:
                    hit = int(w)
                    break
            if hit is None:
                on_stack.pop()
                done.add(v)
                continue
            unvisited.discard(hit)
            heads = bool(stream.flips[coin_i])
            coin_i += 1
            queries[-1] += 1
            if heads:
                comp[hit] = len(epoch_starts) - 1
                accepted_order.append(hit)
                on_stack.append(hit)
                depth[hit] = len(on_stack) - 1
            else:
                rejected.add(hit)
        else:
            assert_frontier()
            while cursor < n and int(order[cursor]) not in unvisited:
                cursor += 1
            if cursor == n:
                break
            r = int(order[cursor])
            unvisited.discard(r)
            heads = bool(stream.flips[coin_i])
            if heads:
                epoch_starts.append(coin_i)
                queries.append(1)
                comp[r] = len(epoch_starts) - 1
                accepted_order.append(r)
                on_stack.append(r)
                depth[r] = len(on_stack) - 1
            else:
                rejected.add(r)
            coin_i += 1
    assert coin_i == n
    stream.consumed = coin_i
    return DfsTrace(
        epoch_starts=np.array(epoch_starts, dtype=np.int64),
        component_of=comp,
        depth=depth,
        accepted_order=np.array(accepted_order, dtype=np.int32),
        queries_per_epoch=np.array(queries, dtype=np.int64),
        accepted_count=len(accepted_order),
        rejected_count=n - len(accepted_order),
        consumed=coin_i,
    )


def _induced_csr(g: RegularGraph, mask: np.ndarray):
    """(kept, adj): kept = flatnonzero(mask), and adj the CSR adjacency of
    the subgraph induced on it in local ids, row i for vertex kept[i],
    each row's columns ascending like the graph's own rows."""
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
    vertices outside the sample.  Independent of run_dfs."""
    labels = np.full(g.n, -1, dtype=np.int64)
    kept, adj = _induced_csr(g, sample.membership)
    _, labels[kept] = connected_components(adj, directed=False)
    return labels


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Replace each component id by the smallest vertex in the component,
    so partitions from different labelings compare with array equality."""
    labels = np.asarray(labels)
    out = np.full(labels.size, -1, dtype=np.int64)
    mask = labels >= 0
    if not mask.any():
        return out
    verts = np.flatnonzero(mask)
    ids = labels[mask]
    k = int(ids.max()) + 1
    rep = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, ids, verts)
    out[mask] = rep[ids]
    return out
