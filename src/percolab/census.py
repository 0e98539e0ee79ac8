"""Component census of an induced subgraph, plus exact counts of small
tree subgraphs used to predict how many vertices sit in small components.

A census reads everything it knows about the components off one
depth-first forest of the sample: the exploration's own (its DfsTrace)
when there is one, otherwise one dfs_explore walk of the sample, which
builds the same forest.  Its trees are the components, and its longest
back edge gives the long-cycle bound.  scipy's connected_components
labels nothing here; it stays the tests' independent oracle.

Counting routes are deliberately redundant: closed forms for trees on
up to 4 vertices, and an exhaustive connected-set enumeration with a
matrix-tree determinant that works on any graph small enough to hold in
machine words.  Tests compare the two.  The closed forms are numpy
array algebra over the neighbour table, about n*d**4/2 bytes at once:
test-support counts, which no caller takes at benchmark sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import _kernels
from .graph_core import RegularGraph
from .percolation import DfsTrace, PercolationSample, _explore

__all__ = [
    "ComponentCensus",
    "count_acyclic_connected_ksets",
    "count_trees_bruteforce",
    "longest_cycle_lower_bound",
    "take_census",
    "validate_cycle",
]

_BRUTE_VERTEX_LIMIT = 64


@dataclass(frozen=True)
class ComponentCensus:
    """Per-component statistics of the retained induced subgraph.

    Components are sorted by size descending, ties by smallest member.
    tree_counts[k] is the number of tree components on exactly k
    vertices for k <= k_max (index 0 unused).  Stragglers are retained
    vertices (edges) outside the largest component and outside small
    tree components.  labels are the forest's tree ids, 0..k-1 ascending
    with each component's smallest member (-1 off the sample); the
    largest component is labels == labels[roots[0]].
    """

    n: int
    retained: int
    k_max: int
    sizes: np.ndarray
    edges: np.ndarray
    roots: np.ndarray
    tree_counts: np.ndarray
    largest: int
    second_largest: int
    largest_edges: int
    retained_edges: int
    straggler_vertices: int
    straggler_edges: int
    cycle_lb: int
    labels: np.ndarray

    @property
    def num_components(self) -> int:
        return self.sizes.size

    def tree_count(self, k: int) -> int:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"tree census only covers 1..{self.k_max}, got {k}")
        return int(self.tree_counts[k])

    def small_tree_vertices(self) -> int:
        ks = np.arange(self.k_max + 1, dtype=np.int64)
        return int((ks * self.tree_counts).sum())

    def to_summary(self) -> dict:
        return {
            "retained": int(self.retained),
            "components": int(self.num_components),
            "largest": int(self.largest),
            "second_largest": int(self.second_largest),
            "largest_edges": int(self.largest_edges),
            "retained_edges": int(self.retained_edges),
            "tree_counts": [int(t) for t in self.tree_counts[1:]],
            "straggler_vertices": int(self.straggler_vertices),
            "straggler_edges": int(self.straggler_edges),
            "cycle_lb": int(self.cycle_lb),
        }


def take_census(
    g: RegularGraph, sample: PercolationSample, k_max: int = 4, trace: DfsTrace | None = None
) -> ComponentCensus:
    """Census of the sample's induced subgraph, read off a depth-first
    forest of it: the trees are the components, and the long-cycle bound
    is the forest's longest back edge (see _longest_back_edge).  The
    forest is trace's when given, which must be the exploration that drew
    the sample; otherwise one walk of the sample builds the same one."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    mask = sample.membership
    n = g.n
    if trace is None:
        all_labels, depth = _sample_forest(g, mask)
    elif np.array_equal(trace.accepted_mask(), mask):
        all_labels, depth = trace.component_of, trace.depth
    else:
        raise ValueError("trace must accept exactly the sample's vertices")
    kept = np.flatnonzero(mask)
    labels = all_labels[kept]
    # kept is ascending, so a label's first kept vertex is its smallest member
    _, first = np.unique(labels, return_index=True)
    roots = kept[first]
    sizes = np.bincount(labels).astype(np.int64)
    rows = g.nbrs2d[kept]
    hit = mask[rows]
    # each induced edge is seen from both ends
    edges = np.bincount(labels, weights=np.count_nonzero(hit, axis=1)).astype(np.int64) // 2
    order = np.lexsort((roots, -sizes))
    roots, sizes, edges = roots[order], sizes[order], edges[order]

    tree_counts = np.zeros(k_max + 1, dtype=np.int64)
    tree_mask = (sizes <= k_max) & (edges == sizes - 1)
    if tree_mask.any():
        tree_counts += np.bincount(sizes[tree_mask], minlength=k_max + 1)[: k_max + 1]

    largest = int(sizes[0]) if sizes.size else 0
    second = int(sizes[1]) if sizes.size > 1 else 0
    largest_edges = int(edges[0]) if edges.size else 0
    retained_edges = int(edges.sum())

    # stragglers: drop the largest component, then drop small trees
    if sizes.size:
        rest_sizes, rest_edges = sizes[1:], edges[1:]
        rest_tree = (rest_sizes <= k_max) & (rest_edges == rest_sizes - 1)
        strag_v = int(rest_sizes.sum() - rest_sizes[rest_tree].sum())
        strag_e = int(rest_edges.sum() - rest_edges[rest_tree].sum())
    else:
        strag_v = strag_e = 0

    cycle_lb, _, _ = _longest_back_edge(g, kept, rows, hit, depth)

    return ComponentCensus(
        n=n,
        retained=sample.retained_count,
        k_max=k_max,
        sizes=sizes,
        edges=edges,
        roots=roots,
        tree_counts=tree_counts,
        largest=largest,
        second_largest=second,
        largest_edges=largest_edges,
        retained_edges=retained_edges,
        straggler_vertices=strag_v,
        straggler_edges=strag_e,
        cycle_lb=cycle_lb,
        labels=all_labels,
    )


def _sample_forest(g: RegularGraph, mask):
    """(labels, depth) of the DFS forest that dfs_explore builds over the
    sample (roots ascending, every coin heads, the rest rejected), both
    -1 off the sample.  It is the forest of the exploration that drew
    the sample, so labels and depth equal its component_of and depth."""
    state = np.where(mask, _kernels.T_UNVISITED, _kernels.W_REJECTED).astype(np.uint8)
    coins = np.ones(np.count_nonzero(mask), dtype=np.uint8)
    return _explore(g.neighbors, g.d, coins, state)[1:3]


def _longest_back_edge(g: RegularGraph, kept, rows, hit, depth):
    """Longest back edge of a depth-first forest of the sample, given its
    depth array.  rows = g.nbrs2d[kept] and hit = mask[rows].  An
    undirected DFS has no cross edges, so the back edges are the induced
    edges whose depth gap is 2 or more; each closes a cycle of gap + 1
    vertices.  Returns (length, deep end, high end), length 0 when
    acyclic."""
    gap = np.where(hit, depth[kept][:, None] - depth[rows], 0)
    if not gap.size or gap.max() < 2:
        return 0, -1, -1
    i, j = divmod(int(gap.argmax()), g.d)
    return int(gap[i, j]) + 1, int(kept[i]), int(rows[i, j])


def longest_cycle_lower_bound(g: RegularGraph, sample: PercolationSample, with_witness: bool = False):
    """Longest cycle closed by one back edge of a depth-first forest of
    the retained subgraph (the forest dfs_explore builds with every coin
    heads): a lower bound on the true longest cycle length (0 if the
    subgraph is a forest).  With with_witness=True also returns the
    vertex sequence of a cycle achieving the bound, or None."""
    mask = sample.membership
    kept = np.flatnonzero(mask)
    rows = g.nbrs2d[kept]
    depth = _sample_forest(g, mask)[1]
    best, deep_end, high_end = _longest_back_edge(g, kept, rows, mask[rows], depth)
    if not with_witness:
        return best
    if best == 0:
        return 0, None
    # climb to high_end: a vertex's one neighbour a level up is its parent
    # (no cross edges; depth is -1 off the sample)
    cycle = [deep_end]
    v = deep_end
    while v != high_end:
        row = g.nbrs2d[v]
        v = int(row[depth[row] == depth[v] - 1][0])
        cycle.append(v)
    cycle.reverse()  # ancestor first; the back edge deep_end -> high_end closes it
    return best, cycle


def validate_cycle(g: RegularGraph, cycle, sample: PercolationSample | None = None) -> bool:
    if cycle is None or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    c = np.asarray(cycle, dtype=np.int64)
    # has_edge is False for ids outside [0, n), so they never index the sample
    if not g.has_edge(c, np.roll(c, -1)).all():
        return False
    return sample is None or bool(sample.membership[c].all())


# ---------------------------------------------------------------------------
# exact small-subgraph counts

def _adj_masks(g: RegularGraph) -> list[int]:
    masks = [0] * g.n
    rows = g.nbrs2d
    for v in range(g.n):
        acc = 0
        for w in rows[v]:
            acc |= 1 << int(w)
        masks[v] = acc
    return masks


def _connected_ksets(masks: list[int], k: int):
    """Yields every k-vertex connected induced subgraph exactly once, as a
    bitmask (Wernicke-style extension enumeration)."""
    n = len(masks)
    for v in range(n):
        gt = ~((1 << (v + 1)) - 1)
        sub = 1 << v
        ext = masks[v] & gt
        yield from _extend(masks, sub, ext, masks[v] | sub, gt, k)


def _extend(masks, sub, ext, closure, gt, k):
    if sub.bit_count() == k:
        yield sub
        return
    while ext:
        wbit = ext & -ext
        ext &= ext - 1
        w = wbit.bit_length() - 1
        new_ext = ext | (masks[w] & ~closure & gt)
        yield from _extend(masks, sub | wbit, new_ext, closure | masks[w] | wbit, gt, k)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask &= mask - 1
    return out


def _spanning_tree_count(masks: list[int], vs: list[int]) -> int:
    """Matrix-tree theorem with exact integer arithmetic (Bareiss)."""
    k = len(vs)
    if k == 1:
        return 1
    lap = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if masks[vs[i]] >> vs[j] & 1:
                lap[i][i] += 1
                lap[j][j] += 1
                lap[i][j] -= 1
                lap[j][i] -= 1
    a = [row[: k - 1] for row in lap[: k - 1]]
    m = k - 1
    prev = 1
    for i in range(m - 1):
        if a[i][i] == 0:
            for r in range(i + 1, m):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    for row in a:
                        row[i], row[r] = row[r], row[i]  # symmetric swap keeps det sign
                    break
            else:
                return 0
        for r in range(i + 1, m):
            for c in range(i + 1, m):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return a[m - 1][m - 1]


def _induced_edge_count(masks: list[int], sub: int) -> int:
    total = 0
    for v in _bits(sub):
        total += (masks[v] & sub).bit_count()
    return total // 2


def _brute_tree_count(g: RegularGraph, k: int) -> int:
    masks = _adj_masks(g)
    return sum(_spanning_tree_count(masks, _bits(s)) for s in _connected_ksets(masks, k))


def _brute_acyclic_count(g: RegularGraph, k: int) -> int:
    masks = _adj_masks(g)
    return sum(1 for s in _connected_ksets(masks, k) if _induced_edge_count(masks, s) == k - 1)


def _triangles_and_claws(g: RegularGraph) -> tuple[int, int]:
    """Triangles, and 4-sets inducing a claw (a centre plus 3 pairwise
    non-adjacent neighbours), from local[v, i, j] = whether the i-th and
    j-th neighbours of v are adjacent.  A triangle is seen from 3 corners
    as 2 ordered pairs each; the claws at v are the triangles of the
    complement F of local[v], trace(F^3)/6."""
    rows = g.nbrs2d
    local = g.has_edge(rows[:, :, None], rows[:, None, :])
    f = (~local & ~np.eye(g.d, dtype=bool)).astype(np.int64)
    return int(local.sum()) // 6, int(((f @ f) * f).sum()) // 6


def _induced_p4s(g: RegularGraph) -> int:
    """4-sets inducing the path a-b-c-e, counted once at the middle edge
    b < c: a in N(b) with a != c and a !~ c, e in N(c) with e != b and
    e !~ b, and a !~ e (which also rules out a == e).  One (m, d, d)
    boolean product, built from about n*d**4/2 bytes."""
    b, c = g.edge_list()
    ends_a, ends_e = g.nbrs2d[b], g.nbrs2d[c]
    ok_a = (ends_a != c[:, None]) & ~g.has_edge(ends_a, c[:, None])
    ok_e = (ends_e != b[:, None]) & ~g.has_edge(ends_e, b[:, None])
    joined = g.has_edge(ends_a[:, :, None], ends_e[:, None, :])
    return int((ok_a[:, :, None] & ok_e[:, None, :] & ~joined).sum())


def _closed_tree_count(g: RegularGraph, k: int) -> int:
    n, d = g.n, g.d
    if k == 1:
        return n
    if k == 2:
        return n * d // 2
    if k == 3:
        # every tree on 3 vertices is a path; one per center-plus-neighbor-pair
        return n * comb(d, 2)
    if k == 4:
        # 3-edge paths a-b-c-e: (d-1)^2 per middle edge bc, less a == e, 3 per triangle
        paths = n * d // 2 * (d - 1) ** 2 - 3 * _triangles_and_claws(g)[0]
        return n * comb(d, 3) + paths
    raise ValueError(f"no closed form for trees on {k} vertices")


def _closed_acyclic_count(g: RegularGraph, k: int) -> int:
    n, d = g.n, g.d
    if k == 1:
        return n
    if k == 2:
        return n * d // 2
    if k == 3:
        return n * comb(d, 2) - 3 * _triangles_and_claws(g)[0]
    if k == 4:
        return _induced_p4s(g) + _triangles_and_claws(g)[1]
    raise ValueError(f"no closed form for acyclic sets on {k} vertices")


def count_trees_bruteforce(g: RegularGraph, k: int) -> int:
    """Number of (not necessarily induced) k-vertex tree subgraphs.

    Exhaustive on graphs with at most 64 vertices; closed forms cover
    k <= 4 on larger graphs.  Anything else is out of reach by design.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > g.n:
        return 0
    if g.n <= _BRUTE_VERTEX_LIMIT:
        return _brute_tree_count(g, k)
    if k <= 4:
        return _closed_tree_count(g, k)
    raise ValueError(
        f"exact tree count needs n <= {_BRUTE_VERTEX_LIMIT} or k <= 4 (got n={g.n}, k={k})"
    )


def count_acyclic_connected_ksets(g: RegularGraph, k: int) -> int:
    """Number of k-vertex sets whose induced subgraph is a tree (connected
    and acyclic).  Same reach as count_trees_bruteforce."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > g.n:
        return 0
    if g.n <= _BRUTE_VERTEX_LIMIT:
        return _brute_acyclic_count(g, k)
    if k <= 4:
        return _closed_acyclic_count(g, k)
    raise ValueError(
        f"exact acyclic count needs n <= {_BRUTE_VERTEX_LIMIT} or k <= 4 (got n={g.n}, k={k})"
    )
