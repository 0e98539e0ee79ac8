"""Component census of an induced subgraph.

A census reads everything it knows about the components off one
depth-first forest of the sample: the exploration's own (its DfsTrace)
when there is one, otherwise one _explore walk of the sample, which
builds the same forest.  Its trees are the components, and its longest
back edge gives the long-cycle bound.  scipy's connected_components
labels nothing here; it stays the tests' independent oracle.

The exact small-tree counts that the tree predictions are checked
against, and the cycle-witness validator, are test oracles and live in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import RegularGraph
from .percolation import DfsTrace, PercolationSample, _explore

__all__ = [
    "ComponentCensus",
    "longest_cycle_lower_bound",
    "take_census",
]


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

    retained: int
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
    if trace is None:
        all_labels, depth = _sample_forest(g, mask)
    elif np.array_equal(trace.accepted_mask(), mask):
        all_labels, depth = trace.component_of, trace.depth
    else:
        raise ValueError("trace must accept exactly the sample's vertices")
    kept = np.flatnonzero(mask)
    labels = all_labels[kept]
    # each tree's root, its smallest member, is at depth 0, and the labels ascend with it
    roots = np.flatnonzero(depth == 0)
    sizes = np.bincount(labels).astype(np.int64)
    rows = g.nbrs2d[kept]
    hit = mask[rows]
    # each induced edge is seen from both ends
    edges = np.bincount(labels, weights=np.count_nonzero(hit, axis=1)).astype(np.int64) // 2
    order = np.lexsort((roots, -sizes))
    roots, sizes, edges = roots[order], sizes[order], edges[order]

    small_tree = (sizes <= k_max) & (edges == sizes - 1)
    tree_counts = np.bincount(sizes[small_tree], minlength=k_max + 1)
    # stragglers: neither the largest component nor a small tree
    straggler = ~small_tree
    straggler[:1] = False

    cycle_lb, _, _ = _longest_back_edge(g, kept, rows, hit, depth)

    return ComponentCensus(
        retained=sample.retained_count,
        sizes=sizes,
        edges=edges,
        roots=roots,
        tree_counts=tree_counts,
        largest=int(sizes[0]) if sizes.size else 0,
        second_largest=int(sizes[1]) if sizes.size > 1 else 0,
        largest_edges=int(edges[0]) if edges.size else 0,
        retained_edges=int(edges.sum()),
        straggler_vertices=int(sizes[straggler].sum()),
        straggler_edges=int(edges[straggler].sum()),
        cycle_lb=cycle_lb,
        labels=all_labels,
    )


def _sample_forest(g: RegularGraph, mask):
    """(labels, depth) of the DFS forest that _explore builds over the
    sample (roots ascending, every coin heads, the vertices off the
    sample kept out), both -1 off the sample.  It is the forest of the
    exploration that drew the sample, so labels and depth equal its
    component_of and depth."""
    coins = np.ones(np.count_nonzero(mask), dtype=np.uint8)
    return _explore(g, coins, ~mask)[1:3]


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
    the retained subgraph (the forest _explore builds with every coin
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
