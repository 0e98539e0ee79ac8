"""The one loop with no numpy/scipy primitive: dfs_explore, the
exploration's depth-first search, shared by percolation and census.  It
is sequential by nature, since each coin acts on the stack the last coin
left.  Its stack is always a path in the graph, so its epochs are the
components of the accepted subgraph and its push depths describe a
depth-first forest of it: that forest is the census's only input, for
component labels and the long-cycle bound alike.  With every coin heads
over a given sample it builds the same forest the exploration that drew
the sample built.

The kernel lists its accepted vertices in acceptance order.  An epoch
ends with an empty stack before the next root is tried, so each epoch is
a contiguous run of that order, and the caller scatters labels and
depths to vertex-indexed arrays with numpy; the kernel never touches a
per-vertex output.

The interpreter runs it, so it hands every run of work it can to C.
Between epochs it places a whole run of tails coins at once: bytes.find
finds the next heads coin, bytearray.find and count walk the state to
the vertex that coin reaches, skipping runs of touched vertices, and
one slice assignment marks the skipped vertices touched.  Within an
epoch the stack holds iterators over memoryview slices of the rows, so
each vertex resumes its scan where it left it.
"""

from __future__ import annotations

__all__ = ["dfs_explore"]


def dfs_explore(rows, d, coins, state):
    """Stack exploration driven by one coin per first-touched vertex.

    rows: memoryview of the flat (n*d) neighbor table, scanned row by row
    in stored order.  state: bytearray of length n, scratch, nonzero once
    a vertex is touched; a caller keeps vertices out by starting them
    nonzero.  Roots are tried in vertex order.  coins: bytes of 0/1, one
    per vertex that state starts at 0, in the order they are touched.
    Returns (coins_used, acc, accd, starts, estart), the last four lists
    in acceptance order: acc[i] is the i-th accepted vertex and accd[i]
    the stack depth it was pushed at (0 for a root); starts[j] is the coin
    that opened epoch j and estart[j] the offset into acc of its root.
    """
    acc, accd, starts, estart = [], [], [], []
    used = 0
    r = 0  # every vertex below r is touched
    while True:
        heads = coins.find(1, used)
        if heads < 0:  # the coins left are tails, one per untouched vertex
            return used + state.count(0, r), acc, accd, starts, estart
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
        estart.append(len(acc))
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
