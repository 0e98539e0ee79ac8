"""The one loop with no numpy/scipy primitive: dfs_explore, the
exploration's depth-first search, shared by percolation and census.  It
is sequential by nature, since each coin acts on the stack the last coin
left.  Its stack is always a path in the graph, so its epochs are the
components of the accepted subgraph and its push depths describe a
depth-first forest of it: that forest is the census's only input, for
component labels and the long-cycle bound alike.  With every coin heads
over a given sample it builds the same forest the exploration that drew
the sample built.

The kernel writes its accepted vertices in acceptance order.  An epoch
ends with an empty stack before the next root is tried, so each epoch is
a contiguous run of that order, and the caller scatters labels and
depths to vertex-indexed arrays with numpy; the kernel never touches a
per-vertex output.

The kernel is a plain function over preallocated flat arrays: numba
compiles it and passes numpy arrays when it is installed, and otherwise
the interpreter runs it on bytearrays and memoryviews of the same
arrays (see _accel).  So the body only indexes, assigns and takes
``len`` of its arrays, and allocates nothing: the caller passes every
output and scratch array.  Keep the signature primitive: flat int32
adjacency, uint8 states and coins, scalar ints.
"""

from __future__ import annotations

from ._accel import njit

__all__ = ["dfs_explore"]


# state codes used by dfs_explore; only T_UNVISITED is falsy
T_UNVISITED = 0
U_STACK = 1
S_DONE = 2
W_REJECTED = 3


@njit
def dfs_explore(nbrs, d, coins, state, acc, accd, starts, estart, stack, ptr):
    """Stack exploration driven by one coin per first-touched vertex.

    nbrs: flat (n*d) neighbor table, scanned row by row in stored order.
    Roots are tried in vertex order; state (length n) may start vertices
    as W_REJECTED to keep them out.  coins: uint8 coin stream, one entry
    per touched vertex.  Outputs, in acceptance order: acc[i] = the i-th
    accepted vertex and accd[i] = the stack depth it was pushed at (0 for
    a root); starts[j] = the coin that opened epoch j and estart[j] = the
    offset into acc of its root.  Each has room for one entry per coin.
    stack (one entry per coin) and ptr (length n) are scratch: ptr[v] is
    v's scan cursor into nbrs while v sits below the top of the stack.
    Returns (coins_used, n_epochs, n_accepted).
    """
    n = len(state)
    coin_i = 0
    ne = 0
    na = 0
    for r in range(n):
        if state[r]:
            continue
        if not coins[coin_i]:
            state[r] = W_REJECTED
            coin_i += 1
            continue
        starts[ne] = coin_i
        estart[ne] = na
        ne += 1
        coin_i += 1
        state[r] = U_STACK
        acc[na] = r
        accd[na] = 0
        na += 1
        # the top of the stack is v, scanning nbrs[p:end]
        top = 0
        stack[0] = r
        v = r
        p = r * d
        end = p + d
        while True:
            if p < end:
                w = nbrs[p]
                if state[w]:
                    p += 1
                    continue
                heads = coins[coin_i]
                coin_i += 1
                if heads:
                    state[w] = U_STACK
                    ptr[v] = p + 1
                    top += 1
                    stack[top] = w
                    acc[na] = w
                    accd[na] = top
                    na += 1
                    v = w
                    p = w * d
                    end = p + d
                else:
                    state[w] = W_REJECTED
                    p += 1
            else:
                state[v] = S_DONE
                if top == 0:
                    break
                top -= 1
                v = stack[top]
                p = ptr[v]
                end = v * d + d
    return coin_i, ne, na
