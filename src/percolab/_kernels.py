"""The one loop with no numpy/scipy primitive: dfs_explore, the
exploration's depth-first search, shared by percolation and census.  It
is sequential by nature, since each coin acts on the stack the last coin
left; with every coin heads it also builds the DFS forest of a sample,
whose depth gives the census its long-cycle bound.

The kernel is a plain function over preallocated flat arrays: numba
compiles it and passes numpy arrays when it is installed, and otherwise
the interpreter runs it on memoryviews of the same arrays (see _accel).
So the body only indexes, assigns and takes ``len`` of its arrays, and
allocates nothing: the caller passes every output and scratch array.
Keep the signature primitive: flat int32 adjacency, uint8 states and
coins, scalar ints.
"""

from __future__ import annotations

from ._accel import njit

__all__ = ["dfs_explore"]


# state codes used by dfs_explore
T_UNVISITED = 0
U_STACK = 1
S_DONE = 2
W_REJECTED = 3


@njit
def dfs_explore(nbrs, d, order, coins, state, comp, depth, accepted_order, epoch_starts, queries,
                stack, ptr):
    """Stack exploration driven by one coin per first-touched vertex.

    nbrs: flat (n*d) neighbor table, each row sorted by scan priority.
    order: vertex ids in root-selection priority order (may be shorter
    than n); state may start vertices as W_REJECTED to keep them out.
    coins: uint8 coin stream, one entry per touched vertex.
    Outputs written in place, depth[w] = stack depth when w was pushed
    (0 for a root); stack (length n) and ptr (length n, zeros) are
    scratch.  Returns (coins_used, n_epochs, n_accepted).
    """
    n_order = len(order)
    top = -1
    cursor = 0
    coin_i = 0
    n_epochs = 0
    n_acc = 0
    while True:
        if top >= 0:
            v = stack[top]
            base = v * d
            p = ptr[v]
            while p < d and state[nbrs[base + p]] != T_UNVISITED:
                p += 1
            ptr[v] = p
            if p == d:
                top -= 1
                state[v] = S_DONE
            else:
                w = nbrs[base + p]
                heads = coins[coin_i]
                coin_i += 1
                queries[n_epochs - 1] += 1
                if heads:
                    state[w] = U_STACK
                    comp[w] = n_epochs - 1
                    accepted_order[n_acc] = w
                    n_acc += 1
                    top += 1
                    stack[top] = w
                    depth[w] = top
                else:
                    state[w] = W_REJECTED
        else:
            while cursor < n_order and state[order[cursor]] != T_UNVISITED:
                cursor += 1
            if cursor == n_order:
                break
            r = order[cursor]
            heads = coins[coin_i]
            if heads:
                epoch_starts[n_epochs] = coin_i
                n_epochs += 1
                queries[n_epochs - 1] = 1
                state[r] = U_STACK
                comp[r] = n_epochs - 1
                depth[r] = 0
                accepted_order[n_acc] = r
                n_acc += 1
                top = 0
                stack[0] = r
            else:
                state[r] = W_REJECTED
            coin_i += 1
    return coin_i, n_epochs, n_acc
