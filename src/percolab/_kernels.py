"""Loops with no numpy/scipy primitive, shared by percolation, census
and verify: the two sequential walks, whose every step depends on the
last (dfs_explore, the one depth-first search, which also gives the
census its long-cycle bound; bfs_grow), and the small-subgraph counters
behind the exact tree counts.

Each kernel is a plain function over preallocated flat arrays: numba
compiles it and passes numpy arrays when it is installed, and otherwise
the interpreter runs it on memoryviews of the same arrays (see _accel).
So a body only indexes, assigns and takes ``len`` of its arrays, and
allocates nothing: the caller passes every output and scratch array.
Keep signatures primitive: flat int32 adjacency, bool masks, scalar ints.
"""

from __future__ import annotations

from ._accel import njit, njit_nested

__all__ = [
    "bfs_grow",
    "dfs_explore",
    "induced_p4_count",
    "induced_star_count",
    "tree_p4_count",
]


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


@njit
def bfs_grow(nbrs, d, allowed, start, target, in_set, queue):
    """Grow a connected set inside ``allowed`` to ``target`` vertices (BFS).

    Returns the achieved size; the set is queue[:size], flagged in in_set.
    """
    qt = 0
    queue[qt] = start
    qt += 1
    in_set[start] = 1
    size = 1
    idx = 0
    while idx < qt and size < target:
        v = queue[idx]
        idx += 1
        base = v * d
        for j in range(d):
            w = nbrs[base + j]
            if allowed[w] and in_set[w] == 0:
                in_set[w] = 1
                queue[qt] = w
                qt += 1
                size += 1
                if size == target:
                    break
    return size


@njit_nested
def _has_edge(nbrs, d, u, v):
    lo = u * d
    hi = lo + d
    while lo < hi:
        mid = (lo + hi) // 2
        x = nbrs[mid]
        if x == v:
            return True
        if x < v:
            lo = mid + 1
        else:
            hi = mid
    return False


@njit
def tree_p4_count(nbrs, d, n):
    """3-edge paths: sum over edges (b<c) of (d-1)^2 - |N(b) ∩ N(c)|."""
    total = 0
    for b in range(n):
        base_b = b * d
        for jb in range(d):
            c = nbrs[base_b + jb]
            if c <= b:
                continue
            codeg = 0
            ib = 0
            ic = 0
            base_c = c * d
            while ib < d and ic < d:
                x = nbrs[base_b + ib]
                y = nbrs[base_c + ic]
                if x == y:
                    codeg += 1
                    ib += 1
                    ic += 1
                elif x < y:
                    ib += 1
                else:
                    ic += 1
            total += (d - 1) * (d - 1) - codeg
    return total


@njit
def induced_p4_count(nbrs, d, n):
    """4-sets {a,b,c,e} whose induced graph is the path a-b-c-e."""
    total = 0
    for b in range(n):
        base_b = b * d
        for jb in range(d):
            c = nbrs[base_b + jb]
            if c <= b:
                continue
            base_c = c * d
            for ja in range(d):
                a = nbrs[base_b + ja]
                if a == c or _has_edge(nbrs, d, a, c):
                    continue
                for je in range(d):
                    e = nbrs[base_c + je]
                    if e == b or e == a:
                        continue
                    if _has_edge(nbrs, d, e, b) or _has_edge(nbrs, d, e, a):
                        continue
                    total += 1
    return total


@njit
def induced_star_count(nbrs, d, n):
    """4-sets inducing a claw: center v plus 3 pairwise non-adjacent neighbors."""
    total = 0
    for v in range(n):
        base = v * d
        for i in range(d):
            a = nbrs[base + i]
            for j in range(i + 1, d):
                b = nbrs[base + j]
                if _has_edge(nbrs, d, a, b):
                    continue
                for k in range(j + 1, d):
                    c = nbrs[base + k]
                    if _has_edge(nbrs, d, a, c) or _has_edge(nbrs, d, b, c):
                        continue
                    total += 1
    return total
