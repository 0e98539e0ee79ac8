"""Reference implementations the tests compare the library against.

None of these runs in a sweep, the CLI or the benchmark; each is an
independent route to a number or a structure the library computes
another way, or a witness the tests validate.

Counting routes are deliberately redundant: closed forms for trees on
up to 4 vertices, and an exhaustive connected-set enumeration with a
matrix-tree determinant that works on any graph small enough to hold in
machine words.  Tests compare the two.  The closed forms are numpy
array algebra over the neighbour table, about n*d**4/2 bytes at once:
test-support counts, which no caller takes at benchmark sizes.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from percolab.generators import GenSpecError
from percolab.graph_core import RegularGraph, external_neighborhood
from percolab.percolation import CoinStream, DfsTrace, PercolationSample
from percolab.rng import make_generator
from percolab.theory import _check_eps, _log_term_edge_mass
from percolab.verify import ViolationReport

TAG_SAMPLE = "vertex_sample"


def cycle_graph(n: int) -> RegularGraph:
    if n < 3:
        raise GenSpecError("cycle needs n >= 3")
    verts = np.arange(n, dtype=np.int64)
    return RegularGraph.from_edges(n, 2, verts, (verts + 1) % n)


def petersen_graph() -> RegularGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    edges = outer + inner + spokes
    u = np.array([min(e) for e in edges], dtype=np.int64)
    v = np.array([max(e) for e in edges], dtype=np.int64)
    return RegularGraph.from_edges(10, 3, u, v)


def sample_vertices(n: int, p: float, seed: int) -> PercolationSample:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"retention probability must be in [0,1], got {p}")
    rng = make_generator(seed, TAG_SAMPLE)
    mask = rng.random(n) < p
    return PercolationSample.from_membership(p, seed, mask)


# ---------------------------------------------------------------------------
# exploration and cycles

def run_dfs_reference(g: RegularGraph, stream: CoinStream) -> DfsTrace:
    """Set-based reimplementation of run_dfs for cross-checking kernels.

    Also asserts the frontier invariant at every epoch boundary: all
    neighbors of completed vertices have been seen (stack or rejected),
    i.e. completed and unvisited vertices never touch.
    """
    rows = g.nbrs2d
    n = g.n
    unvisited = set(range(n))
    on_stack: list[int] = []
    done: set[int] = set()
    comp = np.full(n, -1, dtype=np.int32)
    depth = np.full(n, -1, dtype=np.int32)
    accepted = 0
    epoch_starts: list[int] = []
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
            if heads:
                comp[hit] = len(epoch_starts) - 1
                accepted += 1
                on_stack.append(hit)
                depth[hit] = len(on_stack) - 1
        else:
            assert_frontier()
            while cursor < n and cursor not in unvisited:
                cursor += 1
            if cursor == n:
                break
            r = cursor
            unvisited.discard(r)
            heads = bool(stream.flips[coin_i])
            if heads:
                epoch_starts.append(coin_i)
                comp[r] = len(epoch_starts) - 1
                accepted += 1
                on_stack.append(r)
                depth[r] = len(on_stack) - 1
            coin_i += 1
    assert coin_i == n
    return DfsTrace(epoch_starts=np.array(epoch_starts, dtype=np.int64), component_of=comp,
                    depth=depth, accepted_count=accepted)


def has_edge(g: RegularGraph, u, v):
    """Whether uv is an edge of g, elementwise over broadcastable id arrays.
    Ids outside [0, n) are adjacent to nothing (they do not wrap)."""
    u = np.asarray(u)
    inside = (u >= 0) & (u < g.n)
    rows = g.nbrs2d[np.where(inside, u, 0)]
    return (rows == np.expand_dims(v, -1)).any(axis=-1) & inside


def validate_cycle(g: RegularGraph, cycle, sample: PercolationSample | None = None) -> bool:
    if cycle is None or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    c = np.asarray(cycle, dtype=np.int64)
    # has_edge is False for ids outside [0, n), so they never index the sample
    if not has_edge(g, c, np.roll(c, -1)).all():
        return False
    return sample is None or bool(sample.membership[c].all())


# ---------------------------------------------------------------------------
# exact small-subgraph counts

_BRUTE_VERTEX_LIMIT = 64


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
    local = has_edge(g, rows[:, :, None], rows[:, None, :])
    f = (~local & ~np.eye(g.d, dtype=bool)).astype(np.int64)
    return int(local.sum()) // 6, int(((f @ f) * f).sum()) // 6


def _induced_p4s(g: RegularGraph) -> int:
    """4-sets inducing the path a-b-c-e, counted once at the middle edge
    b < c: a in N(b) with a != c and a !~ c, e in N(c) with e != b and
    e !~ b, and a !~ e (which also rules out a == e).  One (m, d, d)
    boolean product, built from about n*d**4/2 bytes."""
    b, c = g.edge_list()
    ends_a, ends_e = g.nbrs2d[b], g.nbrs2d[c]
    ok_a = (ends_a != c[:, None]) & ~has_edge(g, ends_a, c[:, None])
    ok_e = (ends_e != b[:, None]) & ~has_edge(g, ends_e, b[:, None])
    joined = has_edge(g, ends_a[:, :, None], ends_e[:, None, :])
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


# ---------------------------------------------------------------------------
# tree-mass series, the sums behind the closed-form roots

def _log_term_tree_mass(k: int, epsilon: float) -> float:
    # k^{k-1}/k! * (1+eps)^{k-1} * e^{-(1+eps)k}
    le = math.log1p(epsilon)
    return (k - 1) * math.log(k) - math.lgamma(k + 1) \
        + (k - 1) * le - (1.0 + epsilon) * k


def _sum_series(epsilon: float, tol: float, log_term, prefactor) -> float:
    """Log-domain summation; successive term ratios are eventually below
    1 - eps^2/3, so stopping once a term drops under tol*eps^2/3 keeps
    the discarded tail below tol."""
    _check_eps(epsilon)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    cutoff = tol * epsilon * epsilon / 3.0
    total = 0.0
    k = 1
    while True:
        pre = prefactor(k)
        term = pre * math.exp(log_term(k, epsilon)) if pre else 0.0
        total += term
        if k > 2 and term < cutoff:
            return total
        if k > 10_000_000:
            raise RuntimeError("series failed to converge")
        k += 1


def series_tree_mass(epsilon: float, tol: float = 1e-12) -> float:
    """sum_k k^{k-1}/k! (1+eps)^{k-1} e^{-(1+eps)k}; equals y/(1+eps)."""
    return _sum_series(epsilon, tol, _log_term_tree_mass, lambda k: 1.0)


def series_tree_edge_mass(epsilon: float, tol: float = 1e-12) -> float:
    """sum_k (k-1) k^{k-2}/k! ((1+eps)e^{-(1+eps)})^k; equals y^2/2."""
    return _sum_series(epsilon, tol, _log_term_edge_mass, lambda k: float(k - 1))


# ---------------------------------------------------------------------------
# expansion witnesses on structured graphs

def check_blowup_pairs(g: RegularGraph, sizes=None) -> ViolationReport:
    """On a factor-2 blow-up, any union of complete pairs S has
    |N_G(S)| <= |S| d / 2: both pair members share one neighborhood.
    Deterministic; shows why sublinear sets admit no general lower bound.
    The pairs are the vertices 2b and 2b+1, so g must have n even and
    equal neighbour rows within each pair."""
    if g.n % 2 or not np.array_equal(g.nbrs2d[0::2], g.nbrs2d[1::2]):
        raise ValueError("pairing bound needs a blow-up graph with factor 2")
    n, d = g.n, g.d
    n_blocks = n // 2
    if sizes is None:
        sizes = sorted({2, max(2, (n // (3 * d)) // 2 * 2), n_blocks // 2 * 2})
        sizes = [s for s in sizes if s >= 2]
    out = ViolationReport("blowup_pairs", len(sizes), meta={"sizes": list(sizes)})
    for s in sizes:
        if s % 2 or s > n:
            raise ValueError(f"pair-union size must be even and at most n, got {s}")
        members = np.arange(s)  # first s/2 blocks, whole pairs
        ext = int(np.count_nonzero(external_neighborhood(g, members)))
        bound = s * d / 2
        if ext > bound:
            out.add(f"pair union |S|={s}", ext, bound)
    return out


def clique_expansion_demo(g: RegularGraph, alpha: float, m: int | None = None) -> dict:
    """Expected-violation demo on a disjoint-cliques graph: a subset inside
    one clique has external neighborhood at most d+1-m, far below the
    random-graph expansion window.  Excluded from pass/fail aggregation."""
    d = g.d
    if m is None:
        m = d + 1
    if m < 1 or m > d + 1:
        raise ValueError("subset must fit inside one clique")
    members = np.arange(m)  # cliques are contiguous blocks
    ext = int(np.count_nonzero(external_neighborhood(g, members)))
    window_lo = (1.0 - 2.0 * alpha) * g.n * (1.0 - math.exp(-d * m / g.n))
    return {
        "m": m,
        "measured": ext,
        "window_lo": window_lo,
        "below_window": ext < window_lo,
    }
