"""Checkers for the structural guarantees behind the percolation results.

Deterministic checkers (edge-mixing on explicit sets, degree outliers,
the blow-up pairing bound) evaluate an inequality exactly and must never
report a violation on a conforming graph.  Monte Carlo checkers sample
from quantified-over-all-subsets claims and report violation frequencies;
they are reproducible given (seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .census import ComponentCensus
from .generators import blowup_pair_index
from .graph_core import RegularGraph, VertexSet, edge_count_between, external_neighborhood
from .percolation import CoinStream, PercolationSample, _induced_csr
from .rng import TAG_GROWTH, TAG_PAIRS, TAG_SUBSETS, make_generator
from .spectral import SpectrumReport, delta_of_alpha
from .theory import solve_x

__all__ = [
    "ViolationReport",
    "check_blowup_pairs",
    "check_corollary_2_3",
    "check_giant_expansion",
    "check_lemma_2_4",
    "check_mixing",
    "check_stream_properties",
    "clique_expansion_demo",
    "giant_expansion_window",
]

_MAX_WITNESSES = 200
_FP_SLACK = 1e-9


@dataclass
class ViolationReport:
    checker: str
    instances_checked: int
    violations: list = field(default_factory=list)  # (witness, measured, bound)
    passed: bool = True
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "instances_checked": int(self.instances_checked),
            "violations": [
                {"witness": w, "measured": float(m), "bound": float(b)}
                for (w, m, b) in self.violations
            ],
            "pass": bool(self.passed),
            "meta": self.meta,
        }

    def add(self, witness: str, measured: float, bound: float) -> None:
        if len(self.violations) < _MAX_WITNESSES:
            self.violations.append((witness, float(measured), float(bound)))
        self.passed = False


def _effective_lambda(report: SpectrumReport) -> float:
    # inflate by eigensolver residuals so a certified pass is airtight
    return report.lam + report.residual2 + report.residualN


def check_mixing(g: RegularGraph, report: SpectrumReport, pairs: int, seed: int) -> ViolationReport:
    """Edge-count mixing on random vertex-set pairs:
    |e(B,C) - d|B||C|/n| <= lambda sqrt(|B||C|), ordered-pair edge count."""
    if pairs < 1:  # a check of no instances must not pass
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    rng = make_generator(seed, TAG_PAIRS)
    lam = _effective_lambda(report)
    out = ViolationReport("mixing", pairs, meta={"lambda_eff": lam, "seed": seed})
    n, d = g.n, g.d
    for i in range(pairs):
        nb = int(rng.integers(1, n + 1))
        nc = int(rng.integers(1, n + 1))
        B = VertexSet.from_indices(n, rng.choice(n, size=nb, replace=False))
        C = VertexSet.from_indices(n, rng.choice(n, size=nc, replace=False))
        e = edge_count_between(g, B, C)
        expected = d * nb * nc / n
        bound = lam * math.sqrt(nb * nc) + _FP_SLACK
        if abs(e - expected) > bound:
            out.add(f"pair {i} sizes ({nb},{nc})", abs(e - expected), bound)
    return out


def check_corollary_2_3(g: RegularGraph, report: SpectrumReport, B: VertexSet, alpha: float) -> ViolationReport:
    """Degree-into-B outliers: both the high side (>= (1+a)|B|d/n) and the
    low side (<= (1-a)|B|d/n) hold at most (2/a^2)(lambda/d)^2 n vertices."""
    nb = B.cardinality
    if nb < g.n / 2:
        raise ValueError(f"reference set must hold at least half the vertices, got {nb} < {g.n}/2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lam = _effective_lambda(report)
    base = g.d * nb / g.n
    deg = np.count_nonzero(B.mask[g.nbrs2d], axis=1)  # degree into B, all vertices
    heavy = int((deg >= (1.0 + alpha) * base - _FP_SLACK).sum())
    light = int((deg <= (1.0 - alpha) * base + _FP_SLACK).sum())
    cap = (2.0 / alpha ** 2) * (lam / g.d) ** 2 * g.n + _FP_SLACK
    out = ViolationReport(
        "corollary_2_3", 2,
        meta={"lambda_eff": lam, "alpha": alpha, "B_size": nb, "cap": cap},
    )
    if heavy > cap:
        out.add("high-degree side", heavy, cap)
    if light > cap:
        out.add("low-degree side", light, cap)
    return out


def check_lemma_2_4(
    g: RegularGraph,
    sample: PercolationSample,
    alpha: float,
    subsets: int,
    seed: int,
    report: SpectrumReport | None = None,
) -> ViolationReport:
    """Expansion window for random m-subsets of the retained set,
    alpha*n/d <= m <= n/(3d):  |N_G(S)| inside (1 +/- 2 alpha) n (1 - e^{-dm/n}).

    The admissibility context (alpha window, spectral ratio vs the
    delta(alpha) threshold, p <= 2/d) is recorded in meta, not enforced.
    """
    if subsets < 1:
        raise ValueError(f"subsets must be at least 1, got {subsets}")
    n, d = g.n, g.d
    m_lo = math.ceil(alpha * n / d)
    m_hi = math.floor(n / (3 * d))
    if m_lo < 1 or m_lo > m_hi:
        raise ValueError(f"empty subset-size range [{m_lo}, {m_hi}] for alpha={alpha}")
    retained_idx = np.flatnonzero(sample.membership)
    if retained_idx.size < m_lo:
        raise ValueError(
            f"sample holds {retained_idx.size} vertices, below the smallest subset size {m_lo}"
        )
    m_hi = min(m_hi, retained_idx.size)
    meta = {
        "alpha": alpha,
        "m_range": [m_lo, m_hi],
        "p": sample.p,
        "p_le_2_over_d": sample.p <= 2.0 / d,
        "alpha_window_ok": 2.0 * math.sqrt(d / n) < alpha < 1.0,
        "delta_alpha": delta_of_alpha(alpha),
        "seed": seed,
    }
    if report is not None:
        meta["spectral_ratio"] = report.ratio
        meta["ratio_le_delta"] = report.ratio <= delta_of_alpha(alpha)
    rng = make_generator(seed, TAG_SUBSETS)
    out = ViolationReport("lemma_2_4", subsets, meta=meta)
    for i in range(subsets):
        m = int(rng.integers(m_lo, m_hi + 1))
        members = rng.choice(retained_idx, size=m, replace=False)
        ext = external_neighborhood(g, VertexSet.from_indices(n, members)).cardinality
        target = n * (1.0 - math.exp(-d * m / n))
        hi = (1.0 + 2.0 * alpha) * target
        lo = (1.0 - 2.0 * alpha) * target
        if ext > hi + _FP_SLACK:
            out.add(f"subset {i} m={m} over-expands", ext, hi)
        elif ext < lo - _FP_SLACK:
            out.add(f"subset {i} m={m} under-expands", ext, lo)
    return out


def check_blowup_pairs(g: RegularGraph, sizes=None) -> ViolationReport:
    """On a factor-2 blow-up, any union of complete pairs S has
    |N_G(S)| <= |S| d / 2: both pair members share one neighborhood.
    Deterministic; shows why sublinear sets admit no general lower bound."""
    if g.blowup_factor != 2:
        raise ValueError("pairing bound needs a blow-up graph with factor 2")
    blowup_pair_index(g, 0)  # raises on non-blow-up inputs
    n, d = g.n, g.d
    n_blocks = n // 2
    if sizes is None:
        sizes = sorted({2, max(2, (n // (3 * d)) // 2 * 2), n_blocks // 2 * 2})
        sizes = [s for s in sizes if s >= 2]
    out = ViolationReport("blowup_pairs", len(sizes), meta={"sizes": list(sizes)})
    for s in sizes:
        if s % 2 or s > n:
            raise ValueError(f"pair-union size must be even and at most n, got {s}")
        members = np.arange(s, dtype=np.int64)  # first s/2 blocks, whole pairs
        ext = external_neighborhood(g, VertexSet.from_indices(n, members)).cardinality
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
    members = np.arange(m, dtype=np.int64)  # cliques are contiguous blocks
    ext = external_neighborhood(g, VertexSet.from_indices(g.n, members)).cardinality
    window_lo = (1.0 - 2.0 * alpha) * g.n * (1.0 - math.exp(-d * m / g.n))
    return {
        "m": m,
        "measured": ext,
        "window_lo": window_lo,
        "below_window": ext < window_lo,
    }


def _stream_total_ones(flips: np.ndarray) -> int:
    return int(flips.sum())


def check_stream_properties(
    stream: CoinStream, epsilon: float, d: int, mode: str, c: float = 1.0
) -> ViolationReport:
    """Realized-coin-sequence checks.

    Property 1 (both modes): at most 2n/d heads in total.
    Property 2 (sub): no window of floor(k*d) coins starting at a head
    holds k or more heads, k = (4/eps^2) ln(n/d); trailing windows are
    truncated at the end of the stream.
    Property 3 (super): at every index t (0-based count of preceding
    coins, t=0 included) whose next coin is a head, the running head
    count stays within eps^2*c*n/d of (1+eps)t/d.
    """
    if mode not in ("sub", "super"):
        raise ValueError(f"mode must be 'sub' or 'super', got {mode!r}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    flips = stream.flips
    n = flips.size
    k = (4.0 / epsilon ** 2) * math.log(n / d)
    out = ViolationReport(
        "stream", 0,
        meta={"mode": mode, "epsilon": epsilon, "d": d, "k": k, "c": c, "n": n},
    )
    checked = 1
    total = _stream_total_ones(flips)
    if total > 2 * n / d:
        out.add("total_ones", total, 2 * n / d)

    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(flips, out=prefix[1:])
    heads = np.flatnonzero(flips)

    if mode == "sub":
        w = int(k * d)
        starts = heads
        ends = np.minimum(starts + w, n)
        counts = prefix[ends] - prefix[starts]
        bad = np.flatnonzero(counts >= k)
        checked += starts.size
        for b in bad[:_MAX_WITNESSES]:
            out.add(f"window at {int(starts[b])}", int(counts[b]), k)
        if bad.size:
            out.passed = False
    else:
        bound = epsilon ** 2 * c * n / d
        ts = heads  # X_{t+1} is a head exactly at these 0-based t
        dev = np.abs(prefix[ts] - (1.0 + epsilon) * ts / d)
        bad = np.flatnonzero(dev > bound)
        checked += ts.size
        for b in bad[:_MAX_WITNESSES]:
            out.add(f"t={int(ts[b])}", float(dev[b]), bound)
        if bad.size:
            out.passed = False
    out.instances_checked = checked
    return out


def giant_expansion_window(n: int, d: int, epsilon: float, alpha: float) -> tuple[int, int]:
    """Subset sizes [ceil(16 alpha n/d), floor((x - 9 alpha) n/d)] that
    ``check_giant_expansion`` grows S to, with x = x(min(eps, 1)).

    The window is non-empty only if alpha <= x/25 (0.01505 at eps=0.2),
    up to rounding at small n/d.  Raises ValueError, naming that bound,
    when it is empty or the retention is not supercritical (eps <= 0).
    """
    if epsilon <= 0:
        raise ValueError(
            f"giant_expansion needs a supercritical retention probability, got eps={epsilon:g}"
        )
    x = solve_x(min(epsilon, 1.0))
    lo = math.ceil(16.0 * alpha * n / d)
    hi = math.floor((x - 9.0 * alpha) * n / d)
    if lo > hi:
        bound = math.floor(x / 25.0 * 1e5) / 1e5  # rounded down: every alpha it admits is <= x/25
        raise ValueError(
            f"giant_expansion needs alpha <= {bound:g} at eps={epsilon:g}: "
            f"empty subset-size window [{lo}, {hi}] for alpha={alpha} at n={n} d={d}"
        )
    return lo, hi


def check_giant_expansion(
    g: RegularGraph,
    sample: PercolationSample,
    census: ComponentCensus,
    alpha: float,
    samples: int,
    beta_test: float,
    seed: int,
) -> ViolationReport:
    """Sampled expansion of connected subsets of the largest retained
    component: grow S by a seeded breadth-first search (scipy's, over the
    component's induced CSR) to target sizes spanning
    [16 alpha n/d, (x - 9 alpha) n/d], measure the neighborhood inside
    the retained subgraph, and require
    |N(S)| >= beta_test * alpha^2 / ln(1/alpha) * n/d at every sample.

    A sampled necessary check over a quantified-over-all-subsets claim,
    not a certificate.  A largest component that does not reach the
    window start fails the check as one instance, with the cause in
    meta, so one small-giant trial does not end a sweep.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if beta_test <= 0:
        raise ValueError(f"beta_test must be positive, got {beta_test}")
    n, d = g.n, g.d
    lo, hi = giant_expansion_window(n, d, sample.p * d - 1.0, alpha)
    giant = census.largest
    hi = min(hi, giant - 1)  # keep S a proper subset so the neighborhood can be nonempty
    threshold = beta_test * alpha ** 2 / math.log(1.0 / alpha) * n / d
    meta = {
        "alpha": alpha,
        "beta_test": beta_test,
        "window": [int(lo), int(hi)],
        "threshold": threshold,
        "giant": int(giant),
        "seed": seed,
    }
    if giant <= lo:
        out = ViolationReport("giant_expansion", 1, meta=meta)
        out.meta["cause"] = f"largest component ({giant}) does not reach the window start {lo}"
        out.meta["min_neighborhood"] = None
        out.add("largest component", giant, lo + 1)
        return out
    giant_members, adj = _induced_csr(g, census.labels == census.labels[census.roots[0]])
    out = ViolationReport("giant_expansion", samples, meta=meta)

    rng = make_generator(seed, TAG_GROWTH)
    targets = np.unique(np.linspace(lo, hi, num=max(2, min(samples, hi - lo + 1))).astype(np.int64))
    min_seen = math.inf
    for i in range(samples):
        target = int(targets[i % targets.size])
        j = rng.integers(0, giant_members.size)
        members = giant_members[breadth_first_order(adj, j, return_predecessors=False)[:target]]
        assert members.size == target, "connected component must reach any size below its own"
        outside = external_neighborhood(g, VertexSet.from_indices(n, members)).mask
        ext = int(np.count_nonzero(outside & sample.membership))
        min_seen = min(min_seen, ext)
        if ext < threshold:
            out.add(f"sample {i} |S|={target}", ext, threshold)
    out.meta["min_neighborhood"] = None if min_seen is math.inf else float(min_seen)
    return out
