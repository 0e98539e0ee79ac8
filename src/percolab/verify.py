"""Checkers for the structural guarantees behind the percolation results.

Deterministic checkers (edge-mixing on explicit sets, degree outliers)
evaluate an inequality exactly and must never report a violation on a
conforming graph.  Monte Carlo checkers sample from
quantified-over-all-subsets claims and report violation frequencies;
they are reproducible given (seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .census import ComponentCensus
from .graph_core import RegularGraph, VertexSet, edge_count_between, external_neighborhood
from .percolation import CoinStream, PercolationSample, _induced_csr
from .rng import TAG_GROWTH, TAG_PAIRS, TAG_SUBSETS, make_generator
from .spectral import SpectrumReport, delta_of_alpha, require_positive
from .theory import _check_eps, giant_expansion_window

__all__ = [
    "ViolationReport",
    "check_corollary_2_3",
    "check_giant_expansion",
    "check_lemma_2_4",
    "check_mixing",
    "check_stream_properties",
]

_MAX_WITNESSES = 200
_FP_SLACK = 1e-9
_DRIFT_C = 1.0  # the constant c of Property 3's bound eps^2 c n/d


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


def _draw_side(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, bool]:
    """A uniform k-subset of range(n) as (ids, complemented): the ids of
    the smaller of the set and its complement, and whether they are the
    complement's."""
    complemented = k > n - k
    ids = rng.choice(n, size=n - k if complemented else k, replace=False, shuffle=False)
    return ids, complemented


def _mixing_count(g: RegularGraph, B: np.ndarray, b_comp: bool,
                  C: np.ndarray, c_comp: bool) -> int:
    """e(B, C) of two sets as _draw_side gives them, by one
    edge_count_between on the drawn ids.  Every row holds d entries, so
    e(S, V) = d|S| under the ordered-pair count, and e(V-S, C) = d|C| - e(S, C)."""
    e = edge_count_between(g, B, C)
    if c_comp:  # e(B, V-C) -> e(B, C), B still as drawn
        e = g.d * B.size - e
    if b_comp:
        e = g.d * (g.n - C.size if c_comp else C.size) - e
    return e


def check_mixing(g: RegularGraph, report: SpectrumReport, pairs: int, seed: int) -> ViolationReport:
    """Edge-count mixing on random vertex-set pairs:
    |e(B,C) - d|B||C|/n| <= lambda sqrt(|B||C|), ordered-pair edge count.

    A pair draws its sizes |B| and |C| uniformly from [1, n], then each
    set uniformly among the sets of its size, drawn as the smaller of the
    set and its complement.  Earlier versions drew each set itself, so a
    failing check in records they wrote names other witness pairs for the
    same seed; a passing report names no sets and reads the same."""
    if pairs < 1:  # a check of no instances must not pass
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    rng = make_generator(seed, TAG_PAIRS)
    lam = report.lambda_eff
    out = ViolationReport("mixing", pairs, meta={"lambda_eff": lam, "seed": seed})
    n, d = g.n, g.d
    for i in range(pairs):
        nb = int(rng.integers(1, n + 1))
        nc = int(rng.integers(1, n + 1))
        e = _mixing_count(g, *_draw_side(rng, n, nb), *_draw_side(rng, n, nc))
        expected = d * nb * nc / n
        bound = lam * math.sqrt(nb * nc) + _FP_SLACK
        if abs(e - expected) > bound:
            out.add(f"pair {i} sizes ({nb},{nc})", abs(e - expected), bound)
    return out


def check_corollary_2_3(g: RegularGraph, report: SpectrumReport, B: VertexSet, alpha: float) -> ViolationReport:
    """Degree-into-B outliers: both the high side (>= (1+a)|B|d/n) and the
    low side (<= (1-a)|B|d/n) hold at most (2/a^2)(lambda/d)^2 n vertices."""
    delta_of_alpha(alpha)  # rejects an alpha outside (0, 1], nan included
    if B.mask.size != g.n:
        raise ValueError(f"reference set is over {B.mask.size} vertices, graph has n={g.n}")
    nb = B.cardinality
    if nb < g.n / 2:
        raise ValueError(f"reference set must hold at least half the vertices, got {nb} < {g.n}/2")
    lam = report.lambda_eff
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
    delta_alpha = delta_of_alpha(alpha)  # rejects an alpha outside (0, 1], nan included
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
        "delta_alpha": delta_alpha,
        "seed": seed,
    }
    if report is not None:
        meta["spectral_ratio"] = report.ratio
        meta["ratio_le_delta"] = report.ratio <= delta_alpha
    rng = make_generator(seed, TAG_SUBSETS)
    out = ViolationReport("lemma_2_4", subsets, meta=meta)
    for i in range(subsets):
        m = int(rng.integers(m_lo, m_hi + 1))
        members = rng.choice(retained_idx, size=m, replace=False)
        ext = int(np.count_nonzero(external_neighborhood(g, members)))
        target = n * (1.0 - math.exp(-d * m / n))
        hi = (1.0 + 2.0 * alpha) * target
        lo = (1.0 - 2.0 * alpha) * target
        if ext > hi + _FP_SLACK:
            out.add(f"subset {i} m={m} over-expands", ext, hi)
        elif ext < lo - _FP_SLACK:
            out.add(f"subset {i} m={m} under-expands", ext, lo)
    return out


def check_stream_properties(stream: CoinStream, epsilon: float, d: int,
                            mode: str) -> ViolationReport:
    """Realized-coin-sequence checks.

    Property 1 (both modes): at most 2n/d heads in total.
    Property 2 (sub): no window of floor(k*d) coins starting at a head
    holds k or more heads, k = (4/eps^2) ln(n/d); trailing windows are
    truncated at the end of the stream.
    Property 3 (super): at every index t (0-based count of preceding
    coins, t=0 included) whose next coin is a head, the running head
    count stays within eps^2*c*n/d of (1+eps)t/d, c = _DRIFT_C.
    """
    if mode not in ("sub", "super"):
        raise ValueError(f"mode must be 'sub' or 'super', got {mode!r}")
    _check_eps(epsilon)
    flips = stream.flips
    n = flips.size
    k = (4.0 / epsilon ** 2) * math.log(n / d)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(flips, out=prefix[1:])
    heads = np.flatnonzero(flips)
    # the total, then one instance per head: the window it starts (sub), or
    # the drift at the t it follows (super: X_{t+1} is a head at these 0-based t)
    out = ViolationReport(
        "stream", 1 + heads.size,
        meta={"mode": mode, "epsilon": epsilon, "d": d, "k": k, "c": _DRIFT_C, "n": n},
    )
    total = int(flips.sum())
    if total > 2 * n / d:
        out.add("total_ones", total, 2 * n / d)
    if mode == "sub":
        bound, witness = k, "window at {}"
        measured = prefix[np.minimum(heads + int(k * d), n)] - prefix[heads]
        bad = np.flatnonzero(measured >= k)
    else:
        bound, witness = epsilon ** 2 * _DRIFT_C * n / d, "t={}"
        measured = np.abs(prefix[heads] - (1.0 + epsilon) * heads / d)
        bad = np.flatnonzero(measured > bound)
    for b in bad[:_MAX_WITNESSES]:
        out.add(witness.format(int(heads[b])), measured[b], bound)
    return out


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
    from scipy.sparse.csgraph import breadth_first_order  # scipy loads only where it is used

    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    require_positive("beta_test", beta_test)
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
        ext = int(np.count_nonzero(external_neighborhood(g, members) & sample.membership))
        min_seen = min(min_seen, ext)
        if ext < threshold:
            out.add(f"sample {i} |S|={target}", ext, threshold)
    out.meta["min_neighborhood"] = None if min_seen is math.inf else float(min_seen)
    return out
