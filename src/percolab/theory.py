"""Closed-form predictions for the percolation observables.

Everything here is scalar arithmetic around two transcendental roots:

  x solves  x = (1+eps) * (1 - exp(-x))          (survival mass)
  y solves  y * exp(-y) = (1+eps) * exp(-(1+eps)) (dual root in (0,1))

with the identity x + y = 1 + eps tying them together.  The giant
component holds ~ x*n/d vertices; small tree components follow a
Borel-type weight k^{k-2} (1+eps)^k e^{-(1+eps)k} / k!.

Those are the paper's d -> infinity limits.  At finite d the same
branching-process argument on a locally tree-like d-regular graph has
forward degree Bin(d-1, p), p = (1+eps)/d (Janson, "On percolation in
random graphs with given vertex degrees", EJP 2009).  Its survival
probability sigma solves

  sigma = p * (1 - (1-sigma)^(d-1))

and gives the finite-d giant size, giant edge count and tree counts
carried next to the limits as the *_finite_d fields.  The relative gap
between the two shrinks like ~3/d (17.7% for L1 at d=20, eps=0.2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

__all__ = [
    "TheoryPrediction",
    "admissibility_flags",
    "giant_expansion_window",
    "predict",
    "solve_sigma",
    "solve_x",
    "solve_y",
    "subtree_count",
]

_ROOT_TOL = 1e-12


def _check_eps(epsilon: float) -> None:
    # Positivity is mathematically required, and finiteness for the roots'
    # brackets.  Values above 1 leave the small-eps asymptotic regime but
    # every formula stays well defined (and p = (1+eps)/d = 1 smoke runs
    # need them), so they are allowed.
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def _check_n_d(n: int, d: int) -> None:
    if not 1 <= d < n:  # as GenSpec.validate: log(n/d) must be positive
        raise ValueError(f"need 1 <= d < n, got n={n} d={d}")


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where f < 0 left of the root and f >= 0 right of it.

    Bisects to width _ROOT_TOL, not to a residual: in solve_x f' ~ eps
    near the root, so a residual stop would leave O(tol/eps) error there.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _ROOT_TOL or mid <= lo or mid >= hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_x(epsilon: float) -> float:
    """Positive root of x = (1+eps)(1 - exp(-x)), by bisection.

    The root sits in (ln(1+eps), 1) for eps below about 0.58; above
    that it drifts past 1, so the bracket is widened to 1+eps where the
    sign is guaranteed (f(1+eps) = (1+eps)e^{-(1+eps)} > 0).
    """
    _check_eps(epsilon)
    one_eps = 1.0 + epsilon

    def f(x: float) -> float:
        return x - one_eps * (1.0 - math.exp(-x))

    lo = math.log1p(epsilon)
    hi = one_eps
    assert f(lo) < 0.0 < f(hi)
    return _bisect(f, lo, hi)


def solve_y(epsilon: float) -> float:
    """Root in (0,1) of y e^{-y} = (1+eps) e^{-(1+eps)}; g is increasing there."""
    _check_eps(epsilon)
    target = (1.0 + epsilon) * math.exp(-(1.0 + epsilon))

    def g(y: float) -> float:
        return y * math.exp(-y) - target

    return _bisect(g, 0.0, 1.0)


def solve_sigma(p: float, d: int) -> float:
    """Largest root in [0,1] of sigma = p(1 - (1-sigma)^(d-1)), by bisection.

    sigma is the survival probability of the Bin(d-1, p) branching
    process hanging off one edge of a d-regular tree.  It is 0 when
    (d-1)p <= 1 and 1 when p = 1 (for d >= 2).  Otherwise
    f(s) = s - p(1 - (1-s)^(d-1)) is convex with f(0) = 0, f'(0) < 0 and
    f(1) = 1 - p > 0, so f < 0 exactly on (0, sigma) and [0, 1]
    brackets the root.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if p == 1.0 and d >= 2:
        return 1.0
    if (d - 1) * p <= 1.0:
        return 0.0

    def f(s: float) -> float:
        return s - p * (1.0 - (1.0 - s) ** (d - 1))

    return _bisect(f, 0.0, 1.0)


def subtree_count(d: int, k: int) -> int:
    """s_k: subtrees on k vertices through one vertex of the d-regular tree.

    s_k = d/((d-2)k+2) * C((d-1)k, k-1), written as
    d ((d-1)k)! / ((k-1)! ((d-2)k+2)!) so that d = 1 (where the
    boundary size (d-2)k+2 reaches 0 and then goes negative) is covered
    too.  s_1 = 1, s_2 = d, s_3 = 3d(d-1)/2.
    """
    if d < 1 or k < 1:
        raise ValueError("d and k must be positive")
    boundary = (d - 2) * k + 2
    if boundary < 0:
        return 0
    return d * math.factorial((d - 1) * k) // (
        math.factorial(k - 1) * math.factorial(boundary)
    )


def finite_d_tree_prediction(n: int, d: int, p: float, k: int) -> float:
    """Expected k-vertex tree components at finite d: (n s_k/k) p^k (1-p)^((d-2)k+2).

    Each of the n s_k/k subtrees on k vertices is a component when its
    k vertices are retained and its (d-2)k+2 boundary vertices are not.
    """
    s = subtree_count(d, k)
    boundary = (d - 2) * k + 2
    if s == 0 or (p == 1.0 and boundary > 0):
        return 0.0
    log_t = math.log(n) + math.log(s) - math.log(k) + k * math.log(p)
    if boundary:
        log_t += boundary * math.log1p(-p)
    return math.exp(log_t)


def _log_term_edge_mass(k: int, epsilon: float) -> float:
    # log of the Borel weight k^{k-2}/k! * ((1+eps) e^{-(1+eps)})^k: the tree
    # counts are n/d times it (the tests' edge-mass series sums (k-1) times it)
    le = math.log1p(epsilon)
    return (k - 2) * math.log(k) - math.lgamma(k + 1) + k * (le - (1.0 + epsilon))


def tree_component_prediction(n: int, d: int, epsilon: float, k: int) -> float:
    """Expected count of tree components on k vertices: (n/d) * Borel weight."""
    if k < 1:
        raise ValueError("k must be positive")
    return (n / d) * math.exp(_log_term_edge_mass(k, epsilon))


def _giant_expansion_range(n: int, d: int, epsilon: float, alpha: float) -> tuple[int, int]:
    x = solve_x(min(epsilon, 1.0))
    return math.ceil(16.0 * alpha * n / d), math.floor((x - 9.0 * alpha) * n / d)


def giant_expansion_window(n: int, d: int, epsilon: float, alpha: float) -> tuple[int, int]:
    """Subset sizes [ceil(16 alpha n/d), floor((x - 9 alpha) n/d)] that
    ``verify.check_giant_expansion`` grows S to, with x = x(min(eps, 1)).

    The window is non-empty only if alpha <= x/25 (0.01505 at eps=0.2),
    up to rounding at small n/d.  Raises ValueError, naming that bound,
    when it is empty or the retention is not supercritical (eps <= 0).
    """
    if epsilon <= 0:
        raise ValueError(
            f"giant_expansion needs a supercritical retention probability, got eps={epsilon:g}"
        )
    lo, hi = _giant_expansion_range(n, d, epsilon, alpha)
    if lo > hi:  # bound rounded down: every alpha it admits is <= x/25
        bound = math.floor(solve_x(min(epsilon, 1.0)) / 25.0 * 1e5) / 1e5
        raise ValueError(
            f"giant_expansion needs alpha <= {bound:g} at eps={epsilon:g}: "
            f"empty subset-size window [{lo}, {hi}] for alpha={alpha} at n={n} d={d}"
        )
    return lo, hi


def admissibility_flags(n: int, d: int, epsilon: float, alpha: float) -> dict:
    """Which claims' stated alpha windows contain this alpha.

    Recorded, never enforced: out-of-window exploration stays possible.
    """
    _check_n_d(n, d)
    lo_sqrt = 2.0 * math.sqrt(d / n)
    lo_log = 2.0 / math.log(n / d)
    e2, e3, e4, e8 = epsilon ** 2, epsilon ** 3, epsilon ** 4, epsilon ** 8
    lo_grow, hi_grow = _giant_expansion_range(n, d, epsilon, alpha)  # the checker's window
    return {
        "giant_size_window": lo_sqrt < alpha < e2,
        "second_component_window": lo_log < alpha < e4,
        "giant_edges_window": lo_log < alpha < e8,
        "long_cycle_window": lo_sqrt < alpha < e3,
        "giant_expansion_window": lo_sqrt < alpha < e2 and lo_grow <= hi_grow,
        "set_expansion_window": lo_sqrt < alpha < e2,
    }


@dataclass(frozen=True)
class TheoryPrediction:
    n: int
    d: int
    epsilon: float
    alpha: float
    x: float
    y: float
    L1_pred: float
    L1_tol: float
    e_L1_pred: float
    Zp_pred: float
    Zp_smalltrees_pred: float
    subcritical_bound: float
    straggler_bound: float
    T_k_pred: tuple  # index k-1 -> expected k-vertex tree components
    sigma: float  # finite-d branch survival probability
    L1_pred_finite_d: float
    e_L1_pred_finite_d: float
    T_k_pred_finite_d: tuple  # finite-d counterpart of T_k_pred
    admissible: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def predict(n: int, d: int, epsilon: float, alpha: float, k_max: int = 4) -> TheoryPrediction:
    _check_eps(epsilon)
    _check_n_d(n, d)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    x = solve_x(epsilon)
    y = solve_y(epsilon)
    assert abs(x + y - (1.0 + epsilon)) <= 1e-10
    one_eps = 1.0 + epsilon
    nd = n / d
    # finite-d retention probability, capped at 1: (1+eps)/d exceeds it
    # only for eps > d-1 (e.g. d = 1), where every vertex is kept
    p = min(1.0, one_eps / d)
    sigma = solve_sigma(p, d)
    return TheoryPrediction(
        n=n,
        d=d,
        epsilon=epsilon,
        alpha=alpha,
        x=x,
        y=y,
        L1_pred=x * nd,
        L1_tol=7.0 * alpha * nd,
        e_L1_pred=(one_eps ** 2 - (one_eps - x) ** 2) * n / (2.0 * d),
        Zp_pred=one_eps ** 2 * n / (2.0 * d),
        Zp_smalltrees_pred=(one_eps - x) ** 2 * n / (2.0 * d),
        subcritical_bound=(4.0 / epsilon ** 2) * math.log(n / d),
        straggler_bound=15.0 * alpha * nd,
        T_k_pred=tuple(tree_component_prediction(n, d, epsilon, k) for k in range(1, k_max + 1)),
        sigma=sigma,
        L1_pred_finite_d=n * p * (1.0 - (1.0 - sigma) ** d),
        e_L1_pred_finite_d=(n * d / 2.0) * p * p * (1.0 - (1.0 - sigma) ** (2 * (d - 1))),
        T_k_pred_finite_d=tuple(
            finite_d_tree_prediction(n, d, p, k) for k in range(1, k_max + 1)
        ),
        admissible=admissibility_flags(n, d, epsilon, alpha),
    )
