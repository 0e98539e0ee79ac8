"""Extreme adjacency eigenvalues and pseudo-randomness certification.

For a d-regular graph the all-ones vector carries the trivial eigenvalue
d; the certification quantity is lam = max(|lam2|, |lamN|) over the
remaining spectrum, compared against the admissibility threshold
delta(alpha) = alpha^(2/alpha).

Two solver paths:

* dense (n <= 2000): full symmetric eigendecomposition (LAPACK via
  numpy.linalg.eigh).
* iterative: Lanczos (ARPACK via scipy.sparse.linalg.eigsh) on the
  positive semidefinite operators P(A + dI)P and P(dI - A)P, where P
  projects off the all-ones vector.  The shift is what makes the target
  eigenvalue the dominant one on the projected space; plain power
  iteration on P A P converges to lamN instead of lam2 whenever
  |lamN| > lam2 (any bipartite graph) and stalls for ~1e5 iterations on
  clustered spectral edges, so it is not used.

Matrix-vector products exploit regularity: gather-and-sum over the
(n, d) neighbor table, a pure numpy operation.

Residuals ||A v - theta v||_2 are computed explicitly for both reported
extreme pairs and both solver paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

__all__ = [
    "DENSE_LIMIT",
    "SpectralConvergenceError",
    "SpectrumReport",
    "certify",
    "compute_spectrum",
    "delta_of_alpha",
]

DENSE_LIMIT = 2000
ITERATION_CAP = 100_000
_V0_SEED = 0x5EED_0401


class SpectralConvergenceError(RuntimeError):
    """Iterative path failed to reach the residual tolerance."""


@dataclass(frozen=True)
class SpectrumReport:
    lambda1: float
    lambda2: float
    lambdaN: float
    lam: float
    ratio: float
    residual2: float
    residualN: float
    iterations: int
    method: str
    connected: bool

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambdaN": self.lambdaN,
            "lam": self.lam,
            "ratio": self.ratio,
            "residual2": self.residual2,
            "residualN": self.residualN,
            "iterations": self.iterations,
            "method": self.method,
            "connected": self.connected,
        }


def delta_of_alpha(alpha: float) -> float:
    """alpha^(2/alpha) on (0, 1]."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return float(alpha ** (2.0 / alpha))


def _adjacency_matvec(g, x: np.ndarray) -> np.ndarray:
    return x[g.nbrs2d].sum(axis=1)


def _residual(g, theta: float, vec: np.ndarray) -> float:
    vec = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(_adjacency_matvec(g, vec) - theta * vec))


def _dense_spectrum(g):
    a = np.zeros((g.n, g.n), dtype=np.float64)
    rows = np.repeat(np.arange(g.n), g.d)
    a[rows, g.neighbors.astype(np.int64)] = 1.0
    w, vecs = np.linalg.eigh(a)
    lam1 = float(w[-1])
    lam2 = float(w[-2])
    lamn = float(w[0])
    r2 = _residual(g, lam2, vecs[:, -2])
    rn = _residual(g, lamn, vecs[:, 0])
    return lam1, lam2, lamn, r2, rn, 0


def _projected_extreme(g, sign: int, tol: float):
    """Largest eigenpair of P(dI + sign*A)P; returns (theta, vec, matvecs)."""
    n, d = g.n, g.d
    nbrs = g.nbrs2d
    calls = 0

    def matvec(x):
        nonlocal calls
        calls += 1
        x = np.asarray(x, dtype=np.float64).ravel()
        y = x - x.mean()
        z = sign * y[nbrs].sum(axis=1) + d * y
        return z - z.mean()

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(n)
    v0 -= v0.mean()
    ncv = min(n - 1, 64)
    theta, vec = eigsh(
        op,
        k=1,
        which="LA",
        v0=v0,
        ncv=ncv,
        maxiter=ITERATION_CAP,
        tol=min(tol * 1e-2, 1e-10),
    )
    return float(theta[0]), vec[:, 0], calls


def _iterative_spectrum(g, tol: float):
    d = float(g.d)
    theta2, vec2, it2 = _projected_extreme(g, +1, tol)  # theta = d + lam2
    thetan, vecn, itn = _projected_extreme(g, -1, tol)  # theta = d - lamN
    lam2 = theta2 - d
    lamn = d - thetan
    r2 = _residual(g, lam2, vec2)
    rn = _residual(g, lamn, vecn)
    if r2 > tol or rn > tol:
        raise SpectralConvergenceError(
            f"residuals ({r2:.3e}, {rn:.3e}) exceed tol {tol:.3e}"
        )
    # lambda1 = d exactly: the all-ones vector is an exact eigenvector of a
    # regular graph, so the trivial eigenpair needs no iteration.
    return d, lam2, lamn, r2, rn, it2 + itn


def compute_spectrum(g, tol: float = 1e-8, method: str = "auto") -> SpectrumReport:
    """Extreme eigenvalues of the adjacency operator.

    method: "auto" picks dense for n <= DENSE_LIMIT, otherwise iterative;
    "dense" / "iterative" force a path (used by cross-validation tests).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method == "auto":
        method = "dense" if g.n <= DENSE_LIMIT else "iterative"
    if method == "dense":
        lam1, lam2, lamn, r2, rn, iters = _dense_spectrum(g)
    elif method == "iterative":
        lam1, lam2, lamn, r2, rn, iters = _iterative_spectrum(g, tol)
    else:
        raise ValueError(f"unknown method {method!r}")
    lam = max(abs(lam2), abs(lamn))
    connected = abs(lam2 - g.d) >= tol * max(1.0, g.d)
    return SpectrumReport(
        lambda1=lam1,
        lambda2=lam2,
        lambdaN=lamn,
        lam=lam,
        ratio=lam / g.d,
        residual2=r2,
        residualN=rn,
        iterations=iters,
        method=method,
        connected=connected,
    )


def certify(g, alpha: float, tol: float = 1e-8):
    """admissible = (lam/d <= delta(alpha)); the report rides along."""
    report = compute_spectrum(g, tol=tol)
    return report.ratio <= delta_of_alpha(alpha), report
