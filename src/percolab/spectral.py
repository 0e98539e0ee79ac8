"""Extreme adjacency eigenvalues and pseudo-randomness certification.

For a d-regular graph the all-ones vector carries the trivial eigenvalue
d; the certification quantity is lam = max(|lam2|, |lamN|) over the
remaining spectrum, compared against the admissibility threshold
delta(alpha) = alpha^(2/alpha).

The solver works on B = A - ((d+1)/n) J, J the all-ones matrix, which
keeps A's non-trivial eigenpairs and moves the all-ones vector from
eigenvalue d to -1.  Every graph with an edge has lamN <= -1 <= lam2, so
B's two extreme eigenvalues are exactly lam2 and lamN, and one Lanczos
run (scipy.sparse.linalg.eigsh, which="BE") takes both ends of the
spectrum from one Krylov space, with B x = A x - (d+1) mean(x) over a
CSR adjacency.  The residuals ||B v - theta v||_2 are checked against
``tol``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, eigsh

__all__ = [
    "SpectralConvergenceError",
    "SpectrumReport",
    "compute_spectrum",
    "delta_of_alpha",
    "require_positive",
]

ITERATION_CAP = 100_000
_V0_SEED = 0x5EED_0401

log = logging.getLogger("percolab.spectral")


class SpectralConvergenceError(RuntimeError):
    """A solver's eigenpair missed the residual tolerance."""


@dataclass(frozen=True)
class SpectrumReport:
    """Extreme eigenpairs as the solver found them, checked against ``tol``.

    ``lambda_eff`` and ``ratio``, which every verdict reads, and
    ``to_dict`` are certified: lambda2 moved up and lambdaN down by
    ``tol`` (which bounds both residuals), rounded outward to a 1e-6
    grid.  Eigenvalues that agree within ``tol`` (another BLAS, the
    tests' dense oracle) therefore certify and record the same numbers.
    """

    lambda1: float
    lambda2: float
    lambdaN: float
    residual2: float
    residualN: float
    tol: float
    iterations: int  # products with B, residuals included; logged, never recorded
    connected: bool

    def _ends(self) -> tuple[float, float]:
        return (math.ceil((self.lambda2 + self.tol) * 1e6) / 1e6,
                math.floor((self.lambdaN - self.tol) * 1e6) / 1e6)

    @property
    def lambda_eff(self) -> float:
        return max(map(abs, self._ends()))

    @property
    def ratio(self) -> float:
        return self.lambda_eff / self.lambda1

    def _residual_bound(self, r: float) -> float:
        # rounded up to a multiple of tol/10: at least one step, at most tol
        return min(self.tol, max(1, math.ceil(r / (self.tol / 10))) * self.tol / 10)

    def to_dict(self) -> dict:
        lam2, lamn = self._ends()
        return {
            "lambda1": self.lambda1,
            "lambda2": lam2,
            "lambdaN": lamn,
            "lam": self.lambda_eff,
            "ratio": self.ratio,
            "residual2": self._residual_bound(self.residual2),
            "residualN": self._residual_bound(self.residualN),
            "connected": self.connected,
        }


def require_positive(name: str, value: float) -> None:
    """Reject a value that is not a positive finite number, naming it: a nan
    fails every comparison, so ``value <= 0`` lets it through, and an inf
    cannot be rounded."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def delta_of_alpha(alpha: float) -> float:
    """alpha^(2/alpha) on (0, 1]."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return float(alpha ** (2.0 / alpha))


def _residual(shifted, theta: float, vec: np.ndarray) -> float:
    vec = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(shifted(vec) - theta * vec))


def compute_spectrum(g, tol: float = 1e-8) -> SpectrumReport:
    """Extreme eigenvalues of the adjacency operator.

    Raises SpectralConvergenceError if a residual exceeds ``tol``.
    """
    require_positive("tol", tol)
    n, d = g.n, g.d
    if n < 3:  # eigsh needs k=2 < ncv <= n
        raise ValueError(f"the spectrum needs n >= 3, got n={n}")
    a = csr_matrix((np.ones(n * d), g.neighbors, np.arange(0, n * d + 1, d)), shape=(n, n))

    matvecs = 0

    def shifted(x):  # B x, with the all-ones vector moved to eigenvalue -1
        nonlocal matvecs
        matvecs += 1
        return a @ x - (d + 1) * x.mean()

    op = LinearOperator((n, n), matvec=shifted, dtype=np.float64)
    v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
    w, vecs = eigsh(op, k=2, which="BE", v0=v0, ncv=min(n, 64), maxiter=ITERATION_CAP,
                    tol=min(tol * 1e-2, 1e-10))
    lam2, lamn = float(w[-1]), float(w[0])
    r2 = _residual(shifted, lam2, vecs[:, -1])
    rn = _residual(shifted, lamn, vecs[:, 0])
    log.debug("spectrum: %d matvecs, residuals %.3e, %.3e", matvecs, r2, rn)
    if r2 > tol or rn > tol:
        raise SpectralConvergenceError(f"residuals ({r2:.3e}, {rn:.3e}) exceed tol {tol:.3e}")
    # lambda1 = d exactly: the all-ones vector is an exact eigenvector of a
    # regular graph, so the trivial eigenpair needs no solver
    return SpectrumReport(
        lambda1=float(d),
        lambda2=lam2,
        lambdaN=lamn,
        residual2=r2,
        residualN=rn,
        tol=tol,
        iterations=matvecs,
        connected=abs(lam2 - d) >= tol * max(1.0, d),
    )
