"""Extreme adjacency eigenvalues and pseudo-randomness certification.

For a d-regular graph the all-ones vector carries the trivial eigenvalue
d; the certification quantity is lam = max(|lam2|, |lamN|) over the
remaining spectrum, compared against the admissibility threshold
delta(alpha) = alpha^(2/alpha).

The solver works on B = A - ((d+1)/n) J, J the all-ones matrix, which
keeps A's non-trivial eigenpairs and moves the all-ones vector from
eigenvalue d to -1.  Every graph with an edge has lamN <= -1 <= lam2, so
B's two extreme eigenvalues are exactly lam2 and lamN.  B x is
A x - (d+1) mean(x) over a CSR adjacency.

Both ends come from one Lanczos run (scipy.sparse.linalg.eigsh,
which="BE") on a Chebyshev filter of B rather than on B itself, which
takes far fewer of ARPACK's restarts, each of which orthogonalises
against the whole Krylov basis:

1. A probe, a loose eigsh run on B, returns Ritz values thetaN <= theta2.
   Ritz values lie inside the spectrum, so lamN <= thetaN and
   theta2 <= lam2, and c = 0.95 min(theta2, -thetaN) is below both
   |lamN| and lam2.
2. The filtered run takes the extremes of T_k(B/c), T_k the Chebyshev
   polynomial of odd degree k, applied by its three-term recurrence.
   T_k is bounded by 1 on [-1, 1] and odd and increasing outside it, so
   lam2 and lamN map to the largest and smallest filtered eigenvalues
   and the rest of the spectrum is squeezed into [-1, 1] between them.
3. lam2 and lamN are the Rayleigh quotients of B at the two returned
   vectors, and the residuals ||B v - theta v||_2 are checked against
   ``tol``.

Where c is not positive (a complete graph, or lam2 = 0 as on the 4-cycle)
or so small that T_k(d/c) would blow rounding up past the filtered
spectrum, the filter is degree 1: the run is on B itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumReport",
    "compute_spectrum",
    "delta_of_alpha",
    "require_positive",
]

ITERATION_CAP = 100_000
_V0_SEED = 0x5EED_0401
# the probe only has to place c below both ends, so a loose run on a small
# basis does; the filtered run's basis can stay small too, because the
# filter has already pulled the ends away from the rest of the spectrum
PROBE_NCV, PROBE_TOL = 20, 1e-2
FILTER_DEGREE = 7  # odd: T_k keeps lam2 on top and lamN at the bottom
FILTER_NCV = 24
# T_k(d/c) bounds the filtered operator's norm.  The filter runs only while
# that is at most 1e8, so that its rounding (1e8 x 2.2e-16) stays far below
# 1, the bound of the filtered interior that both ends exceed: while
# c >= d / cosh(acosh(1e8) / k), about 0.13 d at k = 7
_FILTER_FLOOR = 1 / math.cosh(math.acosh(1e8) / FILTER_DEGREE)

log = logging.getLogger("percolab.spectral")


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
    iterations: int  # every product with B: probe, filtered run and residuals; never recorded
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


def _rayleigh(shifted, vec: np.ndarray) -> tuple[float, float]:
    """(theta, ||B v - theta v||_2) at the unit vector v along vec, theta
    the Rayleigh quotient of B."""
    vec = vec / np.linalg.norm(vec)
    bv = shifted(vec)
    theta = float(vec @ bv)
    return theta, float(np.linalg.norm(bv - theta * vec))


def compute_spectrum(g, tol: float = 1e-8) -> SpectrumReport:
    """Extreme eigenvalues of the adjacency operator.

    Raises RuntimeError if a residual exceeds ``tol``.
    """
    from scipy.sparse import csr_matrix  # scipy loads only where it is used
    from scipy.sparse.linalg import LinearOperator, eigsh

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

    v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
    theta = eigsh(LinearOperator((n, n), matvec=shifted, dtype=np.float64), k=2, which="BE",
                  v0=v0, ncv=min(n, PROBE_NCV), maxiter=ITERATION_CAP, tol=PROBE_TOL,
                  return_eigenvectors=False)
    probe = matvecs
    c = 0.95 * float(min(theta.max(), -theta.min()))
    # a c that is not positive fails the floor too; degree 1 runs on B itself
    degree, scale = (FILTER_DEGREE, c) if 0 < _FILTER_FLOOR * d <= c else (1, 1.0)

    def filtered(x):  # T_k(B/c) x: T_1 = B/c, T_j+1 = 2 (B/c) T_j - T_j-1
        prev, cur = x, shifted(x) / scale
        for _ in range(degree - 1):
            prev, cur = cur, 2 / scale * shifted(cur) - prev
        return cur

    _, vecs = eigsh(LinearOperator((n, n), matvec=filtered, dtype=np.float64), k=2, which="BE",
                    v0=v0, ncv=min(n, FILTER_NCV), maxiter=ITERATION_CAP,
                    tol=min(tol * 1e-3, 1e-11))
    run = matvecs - probe
    lam2, r2 = _rayleigh(shifted, vecs[:, -1])
    lamn, rn = _rayleigh(shifted, vecs[:, 0])
    log.debug("spectrum: filter c=%.6g degree %d, %d products in the probe, %d in the filtered "
              "run; residuals %.3e, %.3e", c, degree, probe, run, r2, rn)
    if r2 > tol or rn > tol:
        raise RuntimeError(f"residuals ({r2:.3e}, {rn:.3e}) exceed tol {tol:.3e}")
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
