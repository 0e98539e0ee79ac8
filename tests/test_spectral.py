import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import cycle_graph
from percolab.generators import GenSpec, generate
from percolab.spectral import compute_spectrum, delta_of_alpha

# closed-form (lambda2, lambdaN) pairs
CLOSED = [
    ("k4", -1.0, -1.0),
    ("c6", 1.0, -2.0),
    ("petersen", 1.0, -2.0),
    ("q4", 2.0, -4.0),
]
# the cases the shift to eigenvalue -1 exists for: the smallest graph eigsh
# accepts (n = 3 = ncv), a disconnected graph (lambda2 = d) and a complete
# one (lambda2 = lambdaN = -1, where the moved trivial vector is extreme too)
SHIFT_CASES = [
    ("c3", -1.0, -1.0),
    ("cliques60", 5.0, -1.0),
    ("k20", -1.0, -1.0),
]


@pytest.fixture(scope="module")
def c3():
    return cycle_graph(3)


@pytest.fixture(scope="module")
def k20():
    return generate(GenSpec("clique_union", n=20, d=19))


@pytest.mark.parametrize("name,l2,ln", CLOSED)
def test_closed_form_spectra_with_oracle(name, l2, ln, request, dense_extremes):
    g = request.getfixturevalue(name)
    assert dense_extremes(g) == pytest.approx((l2, ln), abs=1e-8)  # the oracle itself
    rep = compute_spectrum(g, tol=1e-10)
    assert rep.lambda1 == pytest.approx(g.d, abs=1e-8)
    assert rep.lambda2 == pytest.approx(l2, abs=1e-8)
    assert rep.lambdaN == pytest.approx(ln, abs=1e-8)
    assert rep.connected


@pytest.mark.parametrize("name,l2,ln", CLOSED + SHIFT_CASES)
def test_closed_form_spectra_residuals(name, l2, ln, request):
    g = request.getfixturevalue(name)
    rep = compute_spectrum(g, tol=1e-8)
    assert rep.lambda2 == pytest.approx(l2, abs=1e-7)
    assert rep.lambdaN == pytest.approx(ln, abs=1e-7)
    assert rep.residual2 <= 1e-8 and rep.residualN <= 1e-8


def test_eigsh_agrees_with_dense_oracle_random(dense_extremes):
    g = generate(GenSpec("random_regular", n=600, d=8, seed=5))
    lam2, lamn = dense_extremes(g)
    it = compute_spectrum(g, tol=1e-9)
    assert it.lambda2 == pytest.approx(lam2, abs=1e-7)
    assert it.lambdaN == pytest.approx(lamn, abs=1e-7)


# graphs no fixture builds: criterion 12's two random graphs, the 4-cycle
# (lambda2 = 0, so the probe's c is not positive), five disjoint K10s (c is
# positive but below the filter floor, so T_7(d/c) would pass 1e8) and a
# hypercube blow-up, whose zero eigenvalues fill the filter's interior
BUILT = {
    "rr2000_12": lambda: generate(GenSpec("random_regular", n=2000, d=12, seed=31)),
    "rr1200_7": lambda: generate(GenSpec("random_regular", n=1200, d=7, seed=8)),
    "c4": lambda: cycle_graph(4),
    "cliques50_9": lambda: generate(GenSpec("clique_union", n=50, d=9)),
    "q6x2": lambda: generate(GenSpec("blowup", n=128, d=12, blowup_factor=2,
                                     base_family="hypercube")),
}
# records pinned to the digit, so that a solver change which moves an
# eigenvalue or a residual across the rounding grid fails here
PINNED = {
    "rr2000_12": {"lambda1": 12.0, "lambda2": 6.576339, "lambdaN": -6.605642, "lam": 6.605642,
                  "ratio": 0.5504701666666666, "residual2": 1e-09, "residualN": 1e-09,
                  "connected": True},
    "rr1200_7": {"lambda1": 7.0, "lambda2": 4.853933, "lambdaN": -4.844699, "lam": 4.853933,
                 "ratio": 0.6934189999999999, "residual2": 1e-09, "residualN": 1e-09,
                 "connected": True},
}


def _graph(name, request):
    return BUILT[name]() if name in BUILT else request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["k4", "c6", "petersen", "q4", "cliques60",
                                  "rr2000_12", "rr1200_7", "c3", "k20", "c4", "cliques50_9",
                                  "q6x2"])
def test_oracle_eigenvalues_certify_the_same_record(name, request, dense_extremes):
    # the record certifies the same numbers whether its eigenvalues come
    # from the filtered Lanczos run or from the dense oracle
    g = _graph(name, request)
    it = compute_spectrum(g)
    lam2, lamn = dense_extremes(g)
    assert replace(it, lambda2=lam2, lambdaN=lamn).to_dict() == it.to_dict()
    assert it.to_dict() == PINNED.get(name, it.to_dict())


@pytest.mark.parametrize("name,degree", [("c3", 1), ("k20", 1), ("c4", 1), ("cliques50_9", 1),
                                         ("cliques60", 7), ("q6x2", 7), ("rr1200_7", 7)])
def test_filter_is_logged(name, degree, request, caplog):
    # degree 1 where c is not positive (c3, k20, c4) or below the floor
    # (cliques50_9): those runs are on B itself
    with caplog.at_level(logging.DEBUG, logger="percolab.spectral"):
        rep = compute_spectrum(_graph(name, request))
    line = re.fullmatch(r"spectrum: filter c=(\S+) degree (\d+), (\d+) products in the probe, "
                        r"(\d+) in the filtered run; residuals \S+, \S+",
                        caplog.records[-1].getMessage())
    c, logged, probe, run = float(line[1]), *map(int, line.groups()[1:])
    assert logged == degree
    assert 0 < c < min(rep.lambda2, -rep.lambdaN) if degree > 1 else c < 0.13 * rep.lambda1
    assert run % degree == 0
    assert rep.iterations == probe + run + 2  # the probe, the filtered run, one per residual


def test_disconnected_graph_flagged(cliques60):
    rep = compute_spectrum(cliques60)
    # a disjoint clique union has lambda2 == d
    assert rep.lambda2 == pytest.approx(cliques60.d, abs=1e-8)
    assert not rep.connected


def test_delta_of_alpha():
    assert delta_of_alpha(1.0) == pytest.approx(1.0)
    assert delta_of_alpha(0.5) == pytest.approx(0.0625)
    grid = np.linspace(0.05, 1.0, 40)
    vals = [delta_of_alpha(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for a in grid:
        assert delta_of_alpha(a) == pytest.approx(math.exp(2 / a * math.log(a)))
    with pytest.raises(ValueError):
        delta_of_alpha(0.0)
    with pytest.raises(ValueError):
        delta_of_alpha(1.5)


def test_certify_single_clique():
    g = generate(GenSpec("clique_union", n=20, d=19))
    rep = compute_spectrum(g)
    # complete graph: lam = 1, ratio = 1/19 <= delta(0.5) = 0.0625
    assert max(abs(rep.lambda2), abs(rep.lambdaN)) == pytest.approx(1.0, abs=1e-8)
    assert rep.ratio <= delta_of_alpha(0.5)
    assert rep.ratio > delta_of_alpha(0.2)  # delta(0.2) = 0.2^10 is far below 1/19


def test_spectrum_report_dict(q4):
    rep = compute_spectrum(q4, tol=1e-8)
    rec = rep.to_dict()
    assert set(rec) == {
        "lambda1", "lambda2", "lambdaN", "lam", "ratio",
        "residual2", "residualN", "connected",
    }
    # moved outward by tol, then rounded outward to the 1e-6 grid
    assert (rec["lambda1"], rec["lambda2"], rec["lambdaN"]) == (4.0, 2.000001, -4.000001)
    assert rec["lam"] == rep.lambda_eff == 4.000001
    assert rec["ratio"] == rep.ratio == 4.000001 / 4
    # residuals go up to a multiple of tol/10: at least one step, at most tol
    for raw, recorded in ((0.0, 1e-9), (1e-9, 1e-9), (2.5e-9, 3 * 1e-8 / 10), (1e-8, 1e-8)):
        assert replace(rep, residual2=raw).to_dict()["residual2"] == recorded


def test_tol_validation(q4):
    with pytest.raises(ValueError, match="tol must be positive, got 0.0"):
        compute_spectrum(q4, tol=0.0)
    for tol in (float("nan"), float("inf")):  # nan never converged, inf cannot be rounded
        with pytest.raises(ValueError, match=f"tol must be finite, got {tol}"):
            compute_spectrum(q4, tol=tol)
    with pytest.raises(ValueError, match="the spectrum needs n >= 3, got n=2"):
        compute_spectrum(generate(GenSpec("clique_union", n=2, d=1)))
