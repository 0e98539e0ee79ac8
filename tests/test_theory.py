import math

import numpy as np
import pytest

from oracles import series_tree_edge_mass, series_tree_mass
from percolab.theory import (
    admissibility_flags,
    finite_d_tree_prediction,
    predict,
    solve_sigma,
    solve_x,
    solve_y,
    subtree_count,
    tree_component_prediction,
)


def test_fixed_point_residuals():
    for eps in (0.01, 0.1, 0.2, 0.5, 0.9, 1.0, 2.0):
        x = solve_x(eps)
        assert abs(x - (1 + eps) * (1 - math.exp(-x))) <= 1e-11
        y = solve_y(eps)
        assert abs(y * math.exp(-y) - (1 + eps) * math.exp(-(1 + eps))) <= 1e-12
        assert 0.0 < y < 1.0
        assert x > math.log1p(eps)


def test_frozen_root_values():
    assert solve_x(0.2) == pytest.approx(0.3764379972478492, abs=1e-9)
    assert solve_y(0.2) == pytest.approx(0.8235620027408004, abs=1e-9)
    assert solve_x(1.0) > 1.0  # the root escapes (ln 2, 1) at large eps


def test_dual_roots_sum_identity():
    rng = np.random.default_rng(2024)
    for eps in rng.uniform(1e-3, 1.0, size=100):
        assert abs(solve_x(eps) + solve_y(eps) - (1 + eps)) <= 1e-10


def test_root_asymptotics():
    # x ~ 2*eps as eps -> 0, and is increasing in eps
    assert solve_x(1e-4) < 3e-4
    grid = np.linspace(0.01, 1.5, 60)
    xs = [solve_x(e) for e in grid]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_domain_errors():
    for bad in (0.0, -0.3):
        with pytest.raises(ValueError):
            solve_x(bad)
        with pytest.raises(ValueError):
            solve_y(bad)
        with pytest.raises(ValueError):
            series_tree_mass(bad)
    with pytest.raises(ValueError):
        series_tree_mass(0.2, tol=0.0)
    with pytest.raises(ValueError):
        predict(0, 20, 0.2, 0.1)
    with pytest.raises(ValueError):
        tree_component_prediction(100, 10, 0.2, 0)


def test_series_identities():
    for eps in (0.1, 0.2, 0.35, 0.5, 1.0):
        y = solve_y(eps)
        assert series_tree_mass(eps) == pytest.approx(y / (1 + eps), abs=1e-10)
        assert series_tree_edge_mass(eps) == pytest.approx(y * y / 2, abs=1e-10)


def test_series_frozen_values():
    assert series_tree_mass(0.2) == pytest.approx(0.6863016689580956, abs=1e-12)
    assert series_tree_edge_mass(0.2) == pytest.approx(0.33912718618654514, abs=1e-12)


def test_series_tolerance_scaling():
    loose = series_tree_mass(0.3, tol=1e-6)
    tight = series_tree_mass(0.3, tol=1e-13)
    assert abs(loose - tight) <= 1e-6


def test_tree_component_predictions():
    t1 = tree_component_prediction(200_000, 20, 0.2, 1)
    assert t1 == pytest.approx(3614.330542946426, rel=1e-10)
    # k = 1 reduces to (n/d)(1+eps)e^{-(1+eps)}
    assert t1 == pytest.approx(10_000 * 1.2 * math.exp(-1.2), rel=1e-12)
    assert tree_component_prediction(200_000, 20, 0.2, 2) == pytest.approx(
        653.1692636837704, rel=1e-10
    )
    assert tree_component_prediction(200_000, 20, 0.2, 3) == pytest.approx(
        236.07696194460777, rel=1e-10
    )
    # cross-check against the binomial-ish expression n p (1-p)^d
    p = 1.2 / 20
    assert t1 == pytest.approx(200_000 * p * (1 - p) ** 20, rel=0.05)


def test_predict_fields():
    pred = predict(200_000, 20, 0.2, 0.1)
    assert pred.L1_pred == pytest.approx(3764.379972478492, rel=1e-9)
    assert pred.L1_tol == pytest.approx(7000.0)
    assert pred.Zp_pred == pytest.approx(7200.0)
    assert pred.e_L1_pred == pytest.approx(3808.7281156, rel=1e-6)
    assert pred.subcritical_bound == pytest.approx(921.0340371976182, rel=1e-12)
    assert pred.straggler_bound == pytest.approx(15_000.0)
    # retained-edge masses split exactly between giant and small trees
    assert pred.e_L1_pred + pred.Zp_smalltrees_pred == pytest.approx(pred.Zp_pred)
    assert pred.Zp_smalltrees_pred == pytest.approx(pred.y**2 * 5000, rel=1e-9)
    assert len(pred.T_k_pred) == 4
    assert pred.T_k_pred[0] == pytest.approx(3614.330542946426, rel=1e-10)
    d = pred.to_dict()
    assert d["x"] == pred.x and d["T_k_pred"][1] == pred.T_k_pred[1]
    assert set(d["admissible"]) == {
        "giant_size_window",
        "second_component_window",
        "giant_edges_window",
        "long_cycle_window",
        "giant_expansion_window",
        "set_expansion_window",
    }


def test_predict_supercritical_of_one():
    # p = 1 on a tiny clique corresponds to eps well above 1; everything
    # must stay evaluable there
    pred = predict(4, 3, 2.0, 0.5)
    assert pred.Zp_pred == pytest.approx(9 * 4 / 6)
    assert pred.x + pred.y == pytest.approx(3.0, abs=1e-10)


def test_admissibility_windows():
    flags = admissibility_flags(200_000, 20, 0.2, 0.03)
    # lo_sqrt = 0.02, eps^2 = 0.04: alpha = 0.03 sits inside the size window
    assert flags["giant_size_window"] is True
    # yet the checker's growth window [16a, x - 9a] n/d = [4800, 1063] is empty
    assert flags["giant_expansion_window"] is False
    # but eps^4 = 0.0016 < alpha and the log floor is ~0.217
    assert flags["second_component_window"] is False
    assert flags["giant_edges_window"] is False
    flags2 = admissibility_flags(200_000, 20, 0.2, 0.1)
    assert flags2["giant_size_window"] is False  # 0.1 > eps^2
    # at n/d = 1e5, alpha = 0.01 <= x/25 opens the growth window [16000, 28643]
    assert predict(2_000_000, 20, 0.2, 0.01).admissible["giant_expansion_window"] is True
    assert predict(200_000, 20, 0.2, 0.03).admissible["giant_expansion_window"] is False


@pytest.mark.parametrize("n, d", [(20, 20), (3, 20)])
def test_admissibility_flags_need_d_below_n(n, d):
    # log(n/d) is zero at d = n (a division by it) and negative above
    with pytest.raises(ValueError, match=rf"^need 1 <= d < n, got n={n} d={d}$"):
        admissibility_flags(n, d, 0.2, 0.1)


# ----------------------------------------------------------------------
# finite-d branching process: forward degree Bin(d-1, p)
# ----------------------------------------------------------------------
def test_sigma_fixed_point():
    for d in (3, 5, 10, 20, 40, 1000):
        for eps in (0.05, 0.2, 0.5, 1.0):
            p = min(1.0, (1 + eps) / d)
            s = solve_sigma(p, d)
            assert 0.0 <= s <= 1.0
            assert abs(s - p * (1 - (1 - s) ** (d - 1))) <= 1e-12
            if (d - 1) * p > 1:
                assert s > 0.0  # the surviving root, not the trivial one


def test_sigma_boundary_cases():
    # (d-1)p <= 1: the Bin(d-1, p) process dies out
    assert solve_sigma(1.0 / 19, 20) == 0.0
    assert solve_sigma(0.05, 20) == 0.0
    assert solve_sigma(0.0, 20) == 0.0
    assert solve_sigma(0.6, 2) == 0.0
    # p = 1: every branch survives
    for d in (2, 3, 20):
        assert solve_sigma(1.0, d) == 1.0
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            solve_sigma(bad, 20)
    with pytest.raises(ValueError):
        solve_sigma(0.5, 0)


def test_finite_d_retained_edges_equal_zp():
    # E[Z_p] = (nd/2) p^2 holds at every d, so Zp_pred needs no finite-d twin
    for n, d, eps in ((200_000, 20, 0.2), (500, 8, 0.2), (10_000, 3, 0.5)):
        pred = predict(n, d, eps, 0.1)
        p = (1 + eps) / d
        assert (n * d / 2) * p * p == pytest.approx(pred.Zp_pred, rel=1e-14)


def test_subtree_counts_by_hand():
    for d in (2, 3, 4, 20):
        assert subtree_count(d, 1) == 1
        assert subtree_count(d, 2) == d
        assert subtree_count(d, 3) == 3 * d * (d - 1) // 2
    # the path (d = 2): k windows of length k through a vertex
    assert [subtree_count(2, k) for k in range(1, 6)] == [1, 2, 3, 4, 5]
    # a perfect matching (d = 1): the vertex alone or its edge
    assert [subtree_count(1, k) for k in range(1, 5)] == [1, 1, 0, 0]
    with pytest.raises(ValueError):
        subtree_count(3, 0)


def test_subtree_counts_match_bruteforce():
    # count connected k-sets through the root of a depth-k ball in the d-regular tree
    d, depth = 3, 4
    adj = {0: []}
    frontier, nxt = [0], 1
    for _ in range(depth):
        new = []
        for v in frontier:
            for _ in range(d - len(adj[v])):
                adj[v].append(nxt)
                adj[nxt] = [v]
                new.append(nxt)
                nxt += 1
        frontier = new
    sets = {frozenset([0])}
    for k in range(1, depth + 1):
        assert len(sets) == subtree_count(d, k)
        sets = {s | {w} for s in sets for v in s for w in adj[v] if w not in s}


def test_finite_d_pinned_values():
    pred = predict(200_000, 20, 0.2, 0.1)
    assert pred.L1_pred_finite_d == pytest.approx(3097.7, abs=0.05)
    assert pred.e_L1_pred_finite_d == pytest.approx(3117.4, abs=0.05)
    assert pred.T_k_pred_finite_d[0] == pytest.approx(3481.27, abs=0.005)
    assert pred.T_k_pred_finite_d[1] == pytest.approx(685.79, abs=0.005)
    assert len(pred.T_k_pred_finite_d) == len(pred.T_k_pred) == 4
    # k = 1 is a retained vertex with all d neighbours removed
    p = 1.2 / 20
    assert pred.T_k_pred_finite_d[0] == pytest.approx(200_000 * p * (1 - p) ** 20, rel=1e-12)
    assert finite_d_tree_prediction(200_000, 20, p, 2) == pred.T_k_pred_finite_d[1]
    d = pred.to_dict()
    assert d["L1_pred_finite_d"] == pred.L1_pred_finite_d
    assert list(d["T_k_pred_finite_d"]) == list(pred.T_k_pred_finite_d)


def test_finite_d_full_retention():
    # p = 1 on K4: one component holding every vertex and edge, no trees
    pred = predict(4, 3, 2.0, 0.5)
    assert pred.sigma == 1.0
    assert pred.L1_pred_finite_d == pytest.approx(4.0)
    assert pred.e_L1_pred_finite_d == pytest.approx(6.0)
    assert pred.T_k_pred_finite_d == (0.0, 0.0, 0.0, 0.0)


def test_finite_d_converges_to_paper_limits():
    # The paper's L1 ~ x n/d and e(L1) ~ ((1+eps)^2 - y^2) n/(2d) are
    # d -> infinity limits: the finite-d values fall short by a relative
    # gap that is positive, shrinks with d, and stays below 5/d.
    ds = (10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120, 10_000)
    gaps_l1, gaps_e = [], []
    for d in ds:
        pred = predict(200 * d, d, 0.2, 0.1)
        gaps_l1.append(1.0 - pred.L1_pred_finite_d / pred.L1_pred)
        gaps_e.append(1.0 - pred.e_L1_pred_finite_d / pred.e_L1_pred)
    for gaps in (gaps_l1, gaps_e):
        assert all(g > 0.0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(g < 5.0 / d for g, d in zip(gaps, ds))
    assert gaps_l1[1] == pytest.approx(0.1771, abs=1e-4)  # d = 20
    assert gaps_e[1] == pytest.approx(0.1815, abs=1e-4)
