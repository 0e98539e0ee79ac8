import math

import numpy as np
import pytest

from percolab.census import take_census
from percolab.generators import GenSpec, generate
from percolab.graph_core import VertexSet
from percolab.percolation import CoinStream, PercolationSample, sample_vertices
from percolab.spectral import SpectrumReport, compute_spectrum
from percolab.verify import (
    ViolationReport,
    check_blowup_pairs,
    check_corollary_2_3,
    check_giant_expansion,
    check_lemma_2_4,
    check_mixing,
    check_stream_properties,
    clique_expansion_demo,
)


def _fake_spectrum(d, lam):
    return SpectrumReport(
        lambda1=float(d), lambda2=lam, lambdaN=-lam, lam=lam, ratio=lam / d,
        residual2=0.0, residualN=0.0, iterations=0, method="dense", connected=True,
    )


def test_violation_report_caps_witnesses():
    rep = ViolationReport("toy", 300)
    for i in range(300):
        rep.add(f"w{i}", 1.0, 0.5)
    assert len(rep.violations) == 200
    assert not rep.passed
    d = rep.to_dict()
    assert d["pass"] is False and d["checker"] == "toy"
    assert d["violations"][0] == {"witness": "w0", "measured": 1.0, "bound": 0.5}


# ----------------------------------------------------------------------
# mixing
# ----------------------------------------------------------------------
def test_mixing_on_complete_graph():
    g = generate(GenSpec("clique_union", n=20, d=19))
    rep = compute_spectrum(g, method="dense")
    out = check_mixing(g, rep, pairs=200, seed=5)
    assert out.passed and out.instances_checked == 200
    assert not out.violations


def test_checkers_reject_counts_below_one(rr_small):
    spect = _fake_spectrum(6, 3.0)
    sample = sample_vertices(rr_small.n, 0.5, 1)
    census = take_census(rr_small, sample)
    with pytest.raises(ValueError, match="pairs must be at least 1, got 0"):
        check_mixing(rr_small, spect, pairs=0, seed=1)
    with pytest.raises(ValueError, match="subsets must be at least 1, got -5"):
        check_lemma_2_4(rr_small, sample, alpha=0.2, subsets=-5, seed=1)
    giant = dict(alpha=0.001, samples=5, beta_test=0.01, seed=1)
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        check_giant_expansion(rr_small, sample, census, **dict(giant, samples=0))
    with pytest.raises(ValueError, match="beta_test must be positive, got 0"):
        check_giant_expansion(rr_small, sample, census, **dict(giant, beta_test=0.0))


def test_mixing_is_seed_reproducible(rr_small):
    rep = compute_spectrum(rr_small, method="dense")
    a = check_mixing(rr_small, rep, pairs=50, seed=9)
    b = check_mixing(rr_small, rep, pairs=50, seed=9)
    assert a.to_dict() == b.to_dict()


def test_mixing_detects_understated_lambda(rr_small):
    out = check_mixing(rr_small, _fake_spectrum(rr_small.d, 0.005), pairs=100, seed=2)
    assert not out.passed
    assert out.violations


# ----------------------------------------------------------------------
# degree outliers
# ----------------------------------------------------------------------
def test_degree_outliers_full_reference_set(rr_small):
    rep = compute_spectrum(rr_small, method="dense")
    out = check_corollary_2_3(rr_small, rep, VertexSet.full(rr_small.n), alpha=0.2)
    assert out.passed
    assert out.meta["B_size"] == rr_small.n


def test_degree_outliers_half_set(rr_small):
    rep = compute_spectrum(rr_small, method="dense")
    B = VertexSet.from_indices(rr_small.n, np.arange(rr_small.n // 2))
    out = check_corollary_2_3(rr_small, rep, B, alpha=0.9)
    assert out.passed


def test_degree_outliers_preconditions(rr_small):
    rep = compute_spectrum(rr_small, method="dense")
    small = VertexSet.from_indices(rr_small.n, [0, 1, 2])
    with pytest.raises(ValueError, match="half"):
        check_corollary_2_3(rr_small, rep, small, alpha=0.2)
    with pytest.raises(ValueError, match="alpha"):
        check_corollary_2_3(rr_small, rep, VertexSet.full(rr_small.n), alpha=0.0)


def test_degree_outliers_zero_lambda_is_violated(rr_small):
    # cap collapses to ~0; any outlier vertex becomes a reported violation
    B = VertexSet.from_indices(rr_small.n, np.arange(rr_small.n // 2))
    out = check_corollary_2_3(rr_small, _fake_spectrum(rr_small.d, 0.0), B, alpha=0.1)
    assert not out.passed


# ----------------------------------------------------------------------
# subset expansion window
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rr2000():
    return generate(GenSpec("random_regular", n=2000, d=10, seed=6))


def test_subset_expansion_inside_window(rr2000):
    sample = sample_vertices(rr2000.n, 0.12, 3)
    out = check_lemma_2_4(rr2000, sample, alpha=0.3, subsets=100, seed=14)
    assert out.passed
    assert out.instances_checked == 100
    assert out.meta["m_range"] == [60, 66]
    assert out.meta["p_le_2_over_d"] is True
    assert out.meta["alpha_window_ok"] is True


def test_subset_expansion_records_spectral_context(rr2000):
    rep = compute_spectrum(rr2000, method="dense")
    sample = sample_vertices(rr2000.n, 0.12, 3)
    out = check_lemma_2_4(rr2000, sample, alpha=0.3, subsets=10, seed=14, report=rep)
    assert "spectral_ratio" in out.meta
    # a plain random regular graph at d=10 is far noisier than the
    # delta(0.3) threshold; recorded as context, not enforced
    assert out.meta["ratio_le_delta"] is False
    assert out.passed


def test_subset_expansion_reproducible(rr2000):
    sample = sample_vertices(rr2000.n, 0.12, 3)
    a = check_lemma_2_4(rr2000, sample, alpha=0.3, subsets=25, seed=8)
    b = check_lemma_2_4(rr2000, sample, alpha=0.3, subsets=25, seed=8)
    assert a.to_dict() == b.to_dict()


def test_subset_expansion_window_errors(rr2000):
    with pytest.raises(ValueError, match="empty subset-size range"):
        g = generate(GenSpec("random_regular", n=50, d=10, seed=1))
        check_lemma_2_4(g, sample_vertices(50, 0.2, 0), alpha=0.3, subsets=5, seed=0)
    with pytest.raises(ValueError, match="below the smallest subset size"):
        empty = PercolationSample.from_membership(0.0, 0, np.zeros(rr2000.n, dtype=bool))
        check_lemma_2_4(rr2000, empty, alpha=0.3, subsets=5, seed=0)


# ----------------------------------------------------------------------
# blow-up pairing bound and the clique negative control
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def blowup2():
    base = GenSpec("random_regular", n=100, d=5, seed=3)
    return generate(GenSpec("blowup", blowup_factor=2, base=base))


def test_blowup_pairs_default_sizes(blowup2):
    out = check_blowup_pairs(blowup2)
    assert out.passed
    assert all(s % 2 == 0 for s in out.meta["sizes"])


def test_blowup_pairs_explicit_sizes(blowup2):
    out = check_blowup_pairs(blowup2, sizes=[2, 10, 60])
    assert out.passed and out.instances_checked == 3


def test_blowup_pairs_guards(blowup2, q4):
    with pytest.raises(ValueError, match="factor 2"):
        check_blowup_pairs(q4)
    base = GenSpec("hypercube", n=16, d=4)
    g3 = generate(GenSpec("blowup", blowup_factor=3, base=base))
    with pytest.raises(ValueError, match="factor 2"):
        check_blowup_pairs(g3)
    with pytest.raises(ValueError, match="even"):
        check_blowup_pairs(blowup2, sizes=[3])


def test_blowup_pair_shares_neighborhood(blowup2):
    # the defining property: both members of a pair see the same d vertices
    a, b = blowup2.neighbors_of(0), blowup2.neighbors_of(1)
    assert np.array_equal(a, b)


def test_clique_expansion_demo(cliques60):
    out = clique_expansion_demo(cliques60, alpha=0.1)
    assert out["m"] == 6 and out["measured"] == 0
    assert out["below_window"] is True
    part = clique_expansion_demo(cliques60, alpha=0.1, m=3)
    assert part["measured"] == 3  # the rest of the clique, nothing else
    assert part["below_window"] is True
    with pytest.raises(ValueError, match="clique"):
        clique_expansion_demo(cliques60, alpha=0.1, m=7)


# ----------------------------------------------------------------------
# realized coin-stream properties
# ----------------------------------------------------------------------
def test_stream_all_tails_passes_everywhere():
    s = CoinStream.from_bits(np.zeros(5000, dtype=np.uint8))
    for mode in ("sub", "super"):
        out = check_stream_properties(s, 0.2, 10, mode)
        assert out.passed


def test_stream_total_ones_bound():
    s = CoinStream.from_bits(np.ones(100, dtype=np.uint8))
    out = check_stream_properties(s, 0.2, 10, "super", c=1e9)
    assert not out.passed
    assert any(w == "total_ones" for (w, _, _) in out.violations)


def test_stream_dense_window_is_flagged():
    n, d, eps = 10_000, 10, 1.0
    k = (4.0 / eps**2) * math.log(n / d)  # ~27.6
    bits = np.zeros(n, dtype=np.uint8)
    bits[: int(k) + 1] = 1
    out = check_stream_properties(CoinStream.from_bits(bits), eps, d, "sub")
    assert not out.passed
    assert any(w.startswith("window at 0") for (w, _, _) in out.violations)


def test_stream_trailing_window_truncated():
    n, d, eps = 10_000, 10, 1.0
    bits = np.zeros(n, dtype=np.uint8)
    bits[-5:] = 1  # five heads hugging the end; windows clip at n
    out = check_stream_properties(CoinStream.from_bits(bits), eps, d, "sub")
    assert out.passed


def test_stream_super_drift_and_c_scaling():
    n, d, eps = 10_000, 10, 0.5
    bits = np.zeros(n, dtype=np.uint8)
    bits[:300] = 1  # relentless heads: count outruns (1+eps)t/d
    s1 = check_stream_properties(CoinStream.from_bits(bits), eps, d, "super", c=1.0)
    assert not s1.passed
    s2 = check_stream_properties(CoinStream.from_bits(bits), eps, d, "super", c=3.0)
    assert s2.passed  # same stream clears a 3x looser constant


def test_stream_super_deficit_side():
    n, d, eps = 10_000, 10, 0.5
    bits = np.zeros(n, dtype=np.uint8)
    bits[-1] = 1  # a head after a long drought: count lags (1+eps)t/d
    out = check_stream_properties(CoinStream.from_bits(bits), eps, d, "super")
    assert not out.passed


def test_stream_argument_errors():
    s = CoinStream.from_bits([0, 1])
    with pytest.raises(ValueError, match="mode"):
        check_stream_properties(s, 0.2, 10, "critical")
    with pytest.raises(ValueError, match="epsilon"):
        check_stream_properties(s, 0.0, 10, "sub")


def test_stream_sampled_coins_pass_at_scale():
    # honest Bernoulli coins at the calibrated density satisfy all three
    # properties at this size
    d, eps = 20, 0.2
    s = CoinStream(200_000, (1 + eps) / d, 77)
    assert check_stream_properties(s, eps, d, "super").passed
    t = CoinStream(200_000, (1 - eps) / d, 78)
    assert check_stream_properties(t, eps, d, "sub").passed


# ----------------------------------------------------------------------
# sampled giant-component expansion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grown_giant():
    g = generate(GenSpec("random_regular", n=2000, d=6, seed=8))
    sample = sample_vertices(g.n, 0.3, 4)
    census = take_census(g, sample)
    return g, sample, census


def test_giant_expansion_passes_small_scale(grown_giant):
    g, sample, census = grown_giant
    out = check_giant_expansion(
        g, sample, census, alpha=0.05, samples=25, beta_test=0.01, seed=11
    )
    assert out.passed
    assert out.instances_checked == 25
    assert out.meta["min_neighborhood"] >= 1.0
    lo, hi = out.meta["window"]
    assert lo <= hi < census.largest


def test_giant_expansion_reproducible(grown_giant):
    g, sample, census = grown_giant
    args = dict(alpha=0.05, samples=10, beta_test=0.01, seed=11)
    a = check_giant_expansion(g, sample, census, **args)
    b = check_giant_expansion(g, sample, census, **args)
    assert a.to_dict() == b.to_dict()


def test_giant_expansion_window_infeasible_at_wide_alpha(grown_giant):
    g, sample, census = grown_giant
    with pytest.raises(ValueError, match="empty subset-size window"):
        check_giant_expansion(
            g, sample, census, alpha=0.2, samples=5, beta_test=0.01, seed=0
        )


def test_giant_expansion_documented_empty_window(rr_10k):
    # at n/d = 500 and eps = 0.2 the stated window [16a, x - 9a] n/d is
    # empty for alpha = 0.03: 16a n/d = 240 while (x - 9a) n/d ~ 53
    sample = sample_vertices(rr_10k.n, 1.2 / 20, 1)
    census = take_census(rr_10k, sample)
    with pytest.raises(ValueError, match="empty subset-size window"):
        check_giant_expansion(
            rr_10k, sample, census, alpha=0.03, samples=5, beta_test=0.01, seed=0
        )


def test_giant_expansion_requires_supercritical(grown_giant):
    g, _, _ = grown_giant
    sub = sample_vertices(g.n, 0.1, 2)
    census = take_census(g, sub)
    with pytest.raises(ValueError, match="supercritical"):
        check_giant_expansion(g, sub, census, alpha=0.05, samples=5, beta_test=0.01, seed=0)
