"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single machine-greppable
line `[criterion N] PASS/FAIL <name>: <detail>` (collected again in the
terminal summary).  Tests assert the criterion itself, so an honest
shortfall shows up as a red test with its measured numbers, never as a
silently loosened threshold.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from oracles import (
    check_blowup_pairs,
    count_trees_bruteforce,
    series_tree_edge_mass,
    series_tree_mass,
    validate_cycle,
)
from percolab.census import longest_cycle_lower_bound
from percolab.generators import GenSpec, generate
from percolab.graph_core import VertexSet
from percolab.harness import ExperimentConfig, run_sweep
from percolab.percolation import CoinStream, PercolationSample, components_oracle, run_dfs
from percolab.rng import TAG_SUBSETS, make_generator, trial_seed
from percolab.spectral import compute_spectrum, delta_of_alpha
from percolab.theory import predict, solve_x, solve_y
from percolab.verify import check_corollary_2_3, check_lemma_2_4, check_mixing

RESULTS = []

N, D, EPS, ALPHA, TRIALS, MASTER = 200_000, 20, 0.2, 0.1, 20, 20240601


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _sweep(tmp_path_factory, regime):
    out = str(tmp_path_factory.mktemp("acceptance") / f"{regime}.jsonl")
    cfg = ExperimentConfig(
        gen=GenSpec("random_regular", n=N, d=D, seed=MASTER),
        epsilon=EPS,
        alpha=ALPHA,
        regime=regime,
        trials=TRIALS,
        master_seed=MASTER,
        out=out,
        checkers=("stream",),
        workers=4,
    )
    t0 = time.perf_counter()
    summary = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return {
        "cfg": cfg,
        "summary": summary,
        "rows": {r["metric"]: r for r in summary["rows"]},
        "out": out,
        "elapsed": elapsed,
        "pred": predict(N, D, EPS, ALPHA, cfg.k_max),
    }


def _vs(row, asymptotic):
    """'measured vs finite-d (x% off), paper limit L (measured y% off)'."""
    meas, fin = row["measured"], row["predicted"]
    return (
        f"{meas:.0f} vs finite-d {fin:.1f} ({100 * abs(meas - fin) / fin:.1f}% off, "
        f"tol {100 * row['tolerance']:.0f}%), d->inf limit {asymptotic:.1f} "
        f"({100 * abs(meas - asymptotic) / asymptotic:.1f}% off)"
    )


@pytest.fixture(scope="module")
def super_run(tmp_path_factory):
    run = _sweep(tmp_path_factory, "super")
    run["graph"] = generate(run["cfg"].gen)  # criteria 8 and 10 re-walk trials on it
    return run


@pytest.fixture(scope="module")
def sub_run(tmp_path_factory):
    return _sweep(tmp_path_factory, "sub")


# ----------------------------------------------------------------------
def test_criterion_01_theory_exactness():
    t0 = time.perf_counter()
    eq_worst = 0.0
    for eps in np.linspace(0.005, 0.5, 100):
        eq_worst = max(eq_worst, abs(solve_x(eps) + solve_y(eps) - (1 + eps)))
    series_worst = 0.0
    for eps in np.arange(0.10, 0.5001, 0.025):
        y = solve_y(eps)
        series_worst = max(
            series_worst,
            abs(series_tree_mass(eps) - y / (1 + eps)),
            abs(series_tree_edge_mass(eps) - y * y / 2),
        )
    dt = time.perf_counter() - t0
    ok = eq_worst <= 1e-10 and series_worst <= 1e-8
    _report(
        1, "theory exactness", ok,
        f"max root-sum dev {eq_worst:.2e} (<=1e-10), "
        f"max series dev {series_worst:.2e} (<=1e-8), {dt:.2f}s",
    )


def test_criterion_02_exploration_matches_union_find(k4, q4, cliques60, rr_10k):
    t0 = time.perf_counter()
    ps = (0.5, 0.4, 0.3, 0.06)
    checked = 0
    ok = True
    for g, p in zip((k4, q4, cliques60, rr_10k), ps):
        for seed in range(100):
            stream = CoinStream(g.n, p, seed)
            trace = run_dfs(g, stream)
            sample = PercolationSample.from_membership(p, seed, trace.accepted_mask())
            oracle = components_oracle(g, sample)
            same = np.array_equal(trace.component_of, oracle)
            ok = ok and same and trace.num_epochs == len(set(oracle[oracle >= 0]))
            checked += 1
    dt = time.perf_counter() - t0
    _report(2, "epochs equal connected components", ok,
            f"{checked} runs across 4 graphs, exact label agreement, {dt:.1f}s")


def test_criterion_03_acceptance_distribution():
    t0 = time.perf_counter()
    g = generate(GenSpec("hypercube", n=32, d=5))
    p, runs = 0.3, 20_000
    counts = np.zeros(g.n, dtype=np.int64)
    for i in range(runs):
        trace = run_dfs(g, CoinStream(g.n, p, 10_000_000 + i))
        counts += trace.accepted_mask()
    stat = float(((counts - runs * p) ** 2 / (runs * p * (1 - p))).sum())
    pval = float(chi2.sf(stat, df=g.n))
    dt = time.perf_counter() - t0
    ok = pval > 1e-3
    _report(3, "per-vertex acceptance is Bernoulli(p)", ok,
            f"chi2 {stat:.1f} on {g.n} cells, p-value {pval:.3f} (>1e-3), {dt:.1f}s")


def test_criterion_04_giant_size(super_run):
    med = super_run["rows"]["L1_median"]
    win = super_run["rows"]["L1_window_rate"]
    ok = med["pass"] and win["pass"]
    _report(
        4, "giant component size", ok,
        f"median {_vs(med, super_run['pred'].L1_pred)}, window rate "
        f"{win['measured']:.2f} (need >= {win['tolerance']:.2f}), "
        f"sweep {super_run['elapsed']:.0f}s",
    )


def test_criterion_05_subcritical_components(sub_run):
    rate = sub_run["rows"]["max_component_rate"]
    med = sub_run["summary"]["metrics"]["L1_median"]
    ok = rate["pass"] and med <= 200.0
    _report(
        5, "subcritical component bound", ok,
        f"bound {rate['claim_bound']:.0f} held on {100 * rate['measured']:.0f}% of "
        f"trials, median max component {med:.0f} (<=200), sweep {sub_run['elapsed']:.0f}s",
    )


def test_criterion_06_second_component_and_trees(super_run):
    l2 = super_run["rows"]["L2_rate"]
    t1 = super_run["rows"]["T1_median"]
    t2 = super_run["rows"]["T2_median"]
    ok = l2["pass"] and t1["pass"] and t2["pass"]
    tk = super_run["pred"].T_k_pred
    _report(
        6, "second component and tree censuses", ok,
        f"L2 rate {l2['measured']:.2f} (>= {l2['tolerance']:.2f}), "
        f"T1 {_vs(t1, tk[0])}, T2 {_vs(t2, tk[1])}",
    )


def test_criterion_07_edge_counts(super_run):
    zp = super_run["rows"]["Zp_median"]
    el1 = super_run["rows"]["eL1_median"]
    ok = zp["pass"] and el1["pass"]
    _report(
        7, "retained and giant edge counts", ok,
        f"Zp {zp['measured']:.0f} vs {zp['predicted']:.0f} (tol 5%, exact at finite d), "
        f"giant edges {_vs(el1, super_run['pred'].e_L1_pred)}",
    )


def test_criterion_08_long_cycle(super_run):
    row = super_run["rows"]["cycle_rate"]
    bound = row["claim_bound"]
    g, cfg = super_run["graph"], super_run["cfg"]
    witness_ok = True
    for idx in range(3):
        seed = trial_seed(cfg.master_seed, idx)
        trace = run_dfs(g, CoinStream(g.n, cfg.p, seed))
        sample = PercolationSample.from_membership(cfg.p, seed, trace.accepted_mask())
        lb, cyc = longest_cycle_lower_bound(g, sample, with_witness=True)
        witness_ok = witness_ok and lb >= bound and validate_cycle(g, cyc, sample)
    ok = row["pass"] and witness_ok
    med = super_run["summary"]["metrics"]["cycle_lb_median"]
    _report(
        8, "long cycle in the giant", ok,
        f"bound {bound:.0f} met on {100 * row['measured']:.0f}% of trials, "
        f"3 witnesses validated, observed median cycle bound {med:.0f}",
    )


def test_criterion_09_mixing_and_degree_outliers(rr_10k):
    t0 = time.perf_counter()
    spect = compute_spectrum(rr_10k, tol=1e-8)
    admissible = spect.ratio <= delta_of_alpha(0.9)
    mix = check_mixing(rr_10k, spect, pairs=1000, seed=MASTER)
    deg_ok = True
    for s in range(20):
        rng = make_generator(s, TAG_SUBSETS, 23)
        half = rng.choice(rr_10k.n, size=rr_10k.n // 2, replace=False)
        rep = check_corollary_2_3(
            rr_10k, spect, VertexSet.from_indices(rr_10k.n, half), alpha=0.9
        )
        deg_ok = deg_ok and rep.passed
    dt = time.perf_counter() - t0
    ok = admissible and mix.passed and deg_ok
    _report(
        9, "edge mixing and degree outliers", ok,
        f"ratio {spect.ratio:.3f} <= delta(0.9) {delta_of_alpha(0.9):.3f}, "
        f"{len(mix.violations)} violations in 1000 pairs, 20 reference sets clean, {dt:.1f}s",
    )


def test_criterion_10_subset_expansion(super_run):
    t0 = time.perf_counter()
    g, cfg = super_run["graph"], super_run["cfg"]
    seed0 = trial_seed(cfg.master_seed, 0)
    trace = run_dfs(g, CoinStream(g.n, cfg.p, seed0))
    sample = PercolationSample.from_membership(cfg.p, seed0, trace.accepted_mask())
    violations = 0
    for s in range(20):
        rep = check_lemma_2_4(g, sample, alpha=ALPHA, subsets=1000, seed=s)
        violations += len(rep.violations)
    blow = check_blowup_pairs(
        generate(GenSpec("blowup", n=10000, d=20, seed=7, blowup_factor=2,
                         base_family="random_regular"))
    )
    dt = time.perf_counter() - t0
    ok = violations == 0 and blow.passed
    _report(
        10, "random-subset expansion window", ok,
        f"{violations} violations in 20x1000 subsets, blow-up pairing bound "
        f"{'holds' if blow.passed else 'violated'}, {dt:.0f}s",
    )


def test_criterion_11_tree_count_lower_bound(k4, petersen, q4):
    t0 = time.perf_counter()
    ok = True
    worst = math.inf
    for g in (k4, petersen, q4):
        for k in range(1, g.d):
            bound = g.n * k ** (k - 2) * (g.d - k) ** (k - 1) / math.factorial(k)
            count = count_trees_bruteforce(g, k)
            ok = ok and count + 1e-9 >= bound
            worst = min(worst, count / bound)
    dt = time.perf_counter() - t0
    _report(
        11, "tree-subgraph lower bound", ok,
        f"min count/bound ratio {worst:.2f} over all k < d on 3 graphs, {dt:.1f}s",
    )


def test_criterion_12_spectral_cross_validation(k4, c6, petersen, q4, dense_extremes):
    t0 = time.perf_counter()
    agree = 0.0
    for spec in (GenSpec("random_regular", n=2000, d=12, seed=31),
                 GenSpec("random_regular", n=1200, d=7, seed=8)):
        g = generate(spec)
        lam2, lamn = dense_extremes(g)
        it = compute_spectrum(g, tol=1e-9)
        agree = max(agree, abs(lam2 - it.lambda2), abs(lamn - it.lambdaN))
    closed_dev = 0.0
    for g, l2, ln in ((k4, -1.0, -1.0), (c6, 1.0, -2.0), (petersen, 1.0, -2.0), (q4, 2.0, -4.0)):
        rep = compute_spectrum(g, tol=1e-10)
        closed_dev = max(closed_dev, abs(rep.lambda2 - l2), abs(rep.lambdaN - ln))
    dt = time.perf_counter() - t0
    ok = agree <= 1e-7 and closed_dev <= 1e-8
    _report(
        12, "spectral solver cross-validation", ok,
        f"dense oracle/eigsh max dev {agree:.1e} (<=1e-7), "
        f"closed-form max dev {closed_dev:.1e} (<=1e-8), {dt:.0f}s",
    )


def test_criterion_13_worker_determinism(tmp_path_factory):
    t0 = time.perf_counter()
    out = str(tmp_path_factory.mktemp("determinism") / "records.jsonl")
    base = dict(
        gen=GenSpec("random_regular", n=10_000, d=20, seed=909),
        epsilon=EPS, alpha=ALPHA, regime="super", trials=8, master_seed=777,
        out=out, checkers=("stream",),
    )
    run_sweep(ExperimentConfig(workers=1, **base))
    serial = open(out, "rb").read()
    serial_csv = open(out + ".csv", "rb").read()
    run_sweep(ExperimentConfig(workers=8, **base))
    parallel = open(out, "rb").read()
    parallel_csv = open(out + ".csv", "rb").read()
    dt = time.perf_counter() - t0
    ok = serial == parallel and serial_csv == parallel_csv
    _report(
        13, "records identical across worker counts", ok,
        f"jsonl {len(serial)} bytes and csv {len(serial_csv)} bytes match for "
        f"1 vs 8 workers, {dt:.0f}s",
    )
