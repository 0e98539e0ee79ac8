import csv
import importlib.util
import json
import os
from dataclasses import replace

import pytest

from percolab import harness
from percolab.generators import GenSpec, generate
from percolab.harness import (
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    compare,
    config_from_mapping,
    load_config_file,
    run_sweep,
)
from percolab.rng import trial_seed
from percolab.spectral import compute_spectrum
from percolab.theory import predict
from percolab.verify import _effective_lambda


def _small_cfg(out=None, **kw):
    base = dict(
        gen=GenSpec("random_regular", n=500, d=8, seed=21),
        epsilon=0.2,
        alpha=0.1,
        regime="sub",
        trials=4,
        master_seed=1234,
        out=out,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------
def test_load_config_file(tmp_path):
    p = tmp_path / "sweep.cfg"
    p.write_text(
        "# comment line\n"
        "family = random_regular\n"
        "n = 500\n"
        "d=8   # trailing comment\n"
        "epsilon = 0.2\n"
        "regime = sub\n"
        "trials = 2\n"
        "seed = 7\n"
        "spectrum = false\n"
        "checkers = stream\n"
        "tol_L1_median = 0.25\n"
        "n = 600\n"  # later keys win
    )
    m = load_config_file(p)
    assert m["n"] == 600 and m["d"] == 8
    assert m["epsilon"] == 0.2 and m["spectrum"] is False
    cfg = config_from_mapping(m)
    assert cfg.gen.n == 600 and cfg.trials == 2
    assert cfg.checkers == ("stream",)
    assert cfg.tolerances == {"L1_median": 0.25}
    assert cfg.tol("L1_median") == 0.25
    assert cfg.tol("Zp_median") == DEFAULT_TOLERANCES["Zp_median"]


def test_load_config_file_rejects_bare_tokens(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("family random_regular\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config_file(p)


def test_config_from_mapping_blowup():
    cfg = config_from_mapping({
        "family": "blowup",
        "blowup_factor": 2,
        "base_family": "random_regular",
        "base_n": 100,
        "base_d": 5,
        "base_seed": 3,
        "epsilon": 0.2,
        "regime": "super",
        "trials": 1,
        "seed": 0,
    })
    assert cfg.gen.family == "blowup" and cfg.gen.base.d == 5
    assert cfg.p == pytest.approx(1.2 / 10)  # d comes from factor * base degree


def test_config_from_mapping_names_missing_keys():
    with pytest.raises(ValueError, match="missing required config keys: epsilon, trials, seed"):
        config_from_mapping({"family": "random_regular", "n": 500, "d": 8})
    with pytest.raises(ValueError, match="missing required config keys: epsilon$"):
        config_from_mapping({"family": "random_regular", "n": 500, "d": 8, "trials": 1,
                             "seed": 0, "epsilon": None})


def test_config_from_mapping_rejects_unknown_keys():
    good = {"family": "random_regular", "n": 500, "d": 8, "epsilon": 0.2, "trials": 1, "seed": 0}
    with pytest.raises(ValueError, match="unknown config keys: alpah, trails"):
        config_from_mapping(dict(good, trails=3, alpah=0.05))
    cfg = config_from_mapping(dict(good, tol_L1_median=0.2))
    assert cfg.alpha == 0.1 and cfg.regime == "super"  # the field defaults
    assert cfg.tolerances == {"L1_median": 0.2}


def test_config_from_mapping_accepts_benchmark_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        mapping = workloads.sweep_mapping(name, 1)
        cfg = config_from_mapping(mapping)
        assert cfg.gen.n == mapping["n"] and cfg.master_seed == mapping["seed"]
        assert cfg.checkers == tuple(mapping["checkers"].split(","))


def test_config_validation_errors():
    with pytest.raises(ValueError, match="regime"):
        _small_cfg(regime="critical").validate()
    with pytest.raises(ValueError, match="epsilon"):
        _small_cfg(epsilon=0.0).validate()
    with pytest.raises(ValueError, match="trials"):
        _small_cfg(trials=0).validate()
    with pytest.raises(ValueError, match="workers"):
        _small_cfg(workers=0).validate()
    with pytest.raises(ValueError, match="checker"):
        _small_cfg(checkers=("telepathy",)).validate()
    with pytest.raises(ValueError, match="spectrum"):
        _small_cfg(checkers=("mixing",)).validate()
    with pytest.raises(ValueError, match="tolerance"):
        _small_cfg(tolerances={"L1_median": -1.0}).validate()
    with pytest.raises(ValueError, match="unknown tolerance metric 'L1_mediun'"):
        _small_cfg(tolerances={"L1_mediun": 0.2}).validate()
    # eps = 3 at d = 3 asks for retention 4/3
    bad = ExperimentConfig(
        gen=GenSpec("clique_union", n=4, d=3), epsilon=3.0, alpha=0.1,
        regime="super", trials=1, master_seed=0,
    )
    with pytest.raises(ValueError, match="retention"):
        bad.validate()


@pytest.mark.parametrize("key, value", [("pairs", 0), ("subsets", -1), ("samples", 0),
                                        ("beta_test", 0.0)])
def test_config_rejects_checker_counts_that_check_nothing(tmp_path, monkeypatch, key, value):
    def no_generate(spec):
        raise AssertionError("generate ran for a config that cannot pass validation")

    monkeypatch.setattr(harness, "generate", no_generate)
    cfg = _small_cfg(out=str(tmp_path / "z.jsonl"), spectrum=True,
                     checkers=("mixing", "lemma_2_4"), **{key: value})
    with pytest.raises(ValueError, match=f"{key} must be"):
        run_sweep(cfg)
    assert not (tmp_path / "z.jsonl").exists()


def test_config_p_by_regime():
    assert _small_cfg(regime="sub").p == pytest.approx(0.8 / 8)
    assert _small_cfg(regime="super").p == pytest.approx(1.2 / 8)


def test_giant_expansion_config_rejected_before_generation(tmp_path, monkeypatch):
    # at eps = 0.2 the window [16a, x - 9a] n/d is empty unless a <= x/25
    def no_generate(spec):
        raise AssertionError("generate ran for a config that cannot pass validation")

    monkeypatch.setattr(harness, "generate", no_generate)
    cfg = _small_cfg(out=str(tmp_path / "g.jsonl"), regime="super", checkers=("giant_expansion",))
    with pytest.raises(ValueError, match=r"giant_expansion needs alpha <= 0\.01505 at eps=0\.2"):
        run_sweep(cfg)
    with pytest.raises(ValueError, match="supercritical"):
        _small_cfg(regime="sub", alpha=0.01, checkers=("giant_expansion",)).validate()
    mapping = {"family": "random_regular", "n": 500, "d": 8, "epsilon": 0.2,
               "regime": "super", "trials": 1, "seed": 0, "checkers": "giant_expansion"}
    with pytest.raises(ValueError, match="empty subset-size window"):
        config_from_mapping(mapping)
    # the admissible side of the bound, and a blow-up whose n, d are left blank
    config_from_mapping(dict(mapping, n=20000, alpha=0.01))
    config_from_mapping({"family": "blowup", "blowup_factor": 2, "base_n": 10000,
                         "base_d": 4, "epsilon": 0.2, "trials": 1, "seed": 0,
                         "alpha": 0.01, "checkers": "giant_expansion"})


def test_small_giant_fails_its_trial_and_the_sweep_writes(tmp_path):
    # trial 2 of master seed 1 has a largest component of 130, short of the
    # window start 16 alpha n/d = 240: that trial's check fails with the
    # cause in meta, and every record is still written
    out = tmp_path / "ge.jsonl"
    cfg = ExperimentConfig(
        gen=GenSpec("random_regular", n=20000, d=20, seed=1), epsilon=0.2, alpha=0.015,
        regime="super", trials=3, master_seed=1, checkers=("giant_expansion",),
        samples=20, out=str(out),
    )
    run_sweep(cfg)
    trials = [json.loads(line) for line in out.read_text().splitlines()][1:4]
    checks = [t["checks"][0] for t in trials]
    assert [c["pass"] for c in checks] == [True, True, False]
    assert [c["instances_checked"] for c in checks] == [20, 20, 1]
    assert checks[2]["meta"]["cause"] == "largest component (130) does not reach the window start 240"
    assert checks[2]["meta"]["giant"] == trials[2]["census"]["largest"] == 130
    assert checks[2]["violations"] == [{"witness": "largest component", "measured": 130.0,
                                        "bound": 241.0}]
    assert "cause" not in checks[0]["meta"]


def test_workers_do_not_enter_serialized_config():
    a = _small_cfg(workers=1).to_dict()
    b = _small_cfg(workers=8).to_dict()
    assert a == b
    assert "workers" not in a


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def test_full_retention_clique_sweep(tmp_path):
    # retention 1 on one 4-clique: the whole graph is the only component
    cfg = ExperimentConfig(
        gen=GenSpec("clique_union", n=4, d=3), epsilon=2.0, alpha=0.1,
        regime="super", trials=1, master_seed=5, out=str(tmp_path / "k4.jsonl"),
    )
    assert cfg.p == 1.0
    summary = run_sweep(cfg)
    assert summary["metrics"]["L1_median"] == 4.0
    assert summary["metrics"]["Zp_median"] == 6.0
    assert summary["metrics"]["eL1_median"] == 6.0
    assert summary["metrics"]["components_median"] == 1.0


def test_sweep_rerun_is_byte_identical(tmp_path):
    out = str(tmp_path / "rec.jsonl")
    cfg = _small_cfg(out=out, checkers=("stream",))
    run_sweep(cfg)
    first = open(out, "rb").read()
    first_csv = open(out + ".csv", "rb").read()
    run_sweep(cfg)
    assert open(out, "rb").read() == first
    assert open(out + ".csv", "rb").read() == first_csv


def test_sweep_worker_count_invisible_in_records(tmp_path):
    out = str(tmp_path / "w.jsonl")
    run_sweep(_small_cfg(out=out, trials=6))
    serial = open(out, "rb").read()
    run_sweep(_small_cfg(out=out, trials=6, workers=3))
    assert open(out, "rb").read() == serial


def test_sweep_resume_from_torn_file(tmp_path):
    out = str(tmp_path / "resume.jsonl")
    cfg = _small_cfg(out=out, trials=5)
    run_sweep(cfg)
    whole = open(out, "r", encoding="utf-8").read()
    lines = whole.split("\n")
    # keep config + two trials + a torn third trial, drop the rest
    torn = "\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(torn)
    run_sweep(cfg, resume=True)
    assert open(out, "r", encoding="utf-8").read() == whole


def test_sweep_output_path_invisible_in_records(tmp_path):
    (tmp_path / "elsewhere").mkdir()
    out_a = str(tmp_path / "a.jsonl")
    out_b = str(tmp_path / "elsewhere" / "b.jsonl")
    run_sweep(_small_cfg(out=out_a, checkers=("stream",)))
    run_sweep(_small_cfg(out=out_b, checkers=("stream",)))
    assert open(out_a, "rb").read() == open(out_b, "rb").read()
    assert open(out_a + ".csv", "rb").read() == open(out_b + ".csv", "rb").read()
    head = json.loads(open(out_a, encoding="utf-8").readline())
    assert "out" not in head["config"] and head["format"] == 2


def test_sweep_resume_from_renamed_torn_file(tmp_path, monkeypatch):
    out = str(tmp_path / "first.jsonl")
    cfg = _small_cfg(out=out, trials=5)
    run_sweep(cfg)
    whole = open(out, "r", encoding="utf-8").read()
    lines = whole.split("\n")
    renamed = str(tmp_path / "renamed.jsonl")
    with open(renamed, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
    ran = []
    real = harness._run_trial

    def counting(g, c, spect, i):
        ran.append(i)
        return real(g, c, spect, i)

    monkeypatch.setattr(harness, "_run_trial", counting)
    run_sweep(replace(cfg, out=renamed), resume=True)
    assert ran == [2, 3, 4]  # the two intact trial lines were reused
    assert open(renamed, "r", encoding="utf-8").read() == whole


def test_sweep_resume_rejects_other_config(tmp_path):
    out = str(tmp_path / "mix.jsonl")
    run_sweep(_small_cfg(out=out))
    with pytest.raises(ValueError, match="different config"):
        run_sweep(_small_cfg(out=out, epsilon=0.3), resume=True)


def test_sweep_trial_seeds_derive_from_master(tmp_path):
    out = str(tmp_path / "seeds.jsonl")
    cfg = _small_cfg(out=out)
    run_sweep(cfg)
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    trials = [r for r in recs if r["kind"] == "trial"]
    assert [t["seed"] for t in trials] == [
        trial_seed(cfg.master_seed, i) for i in range(cfg.trials)
    ]
    assert recs[0]["kind"] == "config" and recs[-1]["kind"] == "summary"


def test_sweep_requires_out_path():
    with pytest.raises(ValueError, match="output path"):
        run_sweep(_small_cfg(out=None))


def test_sweep_csv_mirror(tmp_path):
    out = str(tmp_path / "c.jsonl")
    cfg = _small_cfg(out=out, checkers=("stream",))
    run_sweep(cfg)
    with open(out + ".csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:4] == ["trial_index", "seed", "retained", "components"]
    assert "T4" in header and "checks_pass" in header
    assert len(body) == cfg.trials
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    t0 = next(r for r in recs if r.get("trial_index") == 0)
    row0 = body[0]
    assert int(row0[2]) == t0["census"]["retained"]
    assert int(row0[header.index("cycle_lb")]) == t0["census"]["cycle_lb"]
    assert row0[header.index("checks_pass")] == "1"


def test_sweep_regen_graph_varies_instances(tmp_path):
    out_a = str(tmp_path / "fixed.jsonl")
    out_b = str(tmp_path / "regen.jsonl")
    run_sweep(_small_cfg(out=out_a, trials=3))
    run_sweep(_small_cfg(out=out_b, trials=3, regen_graph=True))
    a = [json.loads(x) for x in open(out_a, encoding="utf-8").read().splitlines()]
    b = [json.loads(x) for x in open(out_b, encoding="utf-8").read().splitlines()]
    # same coin seeds, different graphs: censuses should not all coincide
    ca = [r["census"] for r in a if r["kind"] == "trial"]
    cb = [r["census"] for r in b if r["kind"] == "trial"]
    assert ca != cb


def test_sweep_regen_graph_certifies_each_graph_with_its_own_spectrum(tmp_path):
    out = str(tmp_path / "regen_spec.jsonl")
    cfg = _small_cfg(out=out, trials=2, regen_graph=True, spectrum=True,
                     checkers=("mixing", "corollary_2_3"), pairs=20)
    run_sweep(cfg)
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    parent_lam = _effective_lambda(compute_spectrum(generate(cfg.gen), tol=cfg.spectrum_tol))
    for t in (r for r in recs if r["kind"] == "trial"):
        g = generate(replace(cfg.gen, seed=trial_seed(cfg.gen.seed, t["trial_index"])))
        own_lam = _effective_lambda(compute_spectrum(g, tol=cfg.spectrum_tol))
        assert own_lam != parent_lam
        assert [c["meta"]["lambda_eff"] for c in t["checks"]] == [own_lam, own_lam]


# ----------------------------------------------------------------------
# comparison table
# ----------------------------------------------------------------------
def test_compare_matches_summary_rows(tmp_path):
    out = str(tmp_path / "cmp.jsonl")
    summary = run_sweep(_small_cfg(out=out))
    result = compare(out)
    assert result["rows"] == summary["rows"]
    assert result["pass"] == summary["pass"]
    assert result["trials"] == 4 and result["regime"] == "sub"


def test_compare_error_cases(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        compare(str(empty))

    noconf = tmp_path / "noconf.jsonl"
    noconf.write_text('{"kind":"trial","trial_index":0}\n')
    with pytest.raises(ValueError, match="config record"):
        compare(str(noconf))

    out = str(tmp_path / "torn.jsonl")
    run_sweep(_small_cfg(out=out))
    lines = open(out, encoding="utf-8").read().splitlines()
    headless = tmp_path / "nosentinel.jsonl"
    headless.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="sentinel"):
        compare(str(headless))

    extra = tmp_path / "extra.jsonl"
    extra.write_text("\n".join(lines[:-1] + [lines[1], lines[-1]]) + "\n")
    with pytest.raises(ValueError, match="trial records"):
        compare(str(extra))


def test_forced_tolerance_failure_names_the_claim(tmp_path):
    out = str(tmp_path / "fail.jsonl")
    cfg = ExperimentConfig(
        gen=GenSpec("random_regular", n=500, d=8, seed=21),
        epsilon=0.2, alpha=0.1, regime="super", trials=3, master_seed=9,
        out=out, tolerances={"L1_median": 1e-6},
    )
    summary = run_sweep(cfg)
    assert summary["pass"] is False
    fail_rows = [r for r in summary["rows"] if not r["pass"]]
    assert any(r["metric"] == "L1_median" and r["claim"] == "theorem_2" for r in fail_rows)
    # compare() reads tolerances back from the config record
    again = compare(out)
    assert again["pass"] is False
    assert again["rows"] == summary["rows"]


def test_row_shape(tmp_path):
    out = str(tmp_path / "rows.jsonl")
    summary = run_sweep(_small_cfg(out=out))
    for row in summary["rows"]:
        assert set(row) == {
            "metric", "claim", "measured", "predicted", "claim_bound", "tolerance", "pass",
        }
    metrics = [r["metric"] for r in summary["rows"]]
    assert metrics == ["max_component_rate", "max_component_median"]
    claims = {r["claim"] for r in summary["rows"]}
    assert claims == {"theorem_1"}


def test_super_rows_cover_all_claims(tmp_path):
    out = str(tmp_path / "super.jsonl")
    cfg = ExperimentConfig(
        gen=GenSpec("random_regular", n=500, d=8, seed=21),
        epsilon=0.2, alpha=0.1, regime="super", trials=3, master_seed=9, out=out,
    )
    summary = run_sweep(cfg)
    claims = [(r["metric"], r["claim"]) for r in summary["rows"]]
    assert claims == [
        ("L1_median", "theorem_2"),
        ("L1_window_rate", "theorem_2"),
        ("L2_rate", "theorem_3"),
        ("T1_median", "lemma_5_4"),
        ("T2_median", "lemma_5_4"),
        ("Zp_median", "lemma_6_1"),
        ("eL1_median", "theorem_4"),
        ("cycle_rate", "theorem_5"),
    ]


def test_super_median_rows_use_finite_d_predictions(tmp_path):
    out = str(tmp_path / "finite_d.jsonl")
    # alpha = 0.014 narrows the Theorem 2 window to L1_tol = 6.1, so the
    # asymptotic and finite-d centres (23.5 and 9.2) disagree on the trials
    cfg = ExperimentConfig(
        gen=GenSpec("random_regular", n=500, d=8, seed=21),
        epsilon=0.2, alpha=0.014, regime="super", trials=3, master_seed=9, out=out,
    )
    rows = {r["metric"]: r for r in run_sweep(cfg)["rows"]}
    pred = predict(500, 8, 0.2, 0.014, cfg.k_max)
    assert rows["L1_median"]["predicted"] == pred.L1_pred_finite_d
    assert rows["eL1_median"]["predicted"] == pred.e_L1_pred_finite_d
    assert rows["T1_median"]["predicted"] == pred.T_k_pred_finite_d[0]
    assert rows["T2_median"]["predicted"] == pred.T_k_pred_finite_d[1]
    assert rows["Zp_median"]["predicted"] == pred.Zp_pred
    # the paper's own window for Theorem 2 stays on the asymptotic L1
    assert rows["L1_median"]["claim_bound"] == pred.L1_tol
    win = rows["L1_window_rate"]
    assert win["claim_bound"] == pred.L1_tol
    trials = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()][1:-1]
    l1 = [t["census"]["largest"] for t in trials]
    inside = [abs(v - pred.L1_pred) <= pred.L1_tol for v in l1]
    assert inside != [abs(v - pred.L1_pred_finite_d) <= pred.L1_tol for v in l1]
    assert win["measured"] == sum(inside) / len(inside)
    assert compare(out)["rows"] == list(rows.values())
