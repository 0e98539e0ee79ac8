import csv
import ctypes
import importlib.util
import json
import multiprocessing
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest
import scipy.sparse.csgraph

import percolab
from percolab import harness, percolation
from percolab.generators import GenSpec, generate
from percolab.harness import (
    ExperimentConfig,
    compare,
    config_from_mapping,
    load_config_file,
    run_sweep,
    trial_at_seed,
)
from percolab.rng import trial_seed
from percolab.spectral import compute_spectrum
from percolab.theory import predict


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
    # the gates are fixed: a tolerance key is as unknown as a misspelling
    with pytest.raises(ValueError, match="^unknown config keys: tol_L1_median$"):
        config_from_mapping(m)
    del m["tol_L1_median"]
    cfg = config_from_mapping(m)
    assert cfg.gen.n == 600 and cfg.trials == 2
    assert cfg.checkers == ("stream",)


def test_load_config_file_rejects_bare_tokens(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("family random_regular\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config_file(p)


_BLOWUP_MAPPING = {"family": "blowup", "n": 200, "d": 10, "graph_seed": 3, "blowup_factor": 2,
                   "base_family": "random_regular", "epsilon": 0.2, "trials": 1, "seed": 0}


def test_config_from_mapping_blowup():
    cfg = config_from_mapping(_BLOWUP_MAPPING)
    assert cfg.gen.family == "blowup" and cfg.gen.base == GenSpec("random_regular", 100, 5, 3)
    assert cfg.p == pytest.approx(1.2 / 10)


@pytest.mark.parametrize("change, cause", [
    ({"n": None}, "blowup needs n and d positive multiples of blowup_factor 2, got n=0 d=10"),
    ({"d": None}, "blowup needs n and d positive multiples of blowup_factor 2, got n=200 d=0"),
    ({"n": 201}, "blowup needs n and d positive multiples of blowup_factor 2, got n=201 d=10"),
    ({"d": 9}, "blowup needs n and d positive multiples of blowup_factor 2, got n=200 d=9"),
    ({"base_family": None}, "blowup needs a base_family other than blowup, got None"),
    ({"blowup_factor": None}, "blowup_factor must be an integer >= 2, got None"),
    ({"family": "random_regular", "base_family": None},
     "blowup_factor applies only to family blowup, not random_regular"),
    ({"family": "random_regular", "blowup_factor": None},
     "base_family applies only to family blowup, not random_regular"),
], ids=["blank_n", "blank_d", "n_not_multiple", "d_not_multiple", "no_base_family",
        "no_blowup_factor", "blowup_factor_off_blowup", "base_family_off_blowup"])
def test_config_from_mapping_rejects_a_bad_blowup_by_name(change, cause):
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        config_from_mapping({**_BLOWUP_MAPPING, **change})


# one value per key type that the type does not take, as a config file
# spells it and as a mapping (a record, a caller) gives it
@pytest.mark.parametrize("key, text, value", [
    ("regen_graph", "flase", 1),
    ("trials", "1.9", True),
    ("epsilon", "high", True),
    ("family", "5", 5),
    ("checkers", "5", 5),
], ids=["bool", "int", "float", "str", "checkers"])
def test_config_values_are_cast_exactly(tmp_path, key, text, value):
    good = {"n": 400, "d": 8, "epsilon": 0.2, "trials": 2, "seed": 1}
    path = tmp_path / "sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in good.items()) + f"{key} = {text}\n")
    from_file = load_config_file(path)[key]
    for bad in (from_file, value):
        with pytest.raises(ValueError, match=f"^config key {key} takes .*, got "
                                             f"{re.escape(repr(bad))}$"):
            config_from_mapping({**good, key: bad})


def test_config_values_of_the_right_type_are_taken():
    cfg = config_from_mapping({"n": 400, "d": 8, "epsilon": 1, "trials": 2, "seed": 1,
                               "regen_graph": False, "checkers": ["stream"]})
    assert cfg.epsilon == 1.0 and isinstance(cfg.epsilon, float)
    assert cfg.checkers == ("stream",) and cfg.regen_graph is False
    with pytest.raises(ValueError, match="^config key n takes int, got 400.7$"):
        config_from_mapping({"n": 400.7, "d": 8, "epsilon": 0.2, "trials": 2, "seed": 1})


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
    with pytest.raises(ValueError, match="^unknown config keys: tol_L1_median$"):
        config_from_mapping(dict(good, tol_L1_median=0.2))
    cfg = config_from_mapping(good)
    assert cfg.alpha == 0.1 and cfg.regime == "super"  # the field defaults


def _workload_mappings() -> list:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.sweep_mapping(name, 1) for name in workloads.WORKLOADS]


def test_config_from_mapping_accepts_benchmark_workloads():
    for mapping in _workload_mappings():
        cfg = config_from_mapping(mapping)
        assert cfg.gen.n == mapping["n"] and cfg.master_seed == mapping["seed"]
        assert cfg.checkers == tuple(mapping["checkers"].split(","))


def test_config_record_reads_back_to_its_config():
    for mapping in [*_workload_mappings(), dict(_BLOWUP_MAPPING, workers=2, out="b.jsonl")]:
        cfg = config_from_mapping(mapping)
        assert config_from_mapping(cfg.to_dict()) == replace(cfg, workers=1, out=None)


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
    for alpha in (-0.1, 0.0, 1.5):  # delta_of_alpha's domain is (0, 1]
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\], got"):
            _small_cfg(alpha=alpha).validate()
    for spectrum in (False, True):
        with pytest.raises(ValueError, match="spectrum_tol must be positive, got -1.0"):
            _small_cfg(spectrum=spectrum, spectrum_tol=-1.0).validate()
    # eps = 3 at d = 3 asks for retention 4/3
    bad = ExperimentConfig(
        gen=GenSpec("clique_union", n=4, d=3), epsilon=3.0, alpha=0.1,
        regime="super", trials=1, master_seed=0,
    )
    with pytest.raises(ValueError, match="retention"):
        bad.validate()


@pytest.mark.parametrize("key, value", [("pairs", 0), ("subsets", -1), ("samples", 0),
                                        ("beta_test", 0.0), ("alpha", 0.0), ("alpha", -0.1),
                                        ("spectrum_tol", -1.0)])
def test_config_rejects_checker_counts_that_check_nothing(tmp_path, monkeypatch, key, value):
    def no_generate(spec):
        raise AssertionError("generate ran for a config that cannot pass validation")

    monkeypatch.setattr(harness, "generate", no_generate)
    cfg = _small_cfg(out=str(tmp_path / "z.jsonl"), spectrum=True,
                     checkers=("mixing", "lemma_2_4"), **{key: value})
    with pytest.raises(ValueError, match=f"{key} must be"):
        run_sweep(cfg)
    assert not (tmp_path / "z.jsonl").exists()


@pytest.mark.parametrize("key", ["spectrum_tol", "beta_test"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_floats(key, value):
    mapping = {"n": 500, "d": 8, "epsilon": 0.2, "trials": 1, "seed": 0,
               "spectrum": True, "checkers": "mixing", key: float(value)}
    with pytest.raises(ValueError, match=f"{key} must be finite, got {value}"):
        config_from_mapping(mapping)


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
    # the admissible side of the bound, for a random graph and for a blow-up
    config_from_mapping(dict(mapping, n=20000, alpha=0.01))
    config_from_mapping(dict(mapping, family="blowup", n=20000, d=8, blowup_factor=2,
                             base_family="random_regular", alpha=0.01))


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


def test_production_never_labels_with_scipy(tmp_path, monkeypatch):
    # the census reads its labels off the exploration's forest; scipy's
    # connected_components is the tests' oracle only
    def oracle(*args, **kwargs):
        raise AssertionError("production code labelled components with scipy")

    for module, name in ((percolation, "components_oracle"), (percolab, "components_oracle"),
                         (scipy.sparse.csgraph, "connected_components")):
        monkeypatch.setattr(module, name, oracle)
    _, trace, _, census = harness.percolate(generate(GenSpec("random_regular", n=500, d=8,
                                                             seed=21)), 0.15, 3, 4)
    assert census.num_components == trace.num_epochs > 0
    summary = run_sweep(_small_cfg(out=str(tmp_path / "r.jsonl"), trials=1, regime="super",
                                   checkers=("stream",)))
    assert summary["trials"] == 1


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
    # 7 trials: the parent's share and the helpers' differ in size
    out = str(tmp_path / "w.jsonl")
    run_sweep(_small_cfg(out=out, trials=7))
    serial = open(out, "rb").read(), open(out + ".csv", "rb").read()
    for workers in (2, 3):
        run_sweep(_small_cfg(out=out, trials=7, workers=workers))
        assert (open(out, "rb").read(), open(out + ".csv", "rb").read()) == serial


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_resume_fills_scattered_gaps(tmp_path, workers):
    out = str(tmp_path / "gaps.jsonl")
    cfg = _small_cfg(out=out, trials=7)
    run_sweep(cfg)
    whole = open(out, "rb").read(), open(out + ".csv", "rb").read()
    lines = whole[0].splitlines(keepends=True)
    # the config line and trials 0, 2, 3 and 6: trials 1, 4 and 5 are missing
    with open(out, "wb") as fh:
        fh.writelines(lines[i] for i in (0, 1, 3, 4, 7))
    os.remove(out + ".csv")
    run_sweep(replace(cfg, workers=workers), resume=True)
    assert (open(out, "rb").read(), open(out + ".csv", "rb").read()) == whole


def _has_malloc_trim() -> bool:
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "malloc_trim")


@pytest.mark.skipif(not _has_malloc_trim(), reason="needs Linux with glibc's malloc_trim")
def test_release_free_heap_returns_the_free_pages_below_a_live_block():
    # a fresh interpreter, so no earlier test's heap is in the figures: 640
    # blocks of 64 KiB, below glibc's mmap threshold, come from the heap, and
    # once freed under a live block free() cannot shrink the heap past them
    script = (
        "import numpy as np\n"
        "from percolab.harness import _resident_mb, release_free_heap\n"
        "blocks = [np.ones(8192) for _ in range(640)]\n"
        "live = np.ones(8192)\n"
        "del blocks\n"
        "before = _resident_mb()\n"
        "release_free_heap()\n"
        "print(before, _resident_mb(), live.sum())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    before, after, live = proc.stdout.split()
    assert live == "8192.0"  # the live block is untouched by the release
    freed_mb = 640 * 64 / 1024
    assert float(before) - float(after) >= 0.9 * freed_mb, (before, after)


# the parent runs its share of the trials, so a pool has workers - 1 processes
@pytest.mark.parametrize("workers, expected", [(1, []), (2, ["release", "pool of 1"]),
                                               (3, ["release", "pool of 2"])])
def test_sweep_releases_the_heap_only_before_a_pool(tmp_path, monkeypatch, workers, expected):
    events = []
    real_get_context = multiprocessing.get_context

    class RecordingContext:
        def __init__(self, method):
            self._ctx = real_get_context(method)

        def Pool(self, processes, **kw):
            events.append(f"pool of {processes}")
            return self._ctx.Pool(processes, **kw)

    monkeypatch.setattr(harness, "release_free_heap", lambda: events.append("release"))
    monkeypatch.setattr(harness.multiprocessing, "get_context", RecordingContext)
    run_sweep(_small_cfg(out=str(tmp_path / "r.jsonl"), trials=3, workers=workers))
    assert events == expected


@pytest.mark.parametrize("workers, trials, expected", [(64, 3, 2), (3, 2, 1)])
def test_sweep_pool_has_no_more_processes_than_helper_trials(tmp_path, monkeypatch, workers,
                                                             trials, expected):
    # the parent runs at least one trial, so at most trials - 1 helpers have
    # one to run; a larger pool is refused before it forks anything
    sizes = []
    real_get_context = multiprocessing.get_context

    class RefusingContext:
        def __init__(self, method):
            self._ctx = real_get_context(method)

        def Pool(self, processes, **kw):
            sizes.append(processes)
            assert processes <= trials - 1, f"a pool of {processes} for {trials - 1} trials"
            return self._ctx.Pool(processes, **kw)

    monkeypatch.setattr(harness.multiprocessing, "get_context", RefusingContext)
    summary = run_sweep(_small_cfg(out=str(tmp_path / "r.jsonl"), trials=trials,
                                   workers=workers))
    assert sizes == [expected] and summary["trials"] == trials


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_resume_of_a_complete_file_runs_no_trial(tmp_path, monkeypatch, workers):
    out = tmp_path / "done.jsonl"
    cfg = _small_cfg(out=str(out), trials=3, checkers=("stream",))
    run_sweep(cfg)
    whole = out.read_bytes(), (tmp_path / "done.jsonl.csv").read_bytes()

    def no_trial(*args):
        raise AssertionError("a resumed complete sweep ran a trial")

    monkeypatch.setattr(harness, "_trial", no_trial)
    run_sweep(replace(cfg, workers=workers), resume=True)
    assert (out.read_bytes(), (tmp_path / "done.jsonl.csv").read_bytes()) == whole


def test_trial_at_seed_is_the_sweep_trial_of_that_seed(tmp_path):
    # verify's path: the sweep's own set-up and trial body, reached by trial seed
    cfg = _small_cfg(out=str(tmp_path / "r.jsonl"), trials=2, spectrum=True,
                     checkers=("stream", "mixing", "corollary_2_3", "lemma_2_4"))
    run_sweep(cfg)
    with open(cfg.out, encoding="utf-8") as fh:
        trials = [r for r in map(json.loads, fh) if r["kind"] == "trial"]
    assert len(trials) == 2 and all(len(t["checks"]) == 4 for t in trials)
    for t in trials:
        rec = {**trial_at_seed(cfg, t["seed"]), "trial_index": t["trial_index"]}
        assert harness._dumps(rec) == harness._dumps(t)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_names_the_failing_trial(tmp_path, monkeypatch, workers):
    real_trial = harness._trial
    cfg = _small_cfg(out=str(tmp_path / "f.jsonl"), trials=5, workers=workers)
    # with 2 workers the parent runs trials 0, 2 and 4, and the helper 1 and 3
    for failing in (2, 3):
        failing_seed = trial_seed(cfg.master_seed, failing)

        def fail_one(g, cfg, spect, seed, failing=failing, failing_seed=failing_seed):
            if seed == failing_seed:
                raise ZeroDivisionError(f"boom in trial {failing}")
            return real_trial(g, cfg, spect, seed)

        monkeypatch.setattr(harness, "_trial", fail_one)
        with pytest.raises(RuntimeError) as info:
            run_sweep(cfg)
        assert str(info.value) == (
            f"trial {failing} (seed {failing_seed}) failed: ZeroDivisionError: "
            f"boom in trial {failing}")
        # a helper's traceback reaches the parent as text
        assert f"boom in trial {failing}" in str(info.value.__cause__)
        if failing % workers == 0:  # the parent's own share
            assert isinstance(info.value.__cause__, ZeroDivisionError)
        else:
            assert not isinstance(info.value.__cause__, ZeroDivisionError)
        assert not (tmp_path / "f.jsonl").exists()


def test_sweep_failed_write_leaves_previous_records(tmp_path, monkeypatch):
    out = tmp_path / "p.jsonl"
    cfg = _small_cfg(out=str(out), trials=3)
    run_sweep(cfg)
    records, table = out.read_bytes(), (tmp_path / "p.jsonl.csv").read_bytes()
    real_dumps = harness._dumps

    def fail_on_summary(obj):
        if obj["kind"] == "summary":
            raise OSError("disk full")
        return real_dumps(obj)

    monkeypatch.setattr(harness, "_dumps", fail_on_summary)
    with pytest.raises(OSError, match="disk full"):
        run_sweep(replace(cfg, trials=2))
    assert out.read_bytes() == records
    assert (tmp_path / "p.jsonl.csv").read_bytes() == table
    assert sorted(os.listdir(tmp_path)) == ["p.jsonl", "p.jsonl.csv"]
    monkeypatch.undo()
    run_sweep(cfg, resume=True)
    assert out.read_bytes() == records


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
    assert "out" not in head["config"] and head["format"] == 5
    assert "tolerances" not in head["config"]


def _counting_trials(monkeypatch, stop_at=None):
    """The trial seeds the sweep runs from now on; KeyboardInterrupt at trial seed stop_at."""
    ran, real = [], harness._trial

    def counting(g, c, spect, seed):
        if seed == stop_at:
            raise KeyboardInterrupt
        ran.append(seed)
        return real(g, c, spect, seed)

    monkeypatch.setattr(harness, "_trial", counting)
    return ran


def test_sweep_resume_from_renamed_torn_file(tmp_path, monkeypatch):
    out = str(tmp_path / "first.jsonl")
    cfg = _small_cfg(out=out, trials=5)
    run_sweep(cfg)
    whole = open(out, "r", encoding="utf-8").read()
    lines = whole.split("\n")
    renamed = str(tmp_path / "renamed.jsonl")
    with open(renamed, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
    ran = _counting_trials(monkeypatch)
    run_sweep(replace(cfg, out=renamed), resume=True)
    # the two intact trial lines were reused
    assert ran == [trial_seed(cfg.master_seed, i) for i in (2, 3, 4)]
    assert open(renamed, "r", encoding="utf-8").read() == whole


def test_sweep_resume_rejects_other_config(tmp_path):
    out = str(tmp_path / "mix.jsonl")
    run_sweep(_small_cfg(out=out))
    with pytest.raises(ValueError, match="different config"):
        run_sweep(_small_cfg(out=out, epsilon=0.3), resume=True)


def test_interrupted_sweep_keeps_its_lines_for_resume(tmp_path, monkeypatch):
    out = tmp_path / "i.jsonl"
    cfg = _small_cfg(out=str(out), trials=6, checkers=("stream",))
    run_sweep(cfg)
    whole = out.read_bytes(), (tmp_path / "i.jsonl.csv").read_bytes()
    _counting_trials(monkeypatch, stop_at=trial_seed(cfg.master_seed, 3))
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cfg)
    # the previous files stay whole; the temp file holds the config line and trials 0-2
    assert (out.read_bytes(), (tmp_path / "i.jsonl.csv").read_bytes()) == whole
    assert (tmp_path / "i.jsonl.tmp").read_bytes() == b"".join(
        whole[0].splitlines(keepends=True)[:4])
    monkeypatch.undo()
    ran = _counting_trials(monkeypatch)
    run_sweep(cfg, resume=True)
    assert ran == [trial_seed(cfg.master_seed, i) for i in (3, 4, 5)]
    assert (out.read_bytes(), (tmp_path / "i.jsonl.csv").read_bytes()) == whole
    assert sorted(os.listdir(tmp_path)) == ["i.jsonl", "i.jsonl.csv"]


def test_sweep_resume_reads_the_temp_file_before_the_records(tmp_path, monkeypatch):
    out = tmp_path / "t.jsonl"
    cfg = _small_cfg(out=str(out), trials=4)
    run_sweep(cfg)
    whole = out.read_bytes(), (tmp_path / "t.jsonl.csv").read_bytes()
    # a temp file of the config line and trial 0 beside the complete records
    (tmp_path / "t.jsonl.tmp").write_bytes(b"".join(whole[0].splitlines(keepends=True)[:2]))
    ran = _counting_trials(monkeypatch)
    run_sweep(cfg, resume=True)
    assert ran == [trial_seed(cfg.master_seed, i) for i in (1, 2, 3)]
    assert (out.read_bytes(), (tmp_path / "t.jsonl.csv").read_bytes()) == whole
    # a temp file of another config is rejected by name, and nothing is written
    run_sweep(replace(cfg, out=str(tmp_path / "other.jsonl"), epsilon=0.3))
    os.replace(tmp_path / "other.jsonl", tmp_path / "t.jsonl.tmp")
    files = {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}
    with pytest.raises(ValueError) as info:
        run_sweep(cfg, resume=True)
    assert str(info.value) == f"{out}.tmp: existing records were produced by a different config"
    assert {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)} == files


def test_sweep_resume_names_the_record_format(tmp_path):
    out = tmp_path / "old.jsonl"
    run_sweep(_small_cfg(out=str(out)))
    head, rest = out.read_text(encoding="utf-8").split("\n", 1)
    old = json.loads(head)
    old["format"] = 3  # a head written while a config could override the gates
    old["config"]["tolerances"] = {}
    out.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n" + rest,
                   encoding="utf-8")
    with pytest.raises(ValueError, match="records are format 3, this version writes format 5"):
        run_sweep(_small_cfg(out=str(out)), resume=True)


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
    assert header == ["trial_index", "seed", "retained", "components", "largest",
                      "second_largest", "largest_edges", "retained_edges", "T1", "T2", "T3", "T4",
                      "straggler_vertices", "cycle_lb", "epochs", "largest_epoch", "checks_pass"]
    assert len(body) == cfg.trials
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    t0 = next(r for r in recs if r.get("trial_index") == 0)
    row0 = body[0]
    assert int(row0[2]) == t0["census"]["retained"]
    assert int(row0[header.index("cycle_lb")]) == t0["census"]["cycle_lb"]
    assert row0[header.index("checks_pass")] == "1"
    assert set(recs[-1]["metrics"]) == {
        "L1_median", "L2_median", "eL1_median", "Zp_median", "retained_median", "cycle_lb_median",
        "components_median", "T1_median", "T2_median", "T3_median", "T4_median"}


def test_trial_field_table_lists_what_the_producers_write():
    g = generate(GenSpec("random_regular", n=500, d=8, seed=21))
    _, trace, _, census = harness.percolate(g, 1.2 / 8, 5, 4)
    assert list(census.to_summary()) == list(harness._TRIAL_FIELDS["census"])
    assert list(trace.summary()) == list(harness._TRIAL_FIELDS["dfs"])


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


def test_regen_blowup_sweep_draws_a_graph_per_trial(tmp_path, monkeypatch):
    specs, graphs = [], []
    real_generate = harness.generate

    def recorded_generate(spec):
        specs.append(spec)
        graphs.append(real_generate(spec))
        return graphs[-1]

    monkeypatch.setattr(harness, "generate", recorded_generate)
    gen = GenSpec("blowup", n=500, d=8, seed=3, blowup_factor=2, base_family="random_regular")
    run_sweep(_small_cfg(out=str(tmp_path / "b.jsonl"), gen=gen, trials=3, regen_graph=True))
    # trial i runs on the graph of the spec perfbench's check_run and replay
    # rebuild it from; a blow-up's base shares its seed, so the base is reseeded
    assert specs == [replace(gen, seed=trial_seed(3, i)) for i in range(3)]
    assert [s.base.seed for s in specs] == [trial_seed(3, i) for i in range(3)]
    assert len({g.neighbors.tobytes() for g in graphs}) == 3


@pytest.mark.parametrize("gen, family", [
    (GenSpec("hypercube", n=16, d=4), "hypercube"),
    (GenSpec("blowup", n=40, d=8, blowup_factor=2, base_family="clique_union"), "clique_union"),
], ids=["hypercube", "blowup_of_clique_union"])
def test_regen_graph_rejects_a_family_of_one_graph(gen, family):
    with pytest.raises(ValueError, match=f"regen_graph needs a random family: {family} has one"):
        _small_cfg(gen=gen, regen_graph=True).validate()
    _small_cfg(gen=gen).validate()  # a fixed-graph sweep of it is fine


@pytest.mark.parametrize("spectrum", [False, True])
def test_regen_sweep_generates_the_setup_graph_only_for_the_spectrum(tmp_path, monkeypatch,
                                                                     spectrum):
    specs = []
    real_generate = harness.generate

    def recorded_generate(spec):
        specs.append(spec)
        return real_generate(spec)

    monkeypatch.setattr(harness, "generate", recorded_generate)
    cfg = _small_cfg(out=str(tmp_path / "r.jsonl"), trials=3, regen_graph=True,
                     spectrum=spectrum)
    run_sweep(cfg)
    trial_specs = [replace(cfg.gen, seed=trial_seed(cfg.gen.seed, i)) for i in range(3)]
    assert specs == [cfg.gen] * spectrum + trial_specs
    assert cfg.gen.seed not in [s.seed for s in trial_specs]


def test_fixed_graph_sweep_keeps_its_setup_graph_for_every_trial(tmp_path, monkeypatch):
    setup, alive = [], []
    real_generate, real_trial = harness.generate, harness._trial

    def tracked_generate(spec):
        g = real_generate(spec)
        setup.append(weakref.ref(g))
        return g

    def watched_trial(g, cfg, spect, seed):
        alive.append(setup[0]() is g)
        return real_trial(g, cfg, spect, seed)

    monkeypatch.setattr(harness, "generate", tracked_generate)
    monkeypatch.setattr(harness, "_trial", watched_trial)
    run_sweep(_small_cfg(out=str(tmp_path / "r.jsonl"), trials=3))
    assert len(setup) == 1 and alive == [True] * 3


@pytest.mark.parametrize("gen", [
    GenSpec("random_regular", n=500, d=8, seed=21),
    GenSpec("blowup", n=500, d=8, seed=3, blowup_factor=2, base_family="random_regular"),
])
def test_config_record_does_not_depend_on_regen_graph(tmp_path, gen):
    heads = []
    for regen in (False, True):
        out = str(tmp_path / f"regen_{regen}.jsonl")
        run_sweep(_small_cfg(out=out, gen=gen, trials=1, regen_graph=regen))
        with open(out, encoding="utf-8") as fh:
            heads.append(json.loads(fh.readline()))
    fixed, regen = heads
    assert (fixed["n"], fixed["d"]) == (500, 8)
    assert fixed["config"].pop("regen_graph") is False
    assert regen["config"].pop("regen_graph") is True
    assert fixed == regen


def test_sweep_regen_graph_certifies_each_graph_with_its_own_spectrum(tmp_path):
    out = str(tmp_path / "regen_spec.jsonl")
    cfg = _small_cfg(out=out, trials=2, regen_graph=True, spectrum=True,
                     checkers=("mixing", "corollary_2_3"), pairs=20)
    run_sweep(cfg)
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    parent = compute_spectrum(generate(cfg.gen), tol=cfg.spectrum_tol)
    assert recs[0]["spectrum"] == parent.to_dict()
    parent_lam = parent.lambda_eff
    for t in (r for r in recs if r["kind"] == "trial"):
        g = generate(replace(cfg.gen, seed=trial_seed(cfg.gen.seed, t["trial_index"])))
        own_lam = compute_spectrum(g, tol=cfg.spectrum_tol).lambda_eff
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


@pytest.mark.parametrize("regime", ["sub", "super"])
def test_compare_rebuilds_the_summary_line(tmp_path, regime):
    out = str(tmp_path / "cmp.jsonl")
    run_sweep(_small_cfg(out=out, regime=regime, checkers=("stream",)))
    with open(out, encoding="utf-8") as fh:
        summary = json.loads(fh.read().splitlines()[-1])
    result = compare(out)
    assert result.pop("regime") == regime
    assert result == summary


def test_compare_requires_each_trial_once_in_order(tmp_path):
    # trial 0 three times passes as three trials unless the indices are checked
    out = tmp_path / "dup.jsonl"
    run_sweep(_small_cfg(out=str(out), trials=3))
    lines = out.read_text(encoding="utf-8").splitlines()
    out.write_text("\n".join([lines[0]] + [lines[1]] * 3 + [lines[-1]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="dup.jsonl:3: expected the record of trial 1, got a "
                                         "trial record with trial_index 0$"):
        compare(str(out))


def test_compare_error_cases(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        compare(str(empty))

    out = str(tmp_path / "torn.jsonl")
    run_sweep(_small_cfg(out=out))
    lines = open(out, encoding="utf-8").read().splitlines()
    noconf = tmp_path / "noconf.jsonl"
    noconf.write_text(lines[1] + "\n")
    with pytest.raises(ValueError, match="noconf.jsonl:1: first record must be the config record"):
        compare(str(noconf))
    headless = tmp_path / "nosentinel.jsonl"
    headless.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="sentinel"):
        compare(str(headless))

    extra = tmp_path / "extra.jsonl"
    extra.write_text("\n".join(lines[:-1] + [lines[1], lines[-1]]) + "\n")
    with pytest.raises(ValueError, match="extra.jsonl:6: expected the record of trial 4, got a "
                                         "trial record with trial_index 0"):
        compare(str(extra))

    short = tmp_path / "short.jsonl"
    short.write_text("\n".join(lines[:-2] + [lines[-1]]) + "\n")
    with pytest.raises(ValueError, match="short.jsonl: 3 trial records, config says 4"):
        compare(str(short))

    # a file cut off inside its third record names that line, not a char offset
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[:2] + [lines[2][:40]]))
    with pytest.raises(ValueError, match=r"cut\.jsonl:3: unreadable record"):
        compare(str(cut))


def test_forced_tolerance_failure_names_the_claim(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.TOLERANCES, "L1_median", 1e-6)
    out = str(tmp_path / "fail.jsonl")
    cfg = ExperimentConfig(
        gen=GenSpec("random_regular", n=500, d=8, seed=21),
        epsilon=0.2, alpha=0.1, regime="super", trials=3, master_seed=9, out=out,
    )
    summary = run_sweep(cfg)
    assert summary["pass"] is False
    fail_rows = [r for r in summary["rows"] if not r["pass"]]
    assert any(r["metric"] == "L1_median" and r["claim"] == "theorem_2" for r in fail_rows)
    # compare() judges the record at the same gates
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
