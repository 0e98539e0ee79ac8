import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import MISSING, fields

import pytest

import percolab
from percolab import census, cli, harness
from percolab.cli import build_parser, main
from percolab.harness import CONFIG_KEYS, ExperimentConfig
from percolab.spectral import delta_of_alpha

# the gen keys of the graph most commands below build: the only name a graph has
_GRAPH = ["--family", "random_regular", "--n", "300", "--d", "6", "--graph-seed", "4"]


def _no_generate(spec):
    raise AssertionError("the command built a graph it should have rejected first")


@pytest.fixture
def no_graph(monkeypatch):
    """Fail any graph build: spectrum and percolate build through cli, verify
    through the sweep's set-up in harness."""
    for module in (cli, harness):
        monkeypatch.setattr(module, "generate", _no_generate)


def test_debug_log_level_reports_pairing_attempts():
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    debug, quiet = (subprocess.run(
        [sys.executable, "-m", "percolab.cli", "--log-level", level, "percolate", *_GRAPH,
         "--p", "0.3", "--seed", "3"],
        capture_output=True, text=True, env=env, check=True,
    ) for level in ("debug", "warning"))
    assert "pairing attempt 1" in debug.stderr
    assert "n=300 d=6 seed=4" in debug.stderr
    assert "pairing attempt" not in debug.stdout
    # logging leaves stdout as the default level prints it
    assert debug.stdout == quiet.stdout and quiet.stderr == ""


def test_pool_workers_log_each_trial(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "percolab.cli", "--log-level", "info", "sweep",
         "--family", "random_regular", "--n", "400", "--d", "8", "--graph-seed", "2",
         "--epsilon", "0.6", "--regime", "sub", "--seed", "11", "--trials", "3",
         "--workers", "2", "--out", str(tmp_path / "r.jsonl")],
        capture_output=True, text=True, env=env, check=True,
    )
    lines = [x for x in proc.stderr.splitlines() if "percolab.harness: trial " in x]
    assert sorted(x.split(": trial ")[1].split(":")[0] for x in lines) == ["0", "1", "2"]
    assert "trial 0:" not in proc.stdout
    # one line before the fork: set-up time and the parent's resident MB
    release = [x for x in proc.stderr.splitlines() if "percolab.harness: set-up " in x]
    assert len(release) == 1
    assert re.search(r"set-up \d+\.\d{3}s; resident \d+\.\d MB, \d+\.\d MB after releasing "
                     r"the free heap; forking 1 of 2 workers$", release[0])
    assert "resident" not in (tmp_path / "r.jsonl").read_text()
    assert "resident" not in (tmp_path / "r.jsonl.csv").read_text()


# a regenerating sweep of about 0.1 s a trial: slow enough to kill after two
_KILLED_SWEEP = ["sweep", "--n", "50000", "--d", "10", "--graph-seed", "1", "--epsilon", "0.2",
                 "--regime", "sub", "--seed", "1", "--trials", "24", "--regen-graph"]


def _sweep_cli(*argv, **kw):
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    return subprocess.Popen([sys.executable, "-m", "percolab.cli", "--log-level", "info",
                             *_KILLED_SWEEP, *argv], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, **kw)


@pytest.fixture(scope="module")
def unkilled_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("unkilled") / "r.jsonl"
    proc = _sweep_cli("--workers", "2", "--out", str(out))
    _, log = proc.communicate(timeout=300)
    assert proc.returncode == 0, log
    return out.read_bytes(), out.with_name("r.jsonl.csv").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_killed_sweep_resumes_to_identical_records(tmp_path, unkilled_sweep, workers):
    out, tmp = tmp_path / "r.jsonl", tmp_path / "r.jsonl.tmp"
    # its own session, so the kill reaches the pool helpers too
    proc = _sweep_cli("--workers", workers, "--out", str(out), start_new_session=True)
    deadline = time.monotonic() + 120
    while not (tmp.exists() and tmp.read_bytes().count(b"\n") >= 3):
        assert proc.poll() is None, "the sweep ended before it could be killed"
        assert time.monotonic() < deadline, "the sweep wrote no two trial lines in 120 s"
        time.sleep(0.005)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate(timeout=60)
    while True:  # the group empties once the pool helpers are reaped
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the killed sweep is still running"
        time.sleep(0.01)
    assert not out.exists()
    kept = tmp.read_text().split("\n")[1:-1]  # the trial lines; the last is torn or empty
    resumed = _sweep_cli("--workers", workers, "--out", str(out), "--resume")
    _, log = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, log
    ran = [int(x.split(": trial ")[1].split(":")[0]) for x in log.splitlines()
           if "percolab.harness: trial " in x]
    # only the trials the killed sweep had not written ran again
    assert len(kept) >= 2 and sorted(ran) == list(range(len(kept), 24))
    assert (out.read_bytes(), (tmp_path / "r.jsonl.csv").read_bytes()) == unkilled_sweep
    assert not tmp.exists()


def test_stream_only_sweep_loads_no_scipy(tmp_path):
    # scipy is imported only inside the spectrum, the giant_expansion checker
    # and the tests' labelling oracle, none of which a stream-only sweep runs;
    # nor does generation load numpy.ma (np.unique without return_index, and
    # np.isin, import it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    argv = ["sweep", "--family", "random_regular", "--n", "400", "--d", "8", "--graph-seed", "2",
            "--epsilon", "0.6", "--regime", "sub", "--seed", "11", "--trials", "3",
            "--checkers", "stream", "--out", str(tmp_path / "r.jsonl")]
    code = ("import sys; from percolab.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.splitlines()[-1] == "0 [] False"
    assert (tmp_path / "r.jsonl").exists()


def test_spectrum_needs_three_vertices(capsys):
    assert main(["spectrum", "--family", "clique_union", "--n", "2", "--d", "1"]) == 1
    assert "error: the spectrum needs n >= 3, got n=2" in capsys.readouterr().err


def test_spectrum_command(capsys):
    rc = main(["spectrum", *_GRAPH])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["lambda1"] == pytest.approx(6.0, abs=1e-8)
    assert "admissible" not in rep
    rc = main(["spectrum", *_GRAPH, "--alpha", "0.9"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["admissible"], bool)


def test_spectrum_alpha_verdict_names_no_method(capsys):
    # one solver: there is no --method, and the report does not name one
    with pytest.raises(SystemExit):
        main(["spectrum", *_GRAPH, "--method", "iterative"])
    capsys.readouterr()
    rc = main(["spectrum", *_GRAPH, "--alpha", "0.5"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert "method" not in rep and rep["alpha"] == 0.5
    assert rep["admissible"] == (rep["ratio"] <= delta_of_alpha(0.5))


def test_spectrum_tol_is_the_config_key(capsys):
    # the residual bound is the spectrum_tol config key, as in sweep and verify
    assert main(["spectrum", *_GRAPH]) == 0
    assert json.loads(capsys.readouterr().out)["residual2"] == pytest.approx(1e-9)
    assert main(["spectrum", *_GRAPH, "--spectrum-tol", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["residual2"] == rep["residualN"] == pytest.approx(0.05)  # one tol/10 step
    with pytest.raises(SystemExit):
        main(["spectrum", *_GRAPH, "--tol", "0.5"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_spectrum_rejects_a_non_finite_tol(capsys, no_graph, value):
    capsys.readouterr()
    assert main(["spectrum", *_GRAPH, "--spectrum-tol", value]) == 1
    captured = capsys.readouterr()
    assert f"error: spectrum_tol must be finite, got {value}" in captured.err
    assert captured.out == ""


def test_percolate_command(capsys):
    rc = main(["percolate", *_GRAPH, "--p", "0.4", "--seed", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["census"]["retained"] == obj["dfs"]["accepted"]
    assert obj["dfs"]["coins"] == 300


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_percolate_rejects_p_outside_the_unit_interval_before_the_graph(capsys, no_graph, value):
    # a domain error surfaces as exit 1, not a traceback, and costs no graph
    assert main(["percolate", *_GRAPH, "--p", value, "--seed", "3"]) == 1
    assert capsys.readouterr() == (
        "", f"error: retention probability must be in [0,1], got {float(value)}\n")


def _no_walk(g, mask):
    raise AssertionError("the census walked the sample again")


def test_percolate_walks_the_sample_once(capsys, monkeypatch):
    monkeypatch.setattr(census, "_sample_forest", _no_walk)
    assert main(["percolate", *_GRAPH, "--p", "0.3", "--seed", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["census"]["components"] == obj["dfs"]["epochs"]


def test_theory_command(capsys):
    rc = main(["theory", "--n", "200000", "--d", "20", "--epsilon", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L1_pred" in out and "3764.38" in out
    assert "T1_pred" in out and "window" in out
    # alpha-window flags are admissibility facts, shown as yes/no
    assert "FAIL" not in out
    window_rows = [line.split() for line in out.splitlines() if line.startswith("window[")]
    assert window_rows and all(row[1] in ("yes", "no") for row in window_rows)


_THEORY = ["theory", "--n", "2000", "--d", "8", "--epsilon"]
_SWEEP = ["sweep", *_GRAPH, "--trials", "1", "--seed", "1", "--epsilon"]


@pytest.mark.parametrize("argv, error", [
    (["theory", "--n", "20", "--d", "20", "--epsilon", "0.2"], "need 1 <= d < n, got n=20 d=20"),
    (["theory", "--n", "3", "--d", "20", "--epsilon", "0.2"], "need 1 <= d < n, got n=3 d=20"),
    ([*_THEORY, "inf"], "epsilon must be positive and finite, got inf"),
    ([*_THEORY, "0.2", "--alpha", "5"], "alpha must be in (0, 1], got 5.0"),
    ([*_THEORY, "0.2", "--alpha", "0"], "alpha must be in (0, 1], got 0.0"),
    ([*_SWEEP, "nan"], "epsilon must be positive and finite, got nan"),
    ([*_SWEEP, "inf"], "epsilon must be positive and finite, got inf"),
    (["verify", *_GRAPH, "--checker", "stream", "--seed", "1", "--epsilon", "inf"],
     "epsilon must be positive and finite, got inf"),
], ids=["d_equals_n", "d_above_n", "theory_eps_inf", "alpha_5", "alpha_0", "sweep_eps_nan",
        "sweep_eps_inf", "verify_eps_inf"])
def test_malformed_theory_inputs_are_named(capsys, no_graph, argv, error):
    # an error line naming the value, not a traceback or a table of a negative log
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_sweep_and_compare_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "family = random_regular\nn = 400\nd = 8\ngraph_seed = 2\n"
        "epsilon = 0.6\nregime = sub\ntrials = 3\nseed = 11\n"
    )
    out = str(tmp_path / "records.jsonl")
    rc = main(["sweep", "--config", str(cfg), "--seed", "11", "--trials", "3", "--out", out])
    text = capsys.readouterr().out
    assert rc == 0, text
    assert "max_component_rate" in text
    rc = main(["compare", "--records", out])
    assert rc == 0
    assert "theorem_1" in capsys.readouterr().out


_TRIAL_KEYS = tuple(harness._TRIAL_FIELDS)
_K_MAX = harness.CONFIG_DEFAULTS["k_max"]


def _typed(row):
    """A value of the type a _TRIAL_FIELDS row gives; a part gets one per row."""
    if isinstance(row, dict):
        return {key: _typed(sub) for key, sub in row.items()}
    kind = row[0]
    return 1 if kind is int else [1] * _K_MAX if kind == [int] else []


# a trial record whose every field has the type the table gives it
_TRIAL = {"kind": "trial", **_typed(harness._TRIAL_FIELDS), "trial_index": 0}
_NO_TRIALS = {"family": "random_regular", "n": 400, "d": 8, "graph_seed": 2, "epsilon": 0.6,
              "regime": "sub", "seed": 11}


def _after_config(trial: dict, **config) -> str:
    """A config record of the sweep below, then the trial record on line 2."""
    head = {"kind": "config", "format": 5, "config": {**_NO_TRIALS, "trials": 2, **config}}
    return json.dumps(head) + "\n" + json.dumps(trial)


def _census(**fields) -> dict:
    """_TRIAL with the given census fields replaced."""
    return {**_TRIAL, "census": {**_TRIAL["census"], **fields}}


@pytest.mark.parametrize("head, cause", [
    ("[1,2]", "bad.jsonl:1: a record must be a JSON object, got list"),
    ('{"config":{"trials":1},"kind":"config"}', "bad.jsonl:1: config record has no 'format'"),
    (json.dumps({"kind": "config", "format": "5", "config": _NO_TRIALS}),
     "bad.jsonl:1: config record format takes int, got '5'"),
    (json.dumps({"kind": "config", "format": True, "config": _NO_TRIALS}),
     "bad.jsonl:1: config record format takes int, got True"),
    (json.dumps({"kind": "config", "format": 5, "config": [1]}),
     "bad.jsonl:1: config record config takes an object, got [1]"),
    (json.dumps({"kind": "config", "format": 5, "config": None}),
     "bad.jsonl:1: config record config takes an object, got None"),
    *[(json.dumps({"kind": "trial", **{k: 0 for k in _TRIAL_KEYS if k != key}}),
       f"bad.jsonl:1: trial record has no {key!r}") for key in _TRIAL_KEYS],
    (json.dumps({"kind": "config", "format": 5, "config": _NO_TRIALS}),
     "bad.jsonl:1: config record: missing required config keys: trials"),
    (json.dumps({**_TRIAL, "census": {k: v for k, v in _TRIAL["census"].items() if k != "largest"}}),
     "bad.jsonl:1: trial record census has no 'largest'"),
    (json.dumps({**_TRIAL, "dfs": {"largest_epoch": 3}}),
     "bad.jsonl:1: trial record dfs has no 'epochs'"),
    (_after_config(_census(largest="x")),
     "bad.jsonl:2: trial record census.largest takes int, got 'x'"),
    (_after_config(_census(largest=None)),
     "bad.jsonl:2: trial record census.largest takes int, got None"),
    (_after_config(_census(largest=True)),
     "bad.jsonl:2: trial record census.largest takes int, got True"),
    (_after_config(_census(tree_counts=[1])),
     "bad.jsonl:2: trial record census.tree_counts takes k_max = 4 ints, got [1]"),
    (_after_config(_TRIAL, k_max=2),
     "bad.jsonl:2: trial record census.tree_counts takes k_max = 2 ints, got [1, 1, 1, 1]"),
    (_after_config({**_TRIAL, "checks": [{"checker": "stream"}]}),
     "bad.jsonl:2: trial record checks[0] has no 'pass'"),
    (_after_config({**_TRIAL, "checks": [{"checker": "stream", "pass": 1}]}),
     "bad.jsonl:2: trial record checks[0].pass takes bool, got 1"),
    (_after_config({**_TRIAL, "trial_index": "0"}),
     "bad.jsonl:2: trial record trial_index takes int, got '0'"),
], ids=["not_an_object", "no_format", "format_str", "format_bool", "config_list", "config_null",
        *[f"no_{k}" for k in _TRIAL_KEYS], "no_trials",
        "census_no_largest", "dfs_no_epochs", "largest_str", "largest_null", "largest_bool",
        "tree_counts_short",
        "tree_counts_not_k_max", "check_no_pass", "check_pass_not_bool", "trial_index_str"])
def test_malformed_record_file_is_a_clean_error(tmp_path, capsys, head, cause):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(head + "\n")
    resume = ["sweep", "--n", "400", "--d", "8", "--graph-seed", "2", "--epsilon", "0.6",
              "--regime", "sub", "--seed", "11", "--trials", "2", "--out", str(bad), "--resume"]
    for argv in (["compare", "--records", str(bad)], resume):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {os.path.join(tmp_path, cause)}\n"
    assert bad.read_text() == head + "\n"  # the failed resume wrote nothing


def test_sweep_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "family = random_regular\nn = 400\nd = 8\ngraph_seed = 2\n"
        "epsilon = 0.6\nregime = sub\ntrials = 9\nseed = 1\n"
    )
    out = str(tmp_path / "r.jsonl")
    rc = main([
        "sweep", "--config", str(cfg), "--seed", "11", "--trials", "2",
        "--out", out,
    ])
    assert rc == 0
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    head = recs[0]["config"]
    assert head["trials"] == 2 and head["seed"] == 11
    capsys.readouterr()


def test_sweep_exit_one_on_failed_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(harness.TOLERANCES, "max_component_rate", 1.5)  # unreachable rate
    out = str(tmp_path / "f.jsonl")
    rc = main([
        "sweep", "--family", "random_regular", "--n", "400", "--d", "8",
        "--graph-seed", "2", "--epsilon", "0.6", "--regime", "sub",
        "--seed", "11", "--trials", "2", "--out", out,
    ])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_sweep_names_missing_required_key(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    rc = main([
        "sweep", "--family", "random_regular", "--n", "400", "--d", "8", "--graph-seed", "2",
        "--regime", "sub", "--seed", "1", "--trials", "2", "--out", str(out),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: missing required config keys: epsilon\n" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_sweep_config_file_alone_drives_a_sweep(tmp_path, capsys):
    keys = {"family": "random_regular", "n": 400, "d": 8, "graph_seed": 2, "epsilon": 0.6,
            "regime": "sub", "seed": 11, "trials": 3}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n"
                           for k, v in {**keys, "out": tmp_path / "file.jsonl"}.items()))
    assert main(["sweep", "--config", str(cfg)]) == 0
    flags = [x for k, v in keys.items() for x in ("--" + k.replace("_", "-"), str(v))]
    assert main(["sweep", *flags, "--out", str(tmp_path / "flags.jsonl")]) == 0
    capsys.readouterr()
    for suffix in ("", ".csv"):
        assert (tmp_path / f"file.jsonl{suffix}").read_bytes() == \
            (tmp_path / f"flags.jsonl{suffix}").read_bytes()


def test_sweep_names_a_missing_out(tmp_path, capsys):
    rc = main(["sweep", "--n", "400", "--d", "8", "--epsilon", "0.6", "--regime", "sub",
               "--seed", "1", "--trials", "2"])
    assert rc == 1
    assert "error: config needs an output path: missing config key out\n" in capsys.readouterr().err


def test_sweep_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(
        "family = random_regular\nn = 400\nd = 8\ngraph_seed = 2\n"
        "epsilon = 0.6\nregime = sub\nalpah = 0.05\n"
    )
    out = tmp_path / "typo.jsonl"
    rc = main(["sweep", "--config", str(cfg), "--seed", "1", "--trials", "2", "--out", str(out)])
    assert rc == 1
    assert "error: unknown config keys: alpah\n" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_takes_no_tolerance_override(tmp_path, capsys):
    # the gates are fixed (a tol_ config key is unknown, see test_harness)
    out = tmp_path / "loose.jsonl"
    with pytest.raises(SystemExit):
        main(["sweep", "--n", "400", "--d", "8", "--epsilon", "0.6", "--seed", "1",
              "--trials", "2", "--out", str(out), "--tol", "L1_median=0.25"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


def _subparser(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_sweep_has_a_flag_for_every_config_key():
    flags = {a.dest for a in _subparser("sweep")._actions}
    assert set(CONFIG_KEYS) <= flags


def test_command_defaults_are_the_config_field_defaults():
    field_defaults = {f.name: f.default for f in fields(ExperimentConfig)
                      if f.default is not MISSING}
    checked = {}
    for command in ("verify", "theory", "percolate"):
        for action in _subparser(command)._actions:
            part, name, _ = CONFIG_KEYS.get(action.dest, (None, None, None))
            if part == "cfg" and name in field_defaults:
                assert action.default == field_defaults[name], (command, action.dest)
                checked.setdefault(command, set()).add(name)
    assert checked == {
        "verify": {"alpha", "regime", "pairs", "subsets", "samples", "beta_test", "k_max",
                   "spectrum_tol"},
        "theory": {"alpha", "k_max"},
        "percolate": {"k_max"},
    }
    # compare judges a record by its own prediction: it takes no config key
    assert {a.dest for a in _subparser("compare")._actions} == {"help", "records"}


def _json_stream(text):
    """Parse back-to-back pretty-printed JSON objects."""
    dec = json.JSONDecoder()
    idx, out = 0, []
    while idx < len(text):
        obj, end = dec.raw_decode(text, idx)
        out.append(obj)
        idx = end
        while idx < len(text) and text[idx] in " \n":
            idx += 1
    return out


# a supercritical graph whose giant reaches the giant_expansion window
_GIANT_GRAPH = ["--family", "random_regular", "--n", "20000", "--d", "10", "--graph-seed", "3"]
_GIANT_PARAMS = ["--epsilon", "0.5", "--alpha", "0.01", "--samples", "20"]


@pytest.fixture(scope="module")
def giant_trial(tmp_path_factory):
    """The trial record of a one-trial sweep (master seed 5) of the
    _GIANT_GRAPH graph with the stream and giant_expansion checkers."""
    out = str(tmp_path_factory.mktemp("giant") / "r.jsonl")
    main(["sweep", *_GIANT_GRAPH, *_GIANT_PARAMS, "--checkers", "stream,giant_expansion",
          "--seed", "5", "--trials", "1", "--out", out])
    with open(out, encoding="utf-8") as fh:
        (trial,) = [r for r in map(json.loads, fh) if r["kind"] == "trial"]
    return trial


def test_verify_prints_the_checks_of_the_sweep_trial_of_its_seed(giant_trial, capsys):
    # the sweep's gen flags name the same graph to verify
    capsys.readouterr()
    rc = main(["verify", *_GIANT_GRAPH, "--checker", "stream,giant_expansion",
               "--seed", str(giant_trial["seed"]), *_GIANT_PARAMS])
    assert _json_stream(capsys.readouterr().out) == giant_trial["checks"]
    assert rc == (0 if all(r["pass"] for r in giant_trial["checks"]) else 1)


def test_verify_walks_the_sample_once(capsys, monkeypatch):
    monkeypatch.setattr(census, "_sample_forest", _no_walk)
    main(["verify", *_GIANT_GRAPH, "--checker", "giant_expansion", "--seed", "8",
          *_GIANT_PARAMS])
    (report,) = _json_stream(capsys.readouterr().out)
    assert report["meta"]["giant"] > 0


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_a_non_finite_beta_test(capsys, value):
    rc = main(["verify", *_GIANT_GRAPH, "--checker", "giant_expansion", "--seed", "8",
               *_GIANT_PARAMS, "--beta-test", value])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: beta_test must be finite, got {value}" in captured.err
    assert captured.out == ""


def test_verify_command(capsys):
    rc = main([
        "verify", *_GRAPH, "--checker", "stream,mixing",
        "--seed", "5", "--epsilon", "0.5", "--regime", "sub", "--pairs", "50",
    ])
    reports = _json_stream(capsys.readouterr().out)
    assert rc == 0
    assert {r["checker"] for r in reports} == {"stream", "mixing"}
    assert all(r["pass"] for r in reports)


def test_verify_giant_expansion_names_admissible_alpha(capsys):
    rc = main(["verify", *_GRAPH, "--checker", "giant_expansion", "--seed", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "giant_expansion needs alpha <= 0.01505 at eps=0.2" in captured.err
    assert captured.out == ""


def test_verify_rejects_checkers_that_check_nothing(capsys):
    rc = main(["verify", *_GRAPH, "--checker", "mixing,lemma_2_4",
               "--seed", "1", "--pairs", "-5", "--subsets", "0", "--alpha", "0.2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "pairs must be at least 1, got -5" in captured.err
    assert captured.out == ""


def test_verify_rejects_an_empty_checker_list(capsys):
    for spec in (",", " , "):
        rc = main(["verify", *_GRAPH, "--checker", spec, "--seed", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: --checker names no checker id" in captured.err
        assert captured.out == ""


def test_verify_unknown_checker(capsys):
    assert main(["verify", *_GRAPH, "--checker", "psychic", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    # the message of the config check a sweep runs
    assert captured.err.startswith("error: unknown checker id 'psychic'; known: ('stream', ")
    assert captured.out == ""


_COMMANDS = {"spectrum": ["spectrum"], "percolate": ["percolate", "--p", "0.3", "--seed", "1"],
             "verify": ["verify", "--checker", "stream", "--seed", "1"]}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_infeasible_spec_is_a_clean_error(capsys, command):
    rc = main([*_COMMANDS[command], "--family", "hypercube", "--n", "15", "--d", "4"])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: hypercube needs n = 2^d, got n=15 d=4\n")


@pytest.mark.parametrize("checker", ["corollary_2_3", "lemma_2_4", None])
@pytest.mark.parametrize("value", ["nan", "5", "-1"])
def test_alpha_outside_the_unit_interval_is_rejected_before_the_graph(
        capsys, no_graph, checker, value):
    # a sweep rejects these through delta_of_alpha; verify and spectrum do too,
    # before building the graph (spectrum also before its 35 s run at n=200k)
    command = ["verify", "--checker", checker, "--seed", "1"] if checker else ["spectrum"]
    assert main([*command, *_GRAPH, "--alpha", value]) == 1
    assert capsys.readouterr() == ("", f"error: alpha must be in (0, 1], got {float(value)}\n")


@pytest.mark.parametrize("flag, value, error", [
    ("--pairs", "0", "pairs must be at least 1, got 0"),
    ("--subsets", "0", "subsets must be at least 1, got 0"),
    ("--samples", "0", "samples must be at least 1, got 0"),
    ("--beta-test", "nan", "beta_test must be finite, got nan"),
    ("--spectrum-tol", "nan", "spectrum_tol must be finite, got nan"),
    ("--k-max", "0", "k_max must be at least 1, got 0"),
])
def test_verify_rejects_before_the_graph_what_a_sweep_rejects(capsys, no_graph, flag, value,
                                                              error):
    # verify runs a one-trial sweep config: its values are checked even where
    # the named checker would not read them, as a sweep's are
    assert main(["verify", *_GRAPH, "--checker", "stream", "--seed", "1", flag, value]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("command, flags", [
    (["sweep"], ["--trial", "3", "--eps", "0.2", "--pa", "100"]),
    (["verify", *_GRAPH, "--checker", "stream", "--seed", "1"], ["--p", "0.13"]),
])
def test_flag_prefixes_are_not_flags(capsys, no_graph, command, flags):
    # a prefix would silently set another config key: --trial trials, --p pairs
    with pytest.raises(SystemExit) as info:
        main([*command, *flags])
    assert info.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(flags)}\n" in capsys.readouterr().err


def test_closed_stdout_is_no_error():
    # the reader of the output left (`percolab theory ... | head -1`): stop quietly,
    # whether stdout is buffered or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "percolab.cli", "theory", "--n", "2000", "--d", "8",
                 "--epsilon", "0.2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**env, **unbuffered, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, ""), unbuffered


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
    # a config file can give every key, so the sweep, not the parser, names the missing ones
    assert main(["sweep"]) == 1
    assert "error: missing required config keys: epsilon, trials, seed\n" in capsys.readouterr().err
