import argparse
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields

import pytest

import percolab
from percolab import census
from percolab.cli import build_parser, main
from percolab.graph_core import read_graph
from percolab.harness import CONFIG_KEYS, ExperimentConfig
from percolab.spectral import delta_of_alpha


@pytest.fixture()
def graph_file(tmp_path):
    path = str(tmp_path / "g.graph")
    rc = main([
        "generate", "--family", "random_regular",
        "--n", "300", "--d", "6", "--graph-seed", "4", "--out", path,
    ])
    assert rc == 0
    return path


def test_generate_writes_readable_graph(graph_file, capsys):
    g = read_graph(graph_file)
    assert g.n == 300 and g.d == 6


def test_generate_hypercube(tmp_path, capsys):
    path = str(tmp_path / "q.graph")
    rc = main(["generate", "--family", "hypercube", "--n", "16", "--d", "4", "--out", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "n=16" in out.replace(" ", "")
    assert read_graph(path).d == 4


def test_debug_log_level_reports_pairing_attempts(graph_file, tmp_path):
    path = str(tmp_path / "logged.graph")
    src = os.path.dirname(os.path.dirname(os.path.abspath(percolab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "percolab.cli", "--log-level", "debug", "generate",
         "--family", "random_regular", "--n", "300", "--d", "6", "--graph-seed", "4",
         "--out", path],
        capture_output=True, text=True, env=env, check=True,
    )
    assert "pairing attempt 1" in proc.stderr
    assert "n=300 d=6 seed=4" in proc.stderr
    assert "pairing attempt" not in proc.stdout
    # logging leaves the graph file as the default level writes it
    with open(path, "rb") as a, open(graph_file, "rb") as b:
        assert a.read() == b.read()


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


def test_spectrum_command(graph_file, capsys):
    rc = main(["spectrum", "--graph", graph_file, "--method", "dense"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["lambda1"] == pytest.approx(6.0, abs=1e-8)
    assert "admissible" not in rep
    rc = main(["spectrum", "--graph", graph_file, "--alpha", "0.9"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["admissible"], bool)


def test_spectrum_alpha_honours_method(graph_file, capsys):
    # n = 300 would take the dense path under --method auto
    rc = main(["spectrum", "--graph", graph_file, "--method", "iterative", "--alpha", "0.5"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "iterative" and rep["alpha"] == 0.5
    assert rep["admissible"] == (rep["ratio"] <= delta_of_alpha(0.5))


def test_percolate_command(graph_file, capsys):
    rc = main(["percolate", "--graph", graph_file, "--p", "0.4", "--seed", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["census"]["retained"] == obj["dfs"]["accepted"]
    assert obj["dfs"]["coins"] == 300
    rc = main(["percolate", "--graph", graph_file, "--p", "1.5", "--seed", "3"])
    assert rc == 1  # domain error surfaces as exit 1, not a traceback


def test_percolate_walks_the_sample_once(graph_file, capsys, monkeypatch):
    def no_walk(g, mask):
        raise AssertionError("the census walked the sample again")

    monkeypatch.setattr(census, "_sample_forest_depth", no_walk)
    assert main(["percolate", "--graph", graph_file, "--p", "0.3", "--seed", "3"]) == 0
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


def test_sweep_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "family = random_regular\nn = 400\nd = 8\ngraph_seed = 2\n"
        "epsilon = 0.6\nregime = sub\ntrials = 9\nseed = 1\n"
    )
    out = str(tmp_path / "r.jsonl")
    rc = main([
        "sweep", "--config", str(cfg), "--seed", "11", "--trials", "2",
        "--out", out, "--tol", "max_component_rate=0.5",
    ])
    assert rc == 0
    recs = [json.loads(x) for x in open(out, encoding="utf-8").read().splitlines()]
    head = recs[0]["config"]
    assert head["trials"] == 2 and head["seed"] == 11
    assert head["tolerances"] == {"max_component_rate": 0.5}
    capsys.readouterr()


def test_sweep_exit_one_on_failed_row(tmp_path, capsys):
    out = str(tmp_path / "f.jsonl")
    rc = main([
        "sweep", "--family", "random_regular", "--n", "400", "--d", "8",
        "--graph-seed", "2", "--epsilon", "0.6", "--regime", "sub",
        "--seed", "11", "--trials", "2", "--out", out,
        "--tol", "max_component_rate=1.5",  # unreachable rate
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
    for command in ("verify", "theory", "compare", "percolate"):
        for action in _subparser(command)._actions:
            part, name, _ = CONFIG_KEYS.get(action.dest, (None, None, None))
            if part == "cfg" and name in field_defaults:
                assert action.default == field_defaults[name], (command, action.dest)
                checked.setdefault(command, set()).add(name)
    assert checked == {
        "verify": {"alpha", "regime", "pairs", "subsets", "samples", "beta_test", "k_max",
                   "spectrum_tol"},
        "theory": {"alpha", "k_max"},
        "compare": {"alpha", "k_max"},
        "percolate": {"k_max"},
    }


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


def test_verify_command(graph_file, capsys):
    rc = main([
        "verify", "--graph", graph_file, "--checker", "stream,mixing",
        "--seed", "5", "--epsilon", "0.5", "--regime", "sub", "--pairs", "50",
    ])
    reports = _json_stream(capsys.readouterr().out)
    assert rc == 0
    assert {r["checker"] for r in reports} == {"stream", "mixing"}
    assert all(r["pass"] for r in reports)


def test_verify_giant_expansion_names_admissible_alpha(graph_file, capsys):
    rc = main(["verify", "--graph", graph_file, "--checker", "giant_expansion", "--seed", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "giant_expansion needs alpha <= 0.01505 at eps=0.2" in captured.err
    assert captured.out == ""


def test_verify_p_judges_the_stream_at_its_own_epsilon(tmp_path, capsys):
    # coins drawn at p = 0.13 on d = 10 drift at eps = 0.3; judged at the
    # default eps = 0.2 they fail, e.g. at t=303 (8.64 against 8.0)
    path = str(tmp_path / "rr2000.graph")
    assert main(["generate", "--family", "random_regular", "--n", "2000", "--d", "10",
                 "--graph-seed", "3", "--out", path]) == 0
    capsys.readouterr()
    rc = main(["verify", "--graph", path, "--checker", "stream", "--seed", "7", "--p", "0.13",
               "--epsilon", "0.2"])
    (report,) = _json_stream(capsys.readouterr().out)
    assert rc == 0 and report["pass"]
    assert report["meta"]["epsilon"] == pytest.approx(0.3)
    rc = main(["verify", "--graph", path, "--checker", "stream", "--seed", "7", "--p", "0.07",
               "--regime", "sub"])
    (report,) = _json_stream(capsys.readouterr().out)
    assert report["meta"]["epsilon"] == pytest.approx(0.3)


def test_verify_rejects_checkers_that_check_nothing(graph_file, capsys):
    rc = main(["verify", "--graph", graph_file, "--checker", "mixing,lemma_2_4",
               "--seed", "1", "--pairs", "-5", "--subsets", "0", "--alpha", "0.2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "pairs must be at least 1, got -5" in captured.err
    assert captured.out == ""


def test_verify_unknown_checker(graph_file, capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--graph", graph_file, "--checker", "psychic", "--seed", "1"])
    capsys.readouterr()


def test_missing_graph_file_is_a_clean_error(tmp_path, capsys):
    rc = main(["spectrum", "--graph", str(tmp_path / "nope.graph")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["sweep"])  # missing required flags
