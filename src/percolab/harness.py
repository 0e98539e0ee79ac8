"""Experiment configuration, deterministic sweep execution, record
persistence, and measurement-vs-prediction comparison.

Records are JSON lines: one config record, one record per trial, then a
summary record that doubles as the completion sentinel.  Every byte of
the record file is a pure function of (config, master_seed): trial seeds
are counter-derived, floats serialize via repr, keys are sorted, and
wall-clock time is logged but never serialized.  A companion CSV table
holds the per-trial census columns.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import multiprocessing
import os
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from statistics import median

from .census import ComponentCensus, take_census
from .generators import GenSpec, cycle_graph, generate
from .graph_core import RegularGraph, VertexSet
from .percolation import CoinStream, PercolationSample, run_dfs
from .rng import TAG_SUBSETS, make_generator, trial_seed
from .spectral import SpectrumReport, compute_spectrum
from .theory import TheoryPrediction, predict
from .verify import (
    check_corollary_2_3,
    check_giant_expansion,
    check_lemma_2_4,
    check_mixing,
    check_stream_properties,
    giant_expansion_window,
)

__all__ = [
    "CHECKER_IDS",
    "CONFIG_DEFAULTS",
    "CONFIG_KEYS",
    "SPECTRUM_CHECKERS",
    "ExperimentConfig",
    "compare",
    "compare_rows",
    "config_from_mapping",
    "gen_spec_from_mapping",
    "load_config_file",
    "percolate",
    "retention_p",
    "run_checks",
    "run_sweep",
]

log = logging.getLogger("percolab.harness")

REGIMES = ("sub", "super")
CHECKER_IDS = ("stream", "mixing", "corollary_2_3", "lemma_2_4", "giant_expansion")
SPECTRUM_CHECKERS = ("mixing", "corollary_2_3")

DEFAULT_TOLERANCES = {
    "L1_median": 0.10,
    "L1_window_rate": 0.80,
    "L2_rate": 0.95,
    "T1_median": 0.10,
    "T2_median": 0.15,
    "Zp_median": 0.05,
    "eL1_median": 0.10,
    "cycle_rate": 1.0,
    "max_component_rate": 1.0,
}


def retention_p(epsilon: float, regime: str, d: int) -> float:
    """p = (1 + eps)/d in the supercritical regime, (1 - eps)/d in the subcritical one."""
    sign = -1.0 if regime == "sub" else 1.0
    return (1.0 + sign * epsilon) / d


def _tolerance(tolerances: dict, metric: str) -> float:
    return float(tolerances.get(metric, DEFAULT_TOLERANCES[metric]))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    gen: GenSpec
    epsilon: float
    alpha: float = 0.1
    regime: str = "super"
    trials: int
    master_seed: int
    out: str | None = None
    k_max: int = 4
    checkers: tuple = ()
    tolerances: dict = field(default_factory=dict)
    workers: int = 1
    regen_graph: bool = False
    spectrum: bool = False
    spectrum_tol: float = 1e-8
    pairs: int = 1000
    subsets: int = 1000
    samples: int = 200
    beta_test: float = 0.01

    @property
    def size(self) -> tuple[int, int]:
        """(n, d) of the graph ``gen`` builds; a blow-up may leave both 0."""
        if self.gen.family == "blowup" and not (self.gen.n and self.gen.d):
            s = self.gen.blowup_factor
            return s * self.gen.base.n, s * self.gen.base.d
        return self.gen.n, self.gen.d

    @property
    def p(self) -> float:
        return retention_p(self.epsilon, self.regime, self.size[1])

    def tol(self, metric: str) -> float:
        return _tolerance(self.tolerances, metric)

    def validate(self) -> None:
        self.gen.validate()
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"regime/epsilon give retention probability {self.p}, not in [0,1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for name in ("pairs", "subsets", "samples"):  # a checker of no instances proves nothing
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.beta_test <= 0:
            raise ValueError(f"beta_test must be positive, got {self.beta_test}")
        for metric, t in self.tolerances.items():
            if metric not in DEFAULT_TOLERANCES:
                raise ValueError(
                    f"unknown tolerance metric {metric!r}; known: {sorted(DEFAULT_TOLERANCES)}")
            if t <= 0:
                raise ValueError(f"tolerance for {metric} must be positive, got {t}")
        for c in self.checkers:
            if c not in CHECKER_IDS:
                raise ValueError(f"unknown checker id {c!r}; known: {CHECKER_IDS}")
        if any(c in self.checkers for c in SPECTRUM_CHECKERS) and not self.spectrum:
            raise ValueError("mixing/corollary_2_3 checkers need spectrum=true")
        if "giant_expansion" in self.checkers:
            n, d = self.size
            giant_expansion_window(n, d, self.p * d - 1.0, self.alpha)

    def to_dict(self) -> dict:
        # keyed by the flat config keys.  workers and out are scheduling
        # and storage, not experiment identity: records must be
        # byte-identical across pool sizes and output paths, so they stay
        # out of the file
        obj = _flat(self, "cfg")
        del obj["workers"], obj["out"]
        obj.update(gen=_gen_to_dict(self.gen), checkers=list(self.checkers),
                   tolerances={k: float(v) for k, v in sorted(self.tolerances.items())})
        return obj


def _gen_to_dict(gen: GenSpec) -> dict:
    out = _flat(gen, "gen")
    if gen.blowup_factor is not None:
        out["blowup_factor"] = gen.blowup_factor
    if gen.base is not None:
        out["base"] = _gen_to_dict(gen.base)
    return out


# ----------------------------------------------------------------------
# flat key=value config files
# ----------------------------------------------------------------------
def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; later keys win."""
    mapping: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = _parse_scalar(value)
    return mapping


def _checker_ids(value) -> tuple:
    if isinstance(value, str):
        return tuple(c.strip() for c in value.split(",") if c.strip())
    return tuple(value)


# flat config key -> (part, field, cast).  "gen" keys fill the GenSpec,
# "blowup" and "base" keys its blow-up factor and base GenSpec (read only
# when family = blowup), "cfg" keys the ExperimentConfig, whose config
# record uses the same keys; tol_<metric> keys fill `tolerances`.
CONFIG_KEYS = {
    "family": ("gen", "family", str),
    "n": ("gen", "n", int),
    "d": ("gen", "d", int),
    "graph_seed": ("gen", "seed", int),
    "blowup_factor": ("blowup", "blowup_factor", int),
    "base_family": ("base", "family", str),
    "base_n": ("base", "n", int),
    "base_d": ("base", "d", int),
    "base_seed": ("base", "seed", int),
    "epsilon": ("cfg", "epsilon", float),
    "alpha": ("cfg", "alpha", float),
    "regime": ("cfg", "regime", str),
    "trials": ("cfg", "trials", int),
    "seed": ("cfg", "master_seed", int),
    "out": ("cfg", "out", str),
    "k_max": ("cfg", "k_max", int),
    "checkers": ("cfg", "checkers", _checker_ids),
    "workers": ("cfg", "workers", int),
    "regen_graph": ("cfg", "regen_graph", bool),
    "spectrum": ("cfg", "spectrum", bool),
    "spectrum_tol": ("cfg", "spectrum_tol", float),
    "pairs": ("cfg", "pairs", int),
    "subsets": ("cfg", "subsets", int),
    "samples": ("cfg", "samples", int),
    "beta_test": ("cfg", "beta_test", float),
}
# the field defaults are the only defaults: config files, CLI flags and
# the verify/theory/compare commands all read them from here
CONFIG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
_REQUIRED_KEYS = tuple(key for key, (part, name, _) in CONFIG_KEYS.items()
                       if part == "cfg" and name not in CONFIG_DEFAULTS)


def _part(mapping: dict, part: str) -> dict:
    """The given keys of one part of CONFIG_KEYS, cast and renamed to fields; None is not given."""
    return {name: cast(mapping[key]) for key, (p, name, cast) in CONFIG_KEYS.items()
            if p == part and mapping.get(key) is not None}


def _flat(obj, part: str) -> dict:
    """The fields of one part of CONFIG_KEYS on obj, keyed by their flat keys."""
    return {key: getattr(obj, name) for key, (p, name, _) in CONFIG_KEYS.items() if p == part}


def gen_spec_from_mapping(mapping: dict) -> GenSpec:
    """The GenSpec of the flat gen, blow-up and base keys (family defaults to random_regular)."""
    gen = {"family": "random_regular", **_part(mapping, "gen")}
    if gen["family"] == "blowup":
        gen.update(_part(mapping, "blowup"),
                   base=GenSpec(**{"family": "random_regular", **_part(mapping, "base")}))
    return GenSpec(**gen)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Validated config from flat keys (a --config file, CLI flags).

    epsilon, trials and seed are required; any key that is neither in
    CONFIG_KEYS nor a tol_<metric> is rejected, so a misspelling cannot
    silently fall back to a default.
    """
    unknown = sorted(k for k in mapping if k not in CONFIG_KEYS and not k.startswith("tol_"))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if mapping.get(k) is None]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    tolerances = {k[len("tol_"):]: float(v) for k, v in mapping.items() if k.startswith("tol_")}
    cfg = ExperimentConfig(gen=gen_spec_from_mapping(mapping), tolerances=tolerances,
                           **_part(mapping, "cfg"))
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# trial execution
# ----------------------------------------------------------------------
def percolate(g: RegularGraph, p: float, seed: int, k_max: int):
    """(stream, trace, sample, census) of one seeded exploration; the
    census reads its cycle bound from the exploration's depth."""
    stream = CoinStream(g.n, p, seed)
    trace = run_dfs(g, stream)
    sample = PercolationSample.from_membership(p, seed, trace.accepted_mask())
    census = take_census(g, sample, k_max, trace.depth)
    assert census.retained == trace.accepted_count, "census/DFS vertex conservation"
    assert census.num_components == trace.num_epochs, "census/DFS component conservation"
    return stream, trace, sample, census


def run_checks(checkers, params, g: RegularGraph, stream: CoinStream, sample: PercolationSample,
               census: ComponentCensus | None, spect: SpectrumReport | None, seed: int) -> list:
    """One report per checker id, in order.  ``params`` (an ExperimentConfig
    or the CLI's parsed arguments) supplies epsilon, regime, alpha, pairs,
    subsets, samples and beta_test; only giant_expansion reads ``census``."""
    reports = []
    for cid in checkers:
        if cid == "stream":
            reports.append(check_stream_properties(stream, params.epsilon, g.d, params.regime))
        elif cid == "mixing":
            reports.append(check_mixing(g, spect, params.pairs, seed))
        elif cid == "corollary_2_3":
            rng = make_generator(seed, TAG_SUBSETS, 23)
            half = rng.choice(g.n, size=(g.n + 1) // 2, replace=False)
            half_set = VertexSet.from_indices(g.n, half)
            reports.append(check_corollary_2_3(g, spect, half_set, params.alpha))
        elif cid == "lemma_2_4":
            reports.append(check_lemma_2_4(g, sample, params.alpha, params.subsets, seed, spect))
        elif cid == "giant_expansion":
            reports.append(check_giant_expansion(
                g, sample, census, params.alpha, params.samples, params.beta_test, seed))
    return reports


def _run_trial(
    g: RegularGraph,
    cfg: ExperimentConfig,
    spect: SpectrumReport | None,
    trial_index: int,
) -> dict:
    """The trial record of one trial: a pure function of (cfg, trial_index)."""
    seed = trial_seed(cfg.master_seed, trial_index)
    if cfg.regen_graph:
        g = generate(replace(cfg.gen, seed=trial_seed(cfg.gen.seed, trial_index)))
        if cfg.spectrum:  # the parent graph's lambda does not certify this one
            spect = compute_spectrum(g, tol=cfg.spectrum_tol)
    stream, trace, sample, census = percolate(g, cfg.p, seed, cfg.k_max)
    checks = run_checks(cfg.checkers, cfg, g, stream, sample, census, spect, seed)
    return {
        "kind": "trial",
        "trial_index": trial_index,
        "seed": seed,
        "census": census.to_summary(),
        "dfs": trace.summary(),
        "checks": [r.to_dict() for r in checks],
    }


_WORKER_STATE: dict = {}


def _trial_worker(trial_index: int) -> dict:
    """One trial on the sweep in _WORKER_STATE, serial or in a pool worker."""
    t0 = time.perf_counter()  # logged, never serialized: records must be replay-identical
    rec = _run_trial(
        _WORKER_STATE["graph"],
        _WORKER_STATE["cfg"],
        _WORKER_STATE["spect"],
        trial_index,
    )
    log.info("trial %d: %.3fs", trial_index, time.perf_counter() - t0)
    return rec


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# comparison rows
# ----------------------------------------------------------------------
def _rate(flags) -> float:
    flags = list(flags)
    return sum(1.0 for f in flags if f) / len(flags) if flags else 0.0


def compare_rows(trials: list, pred: TheoryPrediction, regime: str, tol) -> list:
    """Per-metric table rows.  `trials` holds trial-record dicts; `tol`
    maps metric name -> tolerance (relative for medians, threshold for
    rates).  Claim tags follow the numbered statements the metrics
    instantiate.

    Median rows gate against the finite-d predictions (L1, giant edges,
    tree counts; Zp_pred is already exact at finite d): the paper's
    d -> infinity limits are off by ~3/d, more than the tolerances at
    d=20.  The asymptotic L1_pred stays gated by L1_window_rate, which
    is Theorem 2's own window."""
    cen = [t["census"] for t in trials]
    rows = []

    def row(metric, claim, measured, predicted, claim_bound, tolerance, passed):
        rows.append({
            "metric": metric,
            "claim": claim,
            "measured": float(measured),
            "predicted": None if predicted is None else float(predicted),
            "claim_bound": None if claim_bound is None else float(claim_bound),
            "tolerance": float(tolerance),
            "pass": bool(passed),
        })

    if regime == "super":
        l1 = [c["largest"] for c in cen]
        med_l1 = median(l1)
        t = tol("L1_median")
        target = pred.L1_pred_finite_d
        row("L1_median", "theorem_2", med_l1, target, pred.L1_tol, t,
            abs(med_l1 - target) <= t * target)
        t = tol("L1_window_rate")
        rate = _rate(abs(v - pred.L1_pred) <= pred.L1_tol for v in l1)
        row("L1_window_rate", "theorem_2", rate, 1.0, pred.L1_tol, t, rate >= t)

        l2 = [c["second_largest"] for c in cen]
        t = tol("L2_rate")
        rate = _rate(v <= pred.straggler_bound for v in l2)
        row("L2_rate", "theorem_3", rate, 1.0, pred.straggler_bound, t, rate >= t)

        for k, metric in ((1, "T1_median"), (2, "T2_median")):
            vals = [c["tree_counts"][k - 1] for c in cen]
            med = median(vals)
            t = tol(metric)
            target = pred.T_k_pred_finite_d[k - 1]
            row(metric, "lemma_5_4", med, target, None, t, abs(med - target) <= t * target)

        zp = [c["retained_edges"] for c in cen]
        med = median(zp)
        t = tol("Zp_median")
        row("Zp_median", "lemma_6_1", med, pred.Zp_pred, None, t,
            abs(med - pred.Zp_pred) <= t * pred.Zp_pred)

        el1 = [c["largest_edges"] for c in cen]
        med = median(el1)
        t = tol("eL1_median")
        target = pred.e_L1_pred_finite_d
        row("eL1_median", "theorem_4", med, target, None, t, abs(med - target) <= t * target)

        cycle_bound = pred.epsilon ** 2 * pred.n / (100.0 * pred.d)
        vals = [c["cycle_lb"] for c in cen]
        t = tol("cycle_rate")
        rate = _rate(v >= cycle_bound for v in vals)
        row("cycle_rate", "theorem_5", rate, 1.0, cycle_bound, t, rate >= t)
    else:
        l1 = [c["largest"] for c in cen]
        t = tol("max_component_rate")
        rate = _rate(v <= pred.subcritical_bound for v in l1)
        row("max_component_rate", "theorem_1", rate, 1.0, pred.subcritical_bound, t, rate >= t)
        med = median(l1)
        row("max_component_median", "theorem_1", med, pred.subcritical_bound,
            pred.subcritical_bound, 1.0, med <= pred.subcritical_bound)
    return rows


def _summary_obj(cfg: ExperimentConfig, trials: list, pred: TheoryPrediction) -> dict:
    cen = [t["census"] for t in trials]

    def med(key):
        return float(median(c[key] for c in cen))

    metrics = {
        "L1_median": med("largest"),
        "L2_median": med("second_largest"),
        "eL1_median": med("largest_edges"),
        "Zp_median": med("retained_edges"),
        "retained_median": med("retained"),
        "cycle_lb_median": med("cycle_lb"),
        "components_median": med("components"),
    }
    for k in range(1, cfg.k_max + 1):
        metrics[f"T{k}_median"] = float(median(c["tree_counts"][k - 1] for c in cen))
    checker_rates = {}
    for cid in cfg.checkers:
        flags = []
        for t in trials:
            flags.extend(r["pass"] for r in t["checks"] if r["checker"] == cid)
        checker_rates[cid] = _rate(flags)
    rows = compare_rows(trials, pred, cfg.regime, cfg.tol)
    return {
        "kind": "summary",
        "complete": True,
        "trials": len(trials),
        "metrics": metrics,
        "checker_pass_rates": checker_rates,
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------
def _read_existing(path: str, config_obj: dict) -> dict:
    """Map trial_index -> serialized line for resumable prefixes."""
    found: dict = {}
    if not os.path.exists(path):
        return found
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail from a killed run; recompute from here
        kind = obj.get("kind")
        if i == 0:
            if kind != "config" or obj != config_obj:
                raise ValueError("existing records were produced by a different config")
            continue
        if kind == "trial":
            found[obj["trial_index"]] = obj
    return found


def _csv_path(out: str) -> str:
    return out + ".csv"


def _write_csv(path: str, cfg: ExperimentConfig, trials: list) -> None:
    cols = ["trial_index", "seed", "retained", "components", "largest", "second_largest",
            "largest_edges", "retained_edges"]
    cols += [f"T{k}" for k in range(1, cfg.k_max + 1)]
    cols += ["straggler_vertices", "cycle_lb", "epochs", "largest_epoch", "checks_pass"]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for t in trials:
        c, d = t["census"], t["dfs"]
        row = [t["trial_index"], t["seed"], c["retained"], c["components"], c["largest"],
               c["second_largest"], c["largest_edges"], c["retained_edges"]]
        row += [c["tree_counts"][k - 1] for k in range(1, cfg.k_max + 1)]
        row += [c["straggler_vertices"], c["cycle_lb"], d["epochs"], d["largest_epoch"],
                int(all(r["pass"] for r in t["checks"]))]
        w.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _warm_kernels() -> None:
    """Compile the jitted kernel in the parent before any fork."""
    percolate(cycle_graph(6), 0.5, 7, 4)


def run_sweep(cfg: ExperimentConfig, resume: bool = False) -> dict:
    """Execute all trials, persist JSON-lines + CSV, return the summary."""
    cfg.validate()
    if cfg.out is None:
        raise ValueError("config needs an output path")
    t_start = time.perf_counter()
    graph = generate(cfg.gen)
    spect = compute_spectrum(graph, tol=cfg.spectrum_tol) if cfg.spectrum else None
    pred = predict(graph.n, graph.d, cfg.epsilon, cfg.alpha, cfg.k_max)

    config_obj = {
        "kind": "config",
        "config": cfg.to_dict(),
        "n": graph.n,
        "d": graph.d,
        "p": cfg.p,
        "prediction": pred.to_dict(),
        "spectrum": None if spect is None else spect.to_dict(),
        "format": 2,
    }

    have = _read_existing(cfg.out, config_obj) if resume else {}
    missing = [i for i in range(cfg.trials) if i not in have]

    _warm_kernels()
    _WORKER_STATE.update(graph=graph, cfg=cfg, spect=spect)
    try:
        if cfg.workers > 1 and missing:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(cfg.workers) as pool:
                fresh = pool.map(_trial_worker, missing, chunksize=1)
        else:
            fresh = [_trial_worker(i) for i in missing]
    finally:
        _WORKER_STATE.clear()
    for i, obj in zip(missing, fresh):
        have[i] = obj
    trials = [have[i] for i in range(cfg.trials)]

    summary = _summary_obj(cfg, trials, pred)
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_dumps(config_obj) + "\n")
        for obj in trials:
            fh.write(_dumps(obj) + "\n")
        fh.write(_dumps(summary) + "\n")
    _write_csv(_csv_path(cfg.out), cfg, trials)
    log.info("sweep finished in %.3fs (%d trials)", time.perf_counter() - t_start, cfg.trials)
    return summary


# ----------------------------------------------------------------------
# offline comparison
# ----------------------------------------------------------------------
def compare(records_path: str, prediction: TheoryPrediction | None = None) -> dict:
    """Rebuild the per-metric comparison table from a finished record file.

    Requires the terminating summary sentinel; a sweep that died mid-run
    leaves records without one and must be re-run or resumed first.
    """
    with open(records_path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    if not lines:
        raise ValueError(f"{records_path}: empty record file")
    objs = [json.loads(line) for line in lines]
    if objs[0].get("kind") != "config":
        raise ValueError(f"{records_path}: first record must be the config record")
    if objs[-1].get("kind") != "summary" or not objs[-1].get("complete"):
        raise ValueError(
            f"{records_path}: missing terminating sentinel record; sweep incomplete"
        )
    head = objs[0]
    trials = [o for o in objs if o.get("kind") == "trial"]
    if len(trials) != head["config"]["trials"]:
        raise ValueError(
            f"{records_path}: {len(trials)} trial records, config says {head['config']['trials']}"
        )
    if prediction is None:
        p = head["prediction"]
        prediction = predict(p["n"], p["d"], p["epsilon"], p["alpha"], len(p["T_k_pred"]))
    tolerances = head["config"].get("tolerances", {})
    rows = compare_rows(trials, prediction, head["config"]["regime"],
                        lambda metric: _tolerance(tolerances, metric))
    return {
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
        "trials": len(trials),
        "regime": head["config"]["regime"],
    }
