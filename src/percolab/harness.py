"""Experiment configuration, deterministic sweep execution, record
persistence, and measurement-vs-prediction comparison.

Records are JSON lines: one config record, one record per trial, then a
summary record that doubles as the completion sentinel.  Every byte of
the record file is a pure function of (config, master_seed): trial seeds
are counter-derived, floats serialize via repr, keys are sorted, and
wall-clock time is logged but never serialized.  A companion CSV table
holds one row per trial; its columns, the summary's medians and the
type of each trial-record field come from one table, _TRIAL_FIELDS.
Each file streams to path + ".tmp", moved over path once complete: a
killed or interrupted sweep leaves the previous files whole and its lines
so far in <out>.tmp, where --resume continues it.

A sweep of W workers runs in P = min(W, trials left to run) processes:
the parent runs every P-th missing trial and a fork pool of P - 1
helpers the rest.  Before the pool forks,
release_free_heap hands the allocator's free pages back to the OS, so
the helpers do not inherit set-up's freed temporaries.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import json
import logging
import multiprocessing
import os
import time
from dataclasses import MISSING, dataclass, fields, replace
from statistics import median

from .census import take_census
from .generators import GenSpec, generate
from .graph_core import RegularGraph, VertexSet
from .percolation import CoinStream, PercolationSample, require_probability, run_dfs
from .rng import TAG_SUBSETS, make_generator, trial_seed
from .spectral import SpectrumReport, compute_spectrum, delta_of_alpha, require_positive
from .theory import TheoryPrediction, _check_eps, giant_expansion_window, predict
from .verify import (
    check_corollary_2_3,
    check_giant_expansion,
    check_lemma_2_4,
    check_mixing,
    check_stream_properties,
)

__all__ = [
    "CHECKER_IDS",
    "CONFIG_DEFAULTS",
    "CONFIG_KEYS",
    "SPECTRUM_CHECKERS",
    "TOLERANCES",
    "ExperimentConfig",
    "compare",
    "compare_rows",
    "config_from_mapping",
    "gen_spec_from_mapping",
    "load_config_file",
    "percolate",
    "release_free_heap",
    "run_sweep",
    "trial_at_seed",
]

log = logging.getLogger("percolab.harness")

REGIMES = ("sub", "super")
CHECKER_IDS = ("stream", "mixing", "corollary_2_3", "lemma_2_4", "giant_expansion")
SPECTRUM_CHECKERS = ("mixing", "corollary_2_3")

TOLERANCES = {
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
    workers: int = 1
    regen_graph: bool = False
    spectrum: bool = False
    spectrum_tol: float = 1e-8
    pairs: int = 1000
    subsets: int = 1000
    samples: int = 200
    beta_test: float = 0.01

    @property
    def p(self) -> float:
        """(1 + eps)/d in the supercritical regime, (1 - eps)/d in the subcritical one."""
        return (1.0 + (-1.0 if self.regime == "sub" else 1.0) * self.epsilon) / self.gen.d

    def validate(self) -> None:
        self.gen.validate()
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        _check_eps(self.epsilon)  # before p: a nan or inf epsilon is named as such
        delta_of_alpha(self.alpha)  # rejects an alpha outside (0, 1], naming it
        for name in ("spectrum_tol", "beta_test"):
            require_positive(name, getattr(self, name))
        require_probability(self.p)
        # a count below 1 leaves nothing to run; a checker of no instances proves nothing
        for name in ("trials", "k_max", "workers", "pairs", "subsets", "samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for c in self.checkers:
            if c not in CHECKER_IDS:
                raise ValueError(f"unknown checker id {c!r}; known: {CHECKER_IDS}")
        if any(c in self.checkers for c in SPECTRUM_CHECKERS) and not self.spectrum:
            raise ValueError("mixing/corollary_2_3 checkers need spectrum=true")
        family = self.gen.base_family if self.gen.family == "blowup" else self.gen.family
        if self.regen_graph and family != "random_regular":
            raise ValueError(f"regen_graph needs a random family: {family} has one graph "
                             f"of each size, so every trial would get the same graph")
        if "giant_expansion" in self.checkers:
            giant_expansion_window(self.gen.n, self.gen.d, self.p * self.gen.d - 1.0, self.alpha)

    def to_dict(self) -> dict:
        """The flat config keys of the config record, unset (None) keys left
        out.  workers and out are scheduling and storage, not experiment
        identity: records must be byte-identical across pool sizes and
        output paths, so they stay out of the file."""
        obj = {}
        for key, (part, name, _) in CONFIG_KEYS.items():
            value = getattr(self.gen if part == "gen" else self, name)
            if value is not None and key not in ("workers", "out"):
                obj[key] = value
        return obj


# ----------------------------------------------------------------------
# flat key=value config files
# ----------------------------------------------------------------------
_FLAGS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in _FLAGS:
        return _FLAGS[text.lower()]
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
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


# flat config key -> (part, field, type).  "gen" keys fill the GenSpec,
# "cfg" keys the ExperimentConfig; the config record stores the same keys.
CONFIG_KEYS = {
    "family": ("gen", "family", str),
    "n": ("gen", "n", int),
    "d": ("gen", "d", int),
    "graph_seed": ("gen", "seed", int),
    "blowup_factor": ("gen", "blowup_factor", int),
    "base_family": ("gen", "base_family", str),
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


def _cast(key: str, kind, value):
    """value as its CONFIG_KEYS type, which it must already have: a float key
    also takes an int, checkers a comma string or a list, and only a bool key a bool."""
    takes = {float: (int, float), _checker_ids: (str, list, tuple)}.get(kind, kind)
    if not isinstance(value, takes) or isinstance(value, bool) and kind is not bool:
        raise ValueError(f"config key {key} takes {kind.__name__.strip('_')}, got {value!r}")
    return kind(value)


def _part(mapping: dict, part: str) -> dict:
    """The given keys of one part of CONFIG_KEYS, cast and renamed to fields; None is not given."""
    return {name: _cast(key, kind, mapping[key]) for key, (p, name, kind) in CONFIG_KEYS.items()
            if p == part and mapping.get(key) is not None}


def gen_spec_from_mapping(mapping: dict) -> GenSpec:
    """The GenSpec of the flat gen keys (family defaults to random_regular)."""
    return GenSpec(**{"family": "random_regular", **_part(mapping, "gen")})


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Validated config from flat keys (a --config file, CLI flags).

    epsilon, trials and seed are required; any key not in CONFIG_KEYS is
    rejected, so a misspelling cannot silently fall back to a default.
    """
    unknown = sorted(k for k in mapping if k not in CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if mapping.get(k) is None]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    cfg = ExperimentConfig(gen=gen_spec_from_mapping(mapping), **_part(mapping, "cfg"))
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# trial execution
# ----------------------------------------------------------------------
def percolate(g: RegularGraph, p: float, seed: int, k_max: int):
    """(stream, trace, sample, census) of one seeded exploration; the
    census reads its labels and cycle bound off the exploration's forest."""
    stream = CoinStream(g.n, p, seed)
    trace = run_dfs(g, stream)
    sample = PercolationSample.from_membership(p, seed, trace.accepted_mask())
    return stream, trace, sample, take_census(g, sample, k_max, trace)


def _setup(cfg: ExperimentConfig) -> tuple:
    """(graph, spect) of a sweep's set-up.  The graph_seed graph is built only
    for the spectrum or a fixed graph's trials; a regenerating sweep gets None."""
    graph = generate(cfg.gen) if cfg.spectrum or not cfg.regen_graph else None
    spect = compute_spectrum(graph, tol=cfg.spectrum_tol) if cfg.spectrum else None
    return (None if cfg.regen_graph else graph), spect


def _trial(g: RegularGraph, cfg: ExperimentConfig, spect: SpectrumReport | None,
           seed: int) -> dict:
    """The record, bar trial_index, of the trial of trial seed ``seed`` on g:
    exploration, census, then one report per checker of cfg, in order."""
    stream, trace, sample, census = percolate(g, cfg.p, seed, cfg.k_max)
    checks = []
    for cid in cfg.checkers:
        if cid == "stream":
            checks.append(check_stream_properties(stream, cfg.epsilon, g.d, cfg.regime))
        elif cid == "mixing":
            checks.append(check_mixing(g, spect, cfg.pairs, seed))
        elif cid == "corollary_2_3":
            rng = make_generator(seed, TAG_SUBSETS, 23)
            half = VertexSet.from_indices(g.n, rng.choice(g.n, (g.n + 1) // 2, replace=False))
            checks.append(check_corollary_2_3(g, spect, half, cfg.alpha))
        elif cid == "lemma_2_4":
            checks.append(check_lemma_2_4(g, sample, cfg.alpha, cfg.subsets, seed, spect))
        elif cid == "giant_expansion":
            checks.append(check_giant_expansion(
                g, sample, census, cfg.alpha, cfg.samples, cfg.beta_test, seed))
    return {"kind": "trial", "seed": seed, "census": census.to_summary(),
            "dfs": trace.summary(), "checks": [r.to_dict() for r in checks]}


def trial_at_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """The record, bar trial_index, of the trial of trial seed ``seed`` in a
    fixed-graph sweep of cfg, made by that sweep's own set-up and trial body."""
    graph, spect = _setup(cfg)
    return _trial(graph, cfg, spect, seed)


_WORKER_STATE: dict = {}


def _trial_worker(trial_index: int) -> dict:
    """The trial record of one trial of the sweep in _WORKER_STATE, in the
    parent or a pool helper: a pure function of (cfg, trial_index)."""
    t0 = time.perf_counter()  # logged, never serialized: records must be replay-identical
    cfg, g, spect = _WORKER_STATE["cfg"], _WORKER_STATE["graph"], _WORKER_STATE["spect"]
    seed = trial_seed(cfg.master_seed, trial_index)
    try:
        if cfg.regen_graph:
            g = generate(replace(cfg.gen, seed=trial_seed(cfg.gen.seed, trial_index)))
            if cfg.spectrum:  # the parent graph's lambda does not certify this one
                spect = compute_spectrum(g, tol=cfg.spectrum_tol)
        rec = {**_trial(g, cfg, spect, seed), "trial_index": trial_index}
    except Exception as exc:
        raise RuntimeError(f"trial {trial_index} (seed {seed}) failed: "
                           f"{type(exc).__name__}: {exc}") from exc
    log.info("trial %d: %.3fs", trial_index, time.perf_counter() - t0)
    return rec


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# the trial record
# ----------------------------------------------------------------------
# field -> (type, CSV column, summary median), None where there is none,
# nested as in the record: census is ComponentCensus.to_summary, dfs is
# DfsTrace.summary.  [int] is the k_max tree counts, one column and median
# per k; the checks column says whether every check report passed.
_TRIAL_FIELDS = {
    "trial_index": (int, "trial_index", None),
    "seed": (int, "seed", None),
    "census": {
        "retained": (int, "retained", "retained_median"),
        "components": (int, "components", "components_median"),
        "largest": (int, "largest", "L1_median"),
        "second_largest": (int, "second_largest", "L2_median"),
        "largest_edges": (int, "largest_edges", "eL1_median"),
        "retained_edges": (int, "retained_edges", "Zp_median"),
        "tree_counts": ([int], "T{k}", "T{k}_median"),
        "straggler_vertices": (int, "straggler_vertices", None),
        "straggler_edges": (int, None, None),
        "cycle_lb": (int, "cycle_lb", "cycle_lb_median"),
    },
    "dfs": {
        "epochs": (int, "epochs", None),
        "accepted": (int, None, None),
        "rejected": (int, None, None),
        "largest_epoch": (int, "largest_epoch", None),
        "coins": (int, None, None),
    },
    "checks": ([{"checker": str, "pass": bool}], "checks_pass", None),
}
_CSV, _MEDIAN = 1, 2  # the label columns of a _TRIAL_FIELDS row


def _passes(trials: list, checker: str | None = None) -> list:
    """The pass flags of the trials' check reports, of one checker if given."""
    return [r["pass"] for t in trials for r in t["checks"] if checker in (None, r["checker"])]


def _labelled(trial: dict, col: int) -> dict:
    """label -> value of the trial's fields labelled in column col (_CSV or
    _MEDIAN) of _TRIAL_FIELDS, in table order."""
    out = {}
    for key, row in _TRIAL_FIELDS.items():
        owner, rows = (trial[key], row.items()) if isinstance(row, dict) else (trial, [(key, row)])
        for name, sub in rows:
            kind, label, value = sub[0], sub[col], owner[name]
            if label is None:
                continue
            if kind == [int]:
                out.update((label.format(k=k), v) for k, v in enumerate(value, 1))
            else:
                out[label] = int(all(_passes([trial]))) if isinstance(kind, list) else value
    return out


def _medians(trials: list) -> dict:
    """The summary's medians, by label, of the trials' fields with one."""
    labelled = [_labelled(t, _MEDIAN) for t in trials]
    return {label: float(median(v[label] for v in labelled)) for label in labelled[0]}


def _fault(value, kind, k_max: int | None, path: str = "") -> str | None:
    """Why the trial record's field at path ("" the record itself) does not
    hold a value of kind, or None: kind is a type (a bool is no int), [kind]
    a list of them ([int], the tree counts, k_max long once k_max is known),
    or a dict of the keys the value holds, each a kind or a table row."""
    at = f"trial record {path}".rstrip()
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            return f"{at} takes an object, got {value!r}"
        missing = [key for key in kind if key not in value]
        if missing:
            return f"{at} has no {missing[0]!r}"
        subs = [(value[key], sub, f"{path}.{key}" if path else key) for key, sub in kind.items()]
    elif isinstance(kind, list):
        size = k_max if kind == [int] else None
        if not isinstance(value, list) or size not in (None, len(value)):
            takes = "a list" if size is None else f"k_max = {size} ints"
            return f"{at} takes {takes}, got {value!r}"
        subs = [(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return None
    else:
        return f"{at} takes {kind.__name__}, got {value!r}"
    faults = (_fault(v, sub[0] if isinstance(sub, tuple) else sub, k_max, p) for v, sub, p in subs)
    return next(filter(None, faults), None)


# ----------------------------------------------------------------------
# comparison rows
# ----------------------------------------------------------------------
def _rate(flags) -> float:
    flags = list(flags)
    return sum(1.0 for f in flags if f) / len(flags) if flags else 0.0


def compare_rows(trials: list, pred: TheoryPrediction, regime: str) -> list:
    """Per-metric table rows.  `trials` holds trial-record dicts; each row
    is gated by its TOLERANCES entry (relative for medians, threshold for
    rates).  Claim tags follow the numbered statements the metrics
    instantiate.

    Median rows gate against the finite-d predictions (L1, giant edges,
    tree counts; Zp_pred is already exact at finite d): the paper's
    d -> infinity limits are off by ~3/d, more than the tolerances at
    d=20.  The asymptotic L1_pred stays gated by L1_window_rate, which
    is Theorem 2's own window."""
    cen = [t["census"] for t in trials]
    medians = _medians(trials)
    rows = []

    def row(metric, claim, measured, predicted, claim_bound, tolerance, passed):
        rows.append({"metric": metric, "claim": claim, "measured": float(measured),
                     "predicted": None if predicted is None else float(predicted),
                     "claim_bound": None if claim_bound is None else float(claim_bound),
                     "tolerance": float(tolerance), "pass": bool(passed)})

    def median_row(metric, claim, target, claim_bound=None):
        med, t = medians[metric], TOLERANCES[metric]
        row(metric, claim, med, target, claim_bound, t, abs(med - target) <= t * target)

    def rate_row(metric, claim, key, ok, claim_bound):
        rate = _rate(ok(c[key]) for c in cen)
        t = TOLERANCES[metric]
        row(metric, claim, rate, 1.0, claim_bound, t, rate >= t)

    if regime == "super":
        median_row("L1_median", "theorem_2", pred.L1_pred_finite_d, pred.L1_tol)
        rate_row("L1_window_rate", "theorem_2", "largest",
                 lambda v: abs(v - pred.L1_pred) <= pred.L1_tol, pred.L1_tol)
        rate_row("L2_rate", "theorem_3", "second_largest",
                 lambda v: v <= pred.straggler_bound, pred.straggler_bound)
        for k in (1, 2):
            median_row(f"T{k}_median", "lemma_5_4", pred.T_k_pred_finite_d[k - 1])
        median_row("Zp_median", "lemma_6_1", pred.Zp_pred)
        median_row("eL1_median", "theorem_4", pred.e_L1_pred_finite_d)
        cycle_bound = pred.epsilon ** 2 * pred.n / (100.0 * pred.d)
        rate_row("cycle_rate", "theorem_5", "cycle_lb", lambda v: v >= cycle_bound, cycle_bound)
    else:
        bound = pred.subcritical_bound
        rate_row("max_component_rate", "theorem_1", "largest", lambda v: v <= bound, bound)
        med = medians["L1_median"]
        row("max_component_median", "theorem_1", med, bound, bound, 1.0, med <= bound)
    return rows


def _predict(cfg: ExperimentConfig) -> TheoryPrediction:
    """The prediction that a sweep's summary and compare judge its trials against."""
    return predict(cfg.gen.n, cfg.gen.d, cfg.epsilon, cfg.alpha, cfg.k_max)


def _summary_obj(cfg: ExperimentConfig, trials: list, pred: TheoryPrediction) -> dict:
    rows = compare_rows(trials, pred, cfg.regime)
    return {
        "kind": "summary",
        "complete": True,
        "trials": len(trials),
        "metrics": _medians(trials),
        "checker_pass_rates": {cid: _rate(_passes(trials, cid)) for cid in cfg.checkers},
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------
# the record format this version reads and writes
_FORMAT = 5


def _read_records(path: str) -> tuple:
    """(config, records, torn) of a JSON-lines record file: the config of
    its first record, its records up to the first line that does not
    parse, and the cause naming that line (None if all parse).  A sweep
    killed mid-line leaves such a torn tail in <out>.tmp; a line that parses
    but is no record of this format raises ValueError naming the line."""
    cfg, records = None, []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return cfg, records, (f"{path}:{lineno}: unreadable record "
                                  f"({exc.msg}: column {exc.colno})")
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: a record must be a JSON object, "
                             f"got {type(obj).__name__}")
        fault = obj.get("kind") == "trial" and _fault(obj, _TRIAL_FIELDS, cfg and cfg.k_max)
        if fault:
            raise ValueError(f"{path}:{lineno}: {fault}")
        if lineno == 1:
            cfg = _head_config(path, obj)
        records.append(obj)
    return cfg, records, None


def _head_config(path: str, head: dict) -> ExperimentConfig:
    """The config of a record file's first record, which must be a config
    record of the format this version writes; ValueError naming the file."""
    if head.get("kind") != "config":
        raise ValueError(f"{path}:1: first record must be the config record")
    for key, kind, takes in (("config", dict, "an object"), ("format", int, "int")):
        if key not in head:
            raise ValueError(f"{path}:1: config record has no {key!r}")
        if not isinstance(head[key], kind) or isinstance(head[key], bool):  # a bool is no int
            raise ValueError(f"{path}:1: config record {key} takes {takes}, got {head[key]!r}")
    if head["format"] != _FORMAT:
        raise ValueError(f"{path}:1: records are format {head['format']}, "
                         f"this version writes format {_FORMAT}")
    try:
        return config_from_mapping(head["config"])
    except ValueError as exc:
        raise ValueError(f"{path}:1: config record: {exc}") from None


def _write_csv(path: str, trials: list) -> None:
    rows = [_labelled(t, _CSV) for t in trials]
    with _publish(path) as fh:
        w = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


@contextlib.contextmanager
def _publish(path: str):
    """A line-buffered handle on the temp file path + ".tmp", moved over
    path when the block ends.  A process killed or interrupted meanwhile
    leaves the previous file whole and the temp file holding every line
    written so far; an error removes the temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="", buffering=1) as fh:
            yield fh
        os.replace(tmp, path)
    except Exception:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def release_free_heap() -> None:
    """Return the C allocator's free pages to the OS: glibc's
    malloc_trim(0), a no-op where the C library lacks it.

    Generating a graph at n=200k, d=20 leaves 56 MB of freed
    temporaries resident on the heap: the live adjacency sits above
    them, so free() cannot shrink the heap, and a forked helper would
    map those pages too.  malloc_trim also releases free pages in the
    middle of the heap (RSS 135 -> 79 MB there)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _resident_mb() -> float:
    """This process's resident MB, from /proc/self/statm; nan without it."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return float("nan")
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_sweep(cfg: ExperimentConfig, resume: bool = False) -> dict:
    """Execute all trials, persist JSON-lines + CSV, return the summary."""
    cfg.validate()
    if cfg.out is None:
        raise ValueError("config needs an output path: missing config key out")
    t_start = time.perf_counter()
    graph, spect = _setup(cfg)
    pred = _predict(cfg)

    config_obj = {
        "kind": "config",
        "config": cfg.to_dict(),
        "n": cfg.gen.n,
        "d": cfg.gen.d,
        "p": cfg.p,
        "prediction": pred.to_dict(),
        "spectrum": None if spect is None else spect.to_dict(),
        "format": _FORMAT,
    }

    # a resumed sweep's trials by index, read from the temp file a killed or
    # interrupted sweep leaves, else from the published file; a torn tail is recomputed
    source = next((f for f in (cfg.out + ".tmp", cfg.out) if resume and os.path.exists(f)), None)
    records = _read_records(source)[1] if source else []
    if records and _dumps(records[0]) != _dumps(config_obj):
        raise ValueError(f"{source}: existing records were produced by a different config")
    have = {r["trial_index"]: r for r in records if r.get("kind") == "trial"}
    missing = [i for i in range(cfg.trials) if i not in have]

    # no more processes than trials to run (at least one: missing[::0] raises);
    # the parent runs every procs-th missing trial, procs - 1 forked helpers the rest
    procs = max(1, min(cfg.workers, len(missing)))
    mine, theirs = set(missing[::procs]), [i for k, i in enumerate(missing) if k % procs]
    with contextlib.ExitStack() as stack:
        _WORKER_STATE.update(graph=graph, cfg=cfg, spect=spect)
        stack.callback(_WORKER_STATE.clear)
        if theirs:
            setup_s, rss_mb = time.perf_counter() - t_start, _resident_mb()
            release_free_heap()
            log.info("set-up %.3fs; resident %.1f MB, %.1f MB after releasing the free "
                     "heap; forking %d of %d workers", setup_s, rss_mb, _resident_mb(),
                     procs - 1, procs)
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(procs - 1))
            theirs = pool.imap(_trial_worker, theirs)
        # opened after the fork, so no helper inherits the handle; each line is
        # written once it and every line before it are in
        fh = stack.enter_context(_publish(cfg.out))
        fh.write(_dumps(config_obj) + "\n")
        for i in range(cfg.trials):
            if i not in have:
                have[i] = _trial_worker(i) if i in mine else next(theirs)
            fh.write(_dumps(have[i]) + "\n")
        trials = [have[i] for i in range(cfg.trials)]
        summary = _summary_obj(cfg, trials, pred)
        fh.write(_dumps(summary) + "\n")
    _write_csv(cfg.out + ".csv", trials)
    log.info("sweep finished in %.3fs (%d trials)", time.perf_counter() - t_start, cfg.trials)
    return summary


# ----------------------------------------------------------------------
# offline comparison
# ----------------------------------------------------------------------
def compare(records_path: str) -> dict:
    """Rebuild the summary of a finished record file, with its ``regime``:
    the sweep's config is read back from the config record, and its trials
    are judged against that config's prediction at the fixed TOLERANCES.

    Requires the terminating summary sentinel; a sweep that died mid-run
    leaves records without one and must be re-run or resumed first.
    """
    cfg, objs, torn = _read_records(records_path)
    if torn:
        raise ValueError(f"{torn}; re-run or resume the sweep")
    if not objs:
        raise ValueError(f"{records_path}: empty record file")
    if objs[-1].get("kind") != "summary" or not objs[-1].get("complete"):
        raise ValueError(f"{records_path}: missing terminating sentinel record; sweep incomplete")
    trials = objs[1:-1]
    for i, t in enumerate(trials):
        if t.get("kind") != "trial" or t["trial_index"] != i:
            raise ValueError(f"{records_path}:{i + 2}: expected the record of trial {i}, got "
                             f"a {t.get('kind')} record with trial_index {t.get('trial_index')}")
    if len(trials) != cfg.trials:
        raise ValueError(f"{records_path}: {len(trials)} trial records, config says {cfg.trials}")
    return {**_summary_obj(cfg, trials, _predict(cfg)), "regime": cfg.regime}
