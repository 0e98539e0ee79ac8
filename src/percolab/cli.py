"""Command line front end.

Subcommands: spectrum, percolate, sweep, verify, theory, compare, each
a thin layer over the library: ``harness`` runs trials and owns the
config schema.  Every flag named after a flat config key
(``harness.CONFIG_KEYS``) is built from that table by _config_flags; in
a sweep, a flag given on the command line wins over the file.  A graph
is named by its gen keys alone: spectrum, percolate and verify build it
from the same flags a sweep's config record stores.  verify is a one-trial
sweep.  ``--log-level``, given before the subcommand, sets what the
library logs to stderr; no flag may be given by a prefix of its name.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from .generators import FAMILIES, generate
from .harness import (
    CHECKER_IDS,
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    REGIMES,
    SPECTRUM_CHECKERS,
    compare,
    config_from_mapping,
    gen_spec_from_mapping,
    load_config_file,
    percolate,
    run_sweep,
    trial_at_seed,
)
from .percolation import require_probability
from .spectral import compute_spectrum, delta_of_alpha, require_positive
from .theory import predict

_BOOL = argparse.BooleanOptionalAction
_ROW_COLUMNS = ("metric", "claim", "measured", "predicted", "claim_bound", "tolerance", "pass")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _print_table(rows, columns) -> None:
    widths = [max(len(str(c)), max((len(_cell(r, c)) for r in rows), default=0)) for c in columns]
    print("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    for r in rows:
        print("  ".join(_cell(r, c).ljust(w) for c, w in zip(columns, widths)))


def _cell(row, col) -> str:
    v = row.get(col)
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "ok" if v else "FAIL"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# ----------------------------------------------------------------------
_CHOICES = {"family": FAMILIES, "regime": REGIMES}
_GEN_KEYS = " ".join(k for k, (part, _, _) in CONFIG_KEYS.items() if part != "cfg")


def _config_flags(p: argparse.ArgumentParser, keys: str, required: str = "",
                  defaults: bool = False, **extra) -> None:
    """One flag per flat config key in ``keys`` (k_max is --k-max), typed by
    its CONFIG_KEYS cast.  With ``defaults`` a flag defaults to CONFIG_DEFAULTS,
    otherwise to None, so that a sweep flag overrides the file only if given.
    ``extra`` maps a key to more add_argument keywords."""
    for key in keys.split():
        _, name, cast = CONFIG_KEYS[key]
        kw = {"action": _BOOL} if cast is bool else {"type": cast} if cast in (int, float) else {}
        if key in _CHOICES:
            kw["choices"] = _CHOICES[key]
        if defaults:
            kw["default"] = CONFIG_DEFAULTS.get(name)
        kw.update(extra.get(key, {}))
        p.add_argument("--" + key.replace("_", "-"), dest=key, required=key in required.split(),
                       **kw)


def _cmd_spectrum(args) -> int:
    delta = None if args.alpha is None else delta_of_alpha(args.alpha)
    require_positive("spectrum_tol", args.spectrum_tol)  # before building, as the config check
    report = compute_spectrum(generate(gen_spec_from_mapping(vars(args))), tol=args.spectrum_tol)
    obj = report.to_dict()
    if delta is not None:
        obj.update(alpha=args.alpha, admissible=report.ratio <= delta)
    _print_json(obj)
    return 0


def _cmd_percolate(args) -> int:
    require_probability(args.p)  # as CoinStream does, before building
    g = generate(gen_spec_from_mapping(vars(args)))
    _, trace, _, census = percolate(g, args.p, args.seed, args.k_max)
    _print_json({"dfs": trace.summary(), "census": census.to_summary()})
    return 0


def _cmd_theory(args) -> int:
    delta_of_alpha(args.alpha)  # rejects an alpha outside (0, 1], as a sweep does
    pred = predict(args.n, args.d, args.epsilon, args.alpha, args.k_max)
    d = pred.to_dict()
    admissible = d.pop("admissible")
    tk = d.pop("T_k_pred")
    tk_fd = d.pop("T_k_pred_finite_d")
    rows = [{"field": k, "value": v} for k, v in d.items()]
    rows += [{"field": f"T{i + 1}_pred", "value": v} for i, v in enumerate(tk)]
    rows += [{"field": f"T{i + 1}_pred_finite_d", "value": v} for i, v in enumerate(tk_fd)]
    # whether alpha lies in each claim's window: a fact, not a pass/fail
    rows += [{"field": f"window[{k}]", "value": "yes" if v else "no"}
             for k, v in admissible.items()]
    _print_table(rows, ("field", "value"))
    return 0


def _cmd_sweep(args) -> int:
    mapping = load_config_file(args.config) if args.config else {}
    mapping.update((k, getattr(args, k)) for k in CONFIG_KEYS if getattr(args, k) is not None)
    cfg = config_from_mapping(mapping)
    summary = run_sweep(cfg, resume=args.resume)
    _print_table(summary["rows"], _ROW_COLUMNS)
    print(f"records: {cfg.out}  trials: {summary['trials']}  pass: {summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_verify(args) -> int:
    checkers = [c.strip() for c in args.checker.split(",") if c.strip()]
    if not checkers:  # no checker passes vacuously
        raise ValueError(f"--checker names no checker id; known: {list(CHECKER_IDS)}")
    # a one-trial sweep config, validated as a sweep's is; --seed is its trial seed
    cfg = config_from_mapping({
        **{k: v for k, v in vars(args).items() if k in CONFIG_KEYS}, "trials": 1,
        "checkers": checkers, "spectrum": any(c in SPECTRUM_CHECKERS for c in checkers)})
    checks = trial_at_seed(cfg, args.seed)["checks"]
    for r in checks:
        _print_json(r)
    return 0 if all(r["pass"] for r in checks) else 1


def _cmd_compare(args) -> int:
    report = compare(args.records)
    _print_table(report["rows"], _ROW_COLUMNS)
    print(f"trials: {report['trials']}  regime: {report['regime']}  pass: {report['pass']}")
    return 0 if report["pass"] else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    # no prefixes of flags: a misspelt flag must not set another config key
    ap = argparse.ArgumentParser(prog="percolab", allow_abbrev=False,
                                 description="site-percolation laboratory for regular graphs")
    ap.add_argument("--log-level", choices=("warning", "info", "debug"), default="warning",
                    dest="log_level", help="what the library logs to stderr")
    command = functools.partial(ap.add_subparsers(dest="command", required=True).add_parser,
                                allow_abbrev=False)

    p = command("spectrum", help="extreme adjacency eigenvalues of a graph")
    _config_flags(p, _GEN_KEYS, required="n d", family={"help": "default random_regular"})
    _config_flags(p, "spectrum_tol alpha", defaults=True, alpha={
        "default": None, "help": "also report the spectral admissibility verdict"})
    p.set_defaults(fn=_cmd_spectrum)

    p = command("percolate", help="one seeded exploration + component census")
    _config_flags(p, _GEN_KEYS, required="n d", family={"help": "default random_regular"})
    p.add_argument("--p", type=float, required=True)
    _config_flags(p, "seed k_max", required="seed", defaults=True)
    p.set_defaults(fn=_cmd_percolate)

    p = command("theory", help="closed-form predictions as a table")
    _config_flags(p, "n d epsilon alpha k_max", required="n d epsilon", defaults=True)
    p.set_defaults(fn=_cmd_theory)

    p = command("sweep", help="run trials, write JSON-lines records + CSV")
    p.add_argument("--config", help="flat key=value file; flags below override it")
    _config_flags(p, " ".join(CONFIG_KEYS), checkers={"help": "comma-separated checker ids"})
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = command("verify", help="one sweep trial's checks, by its trial seed")
    _config_flags(p, _GEN_KEYS, required="n d", family={"help": "default random_regular"})
    p.add_argument("--checker", required=True, help="comma-separated checker ids")
    _config_flags(p, "seed epsilon regime alpha pairs subsets samples beta_test k_max "
                  "spectrum_tol", required="seed", defaults=True,
                  epsilon={"default": 0.2, "help": "p = (1 ± eps)/d by --regime"},
                  seed={"help": "the trial seed: a sweep trial record's seed"})
    p.set_defaults(fn=_cmd_verify)

    p = command("compare", help="theory-vs-measurement table from a record file")
    p.add_argument("--records", required=True)
    p.set_defaults(fn=_cmd_compare)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(), stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's exit flush
        return rc
    except BrokenPipeError:  # the reader left: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
