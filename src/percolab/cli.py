"""Command line front end.

Subcommands: generate, spectrum, percolate, sweep, verify, theory,
compare, each a thin layer over the library: ``harness`` runs trials
and owns the config schema.  Sweep flags mirror its flat config keys
(``harness.CONFIG_KEYS``); a flag given on the command line wins over
the file.  ``--log-level``, given before the subcommand, sets what the
library logs to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .census import take_census
from .generators import generate
from .graph_core import read_graph, write_graph
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
    retention_p,
    run_checks,
    run_sweep,
)
from .percolation import CoinStream, sample_vertices
from .spectral import compute_spectrum, delta_of_alpha
from .theory import predict
from .verify import giant_expansion_window

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
def _add_gen_flags(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--family", choices=("random_regular", "hypercube", "blowup", "clique_union"),
                   required=required)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--graph-seed", type=int, dest="graph_seed")
    p.add_argument("--blowup-factor", type=int, dest="blowup_factor")
    p.add_argument("--base-family", dest="base_family")
    p.add_argument("--base-n", type=int, dest="base_n")
    p.add_argument("--base-d", type=int, dest="base_d")
    p.add_argument("--base-seed", type=int, dest="base_seed")


def _cmd_generate(args) -> int:
    g = generate(gen_spec_from_mapping(vars(args)))
    write_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n} d={g.d}")
    return 0


def _cmd_spectrum(args) -> int:
    g = read_graph(args.graph)
    report = compute_spectrum(g, tol=args.tol, method=args.method)
    obj = report.to_dict()
    if args.alpha is not None:
        obj["alpha"] = args.alpha
        obj["admissible"] = report.ratio <= delta_of_alpha(args.alpha)
    _print_json(obj)
    return 0


def _cmd_percolate(args) -> int:
    g = read_graph(args.graph)
    _, trace, _, census = percolate(g, args.p, args.seed, args.k_max)
    _print_json({"dfs": trace.summary(), "census": census.to_summary()})
    return 0


def _cmd_theory(args) -> int:
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
    for spec in args.tol or ():
        if "=" not in spec:
            raise SystemExit(f"--tol expects METRIC=VALUE, got {spec!r}")
        metric, value = spec.split("=", 1)
        mapping[f"tol_{metric.strip()}"] = float(value)
    cfg = config_from_mapping(mapping)
    summary = run_sweep(cfg, resume=args.resume)
    _print_table(summary["rows"], _ROW_COLUMNS)
    print(f"records: {cfg.out}  trials: {summary['trials']}  pass: {summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_verify(args) -> int:
    g = read_graph(args.graph)
    checkers = [c.strip() for c in args.checker.split(",") if c.strip()]
    unknown = [c for c in checkers if c not in CHECKER_IDS]
    if unknown:
        raise SystemExit(f"unknown checker ids {unknown}; known: {list(CHECKER_IDS)}")
    p = args.p if args.p is not None else retention_p(args.epsilon, args.regime, g.d)
    if args.p is not None:  # judge the coins at the drift they were drawn with
        args.epsilon = (p * g.d - 1.0) * (-1.0 if args.regime == "sub" else 1.0)
    giant = "giant_expansion" in checkers
    if giant:  # fail before any spectrum or sampling
        giant_expansion_window(g.n, g.d, p * g.d - 1.0, args.alpha)
    spect = None
    if any(c in SPECTRUM_CHECKERS for c in checkers):
        spect = compute_spectrum(g, tol=args.spectrum_tol)
    # a sample drawn directly, not by an exploration, so its census walks it
    sample = sample_vertices(g.n, p, args.seed)
    census = take_census(g, sample, args.k_max) if giant else None
    reports = run_checks(checkers, args, g, CoinStream(g.n, p, args.seed), sample, census,
                         spect, args.seed)
    for r in reports:
        _print_json(r.to_dict())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_compare(args) -> int:
    pred = None
    if args.n is not None:
        pred = predict(args.n, args.d, args.epsilon, args.alpha, args.k_max)
    report = compare(args.records, pred)
    _print_table(report["rows"], _ROW_COLUMNS)
    print(f"trials: {report['trials']}  regime: {report['regime']}  pass: {report['pass']}")
    return 0 if report["pass"] else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="percolab",
                                 description="site-percolation laboratory for regular graphs")
    ap.add_argument("--log-level", choices=("warning", "info", "debug"), default="warning",
                    dest="log_level", help="what the library logs to stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a graph and write it to a file")
    _add_gen_flags(p, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("spectrum", help="extreme adjacency eigenvalues of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=("auto", "dense", "iterative"), default="auto")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--alpha", type=float, help="also report the spectral admissibility verdict")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("percolate", help="one seeded exploration + component census")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k-max", type=int, default=CONFIG_DEFAULTS["k_max"], dest="k_max")
    p.set_defaults(fn=_cmd_percolate)

    p = sub.add_parser("theory", help="closed-form predictions as a table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=CONFIG_DEFAULTS["alpha"])
    p.add_argument("--k-max", type=int, default=CONFIG_DEFAULTS["k_max"], dest="k_max")
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("sweep", help="run trials, write JSON-lines records + CSV")
    p.add_argument("--config", help="flat key=value file; flags below override it")
    _add_gen_flags(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-max", type=int, dest="k_max")
    p.add_argument("--checkers", help="comma-separated checker ids")
    p.add_argument("--workers", type=int)
    p.add_argument("--regen-graph", action=_BOOL, default=None, dest="regen_graph")
    p.add_argument("--spectrum", action=_BOOL, default=None)
    p.add_argument("--spectrum-tol", type=float, dest="spectrum_tol")
    p.add_argument("--pairs", type=int)
    p.add_argument("--subsets", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--beta-test", type=float, dest="beta_test")
    p.add_argument("--tol", action="append", metavar="METRIC=VALUE")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run structural checkers on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--checker", required=True, help="comma-separated checker ids")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--epsilon", type=float, default=0.2,
                   help="p = (1 ± eps)/d by --regime; ignored when --p is given, eps then follows p")
    p.add_argument("--regime", choices=REGIMES, default=CONFIG_DEFAULTS["regime"])
    p.add_argument("--alpha", type=float, default=CONFIG_DEFAULTS["alpha"])
    p.add_argument("--pairs", type=int, default=CONFIG_DEFAULTS["pairs"])
    p.add_argument("--subsets", type=int, default=CONFIG_DEFAULTS["subsets"])
    p.add_argument("--samples", type=int, default=CONFIG_DEFAULTS["samples"])
    p.add_argument("--beta-test", type=float, default=CONFIG_DEFAULTS["beta_test"],
                   dest="beta_test")
    p.add_argument("--k-max", type=int, default=CONFIG_DEFAULTS["k_max"], dest="k_max")
    p.add_argument("--spectrum-tol", type=float, default=CONFIG_DEFAULTS["spectrum_tol"],
                   dest="spectrum_tol")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("compare", help="theory-vs-measurement table from a record file")
    p.add_argument("--records", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--alpha", type=float, default=CONFIG_DEFAULTS["alpha"])
    p.add_argument("--k-max", type=int, default=CONFIG_DEFAULTS["k_max"], dest="k_max")
    p.set_defaults(fn=_cmd_compare)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(), stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
