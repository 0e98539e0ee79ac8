"""Check the outputs a workload run left in ``perfbench/out``, in a process of
its own, so the checks' memory does not count towards the workload's peak.

    python3 perfbench/check_run.py --workload giant_sweep --seed 1 --errors out.json

Run from the checkout root with ``src`` on the import path (``run.py``
does both).  Reads the workload's record file, rebuilds its graphs,
re-derives each trial's retained set with ``run_dfs``, and writes the
list of failed checks (empty when all passed) as JSON to ``--errors``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from percolab import CoinStream, PercolationSample, generate, longest_cycle_lower_bound, run_dfs
from percolab.harness import config_from_mapping
from percolab.rng import trial_seed

import checks
from workloads import EXACT_CHECKERS, GATED_ROWS, sweep_mapping


def check_outputs(name: str, cfg) -> list[str]:
    head, trials, summary = checks.read_records(cfg.out)
    errors = checks.check_summary(summary, cfg.trials,
                                  [c for c in cfg.checkers if c in EXACT_CHECKERS],
                                  GATED_ROWS[name])
    print("comparison rows: " + ", ".join(
        f"{r['metric']}={r['measured']:g}/{r['predicted']:g}{'' if r['pass'] else ' (miss)'}"
        for r in summary["rows"]), file=sys.stderr)
    if len(trials) != cfg.trials:
        errors.append(f"records: {len(trials)} trials, config says {cfg.trials}")
    if cfg.spectrum:
        errors += checks.check_spectrum(head["spectrum"], cfg.gen.d, cfg.spectrum_tol)
    g = generate(cfg.gen)
    errors += checks.check_graph(g.n, g.d, g.neighbors)
    for trial in trials:
        if cfg.regen_graph:
            g = generate(replace(cfg.gen, seed=trial_seed(cfg.gen.seed, trial["trial_index"])))
            errors += checks.check_graph(g.n, g.d, g.neighbors)
        mask = run_dfs(g, CoinStream(g.n, cfg.p, trial["seed"])).accepted_mask()
        cycle = None
        if trial["census"]["cycle_lb"]:
            sample = PercolationSample.from_membership(cfg.p, trial["seed"], mask)
            _, cycle = longest_cycle_lower_bound(g, sample, with_witness=True)
        errors += checks.check_trial(g.n, g.d, cfg.p, cfg.k_max, g.neighbors, mask, trial, cycle)
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--errors", required=True)
    args = ap.parse_args(argv)
    cfg = config_from_mapping(sweep_mapping(args.workload, args.seed))
    errors = check_outputs(args.workload, cfg)
    with open(args.errors, "w", encoding="utf-8") as fh:
        json.dump(errors, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
