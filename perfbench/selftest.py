#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks, at tiny sizes.

Each check must pass the program's true output and reject a corrupted
copy of it (a census with ``largest + 1``, a graph with a self-loop, a
spectrum with a large residual, ...).  Takes about a second:

    python3 perfbench/selftest.py

Exits non-zero and names the case if a check accepts a corrupted answer
or rejects a true one.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from percolab import (  # noqa: E402
    CoinStream,
    GenSpec,
    PercolationSample,
    compute_spectrum,
    generate,
    longest_cycle_lower_bound,
    run_dfs,
    take_census,
)


def trial_case(g, p: float, seed: int):
    trace = run_dfs(g, CoinStream(g.n, p, seed))
    mask = trace.accepted_mask()
    sample = PercolationSample.from_membership(p, seed, mask)
    census = take_census(g, sample, 4)
    _, cycle = longest_cycle_lower_bound(g, sample, with_witness=True)
    trial = {"trial_index": 0, "seed": seed, "census": census.to_summary(), "dfs": trace.summary()}
    return trial, mask, cycle


def main() -> int:
    failures = []

    def expect(name: str, errors: list, rejected: bool) -> None:
        if bool(errors) != rejected:
            failures.append(f"{name}: {'accepted' if rejected else 'rejected'} ({errors})")
        print(f"{'rejects' if errors else 'passes '}  {name}")

    g = generate(GenSpec("random_regular", n=400, d=4, seed=3))
    n, d = g.n, g.d
    nbrs = g.neighbors.copy()
    expect("true graph", checks.check_graph(n, d, nbrs), False)
    bad = nbrs.reshape(n, d).copy()
    bad[0, 0] = 0
    expect("graph with a self-loop", checks.check_graph(n, d, bad.ravel()), True)
    bad = nbrs.reshape(n, d).copy()
    bad[0, 1] = bad[0, 0]
    expect("graph with a repeated neighbour", checks.check_graph(n, d, bad.ravel()), True)
    bad = nbrs.reshape(n, d).copy()
    w = int(bad[0, 0])
    bad[0, 0] = next(x for x in range(1, n) if x not in bad[0] and x != w)
    expect("graph with a one-way edge", checks.check_graph(n, d, bad.ravel()), True)
    expect("graph with a row missing", checks.check_graph(n, d, nbrs[:-d]), True)

    for p, seed in ((0.5, 11), (0.1, 12)):  # a graph with cycles, then a forest
        trial, mask, cycle = trial_case(g, p, seed)
        label = f"p={p}"
        expect(f"{label} true trial", checks.check_trial(n, d, p, 4, nbrs, mask, trial, cycle), False)
        for key, delta in (("largest", 1), ("second_largest", 1), ("components", 1),
                           ("retained", -1), ("retained_edges", 1), ("largest_edges", 1)):
            t = copy.deepcopy(trial)
            t["census"][key] += delta
            expect(f"{label} census {key} {delta:+d}",
                   checks.check_trial(n, d, p, 4, nbrs, mask, t, cycle), True)
        t = copy.deepcopy(trial)
        t["census"]["tree_counts"][0] += 1
        expect(f"{label} census T1 +1", checks.check_trial(n, d, p, 4, nbrs, mask, t, cycle), True)
        for key, delta in (("coins", -1), ("epochs", 1), ("accepted", 1), ("largest_epoch", 1)):
            t = copy.deepcopy(trial)
            t["dfs"][key] += delta
            expect(f"{label} dfs {key} {delta:+d}",
                   checks.check_trial(n, d, p, 4, nbrs, mask, t, cycle), True)
        t = copy.deepcopy(trial)
        t["census"]["cycle_lb"] = 0 if trial["census"]["cycle_lb"] else 3
        expect(f"{label} cycle_lb flipped", checks.check_trial(n, d, p, 4, nbrs, mask, t, cycle), True)
        expect(f"{label} retained count far from Bin(n, p)",
               checks.check_trial(n, d, 0.9, 4, nbrs, mask, trial, cycle), True)

    trial, mask, cycle = trial_case(g, 0.5, 11)
    length = trial["census"]["cycle_lb"]
    expect("true cycle witness", checks.check_cycle_witness(n, d, nbrs, mask, cycle, length), False)
    expect("cycle witness missing", checks.check_cycle_witness(n, d, nbrs, mask, None, length), True)
    expect("cycle witness shortened",
           checks.check_cycle_witness(n, d, nbrs, mask, cycle[:-1], length - 1), True)
    reordered = [cycle[0], cycle[2], cycle[1]] + list(cycle[3:])
    expect("cycle witness out of order",
           checks.check_cycle_witness(n, d, nbrs, mask, reordered, length), True)
    outside = mask.copy()
    outside[cycle[0]] = False
    expect("cycle witness off the retained set",
           checks.check_cycle_witness(n, d, nbrs, outside, cycle, length), True)

    spec = compute_spectrum(generate(GenSpec("random_regular", n=2000, d=20, seed=5))).to_dict()
    expect("true spectrum", checks.check_spectrum(spec, 20, 1e-8), False)
    for key, value in (("lambda1", 19.0), ("residual2", 1e-3), ("lam", 12.0)):
        expect(f"spectrum {key}={value}", checks.check_spectrum(dict(spec, **{key: value}), 20, 1e-8),
               True)

    rows = [{"metric": "L2_rate", "pass": True}, {"metric": "L1_median", "pass": False}]
    summary = {"complete": True, "trials": 2, "rows": rows,
               "checker_pass_rates": {"mixing": 1.0, "lemma_2_4": 1.0}}
    gated = ["L2_rate"]
    expect("true summary", checks.check_summary(summary, 2, ["mixing", "lemma_2_4"], gated), False)
    failed_row = [dict(rows[0], **{"pass": False}), rows[1]]
    expect("summary with a gated row failed",
           checks.check_summary(dict(summary, rows=failed_row), 2, [], gated), True)
    expect("summary with a gated row missing",
           checks.check_summary(dict(summary, rows=rows[1:]), 2, [], gated), True)
    expect("summary with a trial short", checks.check_summary(summary, 3, [], gated), True)
    expect("summary lemma_2_4 rate 0.5",
           checks.check_summary(dict(summary, checker_pass_rates={"lemma_2_4": 0.5}), 2,
                                ["lemma_2_4"], gated), True)

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print("all checks pass true outputs and reject corrupted ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
