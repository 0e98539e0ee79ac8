"""Correctness checks on a sweep's outputs, computed apart from the program.

Each check returns a list of failure messages; an empty list means the
output passed.  Recounts use scipy's connected components and plain numpy,
never the program's census or union-find; the remaining checks follow from
properties the method must have (one coin per vertex, one epoch per
component, a DFS back edge exactly when the retained subgraph has a cycle,
a Bin(n, p) retained count, a spectrum near the Ramanujan value).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Friedman: the second eigenvalue of a random d-regular graph is
# 2*sqrt(d-1) + o(1) (and Alon-Boppana bounds it below by 2*sqrt(d-1) - o(1));
# measured 8.705 against 8.718 at n=20k, d=20, so a 5% window is loose
RAMANUJAN_WINDOW = 0.05
BINOMIAL_SIGMAS = 6.0


def check_graph(n: int, d: int, neighbors: np.ndarray) -> list[str]:
    """Simple, d-regular and symmetric, from the flat neighbour array alone."""
    nbrs = np.asarray(neighbors, dtype=np.int64)
    if nbrs.size != n * d:
        return [f"graph: {nbrs.size} adjacency entries, expected n*d = {n * d}"]
    if nbrs.size and (nbrs.min() < 0 or nbrs.max() >= n):
        return ["graph: neighbour id out of range"]
    rows = nbrs.reshape(n, d)
    errors = []
    if np.any(rows == np.arange(n)[:, None]):
        errors.append("graph: self-loop")
    if d > 1 and np.any(np.diff(np.sort(rows, axis=1), axis=1) == 0):
        errors.append("graph: repeated neighbour")
    if not np.array_equal(np.bincount(nbrs, minlength=n), np.full(n, d)):
        errors.append("graph: a vertex appears in other rows a number of times other than d")
    src = np.repeat(np.arange(n, dtype=np.int64), d)
    if not np.array_equal(np.sort(src * n + nbrs), np.sort(nbrs * n + src)):
        errors.append("graph: adjacency is not symmetric")
    return errors


def recount(n: int, d: int, neighbors: np.ndarray, mask: np.ndarray, k_max: int) -> dict:
    """Component statistics of the retained induced subgraph via scipy."""
    rows = np.asarray(neighbors, dtype=np.int64).reshape(n, d)
    kept = np.flatnonzero(mask)
    local = np.full(n, -1, dtype=np.int64)
    local[kept] = np.arange(kept.size)
    src = np.repeat(local[kept], d)
    dst = local[rows[kept].ravel()]
    inside = dst >= 0
    src, dst = src[inside], dst[inside]
    adj = csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(kept.size, kept.size))
    count, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels, minlength=count)
    edges = np.bincount(labels[src], minlength=count) // 2  # each edge appears twice
    by_size = np.sort(sizes)[::-1]
    largest = int(by_size[0]) if count else 0
    return {
        "retained": int(kept.size),
        "components": int(count),
        "largest": largest,
        "second_largest": int(by_size[1]) if count > 1 else 0,
        # ties in size leave the census free to name any of the tied components
        "largest_edges_any_of": sorted({int(e) for e in edges[sizes == largest]}) if count else [0],
        "retained_edges": int(src.size // 2),
        "tree_counts": [int(np.count_nonzero((sizes == k) & (edges == k - 1)))
                        for k in range(1, k_max + 1)],
    }


def check_cycle_witness(n: int, d: int, neighbors: np.ndarray, mask: np.ndarray,
                        cycle, length: int) -> list[str]:
    if cycle is None:
        return [f"cycle: no witness for cycle_lb={length}"]
    cyc = np.asarray(cycle, dtype=np.int64)
    if cyc.size != length:
        return [f"cycle: witness has {cyc.size} vertices, cycle_lb={length}"]
    if cyc.size < 3 or np.unique(cyc).size != cyc.size:
        return ["cycle: witness is not a simple cycle"]
    if cyc.min() < 0 or cyc.max() >= n or not mask[cyc].all():
        return ["cycle: witness leaves the retained set"]
    rows = np.asarray(neighbors, dtype=np.int64).reshape(n, d)
    if not np.any(rows[cyc] == np.roll(cyc, -1)[:, None], axis=1).all():
        return ["cycle: consecutive witness vertices are not adjacent"]
    return []


def check_trial(n: int, d: int, p: float, k_max: int, neighbors: np.ndarray,
                mask: np.ndarray, trial: dict, cycle) -> list[str]:
    """Compare one trial record with a recount of its retained subgraph."""
    tag = f"trial {trial['trial_index']}"
    census, dfs = trial["census"], trial["dfs"]
    want = recount(n, d, neighbors, mask, k_max)
    errors = []
    for key in ("retained", "components", "largest", "second_largest", "retained_edges",
                "tree_counts"):
        if census[key] != want[key]:
            errors.append(f"{tag}: census {key}={census[key]}, recount {want[key]}")
    if census["largest_edges"] not in want["largest_edges_any_of"]:
        errors.append(f"{tag}: census largest_edges={census['largest_edges']}, "
                      f"recount {want['largest_edges_any_of']}")
    if dfs["coins"] != n:
        errors.append(f"{tag}: dfs used {dfs['coins']} coins, graph has {n} vertices")
    if dfs["epochs"] != want["components"]:
        errors.append(f"{tag}: {dfs['epochs']} epochs, recount {want['components']} components")
    if dfs["accepted"] != want["retained"] or dfs["largest_epoch"] != want["largest"]:
        errors.append(f"{tag}: dfs accepted/largest_epoch disagree with the recount")
    sd = math.sqrt(n * p * (1.0 - p))
    if abs(want["retained"] - n * p) > BINOMIAL_SIGMAS * sd:
        errors.append(f"{tag}: retained {want['retained']} is more than "
                      f"{BINOMIAL_SIGMAS} sigma from n*p = {n * p:.1f}")
    forest = want["retained_edges"] == want["retained"] - want["components"]
    if forest != (census["cycle_lb"] == 0):
        errors.append(f"{tag}: cycle_lb={census['cycle_lb']} but the retained subgraph "
                      f"{'is' if forest else 'is not'} a forest")
    elif not forest:
        errors += [f"{tag}: {e}" for e in
                   check_cycle_witness(n, d, neighbors, mask, cycle, census["cycle_lb"])]
    return errors


def check_spectrum(spectrum: dict, d: int, tol: float) -> list[str]:
    errors = []
    if abs(spectrum["lambda1"] - d) > tol:
        errors.append(f"spectrum: lambda1={spectrum['lambda1']}, expected d={d}")
    for key in ("residual2", "residualN"):
        if not spectrum[key] <= tol:
            errors.append(f"spectrum: {key}={spectrum[key]} exceeds tol {tol}")
    ram = 2.0 * math.sqrt(d - 1)
    if abs(spectrum["lam"] - ram) > RAMANUJAN_WINDOW * ram:
        errors.append(f"spectrum: lambda={spectrum['lam']} outside "
                      f"2*sqrt(d-1)={ram:.4f} +/- {RAMANUJAN_WINDOW:.0%}")
    return errors


def check_summary(summary: dict, trials: int, checkers, gated_rows) -> list[str]:
    """The sweep's own verdicts: every gated comparison row passes and every
    named checker passed on every trial."""
    errors = []
    if not summary.get("complete") or summary.get("trials") != trials:
        errors.append(f"summary: incomplete or wrong trial count {summary.get('trials')}")
    rows = {r["metric"]: r for r in summary.get("rows", [])}
    for metric in gated_rows:
        if metric not in rows or not rows[metric]["pass"]:
            errors.append(f"summary: row {metric} failed: {rows.get(metric)}")
    rates = summary.get("checker_pass_rates", {})
    for cid in checkers:
        if rates.get(cid) != 1.0:
            errors.append(f"summary: {cid} pass rate {rates.get(cid)}, expected 1.0")
    return errors


def read_records(path: str) -> tuple[dict, list, dict]:
    """Split a record file into (config, trials, summary), checking its framing."""
    with open(path, "r", encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh.read().split("\n") if line]
    if len(objs) < 2 or objs[0].get("kind") != "config" or objs[-1].get("kind") != "summary":
        raise ValueError(f"{path}: not a complete record file")
    trials = objs[1:-1]
    if [t.get("trial_index") for t in trials] != list(range(len(trials))):
        raise ValueError(f"{path}: trial records out of order")
    return objs[0], trials, objs[-1]
