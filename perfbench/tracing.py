"""Traced replay: re-run a sweep's trials through the public functions that
``harness._run_trial`` calls, in the same order, with a span around each call.

Spans live in memory (one list per process) and are written out once the
replay ends.  A span records its name, start, end, parent span and the
trial it belongs to; spans of one trial share that trial index.  Layer
names are the percolab module names.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import replace

from percolab import (
    CoinStream,
    PercolationSample,
    RegularGraph,
    VertexSet,
    check_corollary_2_3,
    check_giant_expansion,
    check_lemma_2_4,
    check_mixing,
    check_stream_properties,
    components_oracle,
    compute_spectrum,
    generate,
    longest_cycle_lower_bound,
    predict,
    run_dfs,
    take_census,
)
from percolab.rng import TAG_SUBSETS, make_generator, trial_seed


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "trial": parent["trial"] if trial is None and parent is not None else trial,
            "pid": os.getpid(),
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def merge(self, spans: list[dict]) -> None:
        """Adopt spans recorded in another process (perf_counter is system-wide)."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(dict(s, id=s["id"] + base,
                                   parent=None if s["parent"] is None else s["parent"] + base))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def replay_setup(tracer: Tracer, cfg):
    """The calls run_sweep makes before its first trial."""
    with tracer.span("harness.setup"):
        with tracer.span("generators.generate"):
            graph = generate(cfg.gen)
        spect = None
        if cfg.spectrum:
            with tracer.span("spectral.compute_spectrum"):
                spect = compute_spectrum(graph, tol=cfg.spectrum_tol)
        with tracer.span("theory.predict"):
            predict(graph.n, graph.d, cfg.epsilon, cfg.alpha, cfg.k_max)
    return graph, spect


def replay_trial(tracer: Tracer, g: RegularGraph, cfg, spect, i: int):
    """One trial, call for call as harness._run_trial makes it.

    Returns the trial's record object, the graph it ran on and its
    retained-vertex mask."""
    seed = trial_seed(cfg.master_seed, i)
    with tracer.span("harness.trial", trial=i):
        if cfg.regen_graph:
            with tracer.span("generators.generate"):
                g = generate(replace(cfg.gen, seed=trial_seed(cfg.gen.seed, i)))
        with tracer.span("percolation.coin_draw"):
            stream = CoinStream(g.n, cfg.p, seed)
        with tracer.span("percolation.run_dfs"):
            trace = run_dfs(g, stream)
        sample = PercolationSample.from_membership(cfg.p, seed, trace.accepted_mask())
        with tracer.span("census.take_census"):
            census = take_census(g, sample, cfg.k_max)
        checks = []
        for cid in cfg.checkers:
            if cid == "stream":
                with tracer.span("verify.stream"):
                    checks.append(check_stream_properties(stream, cfg.epsilon, g.d, cfg.regime))
            elif cid == "mixing":
                with tracer.span("verify.mixing"):
                    checks.append(check_mixing(g, spect, cfg.pairs, seed))
            elif cid == "corollary_2_3":
                rng = make_generator(seed, TAG_SUBSETS, 23)
                half = rng.choice(g.n, size=(g.n + 1) // 2, replace=False)
                half_set = VertexSet.from_indices(g.n, half)
                with tracer.span("verify.corollary_2_3"):
                    checks.append(check_corollary_2_3(g, spect, half_set, cfg.alpha))
            elif cid == "lemma_2_4":
                with tracer.span("verify.lemma_2_4"):
                    checks.append(check_lemma_2_4(g, sample, cfg.alpha, cfg.subsets, seed, spect))
            elif cid == "giant_expansion":
                with tracer.span("verify.giant_expansion"):
                    checks.append(check_giant_expansion(
                        g, sample, census, cfg.alpha, cfg.samples, cfg.beta_test, seed))
    obj = {
        "kind": "trial",
        "trial_index": i,
        "seed": seed,
        "census": census.to_summary(),
        "dfs": trace.summary(),
        "checks": [r.to_dict() for r in checks],
    }
    return obj, g, sample.membership


_POOL_STATE: dict = {}


def _pool_init(graph, cfg, spect) -> None:
    _POOL_STATE.update(graph=graph, cfg=cfg, spect=spect)


def _pool_trial(i: int):
    tracer = Tracer()
    obj, _, mask = replay_trial(tracer, _POOL_STATE["graph"], _POOL_STATE["cfg"],
                                _POOL_STATE["spect"], i)
    return obj, tracer.spans, mask


def replay_trials(tracer: Tracer, graph, cfg, spect) -> list:
    """All trials in run_sweep's layout: serial, or a fork pool of the same
    size handing out one trial at a time, so contention and pool start match."""
    if cfg.workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(cfg.workers, initializer=_pool_init, initargs=(graph, cfg, spect)) as pool:
            done = pool.map(_pool_trial, range(cfg.trials), chunksize=1)
        out = []
        for obj, spans, mask in done:
            tracer.merge(spans)
            out.append((obj, graph, mask))
        return out
    return [replay_trial(tracer, graph, cfg, spect, i) for i in range(cfg.trials)]


def probe_layers(tracer: Tracer, graph, p: float, trials: list) -> list[str]:
    """Time single kernels that take_census runs inside one call, plus the
    CSR build, by calling their public entry points on the same inputs."""
    errors = []
    u, v = graph.edge_list()
    with tracer.span("graph_core.from_edges"):
        rebuilt = RegularGraph.from_edges(graph.n, graph.d, u, v)
    if not rebuilt.structurally_equal(graph):
        errors.append("graph_core: from_edges on the graph's own edge list built another graph")
    for obj, g, mask in trials:
        i = obj["trial_index"]
        sample = PercolationSample.from_membership(p, obj["seed"], mask)
        with tracer.span("census.union_find", trial=i):
            labels = components_oracle(g, sample)
        with tracer.span("census.cycle_scan", trial=i):
            cycle_lb = longest_cycle_lower_bound(g, sample)
        if int(labels.max(initial=-1)) + 1 != obj["census"]["components"]:
            errors.append(f"trial {i}: components_oracle disagrees with the census count")
        if cycle_lb != obj["census"]["cycle_lb"]:
            errors.append(f"trial {i}: longest_cycle_lower_bound disagrees with the census")
    return errors
