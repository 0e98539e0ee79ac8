"""One workload in one process: timed sweeps, byte-identity checks, optional traced replay.

Run from the checkout root with ``src`` on the import path; ``run.py``
does both, adds the memory figure and runs ``check_run.py`` afterwards.
Writes its result, with the list of failed checks, as one JSON object to
the file named by ``--result``.

A round is one ``run_sweep`` call (timed whole: ``run_s``) followed by
the set-up calls ``run_sweep`` makes before its first trial, made again
and timed on their own (``setup_s``).  Rounds repeat until ``--seconds``
of rounds have passed; the figures reported are medians over rounds.
Later rounds' record and CSV files must equal the first round's byte for
byte, and the first round's record must carry the same prediction and
spectrum as the set-up calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import time
from statistics import median

from percolab import compare, compute_spectrum, generate, predict, run_sweep
from percolab.harness import config_from_mapping

import checks
import tracing
from workloads import OUT_DIR, WORKLOADS, sweep_mapping

log = logging.getLogger("perfbench")


def timed_setup(cfg):
    t0 = time.perf_counter()
    graph = generate(cfg.gen)
    spect = compute_spectrum(graph, tol=cfg.spectrum_tol) if cfg.spectrum else None
    pred = predict(graph.n, graph.d, cfg.epsilon, cfg.alpha, cfg.k_max)
    return time.perf_counter() - t0, spect, pred


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def as_json(obj):
    return json.loads(json.dumps(obj))


def run_rounds(name, cfg, seconds: float) -> dict:
    """Timed rounds; the record file's own checks are left to check_run.py."""
    run_times, setup_times = [], []
    attempted = failed = 0
    errors: list[str] = []
    reference = None
    measured = 0.0
    while attempted == 0 or measured < seconds:
        attempted += cfg.trials
        gc.collect()  # no cyclic garbage of the last round left to inflate this one's peak
        t0 = time.perf_counter()
        try:
            run_sweep(cfg)
        except Exception:  # a failing sweep is counted, and the run goes on
            log.exception("run_sweep failed")
            failed += cfg.trials
            measured += time.perf_counter() - t0
            continue
        run_s = time.perf_counter() - t0
        setup_s, spect, pred = timed_setup(cfg)
        run_times.append(run_s)
        setup_times.append(setup_s)
        measured += run_s + setup_s
        log.info("%s round %d: run_s=%.4f setup_s=%.4f", name, len(run_times), run_s, setup_s)
        outputs = (read_bytes(cfg.out), read_bytes(cfg.out + ".csv"))
        if reference is None:
            reference = outputs
            head = json.loads(outputs[0].split(b"\n", 1)[0])
            if head["prediction"] != as_json(pred.to_dict()):
                errors.append("records: prediction differs from predict() on the same inputs")
            if spect is not None and head["spectrum"] != as_json(spect.to_dict()):
                errors.append("records: spectrum differs from compute_spectrum() on the same graph")
        elif outputs != reference:
            errors.append(f"round {len(run_times)}: record or CSV bytes differ from round 1")
    return {"run_times": run_times, "setup_times": setup_times, "attempted": attempted,
            "failed": failed, "errors": errors}


def end_to_end(cfg, rounds: dict) -> dict:
    # per round, so that a slow spell of the machine hits both terms alike
    rates = [cfg.trials / (r - s) for r, s in zip(rounds["run_times"], rounds["setup_times"])]
    return {
        "setup_s": {"value": median(rounds["setup_times"]), "unit": "s"},
        "run_s": {"value": median(rounds["run_times"]), "unit": "s"},
        "trials_per_s": {"value": median(rates), "unit": "1/s"},
    }


def traced_replay(name, cfg, run_s: float) -> tuple[dict, list[str]]:
    """Replay the sweep with spans; returns per-layer metrics and errors."""
    tracer = tracing.Tracer()
    replay_path = os.path.join(OUT_DIR, f"{name}.replay.jsonl")
    record_lines = read_bytes(cfg.out).decode("utf-8").split("\n")
    t0 = time.perf_counter()
    graph, spect = tracing.replay_setup(tracer, cfg)
    trials = tracing.replay_trials(tracer, graph, cfg, spect)
    with tracer.span("harness.write"):
        # config and summary lines come from the record file; the trial lines
        # are the replay's own, so equal files mean equal trial objects
        lines = [record_lines[0]]
        lines += [json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj, _, _ in trials]
        lines += record_lines[cfg.trials + 1:]
        with open(replay_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines))
    traced_run_s = time.perf_counter() - t0

    errors = []
    if read_bytes(replay_path) != read_bytes(cfg.out):
        errors.append("replay: trial objects differ from the record file")
    errors += tracing.probe_layers(tracer, graph, cfg.p, trials)
    with tracer.span("harness.compare"):
        table = compare(cfg.out)
    if table["rows"] != checks.read_records(cfg.out)[2]["rows"]:
        errors.append("compare: rows differ from the sweep's own summary rows")

    spans = tracer.spans
    own = tracing.self_times(spans)

    def durations(layer):
        return [s["end"] - s["start"] for s in spans if s["name"] == layer]

    def med(layer):
        vals = durations(layer)
        return median(vals) if vals else 0.0

    objs = [obj for obj, _, _ in trials]
    setup_total = sum(durations("harness.setup"))
    trial_total = sum(durations("harness.trial"))
    trial_self = [own[s["id"]] for s in spans if s["name"] == "harness.trial"]
    layers = {
        "generators.generate_s": (med("generators.generate"), "s"),
        "generators.edges": (int(graph.edge_list()[0].size), "count"),
        "graph_core.from_edges_s": (med("graph_core.from_edges"), "s"),
        "graph_core.adjacency_bytes": (int(graph.neighbors.nbytes), "bytes"),
        "theory.predict_s": (med("theory.predict"), "s"),
        "spectral.compute_spectrum_s": (med("spectral.compute_spectrum"), "s"),
        "spectral.matvecs": (spect.iterations if spect is not None else 0, "count"),
        "percolation.coin_draw_s": (med("percolation.coin_draw"), "s"),
        "percolation.run_dfs_s": (med("percolation.run_dfs"), "s"),
        "percolation.coins": (median(o["dfs"]["coins"] for o in objs), "count"),
        "percolation.epochs": (median(o["dfs"]["epochs"] for o in objs), "count"),
        "census.take_census_s": (med("census.take_census"), "s"),
        "census.union_find_s": (med("census.union_find"), "s"),
        "census.cycle_scan_s": (med("census.cycle_scan"), "s"),
        "census.components": (median(o["census"]["components"] for o in objs), "count"),
        "census.retained_edges": (median(o["census"]["retained_edges"] for o in objs), "count"),
        "verify.stream_s": (med("verify.stream"), "s"),
        "verify.mixing_s": (med("verify.mixing"), "s"),
        "verify.corollary_2_3_s": (med("verify.corollary_2_3"), "s"),
        "verify.lemma_2_4_s": (med("verify.lemma_2_4"), "s"),
        "verify.instances": (median(sum(c["instances_checked"] for c in o["checks"])
                                    for o in objs), "count"),
        "harness.trial_s": (med("harness.trial"), "s"),
        "harness.trial_self_s": (median(trial_self), "s"),
        "harness.overhead_s": (run_s - setup_total - trial_total / cfg.workers, "s"),
        "harness.compare_s": (med("harness.compare"), "s"),
        "harness.records_bytes": (os.path.getsize(cfg.out) + os.path.getsize(cfg.out + ".csv"),
                                  "bytes"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - run_s, "s"),
    }
    self_by_name: dict[str, float] = {}
    for s in spans:
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + own[s["id"]]
    with open(os.path.join(OUT_DIR, f"{name}.trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"t0": t0, "spans": spans, "self_s_by_layer": self_by_name}, fh, indent=1)
    return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(name)s %(message)s")

    os.makedirs(OUT_DIR, exist_ok=True)
    cfg = config_from_mapping(sweep_mapping(args.workload, args.seed))
    rounds = run_rounds(args.workload, cfg, args.seconds)
    if not rounds["run_times"]:
        log.error("no sweep completed; nothing to report")
        return 1
    errors = rounds["errors"]
    metrics = end_to_end(cfg, rounds)
    if args.trace:
        metrics, replay_errors = traced_replay(args.workload, cfg, metrics["run_s"]["value"])
        errors += replay_errors
    result = {"errors": errors, "attempted": rounds["attempted"],
              "failed": rounds["failed"], "metrics": metrics}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
