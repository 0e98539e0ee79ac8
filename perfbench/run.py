#!/usr/bin/env python3
"""percolab benchmark: run one workload and print its result as one JSON line.

    python3 perfbench/run.py --workload giant_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh process
(``bench.py``) with ``src`` on its import path; this process samples the
resident memory of that process and its pool workers while it runs.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced replay.  Once the
workload process has ended, ``check_run.py`` checks its outputs in a
process of its own.  The exit code is non-zero, and no result is
printed, if the workload could not run or its outputs could not be
checked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
POLL_S = 0.02


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except OSError:  # the process ended between listing and reading
            continue
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="percolab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "percolab", "__init__.py")):
        print(f"percolab sources not found under {src}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"{args.workload}.result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread per process: the pool already occupies every CPU, and
    # spinning BLAS threads on a small machine only add noise to the timings
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), *common,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path]
    # a terminated run still stops its workload (through the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # own session, so the pool workers can be stopped with the workload
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    peak_kb = 0
    start = time.monotonic()
    try:
        while proc.poll() is None:
            if time.monotonic() - start > DEADLINE_S:
                print(f"workload ran past {DEADLINE_S:.0f} s", file=sys.stderr)
                return 1
            peak_kb = max(peak_kb, sum(_rss_kb(p) for p in _descendants(proc.pid)))
            time.sleep(POLL_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        print(f"workload exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    # a single process's peak is a floor the sampling cannot miss; taken
    # before the check process below adds its own
    floor_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    errors_path = os.path.join(out_dir, f"{args.workload}.errors.json")
    check = [sys.executable, os.path.join(HERE, "check_run.py"), *common, "--errors", errors_path]
    try:
        subprocess.run(check, cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                       timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"output checks did not finish: {exc}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    with open(errors_path, encoding="utf-8") as fh:
        errors = result.pop("errors") + json.load(fh)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": max(peak_kb, floor_kb) / 1024.0, "unit": "MB"}
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
