"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload dpp_ladder --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory, nothing is installed.  The workload runs in a
worker process (worker.py) with the BLAS thread count fixed to 1.  With
``--trace 0`` it reports the end-to-end metrics; four more set-up-only
worker processes are started one after another first, and ``setup_s``
is the median over all five.  With ``--trace 1`` the worker wraps each
layer's public functions and the run reports the per-layer metrics
instead.  Human-readable lines come first; the last line of standard
output is the JSON result.  Any failure to produce a result exits with
a nonzero code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("dpp_ladder", "bsde_jump", "verify", "weak_hjb")
SETUP_PROBES = 4
# Time allowed past --seconds for set-up probes and the last round.
DEADLINE_SLACK_S = 60.0
# One BLAS thread: the workload process runs no threads besides its own.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _layer_units():
    sys.path.insert(0, HERE)
    from layertrace import COUNT_METRICS, TIME_METRICS
    units = {name: "s" for name, _, _ in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    return units


class RunFailed(Exception):
    pass


def run_worker(args, deadline, setup_only=False) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting the worker")
    spawned_at = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    deadline = time.monotonic() + args.seconds + DEADLINE_SLACK_S
    if not os.path.isfile(os.path.join(ROOT, "src", "jumphjb", "__init__.py")):
        print(f"no jumphjb sources under {ROOT}/src: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, deadline, setup_only=True)["setup_s"])
        result = run_worker(args, deadline)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    checks = [c for round_checks in result["rounds"] for c in round_checks]
    failed = sum(1 for _, ok, _, _ in checks if not ok)
    correct = all(ok or known_fault for _, ok, _, known_fault in checks)

    walls = ", ".join(f"{w:.3f}" for w in result["round_walls"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(result['rounds'])} rounds, round walls [{walls}] s, "
          f"{result['os_threads']} OS thread(s)")
    for name, ok, detail, known_fault in result["rounds"][0]:
        verdict = "PASS" if ok else ("FAIL (known fault)" if known_fault else "FAIL")
        print(f"check {verdict}: {name}: {detail}")

    if args.trace:
        units = _layer_units()
        values = result["layers"]
        print(f"traced wall_s {result['wall_s']:.4f} s")
        for name in result["not_traced"]:
            print(f"not traced: {name} is not the library function it wraps")
        for name, agree in result["layer_rounds_agree"].items():
            if not agree:
                print(f"count {name} differs between rounds")
    else:
        units = END_TO_END_UNITS
        values = dict(result, setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
