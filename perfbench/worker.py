"""One workload in one process: set up, run whole rounds, report.

Started by run.py with the BLAS thread count fixed to 1, so the process
runs no extra threads.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so set-up time counts interpreter start, imports and
building the workload.  The last line of standard output is one JSON
object; run.py turns it into the benchmark's result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _per_round(values):
    """Mean over rounds; a value that every round repeats is kept as is.

    The mean, not the median: on a shared host the CPU speed can switch
    between states that last tens of seconds, and the median of a run's
    rounds then jumps from one state to the other where the mean moves
    smoothly with the share of time spent in each.
    """
    return values[0] if len(set(values)) == 1 else statistics.fmean(values)


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import jumphjb

    if not os.path.abspath(jumphjb.__file__).startswith(src + os.sep):
        print(f"jumphjb was imported from {jumphjb.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls, cpus, rounds, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        checks = workload.run_round()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_seconds() - cpu0)
        rounds.append([[c.name, c.ok, c.detail, c.known_fault] for c in checks])
        if tracer is not None:
            layers.append(tracer.metrics())
        # Start another round only if it is expected to end in time.
        if time.perf_counter() - start + walls[-1] > args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "wall_s": _per_round(walls),
        "cpu_s": _per_round(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_walls": walls,
        "os_threads": _os_threads(),
        "rounds": rounds,
    }
    if tracer is not None:
        out["layers"] = {k: _per_round([r[k] for r in layers]) for k in layers[0]}
        out["layer_rounds_agree"] = {
            k: len({r[k] for r in layers}) == 1 for k in layers[0]
            if isinstance(layers[0][k], int)}
        out["not_traced"] = tracer.missing
        tracer.uninstall()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
