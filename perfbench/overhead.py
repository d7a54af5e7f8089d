"""Tracing overhead: traced minus untraced round time, in one process.

Rounds alternate between the tracer installed and not (in alternating
order per pair), so drifts in the machine's speed hit both sides alike.
Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/overhead.py --workload verify --pairs 6
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=6)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    untraced, diffs = [], []
    for pair in range(args.pairs):
        wall = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer = Tracer()
            if traced:
                tracer.install()
            start = time.perf_counter()
            workload.run_round()
            wall[traced] = time.perf_counter() - start
            tracer.uninstall()
        untraced.append(wall[False])
        diffs.append(wall[True] - wall[False])
        print(f"pair {pair}: untraced {wall[False]:.3f} s, traced {wall[True]:.3f} s")
    base, diff = statistics.median(untraced), statistics.median(diffs)
    print(f"{args.workload}: median untraced round {base:.3f} s, median traced - "
          f"untraced {diff:+.3f} s ({100 * diff / base:+.1f}%) over {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
