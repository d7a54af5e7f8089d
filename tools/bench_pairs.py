"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --parent ../old --change . \
        --workload dpp_ladder --seeds 1..10 --seconds 30

For each seed it runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, alternating which one
runs first, and reads the JSON result on the last line of each run.
For every end-to-end metric it prints each side's median and quartiles,
the change/parent ratio of the medians, how many pairs the change won
(ties count for neither side) and whether the gain rule holds: the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's inter-quartile distance.  It also prints the
failed/attempted operation counts of each side, and runs that gave no
result.  Standard library only; it writes nothing, and the last line of
its output is the raw per-pair data as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_METRICS = {"wall_s": "lower", "cpu_s": "lower", "peak_rss_mb": "lower",
                   "setup_s": "lower"}


def parse_seeds(text: str) -> list[int]:
    """``1..10`` (inclusive) or a comma list such as ``1,4,7``."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def end_to_end_metrics(tree: str) -> dict:
    """Metric name -> "lower" or "higher", from the tree's BENCHMARK.json."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.isfile(path):
        return dict(DEFAULT_METRICS)
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(tree: str, workload: str, seed: int, seconds: int):
    """The run's JSON result, or None when it produced none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """One line per metric over the pairs where both sides gave a result."""
    done = [(p, c) for p, c in pairs if p is not None and c is not None]
    lines = []
    for name, better in metrics.items():
        par = [p["metrics"][name]["value"] for p, _ in done]
        chg = [c["metrics"][name]["value"] for _, c in done]
        if not par:
            lines.append(f"{name}: no complete pair")
            continue
        pq, cq = quartiles(par), quartiles(chg)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
        gain = (wins >= 0.9 * len(done)
                and sign * (pq[1] - cq[1]) > pq[2] - pq[0])
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        lines.append(
            f"{name}: parent median {pq[1]:.4g} [q1 {pq[0]:.4g}, q3 {pq[2]:.4g}], "
            f"change median {cq[1]:.4g} [q1 {cq[0]:.4g}, q3 {cq[2]:.4g}], "
            f"change/parent {ratio:.3f}, change won {wins}/{len(done)}, "
            f"gain rule {'holds' if gain else 'does not hold'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1..10", help="1..10 or a comma list")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(trees["change"])

    pairs = []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        result = {}
        for side in order:
            result[side] = run_once(trees[side], args.workload, seed, args.seconds)
            got = ("no result" if result[side] is None else
                   " ".join(f"{m} {result[side]['metrics'][m]['value']:.4g}"
                            for m in metrics))
            print(f"seed {seed} {side}: {got}", flush=True)
        pairs.append((result["parent"], result["change"]))

    print(f"workload {args.workload}, seeds {args.seeds}, {args.seconds} s per run, "
          f"{len(pairs)} pairs")
    for line in summarize(pairs, metrics):
        print(line)
    for i, side in enumerate(("parent", "change")):
        runs = [pair[i] for pair in pairs]
        done = [r for r in runs if r is not None]
        print(f"{side}: failed/attempted operations "
              f"{sum(r['failed'] for r in done)}/{sum(r['attempted'] for r in done)}, "
              f"runs without result {len(runs) - len(done)}/{len(runs)}, "
              f"incorrect runs {sum(1 for r in done if not r['correct'])}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "seeds": parse_seeds(args.seeds),
                      "pairs": [{"parent": p, "change": c} for p, c in pairs]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
