"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --parent ../old --change . \
        --workload dpp_ladder --seeds 1..10 --seconds 30 [--json BENCH_n.json]

For each seed it runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, alternating which one
runs first, and reads the JSON result on the last line of each run.
For every end-to-end metric it prints each side's median and quartiles,
the change/parent ratio of the medians, how many pairs the change won
(ties count for neither side), whether the gain rule holds (the change
wins at least nine tenths of the pairs and the medians differ by more
than the parent's inter-quartile distance) and a no-regression verdict
against the metric's ``bound`` in BENCHMARK.json: "within bound",
"worse by X (bound Y)", or "unresolved" when the parent's inter-quartile
distance over its median exceeds the bound and not every change run
reads better than every parent run, so the runs cannot tell a move of
the bound's size from their spread.  It also prints the
failed/attempted operation counts of each side, and runs that gave no
result.  Standard library only.  The last line of its output is the raw
per-pair data as JSON.

Next to each run it times a fixed numpy kernel (the same code for both
sides) in a fresh interpreter in that checkout, single-threaded as the
benchmark runs, and reports each side's median as ``calibration_s``.
The machine's speed drifts over hours and days, so absolute medians of
two BENCH files compare only after dividing by their calibration.

``--json PATH`` also writes that summary, with both checkouts' git
commits, to PATH under ``workloads.<W>``.  An existing file for the same
two commits keeps its other workloads, so one file can collect all of
them; a file for other commits is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

def parse_seeds(text: str) -> list[int]:
    """``1..10`` (inclusive) or a comma list such as ``1,4,7``."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def end_to_end_metrics(tree: str) -> dict:
    """Metric name -> ("lower" or "higher", relative bound), from the
    tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


# Best of five rounds of a fixed mix of BLAS, sorting and elementwise
# work; prints seconds.
CALIBRATION_KERNEL = """
import time
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((200, 200))
x = rng.standard_normal(200000)
best = float("inf")
for _ in range(5):
    t0 = time.perf_counter()
    for _ in range(40):
        a @ a
        np.sort(x)
        np.exp(x).sum()
    best = min(best, time.perf_counter() - t0)
print(best)
"""
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def calibrate(tree: str):
    """Seconds of the calibration kernel in ``tree``, or None on failure."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION_KERNEL], cwd=tree,
                          env=dict(os.environ, **THREAD_ENV),
                          stdout=subprocess.PIPE, text=True)
    try:
        return float(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


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


def verdict(par, chg, better: str, bound: float) -> str:
    """The no-regression verdict of the change's runs ``chg`` against
    the parent's ``par`` for a metric that may worsen by ``bound``
    (relative to the parent's median)."""
    pq = quartiles(par)
    sign = 1.0 if better == "lower" else -1.0
    beats_all = max(sign * c for c in chg) < min(sign * p for p in par)
    spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else float("inf")
    if spread > bound and not beats_all:
        return (f"unresolved (parent IQR/median {spread:.3f} > bound {bound:g}, "
                "not every change run better)")
    worse = sign * (quartiles(chg)[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
    if worse > bound:
        return f"worse by {worse:.3f} (bound {bound:g})"
    return "within bound"


def metric_summary(pairs, metrics) -> dict:
    """Per metric, over the pairs where both sides gave a result: each
    side's quartiles, the change/parent ratio of the medians, pairs won,
    the gain rule and the no-regression verdict; None for a metric
    without a complete pair."""
    done = [(p, c) for p, c in pairs if p is not None and c is not None]
    out = {}
    for name, (better, bound) in metrics.items():
        par = [p["metrics"][name]["value"] for p, _ in done]
        chg = [c["metrics"][name]["value"] for _, c in done]
        if not par:
            out[name] = None
            continue
        pq, cq = quartiles(par), quartiles(chg)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
        out[name] = {
            "better": better,
            "parent": dict(zip(("q1", "median", "q3"), pq)),
            "change": dict(zip(("q1", "median", "q3"), cq)),
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "change_won": wins,
            "pairs": len(done),
            "gain_rule": (wins >= 0.9 * len(done)
                          and sign * (pq[1] - cq[1]) > pq[2] - pq[0]),
            "verdict": verdict(par, chg, better, bound),
        }
    return out


def summarize(summary: dict):
    """One line per metric of a :func:`metric_summary`."""
    lines = []
    for name, m in summary.items():
        if m is None:
            lines.append(f"{name}: no complete pair")
            continue
        pq, cq = m["parent"], m["change"]
        lines.append(
            f"{name}: parent median {pq['median']:.4g} [q1 {pq['q1']:.4g}, "
            f"q3 {pq['q3']:.4g}], change median {cq['median']:.4g} "
            f"[q1 {cq['q1']:.4g}, q3 {cq['q3']:.4g}], "
            f"change/parent {m['ratio']:.3f}, change won {m['change_won']}/{m['pairs']}, "
            f"gain rule {'holds' if m['gain_rule'] else 'does not hold'}, "
            f"{m['verdict']}")
    return lines


def operation_counts(runs) -> dict:
    """Failed and attempted operations over one side's runs."""
    done = [r for r in runs if r is not None]
    return {"failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "runs_without_result": len(runs) - len(done),
            "incorrect_runs": sum(1 for r in done if not r["correct"])}


def git_commit(tree: str) -> dict:
    """HEAD of the checkout and whether tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=tree, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def write_json(path: str, trees: dict, workload: str, entry: dict) -> None:
    commits = {side: git_commit(tree) for side, tree in trees.items()}
    doc = {"commits": commits, "workloads": {}}
    if os.path.isfile(path):
        with open(path) as fh:
            old = json.load(fh)
        if old.get("commits") != commits:
            raise SystemExit(f"{path} holds pairs of other commits: "
                             f"{old.get('commits')} against {commits}")
        doc = old
    doc["workloads"][workload] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1..10", help="1..10 or a comma list")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--json", metavar="PATH",
                    help="also write the summary and both git commits to PATH")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(trees["change"])

    pairs = []
    calibration = {"parent": [], "change": []}
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        result = {}
        for side in order:
            calibration[side].append(calibrate(trees[side]))
            result[side] = run_once(trees[side], args.workload, seed, args.seconds)
            got = ("no result" if result[side] is None else
                   " ".join(f"{m} {result[side]['metrics'][m]['value']:.4g}"
                            for m in metrics))
            print(f"seed {seed} {side}: {got}, calibration "
                  f"{calibration[side][-1]}", flush=True)
        pairs.append((result["parent"], result["change"]))

    print(f"workload {args.workload}, seeds {args.seeds}, {args.seconds} s per run, "
          f"{len(pairs)} pairs")
    summary = metric_summary(pairs, metrics)
    for line in summarize(summary):
        print(line)
    ops = {side: operation_counts([pair[i] for pair in pairs])
           for i, side in enumerate(("parent", "change"))}
    calibration_s = {}
    for side, cal in calibration.items():
        done = [c for c in cal if c is not None]
        calibration_s[side] = statistics.median(done) if done else None
    print(f"calibration_s: parent {calibration_s['parent']}, "
          f"change {calibration_s['change']}")
    for side, c in ops.items():
        print(f"{side}: failed/attempted operations {c['failed']}/{c['attempted']}, "
              f"runs without result {c['runs_without_result']}/{len(pairs)}, "
              f"incorrect runs {c['incorrect_runs']}")
    if args.json:
        write_json(args.json, trees, args.workload, {
            "seeds": parse_seeds(args.seeds), "seconds": args.seconds,
            "metrics": summary, "operations": ops, "calibration_s": calibration_s})
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "seeds": parse_seeds(args.seeds),
                      "pairs": [{"parent": p, "change": c} for p, c in pairs],
                      "calibration": calibration}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
