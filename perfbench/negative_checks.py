"""Show that every benchmark check can fail.

Each check is run once on the workload's real output and once on a
deliberately wrong input (a reversed ladder, a perturbed growth rate, a
shifted candidate value, and so on); the first must pass and the second
must fail.  The channel-order check fails today on the real output, so
it is shown passing on the scenario built with the channels in the
order the coefficients declare them.  Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/negative_checks.py

It takes about a minute and exits nonzero if any outcome is not the
expected one.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads as wl  # noqa: E402

SEED = 1


def main() -> int:
    cases = []  # (label, check, expected ok)

    residuals = wl.DppLadder(SEED).solve()
    cases += [("real ladder", c, True) for c in wl.ladder_checks(residuals)]
    cases += [("reversed ladder", c, False) for c in wl.ladder_checks(residuals[::-1])]

    bj = wl.BsdeJump(SEED)
    y0, se = bj.solve()
    mu = wl.jump_growth_rate()
    cases.append(("true mu", wl.closed_form_check(y0, bj.exact, se), True))
    cases.append(("mu + 0.05", wl.closed_form_check(
        y0, wl.jump_closed_form(mu=mu + 0.05), se), False))
    cases.append(("mu - 0.05", wl.closed_form_check(
        y0, wl.jump_closed_form(mu=mu - 0.05), se), False))

    report = wl.Verify(SEED).solve()
    cases += [("real V0", c, True) for c in wl.verification_checks(report)]
    # A candidate value 0.2 too high: the feedback no longer attains it
    # and every alternative then "beats" it.
    raised = dataclasses.replace(report, v0=report.v0 + 0.2,
                                 gap=report.gap - 0.2)
    cases += [("V0 + 0.2", c, False) for c in wl.verification_checks(raised)]

    weak = wl.WeakHjb(SEED)
    v_pide, v_weak, sol = weak.solve_weak()
    cases.append(("real PIDE", wl.weak_gap_check(v_pide, v_weak), True))
    cases.append(("PIDE + 0.05", wl.weak_gap_check(v_pide + 0.05, v_weak), False))
    cases.append(("real history", wl.picard_check("smooth1d", sol.history, True), True))
    cases.append(("reversed history",
                  wl.picard_check("smooth1d", sol.history[::-1], True), False))
    cases.append(("no weak solution",
                  wl.weak_gap_check(v_pide, np.full_like(v_pide, np.nan)), False))

    tree, scen = weak.solve_scenario()
    probs = [tree.probabilities(i) for i in range(tree.grid.n_steps + 1)]
    cases.append(("real tree", wl.probability_check(probs), True))
    cases.append(("last node dropped",
                  wl.probability_check([p[:-1] if p.size > 1 else p for p in probs]),
                  False))
    cases.append(("channels (J, W2)",
                  wl.channel_order_check(scen.max_z_norm(), scen.max_r_norm()), False))
    _, fixed = weak.solve_scenario(channels=("W2", "J"))
    cases.append(("channels (W2, J)",
                  wl.channel_order_check(fixed.max_z_norm(), fixed.max_r_norm()), True))
    # Two Picard iterations do not reach the tolerance: the solver
    # raises, and the workload turns that into a failed check.
    _, short = weak.solve_scenario(max_iter=2)
    cases.append(("2 Picard iterations",
                  wl.picard_check("random_terminal", short.history, short.converged),
                  False))

    wrong = 0
    for label, check, expected in cases:
        as_expected = check.ok == expected
        wrong += not as_expected
        print(f"{'ok ' if as_expected else 'BAD'} expected {'PASS' if expected else 'FAIL'}, "
              f"got {'PASS' if check.ok else 'FAIL'}: {check.name} [{label}]: {check.detail}")
    print(f"{len(cases) - wrong}/{len(cases)} outcomes as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
