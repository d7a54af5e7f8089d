"""The four benchmark workloads and the checks on their results.

A workload is built from a seed (set-up, not timed) and then runs whole
rounds (timed).  Every round makes the same calls into the library and
returns one :class:`Check` per operation, so the share of failed
operations is the same in every run.  Library functions are always
looked up on their module at call time (``dpp.dpp_residual``, not a
name imported here), so the tracer's wrappers see the benchmark's own
calls too.

Each check compares against a computation made here, apart from the
library, or against a property the method must have.  None compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from jumphjb import bsde, dpp, forward, galerkin, pide
from jumphjb.coefficients import CoefficientSet
from jumphjb.drivers import MarkMeasure, TimeGrid
from jumphjb.errors import NotConvergedError
from jumphjb.problems import build_problem


@dataclass(frozen=True)
class Check:
    """Outcome of one checked operation.

    ``known_fault`` marks the one check that fails today because of a
    documented fault in the library; its failure is counted but does
    not make the run incorrect.
    """

    name: str
    ok: bool
    detail: str
    known_fault: bool = False


# --- dpp_ladder -------------------------------------------------------

# Joint refinement of cells and time steps (the ladder of acceptance
# criterion 02), at 2500 paths per residual instead of 40000, so that a
# run holds several rounds.
LADDER_LEVELS = 4
LADDER_CELLS = 40
LADDER_STEPS = 8
LADDER_PATHS = 2500
LADDER_MIN_RATIO = 1.3


def ladder_checks(residuals):
    """The residual must fall by ``LADDER_MIN_RATIO`` per refinement."""
    checks = []
    for i in range(len(residuals) - 1):
        lo, hi = residuals[i], residuals[i + 1]
        ratio = lo / hi if hi > 0 else np.inf
        checks.append(Check(
            f"dpp residual refinement {i}->{i + 1}", bool(ratio >= LADDER_MIN_RATIO),
            f"residual {lo:.3e} -> {hi:.3e}, ratio {ratio:.2f} "
            f"(gate >= {LADDER_MIN_RATIO})"))
    return checks


class DppLadder:
    def __init__(self, seed: int):
        self.seed = seed
        self.prob = build_problem("smooth1d")

    def solve(self):
        p = self.prob
        residuals = []
        for level in range(LADDER_LEVELS):
            k = 2 ** level
            table = dpp.compute_value_table(
                p.coeffs, p.control_set,
                dpp.Lattice([p.space_low], [p.space_high], (LADDER_CELLS * k,)),
                TimeGrid.uniform(p.horizon, LADDER_STEPS * k), p.measure)
            residuals.append(dpp.dpp_residual(
                p.coeffs, p.control_set, table, p.measure, 0, p.x0, 1,
                LADDER_PATHS, self.seed))
        return residuals

    def run_round(self):
        return ladder_checks(self.solve())


# --- bsde_jump --------------------------------------------------------

# b = 0, sigma = s, g = c, one mark atom of weight lam, l = 1,
# f = -r y + kappa k + theta z, h(x) = exp(a x), horizon T.
JUMP_MODEL = {"a": 0.5, "s": 0.4, "c": 0.3, "lam": 1.0, "r": 0.1,
              "kappa": 0.5, "theta": 0.2, "T": 1.0, "x0": 0.0}
JUMP_PATHS = 10000
JUMP_STEPS = 200
# Gate in pathwise standard errors (see jump_pathwise_se).  Over seeds
# 1-13 the error of Y(0) had a spread of about 0.5 of these and at most
# 1.02, so the gate sits about four spreads out.
JUMP_TOL_SE = 2.0


def jump_coefficients():
    m = JUMP_MODEL
    a, s, c, r, kappa, theta = m["a"], m["s"], m["c"], m["r"], m["kappa"], m["theta"]
    coeffs = CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: np.zeros_like(x),
        sigma=lambda t, x, u, nz: s * np.ones(x.shape + (1,)),
        g=lambda t, e, x, u, nz: c * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz: -r * y + kappa * k + theta * z[..., 0],
        h=lambda x, nz: np.exp(a * x[..., 0]),
        l=lambda t, e: 1.0,
        rho=np.array([0.0]),
        vectorized=True)
    return coeffs, MarkMeasure.from_atoms([((1.0,), m["lam"])])


def jump_growth_rate() -> float:
    """mu in Y(t) = exp(a X(t) + mu (T - t)), by Ito's formula with jumps."""
    m = JUMP_MODEL
    a, s, c, lam = m["a"], m["s"], m["c"], m["lam"]
    jump = np.expm1(a * c)
    return (0.5 * a * a * s * s + lam * (jump - a * c) - m["r"]
            + m["kappa"] * lam * jump + m["theta"] * a * s)


def jump_closed_form(mu=None) -> float:
    if mu is None:
        mu = jump_growth_rate()
    m = JUMP_MODEL
    return float(np.exp(m["a"] * m["x0"] + mu * m["T"]))


def jump_pathwise_se(batch, terminal) -> float:
    """Standard error of the pathwise estimator E[Gamma_T h(X_T)] of Y(0).

    For the linear driver, Y(0) = E[Gamma_T h(X_T)] with the adjoint
    weight Gamma_T = exp(-r T) E(theta W)_T E(kappa N~)_T, computed here
    from the batch's own Brownian increments and jump counts.
    """
    m = JUMP_MODEL
    T, r, theta, kappa, lam = m["T"], m["r"], m["theta"], m["kappa"], m["lam"]
    w_T = batch.dw.sum(axis=0)[:, 0]
    n_T = batch.jump_counts.sum(axis=(0, 2))
    gamma = (np.exp(-r * T + theta * w_T - 0.5 * theta * theta * T - kappa * lam * T)
             * (1.0 + kappa) ** n_T)
    weighted = gamma * terminal
    return float(weighted.std(ddof=1) / np.sqrt(weighted.size))


def closed_form_check(y0, exact, se):
    err = y0 - exact
    return Check(
        "bsde Y(0) vs closed form", bool(abs(err) <= JUMP_TOL_SE * se),
        f"Y(0) {y0:.5f} vs exp(a x0 + mu T) {exact:.5f}: error {err:+.5f} "
        f"= {err / se:+.2f} SE (gate {JUMP_TOL_SE} SE, SE {se:.5f})")


class BsdeJump:
    def __init__(self, seed: int):
        self.seed = seed
        self.coeffs, self.measure = jump_coefficients()
        self.exact = jump_closed_form()
        self.grid = TimeGrid.uniform(JUMP_MODEL["T"], JUMP_STEPS)
        self.control = forward.ConstantControl([0.0])

    def solve(self):
        """Y(0) and its pathwise standard error."""
        batch = forward.simulate_batch(
            self.coeffs, self.control, [JUMP_MODEL["x0"]], self.grid,
            self.measure, JUMP_PATHS, self.seed)
        sol = bsde.solve_bsde(self.coeffs, self.control, batch, keep_paths=False)
        return sol.y0, jump_pathwise_se(batch, sol.terminal)

    def run_round(self):
        y0, se = self.solve()
        return [closed_form_check(y0, self.exact, se)]


# --- verify -----------------------------------------------------------

# Acceptance criterion 11 with 2000 paths in place of 4000 (4
# replications of 500 per control) and 4 alternatives in place of 20.
VERIFY_NODES = 241
VERIFY_STEPS = 160
VERIFY_PATHS = 2000
VERIFY_ALTERNATIVES = 4
VERIFY_GAP = 2e-2


def verification_checks(report):
    """Verification theorem: the feedback attains V0, nothing beats it."""
    checks = [Check(
        "feedback cost vs PIDE V0", bool(abs(report.gap) <= VERIFY_GAP + report.ci),
        f"J {report.j_feedback:.5f} vs V0 {report.v0:.5f}: |gap| {abs(report.gap):.5f} "
        f"(gate {VERIFY_GAP} + CI {report.ci:.5f})")]
    for i, alt in enumerate(report.alternatives):
        floor = report.v0 - report.ci - alt["ci"]
        checks.append(Check(
            f"alternative {i} does not beat V0", bool(alt["j"] >= floor),
            f"{alt['name']}: J {alt['j']:.5f} >= V0 - CIs {floor:.5f}"))
    return checks


class Verify:
    def __init__(self, seed: int):
        self.seed = seed
        self.prob = build_problem("smooth1d")
        p = self.prob
        self.space = pide.SpatialGrid([p.space_low], [p.space_high], (VERIFY_NODES,))
        self.grid = TimeGrid.uniform(p.horizon, VERIFY_STEPS)

    def solve(self):
        p = self.prob
        sol = pide.solve_pide_deterministic(
            p.coeffs, self.space, self.grid, p.control_set, p.measure)
        return pide.verification_run(
            sol.triplet, p.coeffs, p.control_set, p.measure, p.x0,
            VERIFY_PATHS, self.seed, n_alternatives=VERIFY_ALTERNATIVES)

    def run_round(self):
        return verification_checks(self.solve())


# --- weak_hjb ---------------------------------------------------------

# Deterministic weak solve of smooth1d against the PIDE (criterion 01
# sizes, with 50 time steps in place of 100), then the scenario solve of
# random_terminal in the channel order that `jumphjb hjb-weak` builds
# (12 time steps in place of its 15).
WEAK_LENGTH = 6.0
WEAK_MODES = 48
WEAK_STEPS = 50
WEAK_PIDE_NODES = 241
WEAK_PIDE_STEPS = 320
WEAK_GAP = 3e-2
WEAK_INTERIOR = (-1.5, 1.5, 61)
SCENARIO_MODES = 24
SCENARIO_STEPS = 12
SCENARIO_CHANNELS = ("J", "W2")


def weak_gap_check(v_pide, v_weak):
    """A NaN in ``v_weak`` (no weak solution) fails the check."""
    gap = float(np.max(np.abs(np.asarray(v_pide) - np.asarray(v_weak))))
    return Check("weak vs PIDE on the interior", bool(gap <= WEAK_GAP),
                 f"max gap {gap:.5f} (gate {WEAK_GAP})")


def picard_check(label, history, converged):
    """Converged, and every Picard step shrank the successive difference."""
    contracts = all(b < a for a, b in zip(history, history[1:]))
    return Check(
        f"Picard contraction ({label})", bool(converged and contracts and history),
        f"{len(history)} iterations, converged {converged}, history "
        f"{history[0] if history else float('nan'):.1e} -> "
        f"{history[-1] if history else float('nan'):.1e}, monotone {contracts}")


def probability_check(probabilities):
    err = max(abs(float(np.sum(p)) - 1.0) for p in probabilities)
    return Check("scenario node probabilities sum to 1", bool(err <= 1e-12),
                 f"max |sum - 1| {err:.1e} over {len(probabilities)} steps (gate 1e-12)")


def channel_order_check(max_z, max_r):
    """Only the terminal reads a channel, and that channel is W2.

    The martingale field of W2 (Phi, the z coordinates) must therefore
    be nonzero and the jump field (Psi, the r coordinates) zero.
    """
    ok = max_z > 1e-6 and max_r < 1e-9
    return Check(
        "scenario martingale fields follow the W2 terminal", bool(ok),
        f"max|z| {max_z:.1e} (want > 1e-6), max|r| {max_r:.1e} (want < 1e-9)",
        known_fault=True)


class WeakHjb:
    def __init__(self, seed: int):
        # Galerkin solves have no Monte Carlo: the seed does not enter.
        self.smooth = build_problem("smooth1d")
        self.random = build_problem("random_terminal")
        p = self.smooth
        self.pide_space = pide.SpatialGrid([p.space_low], [p.space_high],
                                           (WEAK_PIDE_NODES,))
        self.interior = pide.SpatialGrid([WEAK_INTERIOR[0]], [WEAK_INTERIOR[1]],
                                         (WEAK_INTERIOR[2],))

    def solve_weak(self):
        """PIDE and weak values on the interior, and the weak solution.

        A Picard run that exhausts its iterations gives its last iterate
        (``converged`` False) and NaN weak values, so the round counts
        two failed checks instead of ending the run.
        """
        p = self.smooth
        ref = pide.solve_pide_deterministic(
            p.coeffs, self.pide_space, TimeGrid.uniform(p.horizon, WEAK_PIDE_STEPS),
            p.control_set, p.measure)
        v_pide, _ = ref.triplet.space.interpolate(ref.triplet.V[0],
                                                  self.interior.nodes())
        try:
            weak = galerkin.solve_hjb_weak(
                p.coeffs, galerkin.assemble_triple(WEAK_LENGTH, 1, WEAK_MODES),
                p.control_set, p.measure, TimeGrid.uniform(p.horizon, WEAK_STEPS))
        except NotConvergedError as exc:
            return v_pide, np.full_like(v_pide, np.nan), exc.partial
        v_weak = weak.reconstruct_triplet(self.interior).V[0].ravel()
        return v_pide, v_weak, weak.solution

    def solve_scenario(self, channels=SCENARIO_CHANNELS, max_iter=50):
        """Scenario tree and weak solution of random_terminal.

        ``max_iter`` is the solver's default; a Picard run that exhausts
        it gives its last iterate, with ``converged`` False.
        """
        q = self.random
        grid = TimeGrid.uniform(q.horizon, SCENARIO_STEPS)
        tree = galerkin.BinomialJumpTree(grid, q.measure, channels)
        try:
            scen = galerkin.solve_hjb_weak(
                q.coeffs, galerkin.assemble_triple(q.galerkin_length, 1, SCENARIO_MODES),
                q.control_set, q.measure, grid, scenario=tree, max_iter=max_iter)
        except NotConvergedError as exc:
            return tree, exc.partial
        return tree, scen.solution

    def run_round(self):
        v_pide, v_weak, weak = self.solve_weak()
        tree, scen = self.solve_scenario()
        return [
            weak_gap_check(v_pide, v_weak),
            picard_check("smooth1d", weak.history, weak.converged),
            picard_check("random_terminal", scen.history, scen.converged),
            probability_check([tree.probabilities(i)
                               for i in range(tree.grid.n_steps + 1)]),
            channel_order_check(scen.max_z_norm(), scen.max_r_norm()),
        ]


WORKLOADS = {
    "dpp_ladder": DppLadder,
    "bsde_jump": BsdeJump,
    "verify": Verify,
    "weak_hjb": WeakHjb,
}
