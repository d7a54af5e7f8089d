import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumphjb.coefficients import (
    ControlSet,
    batch_eval,
    broadcast_control,
    compensated_drift,
)
from jumphjb import dpp
from jumphjb.dpp import (
    FeedbackPolicy,
    Lattice,
    compute_value_table,
    dpp_residual,
    epsilon_optimal_control,
    gauss_hermite,
)
from jumphjb.drivers import MarkMeasure, TimeGrid, draw_noise
from jumphjb.errors import ConfigError, NumericError
from jumphjb.bsde import price, solve_bsde
from jumphjb.forward import ConstantControl, simulate_batch
from jumphjb.pide import SpatialGrid, solve_pide_deterministic
from jumphjb.problems import build_problem

from conftest import make_coeffs

MEAS = MarkMeasure.from_atoms([((1.0,), 0.4)])


def controlled_coeffs(**kw):
    kw.setdefault("b", lambda t, x, u, nz: u[:, 0:1] * np.ones_like(x))
    kw.setdefault("sigma", lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)))
    kw.setdefault("g", lambda t, e, x, u, nz: 0.1 * np.ones_like(x))
    kw.setdefault("f", lambda t, x, u, y, z, k, nz: x[..., 0] ** 2 + 0.5 * u[:, 0] ** 2)
    kw.setdefault("h", lambda x, nz: x[..., 0] ** 2)
    kw.setdefault("rho", np.array([0.0]))
    return make_coeffs(**kw)


class TestGaussHermite:
    def test_moments(self):
        z, w = gauss_hermite(5, 1)
        assert w.sum() == pytest.approx(1.0)
        assert (w * z[:, 0] ** 2).sum() == pytest.approx(1.0)
        assert (w * z[:, 0] ** 4).sum() == pytest.approx(3.0)

    def test_tensor(self):
        z, w = gauss_hermite(3, 2)
        assert z.shape == (9, 2)
        assert (w * z[:, 0] * z[:, 1]).sum() == pytest.approx(0.0, abs=1e-12)


class TestLattice:
    def test_centers(self):
        lat = Lattice([0.0], [1.0], (4,))
        np.testing.assert_allclose(lat.axes()[0], [0.125, 0.375, 0.625, 0.875])

    def test_interpolation_affine_exact(self):
        lat = Lattice([-1.0, 0.0], [1.0, 2.0], (8, 6))
        centers = lat.nodes()
        vals = (2.0 + 1.5 * centers[:, 0] - 0.5 * centers[:, 1]).reshape(lat.shape)
        pts = np.array([[0.11, 0.93], [-0.4, 1.2], [0.0, 1.0]])
        out, clamped = lat.interpolate(vals, pts)
        np.testing.assert_allclose(out, 2.0 + 1.5 * pts[:, 0] - 0.5 * pts[:, 1],
                                   atol=1e-12)
        assert clamped == 0

    def test_clamping_flagged(self):
        lat = Lattice([0.0], [1.0], (4,))
        vals = np.arange(4.0)
        out, clamped = lat.interpolate(vals, np.array([[5.0]]))
        assert clamped == 1 and out[0] == 3.0


class TestValueTable:
    def test_zero_dynamics_running_cost(self):
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: np.ones(np.shape(y)),
                         h=lambda x, nz: 2.0 * np.ones(x.shape[0]),
                         rho=np.array([0.0]))
        lat = Lattice([-2.0], [2.0], (15,))
        grid = TimeGrid.uniform(1.0, 10)
        tab = compute_value_table(co, ControlSet.from_1d(-1, 1, 2), lat, grid, MEAS)
        expect = 2.0 + (1.0 - grid.nodes)[:, None]
        assert np.max(np.abs(tab.values - expect)) < 1e-10

    def test_control_independent_matches_singleton(self):
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: np.ones(np.shape(y)),
                         h=lambda x, nz: x[..., 0] ** 2, rho=np.array([0.0]))
        lat = Lattice([-2.0], [2.0], (15,))
        grid = TimeGrid.uniform(1.0, 8)
        full = compute_value_table(co, ControlSet.from_1d(-1, 1, 4), lat, grid, MEAS)
        single = compute_value_table(co, ControlSet.singleton([0.7]), lat, grid, MEAS)
        np.testing.assert_array_equal(full.values, single.values)

    def test_superset_never_increases(self):
        co = controlled_coeffs()
        lat = Lattice([-2.0], [2.0], (15,))
        grid = TimeGrid.uniform(1.0, 8)
        u2 = ControlSet.from_1d(-1, 1, 2)
        u5 = ControlSet(np.concatenate([u2.atoms, [[0.0], [-0.5], [0.5]]]),
                        u2.lower, u2.upper)
        t2 = compute_value_table(co, u2, lat, grid, MEAS)
        t5 = compute_value_table(co, u5, lat, grid, MEAS)
        assert np.all(t5.values <= t2.values + 1e-12)

    def test_terminal_anchoring(self):
        co = controlled_coeffs()
        lat = Lattice([-2.0], [2.0], (15,))
        tab = compute_value_table(co, ControlSet.from_1d(-1, 1, 2), lat,
                                  TimeGrid.uniform(1.0, 4), MEAS)
        np.testing.assert_array_equal(
            tab.values[-1].ravel(), lat.nodes()[:, 0] ** 2)

    def test_rejects_random_coefficients(self):
        co = controlled_coeffs(randomness_channels=("W1",))
        with pytest.raises(ConfigError):
            compute_value_table(co, ControlSet.from_1d(-1, 1, 2),
                                Lattice([-1.0], [1.0], (5,)),
                                TimeGrid.uniform(1.0, 2), MEAS)


def solve_values(solver, co, control_set):
    """(values, argmin) of one of the two value solvers on [-1.5, 1.5]."""
    if solver == "dpp":
        tab = compute_value_table(co, control_set, Lattice([-1.5], [1.5], (11,)),
                                  TimeGrid.uniform(1.0, 6), MEAS)
        return tab.values, tab.argmin
    sol = solve_pide_deterministic(co, SpatialGrid([-1.5], [1.5], (11,)),
                                   TimeGrid.uniform(1.0, 20), control_set, MEAS)
    return sol.triplet.V, sol.argmin


@pytest.mark.parametrize("solver", ["dpp", "pide"])
class TestSweepContracts:
    """What the backward sweep guarantees to both value solvers."""

    def test_argmin_tie_breaks_low_index(self, solver):
        # Two identical control atoms: argmin must pick index 0.
        u = ControlSet(np.array([[0.5], [0.5]]), [-1.0], [1.0])
        _, argmin = solve_values(solver, controlled_coeffs(), u)
        assert np.all(argmin == 0)

    def test_bit_reproducible(self, solver):
        runs = [solve_values(solver, controlled_coeffs(), ControlSet.from_1d(-1, 1, 3))
                for _ in range(2)]
        for first, second in zip(*runs):
            assert first.tobytes() == second.tobytes()

    def test_infinite_driver_at_one_point_refused(self, solver):
        co = controlled_coeffs(f=lambda t, x, u, y, z, k, nz:
                               np.where(x[..., 0] == x[..., 0].max(), np.inf, 0.0))
        with pytest.raises(NumericError, match="non-finite"):
            solve_values(solver, co, ControlSet.from_1d(-1, 1, 2))


def enumerate_policy_optimum(co, control_set, lat, grid, measure):
    """Brute force over all feedback policies (step, cell) -> atom.

    Evaluates each policy with the same one-step quadrature as the
    table and minimizes; equals the DP recursion by the optimality
    principle.
    """
    n_cells = lat.shape[0]
    N = grid.n_steps
    centers = lat.nodes()
    zeta, gw = gauss_hermite(5, 1)
    lam = measure.total_mass

    def one_step_values(i, u, v_next):
        t = float(grid.nodes[i])
        dt = float(grid.dt[i])
        ub = np.broadcast_to(np.atleast_1d(u), (n_cells, 1))
        b = co.b(t, centers, ub, None).reshape(n_cells)
        g = co.g(t, measure.marks[0], centers, ub, None).reshape(n_cells)
        sig = co.sigma(t, centers, ub, None).reshape(n_cells)
        base = centers[:, 0] + (b - measure.weights[0] * g) * dt
        e_val = np.zeros(n_cells)
        for q in range(zeta.shape[0]):
            xq = base + np.sqrt(dt) * sig * zeta[q, 0]
            vq, _ = lat.interpolate(v_next, xq[:, None])
            vj, _ = lat.interpolate(v_next, (xq + g)[:, None])
            e_val += gw[q] * ((1 - lam * dt) * vq + measure.weights[0] * dt * vj)
        v_here = v_next.ravel()
        v_shift, _ = lat.interpolate(v_next, centers + g[:, None])
        k = measure.weights[0] * 1.0 * (v_shift - v_here)
        f = co.f(t, centers, ub, e_val, None, k, None).reshape(n_cells)
        return e_val + dt * f

    best = None
    atoms = control_set.atoms
    for assignment in itertools.product(range(atoms.shape[0]),
                                        repeat=N * n_cells):
        table = np.array(assignment).reshape(N, n_cells)
        v = co.h(centers, None).reshape(n_cells).astype(float)
        for i in range(N - 1, -1, -1):
            v_new = np.empty(n_cells)
            for c in range(n_cells):
                v_new[c] = one_step_values(i, atoms[table[i, c]], v)[c]
            v = v_new
        best = v if best is None else np.minimum(best, v)
    return best


class TestPolicyEnumerationOracle:
    def test_table_equals_brute_force(self):
        # 1-d, 2 controls, 2 steps, 4 cells: 2^8 = 256 policies.
        co = controlled_coeffs(
            f=lambda t, x, u, y, z, k, nz: x[..., 0] ** 2 + u[:, 0] * x[..., 0])
        lat = Lattice([-1.0], [1.0], (4,))
        grid = TimeGrid.uniform(0.2, 2)
        u2 = ControlSet.from_1d(-1, 1, 2)
        tab = compute_value_table(co, u2, lat, grid, MEAS)
        brute = enumerate_policy_optimum(co, u2, lat, grid, MEAS)
        np.testing.assert_allclose(tab.values[0].ravel(), brute, atol=1e-12)


class TestFeedbackPolicy:
    def test_total_and_in_range(self):
        co = controlled_coeffs()
        lat = Lattice([-1.0], [1.0], (7,))
        tab = compute_value_table(co, ControlSet.from_1d(-1, 1, 3), lat,
                                  TimeGrid.uniform(1.0, 4), MEAS)
        pol = tab.policy()
        for x in np.linspace(-3, 3, 13):
            u = pol.value_batch(2, 0.5, np.array([[x]]), None)
            assert u.shape == (1, 1) and -1.0 <= u[0, 0] <= 1.0

    def test_rejects_bad_table(self):
        lat = Lattice([-1.0], [1.0], (3,))
        with pytest.raises(ValueError):
            FeedbackPolicy(lat, TimeGrid.uniform(1.0, 2),
                           ControlSet.from_1d(-1, 1, 2),
                           np.array([[5, 0, 0], [0, 0, 0]]))


class TestDppResidual:
    def test_zero_dynamics_zero_driver(self):
        co = make_coeffs(h=lambda x, nz: np.sin(x[..., 0]), rho=np.array([0.0]))
        lat = Lattice([-2.0], [2.0], (21,))
        grid = TimeGrid.uniform(1.0, 5)
        u2 = ControlSet.from_1d(-1, 1, 2)
        tab = compute_value_table(co, u2, lat, grid, MEAS)
        r = dpp_residual(co, u2, tab, MEAS, 1, [0.3], 2, 500, 3)
        assert r < 1e-6

    def test_control_independent_small(self):
        co = make_coeffs(
            sigma=lambda t, x, u, nz: 0.25 * np.ones(x.shape + (1,)),
            f=lambda t, x, u, y, z, k, nz: x[..., 0] ** 2,
            h=lambda x, nz: x[..., 0] ** 2,
            rho=np.array([0.0]))
        lat = Lattice([-3.0], [3.0], (120,))
        grid = TimeGrid.uniform(0.5, 25)
        u2 = ControlSet.from_1d(-1, 1, 2)
        tab = compute_value_table(co, u2, lat, grid, MEAS)
        r = dpp_residual(co, u2, tab, MEAS, 0, [0.0], 1, 40000, 3)
        assert r < 5e-3

    def test_full_horizon_consistency(self):
        # delta spanning the whole horizon on a control-independent
        # problem: min_u G_{0,T}[h] equals the table value within the
        # combined MC + lattice tolerance.
        co = make_coeffs(
            sigma=lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)),
            g=lambda t, e, x, u, nz: 0.1 * np.ones_like(x),
            f=lambda t, x, u, y, z, k, nz: 0.2 * y,
            h=lambda x, nz: np.exp(-x[..., 0] ** 2),
            rho=np.array([0.0]))
        u2 = ControlSet.from_1d(-1, 1, 2)
        lat = Lattice([-3.0], [3.0], (160,))
        grid = TimeGrid.uniform(0.5, 25)
        tab = compute_value_table(co, u2, lat, grid, MEAS)
        r = dpp_residual(co, u2, tab, MEAS, 0, [0.0], grid.n_steps, 40000, 3)
        assert r < 5e-3

    def test_matches_fresh_batch_per_control(self):
        # Reference: every control on its own freshly drawn batch, the
        # terminal interpolated one path at a time.
        co = controlled_coeffs()
        u3 = ControlSet.from_1d(-1, 1, 3)
        lat = Lattice([-2.0], [2.0], (24,))
        grid = TimeGrid.uniform(1.0, 8)
        tab = compute_value_table(co, u3, lat, grid, MEAS)
        t_node, delta, M, seed, x = 3, 2, 300, 9, [0.3]
        v_slice = tab.values[t_node + delta]
        best = np.inf
        for u in u3.atoms:
            control = ConstantControl(u)
            batch = simulate_batch(co, control, x, grid, MEAS, M, seed,
                                   start_node=t_node, end_node=t_node + delta)
            assert batch.jump_counts.sum() > 0
            term = np.array([lat.interpolate(v_slice, xs[None, :])[0][0]
                             for xs in batch.states[-1]])
            best = min(best, solve_bsde(co, control, batch,
                                        terminal_values=term).y0)
        expected = abs(tab.value_at(t_node, x) - best)
        assert dpp_residual(co, u3, tab, MEAS, t_node, x, delta, M, seed) == expected

    def test_refinement_shrinks_residual(self):
        co = controlled_coeffs(
            b=lambda t, x, u, nz: 0.5 * np.tanh(x) + u[:, 0:1])
        u2 = ControlSet.from_1d(-0.5, 0.5, 2)
        residuals = []
        for level in range(2):
            k = 2 ** level
            lat = Lattice([-3.0], [3.0], (60 * k,))
            grid = TimeGrid.uniform(0.5, 10 * k)
            tab = compute_value_table(co, u2, lat, grid, MEAS)
            residuals.append(dpp_residual(co, u2, tab, MEAS, 0, [0.0], 1,
                                          40000, 3))
        assert residuals[1] <= 0.75 * residuals[0]


class TestEpsilonOptimal:
    def test_singleton_returns_it(self):
        co = controlled_coeffs()
        u1 = ControlSet.singleton([0.25])
        res = epsilon_optimal_control(co, u1, TimeGrid.uniform(0.5, 10), MEAS,
                                      Lattice([-2.0], [2.0], (81,)), 0, [0.0],
                                      0.05, 2000, 7)
        assert isinstance(res.control, ConstantControl)
        assert res.control.u[0] == 0.25
        assert abs(res.achieved_j - res.v_estimate) < 0.05 + res.ci_half_width

    def test_eps_inf_first_candidate(self):
        co = controlled_coeffs()
        res = epsilon_optimal_control(co, ControlSet.from_1d(-1, 1, 3),
                                      TimeGrid.uniform(0.5, 5), MEAS,
                                      Lattice([-2.0], [2.0], (15,)), 0, [0.0],
                                      np.inf, 200, 7)
        assert res.converged and len(res.evaluations) == 1

    def test_bang_bang_benchmark(self):
        co = controlled_coeffs(
            f=lambda t, x, u, y, z, k, nz: x[..., 0] ** 2 + u[:, 0] * x[..., 0])
        u2 = ControlSet.from_1d(-1, 1, 2)
        grid = TimeGrid.uniform(0.4, 8)
        lat = Lattice([-2.0], [2.0], (41,))
        tab = compute_value_table(co, u2, lat, grid, MEAS)
        res = epsilon_optimal_control(co, u2, grid, MEAS, lat, 0, [0.4],
                                      1e-2, 60000, 11, max_rounds=2)
        # Achieved cost within eps + CI of the lattice optimum.
        assert res.achieved_j <= tab.value_at(0, [0.4]) + 1e-2 + res.ci_half_width

    def test_one_bank_per_replication_per_round(self, monkeypatch):
        # Three candidates, four replications of 100 paths: the round
        # draws 400 paths, not 400 per candidate.
        import jumphjb.bsde as bsde_module
        drawn = []
        real = bsde_module.draw_noise
        monkeypatch.setattr(bsde_module, "draw_noise",
                            lambda *a: drawn.append(a[3]) or real(*a))
        res = epsilon_optimal_control(controlled_coeffs(), ControlSet.from_1d(-1, 1, 2),
                                      TimeGrid.uniform(0.5, 5), MEAS,
                                      Lattice([-2.0], [2.0], (11,)), 0, [0.0],
                                      -1.0, 400, 7, max_rounds=1)
        assert len(res.evaluations) == 3
        assert sum(drawn) == 400

    def test_budget_exhaustion_flag(self):
        co = controlled_coeffs()
        res = epsilon_optimal_control(co, ControlSet.from_1d(-1, 1, 2),
                                      TimeGrid.uniform(0.5, 5), MEAS,
                                      Lattice([-2.0], [2.0], (11,)), 0, [0.0],
                                      -1.0, 500, 7, max_rounds=1)
        assert not res.converged
        assert res.achieved_j < np.inf


class TestCostEvaluation:
    """J(t, x; u) by :func:`price` on a bank drawn at node t."""

    def test_reproducible(self):
        co = controlled_coeffs()
        grid = TimeGrid.uniform(0.5, 6)
        j1 = price(co, ConstantControl([0.3]), [0.1], draw_noise(grid, 1, MEAS, 500, 9))
        j2 = price(co, ConstantControl([0.3]), [0.1], draw_noise(grid, 1, MEAS, 500, 9))
        assert j1 == j2

    def test_zero_driver_constant_terminal(self):
        co = make_coeffs(h=lambda x, nz: 3.0 * np.ones(x.shape[0]),
                         rho=np.array([0.0]))
        j = price(co, ConstantControl([0.0]), [0.0],
                  draw_noise(TimeGrid.uniform(1.0, 5), 1, MEAS, 400, 2))
        assert j == pytest.approx(3.0, abs=1e-6)

    def test_deterministic_running_cost(self):
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: np.ones(np.shape(y)),
                         h=lambda x, nz: 3.0 * np.ones(x.shape[0]),
                         rho=np.array([0.0]))
        grid = TimeGrid.uniform(1.0, 5)
        j = price(co, ConstantControl([0.0]), [0.0],
                  draw_noise(grid, 1, MEAS, 300, 2, start_node=2))
        assert j == pytest.approx(3.0 + (1.0 - grid.nodes[2]), abs=1e-6)

    def test_one_step_two_controls_matches_exhaustive(self):
        # One step, deterministic dynamics: J is computable by hand.
        co = make_coeffs(
            b=lambda t, x, u, nz: u[:, 0:1] * np.ones_like(x),
            f=lambda t, x, u, y, z, k, nz: 0.5 * u[:, 0] ** 2 * np.ones(np.shape(y)),
            h=lambda x, nz: x[..., 0] ** 2)
        grid = TimeGrid.uniform(0.5, 1)
        best = np.inf
        for u in (-1.0, 1.0):
            j = price(co, ConstantControl([u]), [0.4],
                      draw_noise(grid, 1, MarkMeasure.empty(), 50, 3))
            expect = (0.4 + 0.5 * u) ** 2 + 0.5 * 0.5 * u ** 2
            assert j == pytest.approx(expect, abs=1e-7)
            best = min(best, j)
        assert best == pytest.approx((0.4 - 0.5) ** 2 + 0.25, abs=1e-7)


def reference_value_table(coeffs, control_set, lattice, grid, measure, gh_nodes=5):
    """The one-step quadrature evaluated point by point on every step.

    Every step and control interpolates each Gauss-Hermite continuation
    point, its jump shifts and the shifted cell centers afresh, sums
    the branches in loops and counts the clamped coordinates.  Returns
    (values, argmin, clamped, margin), where margin is the gap between
    the two best totals of each cell (inf with one control).
    """
    n, d = coeffs.n, coeffs.d
    X = lattice.nodes()
    C = X.shape[0]
    zeta, gh_w = gauss_hermite(gh_nodes, d)
    lam = measure.total_mass
    N = grid.n_steps
    values = np.empty((N + 1, C))
    argmin = np.empty((N, C), dtype=int)
    margin = np.empty((N, C))
    values[N] = coeffs.h(X, None)
    clamped = 0
    for i in range(N - 1, -1, -1):
        t, dt = float(grid.nodes[i]), float(grid.dt[i])
        v_next = values[i + 1].reshape(lattice.shape)
        l_vals = [float(coeffs.l(t, mark)) for mark in measure.marks]
        totals = []
        for u in control_set.atoms:
            b_tilde, gs = compensated_drift(coeffs, measure, t, X, u, None)
            sig = batch_eval(coeffs.sigma, t, X, u, None, (n, d))
            e_val = np.zeros(C)
            z_val = np.zeros((C, d))
            for q in range(zeta.shape[0]):
                x_cont = X + b_tilde * dt + np.sqrt(dt) * (sig @ zeta[q])
                v_cont, cl = lattice.interpolate(v_next, x_cont)
                clamped += cl
                branch = (1.0 - lam * dt) * v_cont
                for j, gj in enumerate(gs):
                    v_jump, cl = lattice.interpolate(v_next, x_cont + gj)
                    clamped += cl
                    branch = branch + measure.weights[j] * dt * v_jump
                e_val += gh_w[q] * branch
                z_val += (gh_w[q] / np.sqrt(dt)) * branch[:, None] * zeta[q][None, :]
            k_val = np.zeros(C)
            for j, gj in enumerate(gs):
                v_shift, cl = lattice.interpolate(v_next, X + gj)
                clamped += cl
                k_val += measure.weights[j] * l_vals[j] * (v_shift - v_next.ravel())
            f_val = coeffs.f(t, X, broadcast_control(u, C), e_val, z_val, k_val, None)
            totals.append(e_val + dt * np.asarray(f_val, dtype=float).reshape(C))
        totals = np.array(totals)
        argmin[i] = totals.argmin(axis=0)
        values[i] = totals.min(axis=0)
        ordered = np.sort(totals, axis=0)
        margin[i] = ordered[1] - ordered[0] if len(totals) > 1 else np.inf
    return values, argmin, clamped, margin


def time_varying_coeffs(b_t=1.0, sigma_t=0.4, g_t=0.0):
    """smooth1d with b, sigma, g and l moving with t (b_t = sigma_t = 0
    leaves only l moving; g moves only with g_t), a driver reading z and
    k, an x-dependent jump and a two-channel diffusion."""
    return make_coeffs(
        n=1, d=2, m=1,
        b=lambda t, x, u, nz: 0.4 * (1.0 + b_t * t) * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.4 + sigma_t * t, 0.1]), x.shape + (2,)),
        g=lambda t, e, x, u, nz: 0.2 + 0.05 * np.sin(x) + g_t * t,
        f=lambda t, x, u, y, z, k, nz:
            (0.5 * x[..., 0] ** 2 + 0.3 * u[:, 0] * x[..., 0])
            * np.exp(-0.25 * x[..., 0] ** 2) + 0.05 * z[..., 0] + 0.2 * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2),
        l=lambda t, e: 1.0 + 2.0 * t,
        rho=np.array([0.0]))


# A grid whose steps change length, so that an operator built for one
# dt and reused for another shows.
UNEVEN = TimeGrid(np.array([0.0, 0.03, 0.06, 0.1, 0.14, 0.2, 0.25, 0.3,
                            0.34, 0.38, 0.45, 0.5]))


def reference_cases():
    smooth, linear = build_problem("smooth1d"), build_problem("linear1d")
    u2 = ControlSet.from_1d(-0.6, 0.6, 2)
    return {
        "smooth1d": (smooth.coeffs, smooth.control_set, Lattice([-3.0], [3.0], (40,)),
                     TimeGrid.uniform(smooth.horizon, 16), smooth.measure),
        "linear1d": (linear.coeffs, linear.control_set, Lattice([-2.0], [2.0], (30,)),
                     TimeGrid.uniform(linear.horizon, 12), linear.measure),
        "time-varying": (time_varying_coeffs(), u2, Lattice([-3.0], [3.0], (36,)),
                         TimeGrid.uniform(0.5, 12), MEAS),
        "l-only-uneven": (time_varying_coeffs(0.0, 0.0), u2,
                          Lattice([-3.0], [3.0], (36,)), UNEVEN, MEAS),
        "g-moving": (time_varying_coeffs(g_t=0.4), u2, Lattice([-3.0], [3.0], (36,)),
                     TimeGrid.uniform(0.5, 12), MEAS),
    }


class TestReferenceQuadrature:
    """The cached operators against the per-point quadrature.

    Gates, fixed before the first comparison: values within 1e-12 of
    max|V|, argmin identical except where the two best totals are
    within 1e-12 of max|V|, clamped counts equal.
    """

    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_matches_per_point_quadrature(self, case):
        args = reference_cases()[case]
        tab = compute_value_table(*args)
        values, argmin, clamped, margin = reference_value_table(*args)
        scale = np.max(np.abs(values))
        assert np.max(np.abs(tab.values.reshape(values.shape) - values)) <= 1e-12 * scale
        same = tab.argmin.reshape(argmin.shape) == argmin
        assert np.all(same | (margin <= 1e-12 * scale))
        assert tab.clamped_points == clamped > 0


@st.composite
def monotone_draws(draw):
    """Coefficients, controls and a pair of ordered terminals h1 <= h2."""
    unit = st.floats(-1.0, 1.0)
    b0, b1, s0, s1, g0, f0, f1, h0, h1 = (draw(unit) for _ in range(9))
    weight = draw(st.floats(0.05, 1.5))
    bump = draw(st.floats(0.0, 0.5))
    shift = draw(st.floats(-2.0, 2.0))
    coeffs = make_coeffs(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: 0.5 * b0 + 0.5 * b1 * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: (0.2 + 0.2 * abs(s0) + 0.1 * s1 * np.sin(x))[..., None],
        g=lambda t, e, x, u, nz: 0.3 * g0 + 0.1 * np.cos(x),
        f=lambda t, x, u, y, z, k, nz: f0 * np.sin(x[..., 0]) + f1 * u[:, 0] * x[..., 0],
        h=lambda x, nz: h0 * np.cos(x[..., 0]) + h1 * x[..., 0] / 3.0,
        rho=np.array([0.0]))
    higher = dataclasses.replace(
        coeffs, h=lambda x, nz: coeffs.h(x, nz) + bump * np.exp(-(x[..., 0] - shift) ** 2))
    measure = MarkMeasure.from_atoms([((1.0,), weight)])
    return coeffs, higher, measure


@settings(max_examples=60, deadline=None)
@given(monotone_draws())
def test_value_table_monotone_in_terminal(draw):
    # Every row of E_u is nonnegative and sums to one, so h1 <= h2 gives
    # V1 <= V2 on every slice when f reads only (x, u).
    lower, higher, measure = draw
    args = (ControlSet.from_1d(-0.3, 0.3, 2), Lattice([-2.0], [2.0], (24,)),
            TimeGrid.uniform(0.4, 8), measure)
    v1 = compute_value_table(lower, *args).values
    v2 = compute_value_table(higher, *args).values
    assert np.all(v1 <= v2 + 1e-12 * np.max(np.abs(v2)))


@pytest.mark.parametrize("family", ["smooth1d", "linear1d", "exp_decay", "zero"])
def test_default_grid_builds_once_per_control(family, monkeypatch):
    # The steps of a uniform grid differ by the rounding of its nodes
    # (160 steps over 0.5 give 8 distinct dt bit patterns); one build
    # per control must still serve all of them.
    calls = []
    build = dpp._step_operator
    monkeypatch.setattr(dpp, "_step_operator", lambda *a: calls.append(1) or build(*a))
    p = build_problem(family)
    grid = TimeGrid.uniform(p.horizon, p.n_steps)
    compute_value_table(p.coeffs, p.control_set,
                        Lattice([p.space_low], [p.space_high], (p.lattice_cells,)),
                        grid, p.measure)
    assert len(calls) == p.control_set.n_atoms
