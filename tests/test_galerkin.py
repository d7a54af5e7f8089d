from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumphjb import galerkin
from jumphjb.coefficients import ControlSet, NoiseState, batch_eval, broadcast_control
from jumphjb.drivers import MarkMeasure, TimeGrid
from jumphjb.errors import ConfigError, NotConvergedError, NumericError
from jumphjb.galerkin import (
    BinomialJumpTree,
    _as_terminal,
    _step_inverses,
    assemble_operators,
    assemble_triple,
    check_coercivity,
    continuous_dependence_check,
    energy_identity_residual,
    solve_hjb_weak,
    solve_linear_bseej,
    solve_nonlinear_bseej,
    weak_residual,
)
from jumphjb.pide import SpatialGrid, solve_pide_deterministic

from conftest import make_coeffs
from test_pide import benchmark_coeffs

MEAS = MarkMeasure.from_atoms([((1.0,), 0.3)])
MEAS2 = MarkMeasure.from_atoms([((1.0,), 0.3), ((-0.5,), 0.8)])
U2 = ControlSet.from_1d(-0.6, 0.6, 2)
L = 2.0


def unit_mode(n_modes, k=0):
    e = np.zeros(n_modes)
    e[k] = 1.0
    return e


def heat_coeffs(scale=1.0, d=1):
    sig = np.full(d, 0.0)
    sig[0] = scale
    return make_coeffs(d=d, sigma=lambda t, x, u, nz: np.broadcast_to(
        sig, x.shape + (d,)))


class TestTriple:
    def test_single_mode_mass(self):
        tr = assemble_triple(1.5, 1, 1)
        assert abs(tr.mass[0, 0] - 1.0) < 1e-10

    def test_mode_v_norms(self):
        tr = assemble_triple(L, 1, 8)
        for k in range(1, 9):
            expect = 1.0 + (k * np.pi / (2 * L)) ** 2
            c = unit_mode(8, k - 1)
            assert c @ (tr.mass + tr.stiffness) @ c == pytest.approx(expect, abs=1e-9)

    def test_quadrature_doubling_stable(self):
        tr = assemble_triple(L, 1, 12)
        tr2 = assemble_triple(L, 1, 12, n_quad=2 * tr.n_quad)
        assert np.max(np.abs(tr.mass - tr2.mass)) < 1e-10
        assert np.max(np.abs(tr.stiffness - tr2.stiffness)) < 1e-10

    def test_multidim_rejected(self):
        with pytest.raises(ConfigError):
            assemble_triple(1.0, 2, 4)

    def test_reconstruction_zero_outside(self):
        tr = assemble_triple(L, 1, 4)
        c = np.ones(4)
        assert tr.eval_basis([3.0])[0] @ c == 0.0
        assert abs(tr.eval_basis([0.3])[0] @ c) > 0


class TestOperators:
    def test_identity_diffusion(self):
        tr = assemble_triple(L, 1, 8)
        pair = assemble_operators(heat_coeffs(1.0), tr, TimeGrid.uniform(1.0, 4))
        np.testing.assert_allclose(pair.A[0], 0.5 * tr.stiffness, atol=1e-10)

    def test_zero_diffusion(self):
        tr = assemble_triple(L, 1, 8)
        pair = assemble_operators(make_coeffs(), tr, TimeGrid.uniform(1.0, 4))
        assert np.max(np.abs(pair.A)) == 0.0
        assert np.max(np.abs(pair.B)) == 0.0

    def test_constant_diffusion_entrywise(self):
        c0 = 0.7
        tr = assemble_triple(L, 1, 8)
        pair = assemble_operators(heat_coeffs(c0), tr, TimeGrid.uniform(1.0, 4))
        np.testing.assert_allclose(pair.A[0], 0.5 * c0 ** 2 * tr.stiffness,
                                   atol=1e-10)

    def test_control_in_sigma_rejected(self):
        co = make_coeffs(sigma=lambda t, x, u, nz:
                         (1.0 + u[:, 0:1, None]) * np.ones(x.shape + (1,)))
        tr = assemble_triple(L, 1, 4)
        with pytest.raises(ConfigError):
            assemble_operators(co, tr, TimeGrid.uniform(1.0, 2), U2)


class TestCoercivity:
    def test_saturating_construction_passes(self):
        a = 0.3
        co = make_coeffs(d=2, sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([np.sqrt(2 * a), 0.0]), x.shape + (2,)))
        tr = assemble_triple(L, 1, 10)
        pair = assemble_operators(co, tr, TimeGrid.uniform(1.0, 3))
        assert pair.alpha == pytest.approx(2 * a, abs=1e-12)
        rep = check_coercivity(pair, pair.alpha, pair.alpha)
        assert rep.passed and rep.min_slack >= -1e-10

    def test_degenerate_fails(self):
        co = make_coeffs(d=2, sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.0, 0.5]), x.shape + (2,)))
        tr = assemble_triple(L, 1, 10)
        pair = assemble_operators(co, tr, TimeGrid.uniform(1.0, 3))
        rep = check_coercivity(pair, 0.1, 0.1)
        assert not rep.passed

    def test_superparabolic_identity(self):
        # 2 <A phi, phi> - ||B* phi||^2 = int sigma_hat^2 |D phi|^2 dx,
        # entrywise via the assembled Grams.
        co = make_coeffs(d=2, sigma=lambda t, x, u, nz: np.stack(
            [0.6 + 0.1 * np.tanh(x), 0.2 * np.ones_like(x)], axis=-1))
        tr = assemble_triple(L, 1, 10)
        pair = assemble_operators(co, tr, TimeGrid.uniform(1.0, 3))
        assert check_coercivity(pair, pair.alpha, pair.alpha).identity_gap < 1e-8

    def test_slack_invariant_under_rotation(self):
        co = make_coeffs(d=2, sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.7, 0.2]), x.shape + (2,)))
        tr = assemble_triple(L, 1, 6)
        pair = assemble_operators(co, tr, TimeGrid.uniform(1.0, 1))
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mv = tr.mass + tr.stiffness

        def slack(c, A, bstar, mass, v_mat):
            return (2 * c @ A @ c + pair.alpha * (c @ mass @ c)
                    - pair.alpha * (c @ v_mat @ c) - c @ bstar @ c)

        for _ in range(20):
            c = rng.standard_normal(6)
            s_orig = slack(c, pair.A[0], pair.bstar_gram[0], tr.mass, mv)
            s_rot = slack(q.T @ c, q.T @ pair.A[0] @ q,
                          q.T @ pair.bstar_gram[0] @ q, q.T @ tr.mass @ q,
                          q.T @ mv @ q)
            assert abs(s_orig - s_rot) < 1e-10


class TestLinearSolver:
    def test_static_terminal(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 30)
        pair = assemble_operators(make_coeffs(), tr, grid)
        sol = solve_linear_bseej(pair, None, unit_mode(6), None)
        for i in range(31):
            np.testing.assert_allclose(sol.y[i][0], unit_mode(6), atol=1e-14)
        assert sol.max_z_norm() == 0.0

    def test_heat_mode_decay(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 1000)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_linear_bseej(pair, None, unit_mode(6), None)
        kappa = 0.5 * (np.pi / (2 * L)) ** 2
        rel = abs(sol.y[0][0][0] - np.exp(-kappa)) / np.exp(-kappa)
        assert rel < 1e-3
        assert np.max(np.abs(sol.y[0][0][1:])) < 1e-13

    def test_pure_integration(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 40)
        pair = assemble_operators(make_coeffs(), tr, grid)
        f0 = 0.3 * np.ones(6)
        sol = solve_linear_bseej(pair, np.broadcast_to(f0, (40, 6)),
                                 unit_mode(6), None)
        np.testing.assert_allclose(sol.y[0][0], unit_mode(6) - f0, atol=1e-12)

    def test_scenario_probabilities_conserved(self):
        grid = TimeGrid.uniform(1.0, 40)
        tree = BinomialJumpTree(grid, MEAS, ("W1", "J"))
        for i in (1, 10, 40):
            assert tree.probabilities(i).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("channels", [
        ("W1", "W2", "Wfoo"), ("W1", "W2"), ("J", "J"), ("W0",), ("W",), ("w1",),
        ("W+1",), ("W01", "J")])
    def test_scenario_channels_are_j_and_one_w(self, channels):
        # The lattice walks one Brownian channel and counts the jumps, so
        # any other name, a repeat or a second W channel would be read as
        # a copy of that one walk.
        with pytest.raises(ConfigError, match="scenario channels"):
            BinomialJumpTree(TimeGrid.uniform(1.0, 4), MEAS, channels)
        tree = BinomialJumpTree(TimeGrid.uniform(1.0, 4), MEAS, ("W12", "J"))
        assert tree.noise_values(4).shape[1] == 2

    def test_deterministic_data_degeneracy_on_tree(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 30)
        tree = BinomialJumpTree(grid, MEAS, ("W1", "J"))
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_linear_bseej(pair, None, unit_mode(6), tree)
        assert sol.max_z_norm() < 1e-12
        assert sol.max_r_norm() < 1e-12
        det = solve_linear_bseej(pair, None, unit_mode(6), None)
        np.testing.assert_allclose(sol.y[0][0], det.y[0][0], atol=1e-12)

    def test_random_terminal_gives_martingale_parts(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 20)
        tree = BinomialJumpTree(grid, MEAS, ("W1", "J"))
        pair = assemble_operators(heat_coeffs(), tr, grid)

        def xi(noise):
            out = np.zeros((noise.shape[0], 6))
            out[:, 0] = 1.0 + 0.2 * noise[:, 0] + 0.1 * noise[:, 1]
            return out

        sol = solve_linear_bseej(pair, None, xi, tree)
        assert sol.max_z_norm() > 1e-4
        assert sol.max_r_norm() > 1e-4
        assert weak_residual(sol, None) < 1e-12


class TestPicard:
    def test_zero_forcing_one_iteration(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 50)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_nonlinear_bseej(pair, lambda i, t, nz, y, z, r:
                                    np.zeros_like(y), unit_mode(6), None)
        assert len(sol.history) == 1 and sol.history[0] == 0.0

    def test_small_lipschitz_geometric(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 50)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_nonlinear_bseej(pair, lambda i, t, nz, y, z, r: 0.01 * y,
                                    unit_mode(6), None)
        h = sol.history
        ratios = [h[k + 1] / h[k] for k in range(len(h) - 1) if h[k] > 1e-14]
        assert all(r < 0.1 for r in ratios)
        # histories are strictly decreasing after the first entry
        assert all(h[k + 1] < h[k] for k in range(1, len(h) - 1))

    def test_linear_in_y_matches_implicit_reference(self):
        c = 0.3
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 200)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_nonlinear_bseej(pair, lambda i, t, nz, y, z, r: c * y,
                                    unit_mode(6), None,
                                    tol=1e-12, max_iter=80)
        yref = unit_mode(6)
        dt = 1.0 / 200
        step = np.eye(6) + dt * (pair.A[0] + c * np.eye(6))
        for _ in range(200):
            yref = np.linalg.solve(step, yref)
        assert np.max(np.abs(sol.y0() - yref)) < 1e-8

    def test_divergence_raises_with_history(self):
        tr = assemble_triple(L, 1, 4)
        grid = TimeGrid.uniform(1.0, 20)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        with pytest.raises(NotConvergedError) as ei:
            solve_nonlinear_bseej(pair, lambda i, t, nz, y, z, r: 50.0 * y,
                                  unit_mode(4), None, max_iter=10)
        assert len(ei.value.history) == 10
        assert ei.value.partial is not None


class TestContinuousDependence:
    def test_identical_data_zero(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 30)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_linear_bseej(pair, None, unit_mode(6), None)
        rep = continuous_dependence_check(sol, sol, None, None, unit_mode(6),
                                          unit_mode(6))
        assert rep.lhs == 0.0

    def test_quadratic_scaling_in_xi(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 30)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        base = solve_linear_bseej(pair, None, unit_mode(6), None)
        eps_list = (1e-1, 1e-2, 1e-3)
        lhs = []
        for eps in eps_list:
            xi2 = unit_mode(6) + eps * unit_mode(6)
            pert = solve_linear_bseej(pair, None, xi2, None)
            rep = continuous_dependence_check(base, pert, None, None,
                                              unit_mode(6), xi2)
            lhs.append(rep.lhs)
        slope = np.polyfit(np.log10(eps_list), np.log10(lhs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_constant_forcing_perturbation_rhs(self):
        # F - F_bar = c * (unit-H-norm mode): the forcing term of the
        # bound integrates to exactly c^2 T.
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 25)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        c = 0.37
        f_pert = np.broadcast_to(c * unit_mode(6), (25, 6))
        a = solve_linear_bseej(pair, None, unit_mode(6), None)
        b = solve_linear_bseej(pair, f_pert, unit_mode(6), None)
        rep = continuous_dependence_check(a, b, None, f_pert, unit_mode(6),
                                          unit_mode(6))
        assert rep.rhs_forcing == pytest.approx(c ** 2 * 1.0, abs=1e-12)
        assert rep.rhs_xi == 0.0

    def test_ratio_stable_under_dt_halving(self):
        tr = assemble_triple(L, 1, 6)
        ratios = []
        for n in (40, 80):
            grid = TimeGrid.uniform(1.0, n)
            pair = assemble_operators(heat_coeffs(), tr, grid)
            base = solve_linear_bseej(pair, None, unit_mode(6), None)
            xi2 = unit_mode(6) * 1.01
            pert = solve_linear_bseej(pair, None, xi2, None)
            rep = continuous_dependence_check(base, pert, None, None,
                                              unit_mode(6), xi2)
            ratios.append(rep.ratio)
        assert 0.5 <= ratios[1] / ratios[0] <= 2.0

    def test_apriori_constant_stable_under_refinement(self):
        # LHS <= K (||xi||_H^2 + int ||F0||_H^2) holds per instance; the
        # fitted constant (max ratio over the family) must be stable
        # within 2x when dt is halved.
        tr = assemble_triple(L, 1, 6)
        rng_seed = 5
        fitted = []
        for n in (40, 80):
            grid = TimeGrid.uniform(1.0, n)
            pair = assemble_operators(heat_coeffs(), tr, grid)
            rng = np.random.default_rng(rng_seed)
            ratios = []
            for _ in range(4):
                xi = rng.standard_normal(6)
                f0 = np.broadcast_to(rng.standard_normal(6), (n, 6)).copy()
                sol = solve_linear_bseej(pair, f0, xi, None)
                zero = solve_linear_bseej(pair, None, np.zeros(6), None)
                rep = continuous_dependence_check(sol, zero, f0, None, xi,
                                                  np.zeros(6))
                rhs = float(xi @ tr.mass @ xi) + rep.rhs_forcing
                ratios.append(rep.lhs / rhs)
                assert rep.lhs <= max(ratios) * rhs + 1e-12
            fitted.append(max(ratios))
        assert 0.5 <= fitted[1] / fitted[0] <= 2.0


class TestEnergyIdentity:
    def test_zero_solution(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 20)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        sol = solve_linear_bseej(pair, None, np.zeros(6), None)
        rep = energy_identity_residual(sol, None)
        assert rep.residual == 0.0

    def test_heat_residual_halves(self):
        tr = assemble_triple(L, 1, 6)
        res = []
        for n in (40, 80):
            grid = TimeGrid.uniform(1.0, n)
            pair = assemble_operators(heat_coeffs(), tr, grid)
            sol = solve_linear_bseej(pair, None, unit_mode(6), None)
            res.append(abs(energy_identity_residual(sol, None).residual))
        assert res[1] / res[0] == pytest.approx(0.5, abs=0.1)

    def test_pure_jump_bookkeeping_eventwise(self):
        # One atom, jump channel only: the tree-enumerated expectation
        # of ||M||^2 + 2 (Y, M) over the jump branches must equal the
        # closed form dt w ||r||^2 - dt^2 ||w r||^2 exactly.
        tr = assemble_triple(L, 1, 4)
        grid = TimeGrid.uniform(1.0, 20)
        tree = BinomialJumpTree(grid, MEAS, ("J",))
        pair = assemble_operators(heat_coeffs(), tr, grid)

        def xi(noise):
            out = np.zeros((noise.shape[0], 4))
            out[:, 0] = 1.0 + 0.3 * noise[:, 0]
            return out

        sol = solve_linear_bseej(pair, None, xi, tree)
        assert sol.max_r_norm() > 1e-6
        dt = float(grid.dt[0])
        w0 = MEAS.weights[0]
        for i in (0, 5, 19):
            p_nodes = tree.probabilities(i)
            _, probs, _, atoms = tree.branches(i)
            direct = 0.0
            closed = 0.0
            for node in range(tree.n_nodes(i)):
                r_node = sol.r[i][node, 0]
                y_node = sol.y[i][node]
                for pb, at in zip(probs, atoms):
                    dmu = (1.0 if at == 0 else 0.0) - w0 * dt
                    m = r_node * dmu
                    direct += p_nodes[node] * pb * (
                        m @ tr.mass @ m + 2.0 * y_node @ tr.mass @ m)
                rr = float(r_node @ tr.mass @ r_node)
                closed += p_nodes[node] * (
                    w0 * dt * rr - dt ** 2 * w0 ** 2 * rr)
            assert direct == pytest.approx(closed, abs=1e-10)


class TestWeakHjb:
    def test_matches_pide_on_benchmark(self):
        co = benchmark_coeffs()
        tr = assemble_triple(6.0, 1, 48)
        res = solve_hjb_weak(co, tr, U2, MEAS, TimeGrid.uniform(0.5, 100))
        space = SpatialGrid([-3.0], [3.0], (241,))
        pide = solve_pide_deterministic(co, space, TimeGrid.uniform(0.5, 320),
                                        U2, MEAS)
        out = SpatialGrid([-1.5], [1.5], (61,))
        trip = res.reconstruct_triplet(out)
        vp = np.array([pide.triplet.value_at(0, [x]) for x in out.nodes()[:, 0]])
        assert np.max(np.abs(trip.V[0].ravel() - vp)) <= 3e-2
        assert np.max(np.abs(trip.Phi)) < 1e-10
        assert np.max(np.abs(trip.Psi)) < 1e-10
        h = res.solution.history
        assert all(h[k + 1] < h[k] for k in range(1, len(h) - 1))
        # Weak-form residual against the assembled (frozen) forcing of
        # the final Picard pass: solver algebra modulo the last
        # successive-difference gap.
        wr = weak_residual(res.solution, res.solution.forcing_values)
        assert wr < 1e-6

    def test_operator_dump(self, tmp_path):
        tr = assemble_triple(L, 1, 4)
        pair = assemble_operators(heat_coeffs(), tr, TimeGrid.uniform(1.0, 2))
        path = tmp_path / "ops.csv"
        pair.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,row,col,A,B,bstar_gram"
        assert len(lines) == 1 + 2 * 16

    def test_terminal_in_span_static(self):
        k1 = np.pi / (2 * 6.0)
        co = make_coeffs(n=1, d=2, h=lambda x, nz:
                         np.sin(k1 * (x[..., 0] + 6.0)) / np.sqrt(6.0),
                         rho=np.array([0.0]))
        tr = assemble_triple(6.0, 1, 16)
        res = solve_hjb_weak(co, tr, U2, MEAS, TimeGrid.uniform(0.5, 40),
                             require_coercivity=False)
        e1 = unit_mode(16)
        for i in (0, 20, 40):
            np.testing.assert_allclose(res.solution.y[i][0], e1, atol=1e-9)
        assert res.solution.max_z_norm() < 1e-12

    def test_singleton_matches_duplicated_atom(self):
        co = benchmark_coeffs()
        tr = assemble_triple(6.0, 1, 24)
        grid = TimeGrid.uniform(0.25, 25)
        u0 = [0.25]
        r1 = solve_hjb_weak(co, tr, ControlSet.singleton(u0), MEAS, grid)
        dup = ControlSet(np.array([u0, u0]), [-1.0], [1.0])
        r2 = solve_hjb_weak(co, tr, dup, MEAS, grid)
        np.testing.assert_allclose(r1.solution.y[0][0], r2.solution.y[0][0],
                                   atol=1e-12)

    def test_galerkin_convergence_in_modes(self):
        co = benchmark_coeffs()
        grid = TimeGrid.uniform(0.25, 25)
        sols = {}
        for nb in (8, 16, 32, 64):
            tr = assemble_triple(6.0, 1, nb)
            sols[nb] = solve_hjb_weak(co, tr, U2, MEAS, grid).solution.y[0][0]
        diffs = []
        for nb in (8, 16, 32):
            a = np.zeros(2 * nb)
            a[:nb] = sols[nb]
            diffs.append(np.linalg.norm(a - sols[2 * nb]))
        assert diffs[0] > diffs[1] > diffs[2]

    # The scenario may list its channels in any order; the terminal
    # reads W2 in both.
    @pytest.mark.parametrize("channels", [("W2", "J"), ("J", "W2")],
                             ids=["W2-J", "J-W2"])
    def test_random_coefficients_scenario_run(self, channels):
        co = make_coeffs(
            n=1, d=2,
            sigma=lambda t, x, u, nz: np.broadcast_to(
                np.array([0.5, 0.15]), x.shape + (2,)),
            g=lambda t, e, x, u, nz: 0.2 * np.ones_like(x),
            f=lambda t, x, u, y, z, k, nz: 0.1 * y,
            h=lambda x, nz: np.exp(-x[..., 0] ** 2)
            * (1.0 + 0.3 * (nz.values[..., 0] if nz is not None else 0.0)),
            rho=np.array([0.0]), randomness_channels=("W2",))
        tr = assemble_triple(6.0, 1, 24)
        grid = TimeGrid.uniform(0.5, 30)
        tree = BinomialJumpTree(grid, MEAS, channels)
        res = solve_hjb_weak(co, tr, U2, MEAS, grid, scenario=tree)
        assert res.solution.converged
        # Phi carries the W-loading of the terminal; no coefficient
        # reads the jump channel, so Psi stays zero.
        assert res.solution.max_z_norm() > 1e-3
        assert res.solution.max_r_norm() < 1e-10

    def test_missing_scenario_rejected(self):
        co = make_coeffs(randomness_channels=("W1",), rho=np.array([0.0]))
        tr = assemble_triple(2.0, 1, 4)
        with pytest.raises(ConfigError):
            solve_hjb_weak(co, tr, U2, MEAS, TimeGrid.uniform(1.0, 5))


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_solution(a, b):
    for name in ("y", "z", "r"):
        la, lb = getattr(a, name), getattr(b, name)
        assert len(la) == len(lb)
        for xa, xb in zip(la, lb):
            assert_bitwise(xa, xb)
    assert a.history == b.history


def reference_hjb(coeffs, triple, control_set, measure, scenario):
    """Forcing and terminal of the weak HJB solve, one node at a time.

    Follows the formula of ``solve_hjb_weak`` with nothing kept between
    calls: each call evaluates b, g, l, f and the basis at the shifted
    points afresh, folds the compensator into the transport per atom
    and projects each node's integrand with ``triple.project``.  The
    forcing takes the stacked rows of any steps, each row with its own
    step ``i[n]`` and time ``t[n]``.  ``clamped[0]`` counts the shifted
    points outside [-L, L] over every call.
    """
    xq, Q, d = triple.quad_x, triple.n_quad, coeffs.d
    X = xq[:, None]
    channels = coeffs.randomness_channels
    columns = [scenario.channels.index(c) for c in channels]
    u_ref = control_set.atoms[0]
    clamped = [0]

    def noise_at(t, row):
        if not channels:
            return None
        return NoiseState(float(t), channels,
                          np.broadcast_to(row[columns], (Q, len(columns))))

    def forcing(i, t, noise_vals, y, z, r):
        have_psi = r.shape[1] == measure.n_atoms > 0
        out = np.empty_like(y)
        for n in range(y.shape[0]):
            t_n = float(t[n])
            assert t_n == scenario.grid.nodes[i[n]]
            step = 1e-5 * (1.0 + np.abs(xq))
            sp, sm, s0 = (batch_eval(coeffs.sigma, t_n, x[:, None], u_ref, None, (d,))
                          for x in (xq + step, xq - step, xq))
            da = (np.sum(sp * sp, axis=1) - np.sum(sm * sm, axis=1)) / (2.0 * step)
            dsd = (sp[:, -1] - sm[:, -1]) / (2.0 * step)
            nz = noise_at(t_n, noise_vals[n])
            w, dw = triple.basis_q @ y[n], triple.dbasis_q @ y[n]
            phi = triple.basis_q @ z[n]
            best = None
            for u in control_set.atoms:
                total = batch_eval(coeffs.b, t_n, X, u, nz, (1,))[:, 0] * dw
                k = np.zeros(Q)
                for a, (mark, wgt) in enumerate(zip(measure.marks, measure.weights)):
                    g = batch_eval(coeffs.g, t_n, X, u, nz, (1,), mark)[:, 0]
                    clamped[0] += int(np.sum(np.abs(xq + g) > triple.length))
                    shifted = triple.eval_basis(xq + g)
                    inc = shifted @ y[n] - w
                    total = total - wgt * g * dw + wgt * inc
                    if have_psi:
                        psi_shift = shifted @ r[n, a]
                        total = total + wgt * (psi_shift - triple.basis_q @ r[n, a])
                        inc = inc + psi_shift
                    k = k + wgt * float(coeffs.l(t_n, mark)) * inc
                z_slot = s0 * dw[:, None]
                z_slot[:, -1] += phi
                f = coeffs.f(t_n, X, broadcast_control(u, Q), w, z_slot, k, nz)
                total = total + np.asarray(f, dtype=float).reshape(Q)
                best = total if best is None else np.minimum(best, total)
            out[n] = triple.project(-(-da * dw - phi * dsd + best))
        return out

    def terminal(noise_vals):
        t = scenario.grid.horizon
        return np.array([triple.project(
            np.asarray(coeffs.h(X, noise_at(t, row)), dtype=float).reshape(Q))
            for row in noise_vals])

    return forcing, terminal, clamped


def reference_solve(coeffs, triple, control_set, measure, grid, scenario=None):
    """Picard solve on the reference forcing, and its clamped count."""
    tree = (scenario if scenario is not None
            else BinomialJumpTree(grid, MarkMeasure.empty(), ()))
    forcing, terminal, clamped = reference_hjb(coeffs, triple, control_set,
                                               measure, tree)
    pair = assemble_operators(coeffs, triple, grid, control_set)
    return solve_nonlinear_bseej(pair, forcing, terminal, tree), clamped[0]


def assert_within_gate(sol, ref):
    """y, z and r within 1e-12 max|y| of the reference at every node and
    step; Picard histories of one length, entries within 1e-12."""
    tol = 1e-12 * max(float(np.max(np.abs(y))) for y in ref.y)
    for name in ("y", "z", "r"):
        for got, want in zip(getattr(sol, name), getattr(ref, name), strict=True):
            assert got.shape == want.shape
            if got.size:
                assert float(np.max(np.abs(got - want))) <= tol, name
    assert len(sol.history) == len(ref.history)
    np.testing.assert_allclose(sol.history, ref.history, rtol=0, atol=1e-12)


PROP_TRIPLE = assemble_triple(L, 1, 6)
PROP_GRID = TimeGrid.uniform(0.5, 4)


def built_forcing(coeffs, measure, tree):
    """The forcing and terminal ``solve_hjb_weak`` hands to the Picard
    solver (which is not run)."""
    captured = {}

    def capture(pair, F, xi, *rest):
        captured.update(F=F, xi=xi)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(galerkin, "solve_nonlinear_bseej", capture)
        solve_hjb_weak(coeffs, PROP_TRIPLE, U2, measure, PROP_GRID, scenario=tree,
                       require_coercivity=False)
    return captured["F"], captured["xi"]


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.tuples(*[st.floats(-1.0, 1.0)] * 5),
       st.integers(0, 2 ** 32 - 1))
def test_forcing_matches_reference(reads_channel, c, seed):
    """For g with and without a channel read (so with node rows that
    differ or agree), on the stacked rows of every step, called twice.
    Sigma reads t, so the steps that share a slab differ in it."""
    c_t, c_u, c_x, c_w, c_j = c
    if not reads_channel:
        c_w = c_j = 0.0
    co = make_coeffs(
        n=1, d=2,
        b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[:, 0:1] + 0.2 * nz.values[..., 0:1],
        sigma=lambda t, x, u, nz: np.stack(
            [0.5 + 0.1 * np.tanh(x[..., 0]) + 0.1 * t, 0.15 + 0.05 * np.sin(x[..., 0])],
            axis=-1),
        g=lambda t, e, x, u, nz: (0.3 * e[0] + c_t * t + c_u * u[:, 0:1] + c_x * x
                                  + c_w * nz.values[..., 0:1]
                                  + c_j * nz.values[..., 1:2]),
        f=lambda t, x, u, y, z, k, nz: 0.1 * y + 0.05 * k + 0.2 * z[:, 1]
        + 0.3 * u[:, 0] * nz.values[..., 1],
        h=lambda x, nz: np.exp(-x[..., 0] ** 2)
        * (1.0 + 0.3 * nz.values[..., 0] + 0.1 * nz.values[..., 1]),
        l=lambda t, e: 1.0 + t * e[0],
        rho=np.array([0.0]), randomness_channels=("W2", "J"))
    tree = BinomialJumpTree(PROP_GRID, MEAS2, ("J", "W2"))
    F, xi = built_forcing(co, MEAS2, tree)
    F_ref, xi_ref, _ = reference_hjb(co, PROP_TRIPLE, U2, MEAS2, tree)
    rng = np.random.default_rng(seed)
    nb = PROP_TRIPLE.n_modes

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))

    close(xi(tree.noise_values(PROP_GRID.n_steps)),
          xi_ref(tree.noise_values(PROP_GRID.n_steps)))
    n = tree.offsets[PROP_GRID.n_steps]
    i = tree.row_step[:n]
    t, noise = PROP_GRID.nodes[i], tree.noise_rows[:n]
    for _ in range(2):
        y, z = rng.standard_normal((n, nb)), rng.standard_normal((n, nb))
        r = rng.standard_normal((n, MEAS2.n_atoms, nb))
        close(F(i, t, noise, y, z, r), F_ref(i, t, noise, y, z, r))


def scenario_g_coeffs():
    """random_terminal-like data whose jump size reads t, u and W2."""
    return make_coeffs(
        n=1, d=2,
        b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.5, 0.15]), x.shape + (2,)),
        g=lambda t, e, x, u, nz: (0.2 + 0.3 * t + 0.1 * u[:, 0:1]
                                  + 0.5 * nz.values[..., 0:1]) * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz: 0.1 * y + 0.05 * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2)
        * (1.0 + 0.3 * (nz.values[..., 0] if nz is not None else 0.0)),
        rho=np.array([0.0]), randomness_channels=("W2",))


def slab_sizes(tree, nb):
    """Row counts of the slabs of steps 0..N-1 (consecutive steps,
    greedily, at most max(widest step, n_b) rows each), and that cap."""
    counts = [tree.n_nodes(i) for i in range(tree.grid.n_steps)]
    cap = max(max(counts), nb)
    sizes = [counts[0]]
    for n in counts[1:]:
        if sizes[-1] + n > cap:
            sizes.append(n)
        else:
            sizes[-1] += n
    return sizes, cap


def counting_f(co, triple):
    """``co`` with an f that records the node rows of each call."""
    rows = []

    def f(t, x, u, y, z, k, nz):
        rows.append(y.size // triple.n_quad)
        return co.f(t, x, u, y, z, k, nz)

    return replace(co, f=f), rows


class TestPicardInvariantWork:
    """Work that no Picard pass changes is done once: each step's
    coefficient values and shifted basis, the lattice transitions and
    the terminal projection."""

    @staticmethod
    def solve_counting(monkeypatch, build):
        """(result of ``build()``, point count of each eval_basis call)."""
        calls = []
        original = galerkin.GelfandTriple.eval_basis

        def counting(self, x):
            calls.append(np.size(x))
            return original(self, x)

        with monkeypatch.context() as m:
            m.setattr(galerkin.GelfandTriple, "eval_basis", counting)
            built = build()
        return built, calls

    def test_deterministic_run_matches_reference(self, monkeypatch):
        self.check_deterministic(monkeypatch, MEAS)

    def test_deterministic_block_per_atom(self, monkeypatch):
        # Both atoms move x_q by the same g; each keeps its own block.
        self.check_deterministic(monkeypatch, MEAS2)

    @staticmethod
    def check_slab_calls(built, tr, f_rows):
        """The cost f runs once per slab and control on every Picard
        pass, on slabs of consecutive steps that each hold at most
        max(widest step, n_b) rows."""
        tree, passes = built.solution.scenario, len(built.solution.history)
        sizes, cap = slab_sizes(tree, tr.n_modes)
        assert f_rows == [n for _ in range(passes) for n in sizes for _ in range(U2.n_atoms)]
        assert max(f_rows) <= cap
        return sizes

    def check_deterministic(self, monkeypatch, meas):
        tr = assemble_triple(6.0, 1, 16)
        co, f_rows = counting_f(benchmark_coeffs(), tr)
        grid = TimeGrid.uniform(0.5, 20)
        built, calls = self.solve_counting(
            monkeypatch, lambda: solve_hjb_weak(co, tr, U2, meas, grid))
        ref, clamped = reference_solve(benchmark_coeffs(), tr, U2, meas, grid)
        assert_within_gate(built.solution, ref)
        assert built.clamped == clamped > 0
        # g is constant: one block of Q shifted points per atom serves
        # every step, control and pass.
        assert calls == [tr.n_quad] * meas.n_atoms
        assert len(built.solution.history) > 2
        # One node per step and N > n_b: slabs of n_b steps and the rest.
        assert self.check_slab_calls(built, tr, f_rows) == [16, 4]

    def test_scenario_run_matches_reference(self, monkeypatch):
        tr = assemble_triple(4.0, 1, 8)
        co, f_rows = counting_f(scenario_g_coeffs(), tr)
        grid = TimeGrid.uniform(0.5, 8)
        built, calls = self.solve_counting(
            monkeypatch, lambda: solve_hjb_weak(
                co, tr, U2, MEAS, grid,
                scenario=BinomialJumpTree(grid, MEAS, ("J", "W2"))))
        ref, clamped = reference_solve(
            scenario_g_coeffs(), tr, U2, MEAS, grid,
            BinomialJumpTree(grid, MEAS, ("J", "W2")))
        assert_within_gate(built.solution, ref)
        assert built.clamped == clamped > 0
        # g moves with t, u and W2: one evaluation per step, control and
        # atom on the first pass, however many passes follow.
        assert len(built.solution.history) > 2
        assert len(calls) == grid.n_steps * U2.n_atoms * MEAS.n_atoms
        # The five early steps (1 + 4 + 9 + 16 + 25 nodes) share a slab;
        # each later step is a slab of its own.
        assert self.check_slab_calls(built, tr, f_rows) == [55, 36, 49, 64]

    def test_branch_cache(self):
        grid = TimeGrid.uniform(1.0, 10)
        tree = BinomialJumpTree(grid, MEAS, ("W1", "J"))
        for i in range(grid.n_steps):
            built = tree.branches(i)
            fresh = BinomialJumpTree(grid, MEAS, ("W1", "J")).branches(i)
            assert built[0].shape == (tree.n_nodes(i), built[1].size)
            for arr, ref in zip(built, fresh):
                assert_bitwise(arr, ref)
            # The per-branch arrays are shared by every node and step.
            for arr in built[1:]:
                with pytest.raises(ValueError):
                    arr[0] = arr[0]
        # Node probabilities: the W walk is binomial(i, 1/2) and the
        # jump count binomial(i, lambda dt) below the cap, independently.
        q = MEAS.total_mass * float(grid.dt[0])
        for i in range(grid.n_steps + 1):
            p = tree.probabilities(i)
            ks, js = tree.node_states(i)
            below = js < tree.j_cap
            expect = np.array([comb(i, k) / 2.0 ** i * comb(i, j) * q ** j
                               * (1.0 - q) ** (i - j) for k, j in zip(ks, js)])
            np.testing.assert_allclose(p[below], expect[below], rtol=1e-12)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert_bitwise(p, BinomialJumpTree(grid, MEAS, ("W1", "J"))
                           .probabilities(i))

    def test_lattice_tables_read_only_and_reused(self):
        tr = assemble_triple(L, 1, 5)
        grid = TimeGrid.uniform(1.0, 8)

        def lattice():
            return BinomialJumpTree(grid, MEAS2, ("W1", "J"), j_cap=3)

        tree = lattice()
        for i in range(grid.n_steps + 1):
            tables = [tree.noise_values(i), tree.probabilities(i)]
            if i < grid.n_steps:
                tables += tree.branches(i)
                assert tree.branches(i)[0] is tables[2]
            assert tree.noise_values(i) is tables[0]
            assert tree.probabilities(i) is tables[1]
            for arr in tables:
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 0
        pair = assemble_operators(heat_coeffs(0.8), tr, grid)

        def xi(noise):
            out = np.zeros((noise.shape[0], 5))
            out[:, 0] = 1.0 + 0.2 * noise[:, 0] + 0.1 * noise[:, 1]
            return out

        def F(i, t, nz, y, z, r):
            return 0.05 * y + 0.1 * z + 0.01 * nz[:, :1]

        first = solve_nonlinear_bseej(pair, F, xi, tree)
        assert first.pair is pair and first.scenario is tree
        assert len(first.history) > 1
        assert_same_solution(solve_nonlinear_bseej(pair, F, xi, tree), first)
        assert_same_solution(solve_nonlinear_bseej(pair, F, xi, lattice()), first)
        # A lattice on other time nodes than the operators is refused.
        other = BinomialJumpTree(TimeGrid.uniform(1.0, 4), MEAS2, ("W1", "J"))
        with pytest.raises(ConfigError):
            solve_linear_bseej(pair, None, xi, other)

    def test_forcing_called_once_per_pass(self):
        tr = assemble_triple(L, 1, 5)
        grid = TimeGrid.uniform(1.0, 6)
        tree = BinomialJumpTree(grid, MEAS2, ("W1", "J"), j_cap=2)
        pair = assemble_operators(heat_coeffs(0.8), tr, grid)
        R = tree.offsets[grid.n_steps]
        seen = []

        def F(i, t, nz, y, z, r):
            seen.append((i, t, nz, y.shape, z.shape, r.shape))
            return 0.05 * y + 0.1 * z + 0.01 * nz[:, :1]

        def xi(noise):
            return np.outer(1.0 + 0.2 * noise[:, 0] + 0.1 * noise[:, 1], unit_mode(5))

        sol = solve_nonlinear_bseej(pair, F, xi, tree)
        assert len(seen) == len(sol.history) > 1
        for i, t, nz, *shapes in seen:
            assert_bitwise(i, tree.row_step[:R])
            assert_bitwise(t, grid.nodes[tree.row_step[:R]])
            assert_bitwise(nz, tree.noise_rows[:R])
            assert shapes == [(R, 5), (R, 5), (R, MEAS2.n_atoms, 5)]
        # The solution's per-step fields are views of its stacked rows.
        for i in range(grid.n_steps):
            rows = slice(tree.offsets[i], tree.offsets[i + 1])
            assert np.shares_memory(sol.y[i], sol.y_rows)
            assert_bitwise(sol.z[i], sol.z_rows[rows])
            assert_bitwise(sol.forcing_values[i], sol.forcing_rows[rows])

    def test_forcing_returning_its_state_is_kept(self):
        # F hands back its y argument itself; the Picard loop later
        # overwrites that iterate, which must not reach the solution.
        tr = assemble_triple(L, 1, 5)
        grid = TimeGrid.uniform(0.5, 6)
        tree = BinomialJumpTree(grid, MEAS2, ("W1", "J"), j_cap=2)
        pair = assemble_operators(heat_coeffs(0.8), tr, grid)
        frozen = []

        def F(i, t, nz, y, z, r):
            frozen.append(y.copy())
            return y

        def xi(noise):
            return np.outer(1.0 + 0.2 * noise[:, 0] + 0.1 * noise[:, 1], unit_mode(5))

        sol = solve_nonlinear_bseej(pair, F, xi, tree)
        assert len(frozen) == len(sol.history) > 1
        assert_bitwise(sol.forcing_rows, frozen[-1])
        assert not np.may_share_memory(sol.forcing_rows, sol.y_rows)
        assert weak_residual(sol, sol.forcing_values) < 1e-12

    def test_singular_step_refused(self):
        # I + dt A vanishes on step 1 only.
        A = np.stack([np.eye(3), -2.0 * np.eye(3)])
        with pytest.raises(NumericError, match="node 1"):
            _step_inverses(A, np.array([0.1, 0.5]))

    def test_shared_tree_matches_fresh_trees(self):
        tr = assemble_triple(4.0, 1, 8)
        grid = TimeGrid.uniform(0.5, 6)
        co = scenario_g_coeffs()

        def solve(tree):
            return solve_hjb_weak(co, tr, U2, MEAS, grid, scenario=tree)

        shared = BinomialJumpTree(grid, MEAS, ("W2", "J"))
        first, second = solve(shared), solve(shared)
        for res in (first, second):
            ref = solve(BinomialJumpTree(grid, MEAS, ("W2", "J")))
            assert_same_solution(res.solution, ref.solution)
            assert res.clamped == ref.clamped

    def test_terminal_projected_once(self):
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid.uniform(1.0, 10)
        tree = BinomialJumpTree(grid, MEAS, ("W1", "J"))
        pair = assemble_operators(heat_coeffs(), tr, grid)
        calls = []

        def xi(noise):
            calls.append(noise.shape)
            out = np.zeros((noise.shape[0], 6))
            out[:, 0] = 1.0 + 0.2 * noise[:, 0] + 0.1 * noise[:, 1]
            return out

        def F(i, t, nz, y, z, r):
            return 0.05 * y

        sol = solve_nonlinear_bseej(pair, F, xi, tree)
        assert len(sol.history) > 1
        assert calls == [(tree.n_nodes(grid.n_steps), 2)]
        terminal = xi(tree.noise_values(grid.n_steps))
        again = solve_nonlinear_bseej(pair, F, terminal, tree)
        assert_same_solution(sol, again)

    def test_terminal_array_shapes(self):
        tr = assemble_triple(L, 1, 4)
        grid = TimeGrid.uniform(1.0, 5)
        tree = BinomialJumpTree(grid, MEAS, ("W1", "J"))
        n_nodes = tree.n_nodes(grid.n_steps)
        per_node = np.arange(n_nodes * 4, dtype=float).reshape(n_nodes, 4)
        pair = assemble_operators(heat_coeffs(), tr, grid)
        out = _as_terminal(per_node, pair, tree)
        assert_bitwise(out, per_node)
        assert out is not per_node
        shared = _as_terminal(np.arange(4.0), pair, tree)
        assert_bitwise(shared, np.tile(np.arange(4.0), (n_nodes, 1)))
        for bad in (np.zeros((n_nodes + 1, 4)), np.zeros((n_nodes, 3)),
                    np.zeros(5)):
            with pytest.raises(ValueError):
                _as_terminal(bad, pair, tree)


def reference_branches(tree, i):
    """Per node (children, probs, dws, atoms), from the node states and
    the measure alone: W up then down, each with no jump and then one
    jump per atom, the jump count capped at ``j_cap``."""
    lam, dt, w = tree.measure.total_mass, tree.dt, tree.measure.weights
    sq = np.sqrt(dt)
    out = []
    for k, j in zip(*tree.node_states(i)):
        rows = []
        for k2, pw, dw in ((k + 1, 0.5, sq), (k, 0.5, -sq)):
            rows.append((tree.node_index(i + 1, k2, j), pw * (1.0 - lam * dt), dw, -1))
            j2 = min(j + 1, tree.j_cap)
            rows += [(tree.node_index(i + 1, k2, j2), pw * w[a] * dt, dw, a)
                     for a in range(tree.measure.n_atoms)]
        out.append(tuple(np.array(c) for c in zip(*rows)))
    return out


class TestLatticeTransition:
    """The one-transition-per-step lattice against a per-node loop."""

    N = 8

    def build(self):
        tr = assemble_triple(L, 1, 5)
        grid = TimeGrid.uniform(1.0, self.N)
        tree = BinomialJumpTree(grid, MEAS2, ("W1", "J"), j_cap=3)
        pair = assemble_operators(heat_coeffs(0.8), tr, grid)

        def xi(noise):
            out = np.zeros((noise.shape[0], 5))
            out[:, 0] = 1.0 + 0.2 * noise[:, 0] + 0.1 * noise[:, 1]
            out[:, 2] = np.sin(noise[:, 0] * noise[:, 1])
            return out

        return tr, grid, tree, pair, xi

    def reference(self, tr, grid, tree, pair, xi):
        """Node probabilities, the linear solve and its weak residual,
        node by node; each step applies the pair's stored inverse, which
        is checked against a fresh solve."""
        nb, n_atoms, mw = tr.n_modes, tree.measure.n_atoms, tree.measure.weights
        probs = [np.ones(1)]
        for i in range(self.N):
            nxt = np.zeros(tree.n_nodes(i + 1))
            for node, (children, pb, _, _) in enumerate(reference_branches(tree, i)):
                np.add.at(nxt, children, probs[i][node] * pb)
            probs.append(nxt)
        y = [None] * (self.N + 1)
        z, r, e_ys = [None] * self.N, [None] * self.N, [None] * self.N
        y[self.N] = np.asarray(xi(tree.noise_values(self.N)), dtype=float)
        for i in range(self.N - 1, -1, -1):
            dt = float(grid.dt[i])
            n = tree.n_nodes(i)
            e_y, z_i, r_i = np.zeros((n, nb)), np.zeros((n, nb)), np.zeros((n, n_atoms, nb))
            for node, (children, pb, dws, atoms) in enumerate(reference_branches(tree, i)):
                yc = y[i + 1][children]
                e_y[node] = pb @ yc
                z_i[node] = (pb * dws) @ yc / dt
                for a in range(n_atoms):
                    ind = (atoms == a).astype(float) - mw[a] * dt
                    r_i[node, a] = (pb * ind) @ yc / (mw[a] * dt)
            rhs = e_y - dt * (z_i @ pair.B[i].T + np.zeros((n, nb)))
            y[i] = rhs @ pair.step_inverse[i].T
            solved = np.linalg.solve(np.eye(nb) + dt * pair.A[i], rhs.T).T
            assert np.max(np.abs(y[i] - solved)) <= 1e-12 * np.max(np.abs(solved))
            z[i], r[i], e_ys[i] = z_i, r_i, e_y
        worst = 0.0
        for i in range(self.N):
            defect = e_ys[i] - y[i] - float(grid.dt[i]) * (
                y[i] @ pair.A[i].T + z[i] @ pair.B[i].T + np.zeros_like(y[i]))
            worst = max(worst, float(np.max(np.abs(defect))))
        return probs, y, z, r, worst

    def test_matches_per_node_loop_bitwise(self):
        tr, grid, tree, pair, xi = self.build()
        # The capped jump count makes children repeat within a node.
        assert tree.j_cap < self.N and tree.measure.n_atoms == 2
        probs, y, z, r, worst = self.reference(tr, grid, tree, pair, xi)
        for i in range(self.N + 1):
            assert_bitwise(tree.probabilities(i), probs[i])
        sol = solve_linear_bseej(pair, None, xi, tree)
        for name, ref in (("y", y), ("z", z), ("r", r)):
            for got, want in zip(getattr(sol, name), ref):
                assert_bitwise(got, want)
        assert sol.max_z_norm() > 1e-3 and sol.max_r_norm() > 1e-3
        assert weak_residual(sol, None) == worst

    def test_deterministic_run_on_non_uniform_grid(self):
        # scenario=None is the one-node lattice: no uniform-grid refusal,
        # and the plain implicit recursion with the stored inverses bit
        # for bit, within 1e-12 of a fresh solve per step.
        tr = assemble_triple(L, 1, 6)
        grid = TimeGrid(np.array([0.0, 0.05, 0.2, 0.3, 0.55, 0.6, 1.0]))
        co = make_coeffs(sigma=lambda t, x, u, nz: (1.0 + t) * np.ones(x.shape + (1,)))
        pair = assemble_operators(co, tr, grid)
        f = 0.3 * np.arange(1.0, 7.0)
        sol = solve_linear_bseej(pair, f, unit_mode(6), None)
        y = unit_mode(6)[None]
        for i in range(grid.n_steps - 1, -1, -1):
            dt = float(grid.dt[i])
            rhs = y - dt * f
            y = rhs @ pair.step_inverse[i].T
            assert_bitwise(sol.y[i], y)
            solved = np.linalg.solve(np.eye(6) + dt * pair.A[i], rhs[0])
            assert np.max(np.abs(y[0] - solved)) <= 1e-12 * np.max(np.abs(solved))
        assert sol.max_z_norm() == sol.max_r_norm() == 0.0
        with pytest.raises(ConfigError):
            BinomialJumpTree(grid, MEAS, ("W1",))
