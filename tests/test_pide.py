import json

import numpy as np
import pytest

from jumphjb.coefficients import ControlSet
from jumphjb.drivers import MarkMeasure, TimeGrid
from jumphjb.dpp import Lattice, compute_value_table
from jumphjb.errors import CflViolationError, ConfigError
from jumphjb.pide import (
    RandomFieldTriplet,
    SpatialGrid,
    drift_consistency_residual,
    hamiltonian,
    nonlocal_apply,
    solve_pide_deterministic,
    verification_run,
)
from jumphjb.problems import build_problem

from conftest import make_coeffs

MEAS = MarkMeasure.from_atoms([((1.0,), 0.3)])
U2 = ControlSet.from_1d(-0.6, 0.6, 2)


def benchmark_coeffs():
    """Bounded smooth drift, constant diffusion, one jump atom, 2-point U.

    All fields decay at infinity so the same problem feeds the Galerkin
    solver on a truncated domain.
    """
    return make_coeffs(
        n=1, d=2, m=1,
        b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.4, 0.1]), x.shape + (2,)),
        g=lambda t, e, x, u, nz: 0.25 * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz:
            (0.5 * x[..., 0] ** 2 + 0.3 * u[:, 0] * x[..., 0])
            * np.exp(-0.25 * x[..., 0] ** 2) + 0.05 * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2),
        rho=np.array([0.0]))


class TestHamiltonian:
    def test_all_zero(self):
        co = make_coeffs()
        assert hamiltonian(co, 0.0, [0.0], [0.0], [1.0], None, [[0.0]], 0.0) == 0.0

    def test_drift_inner_product(self):
        co = make_coeffs(b=lambda t, x, u, nz: np.ones_like(x))
        assert hamiltonian(co, 0.0, [0.0], [0.0], [1.0], None, [[0.0]], 0.0) == 1.0

    def test_duplicate_formula_oracle(self):
        # Independent re-implementation of the same formula on smooth
        # randomized inputs.
        n, d = 2, 2
        co = make_coeffs(
            n=n, d=d, m=1,
            b=lambda t, x, u, nz: np.stack(
                [np.sin(x[..., 0]), np.cos(x[..., 1])], axis=-1) + 0.2 * u,
            sigma=lambda t, x, u, nz: np.stack([
                np.stack([1.0 + 0.1 * np.tanh(x[..., 0]),
                          0.2 * np.ones_like(x[..., 0])], axis=-1),
                np.stack([0.1 * x[..., 1], 0.8 * np.ones_like(x[..., 0])],
                         axis=-1)], axis=-2),
            f=lambda t, x, u, y, z, k, nz:
                y + z[..., 0] * z[..., 1] + 0.3 * k + x[..., 0] * u[..., 0])
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = rng.uniform(0, 1)
            x = rng.standard_normal(n)
            u = rng.standard_normal(1)
            p = rng.standard_normal(n)
            dphi = rng.standard_normal((n, d))
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            k = rng.standard_normal()
            y = rng.standard_normal()
            phi = rng.standard_normal(d)
            got = hamiltonian(co, t, x, u, p, dphi, A, k, y=y, phi=phi)

            b = co.b(t, x[None, :], u[None, :], None)[0]
            sig = co.sigma(t, x[None, :], u[None, :], None).reshape(n, d)
            z = sig.T @ p + phi
            fv = float(co.f(t, x[None, :], u[None, :], np.array([y]),
                            z[None, :], np.array([k]), None)[0])
            expect = (fv + p @ b + np.sum(dphi * sig)
                      + 0.5 * np.trace(A @ sig @ sig.T))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_linearity_in_p_and_hessian(self):
        # With f = 0 the <p, b> and trace terms are linear in (p, A).
        co = make_coeffs(
            b=lambda t, x, u, nz: np.tanh(x),
            sigma=lambda t, x, u, nz: (0.5 + 0.1 * np.cos(x))[..., None])
        rng = np.random.default_rng(1)
        x, u = [0.3], [0.0]
        for _ in range(10):
            a, bcoef = rng.standard_normal(2)
            p1, p2 = rng.standard_normal((2, 1))
            A1, A2 = rng.standard_normal(2)
            h_combo = hamiltonian(co, 0.0, x, u, a * p1 + bcoef * p2, None,
                                  [[a * A1 + bcoef * A2]], 0.0)
            h_split = (a * hamiltonian(co, 0.0, x, u, p1, None, [[A1]], 0.0)
                       + bcoef * hamiltonian(co, 0.0, x, u, p2, None, [[A2]], 0.0))
            assert h_combo == pytest.approx(h_split, abs=1e-12)

    def test_asymmetric_hessian_rejected(self):
        co = make_coeffs(n=2, d=1)
        with pytest.raises(ValueError):
            hamiltonian(co, 0.0, [0.0, 0.0], [0.0], [0.0, 0.0], None,
                        [[0.0, 1.0], [0.0, 0.0]], 0.0)


class TestNonlocal:
    def test_zero_g(self):
        space = SpatialGrid([-2.0], [2.0], (41,))
        co = make_coeffs(rho=np.array([0.0]))
        res = nonlocal_apply(space, space.nodes()[:, 0] ** 2, co, 0.0, [0.3],
                             [0.0], MEAS)
        assert np.all(res.per_atom == 0.0)
        assert res.integral == res.compensated == res.weighted == 0.0

    def test_constant_field(self):
        space = SpatialGrid([-2.0], [2.0], (41,))
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.5 * np.ones_like(x),
                         rho=np.array([0.0]))
        res = nonlocal_apply(space, np.full(41, 3.0), co, 0.0, [0.3], [0.0], MEAS)
        assert np.all(res.per_atom == 0.0) and res.weighted == 0.0

    def test_linear_exactness(self):
        # V(x) = x, g = e: I V = e and the compensated term vanishes.
        space = SpatialGrid([-3.0], [3.0], (61,))
        co = make_coeffs(g=lambda t, e, x, u, nz: e[0] * np.ones_like(x),
                         rho=np.array([0.0]))
        res = nonlocal_apply(space, space.nodes()[:, 0], co, 0.0, [0.4],
                             [0.0], MEAS)
        assert res.per_atom[0] == pytest.approx(1.0, abs=1e-12)
        assert res.compensated == pytest.approx(0.0, abs=1e-12)
        assert res.integral == pytest.approx(0.3, abs=1e-12)

    def test_affine_exactness_with_psi(self):
        space = SpatialGrid([-3.0], [3.0], (121,))
        xs = space.nodes()[:, 0]
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.5 * np.ones_like(x),
                         l=lambda t, e: 2.0, rho=np.array([0.0]))
        v = 1.0 + 2.0 * xs
        psi = (0.5 - 0.25 * xs)[None, :]
        res = nonlocal_apply(space, v, co, 0.0, [0.2], [0.0], MEAS,
                             psi_slice=psi)
        # I V = 2 * 0.5 = 1; psi(x + 0.5) = 0.5 - 0.25 * 0.7 = 0.325.
        assert res.per_atom[0] == pytest.approx(1.0, abs=1e-12)
        assert res.weighted == pytest.approx(0.3 * 2.0 * (1.0 + 0.325), abs=1e-12)


class TestPideSolver:
    def test_zero_dynamics_zero_driver(self):
        space = SpatialGrid([-2.0], [2.0], (41,))
        co = make_coeffs(h=lambda x, nz: np.sin(x[..., 0]), rho=np.array([0.0]))
        sol = solve_pide_deterministic(co, space, TimeGrid.uniform(1.0, 10),
                                       U2, MEAS)
        expect = np.sin(space.nodes()[:, 0])
        for i in range(11):
            np.testing.assert_allclose(sol.triplet.V[i], expect, atol=1e-13)

    def test_unit_driver(self):
        space = SpatialGrid([-2.0], [2.0], (41,))
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: np.ones(np.shape(y)),
                         h=lambda x, nz: np.sin(x[..., 0]), rho=np.array([0.0]))
        tg = TimeGrid.uniform(1.0, 10)
        sol = solve_pide_deterministic(co, space, tg, U2, MEAS)
        expect = np.sin(space.nodes()[:, 0])[None, :] + (1.0 - tg.nodes)[:, None]
        np.testing.assert_allclose(sol.triplet.V, expect, atol=1e-12)

    def test_no_dynamics_exp_decay(self):
        # No drift, diffusion or jumps: every step is monotone, and the
        # explicit scheme gives V(0) = (1 - r dt)^N ~ exp(-r T).
        prob = build_problem("exp_decay")
        tg = TimeGrid.uniform(1.0, 40)
        sol = solve_pide_deterministic(prob.coeffs, SpatialGrid([-3.0], [3.0], (41,)),
                                       tg, prob.control_set, prob.measure)
        v0 = sol.triplet.V[0]
        np.testing.assert_allclose(v0, (1.0 - 0.1 * 0.025) ** 40, rtol=1e-12)
        np.testing.assert_allclose(v0, np.exp(-0.1), rtol=2e-4)

    def test_cfl_refusal(self):
        space = SpatialGrid([-2.0], [2.0], (81,))
        co = make_coeffs(sigma=lambda t, x, u, nz: np.ones(x.shape + (1,)),
                         rho=np.array([0.0]))
        with pytest.raises(CflViolationError) as ei:
            solve_pide_deterministic(co, space, TimeGrid.uniform(1.0, 50),
                                     ControlSet.singleton([0.0]), MEAS)
        assert 0 < ei.value.suggested_dt < 0.02

    def test_random_coefficients_rejected(self):
        co = make_coeffs(randomness_channels=("W1",), rho=np.array([0.0]))
        with pytest.raises(ConfigError):
            solve_pide_deterministic(co, SpatialGrid([-1.0], [1.0], (11,)),
                                     TimeGrid.uniform(1.0, 100),
                                     ControlSet.singleton([0.0]), MEAS)

    def test_comparison_monotone_in_terminal(self):
        space = SpatialGrid([-3.0], [3.0], (61,))
        tg = TimeGrid.uniform(0.25, 60)
        co_lo = benchmark_coeffs()
        co_hi = co_lo.with_terminal(
            lambda x, nz: np.exp(-x[..., 0] ** 2) + 0.2 * np.cos(x[..., 0]) + 0.2)
        lo = solve_pide_deterministic(co_lo, space, tg, U2, MEAS)
        hi = solve_pide_deterministic(co_hi, space, tg, U2, MEAS)
        assert np.all(hi.triplet.V >= lo.triplet.V - 1e-12)

    def test_matches_value_table_on_benchmark(self):
        co = benchmark_coeffs()
        space = SpatialGrid([-3.0], [3.0], (241,))
        sol = solve_pide_deterministic(co, space, TimeGrid.uniform(0.5, 320),
                                       U2, MEAS)
        tab = compute_value_table(co, U2, Lattice([-3.0], [3.0], (240,)),
                                  TimeGrid.uniform(0.5, 100), MEAS)
        xs = np.linspace(-1.5, 1.5, 41)
        vp = np.array([sol.triplet.value_at(0, [x]) for x in xs])
        vt = np.array([tab.value_at(0, [x]) for x in xs])
        assert np.max(np.abs(vp - vt)) <= 2e-2


class TestDriftConsistency:
    def test_pide_oracle(self):
        # The residual of a PIDE-produced triplet is the first-order
        # central-vs-upwind gap, bounded by |b| h |V''| / 2 and shrinking
        # under refinement.
        co = benchmark_coeffs()
        maxima = []
        for nx, nt in ((121, 80), (241, 320)):
            space = SpatialGrid([-3.0], [3.0], (nx,))
            sol = solve_pide_deterministic(co, space,
                                           TimeGrid.uniform(0.25, nt), U2, MEAS)
            res = drift_consistency_residual(sol.triplet, sol.gamma, co, U2, MEAS)
            maxima.append(np.max(np.abs(res[:, nx // 6:-nx // 6])))
        h_coarse = 6.0 / 120
        assert maxima[0] < 2.0 * 1.0 * h_coarse * 2.0
        assert maxima[1] <= 0.75 * maxima[0]

    def test_zero_everything(self):
        space = SpatialGrid([-2.0], [2.0], (21,))
        co = make_coeffs(h=lambda x, nz: np.ones(x.shape[0]), rho=np.array([0.0]))
        tg = TimeGrid.uniform(1.0, 5)
        trip = RandomFieldTriplet.deterministic(
            space, tg.nodes, np.ones((6, 21)), 1)
        res = drift_consistency_residual(trip, np.zeros((5, 21)), co,
                                         ControlSet.singleton([0.0]), MEAS)
        np.testing.assert_allclose(res, 0.0, atol=1e-14)

    def test_gamma_shift_affine(self):
        co = benchmark_coeffs()
        space = SpatialGrid([-3.0], [3.0], (61,))
        tg = TimeGrid.uniform(0.25, 40)
        sol = solve_pide_deterministic(co, space, tg, U2, MEAS)
        r0 = drift_consistency_residual(sol.triplet, sol.gamma, co, U2, MEAS)
        r1 = drift_consistency_residual(sol.triplet, sol.gamma + 1.0, co, U2, MEAS)
        np.testing.assert_allclose(r1 - r0, 1.0, atol=1e-12)


class TestVerification:
    def test_benchmark_gap_small(self):
        co = benchmark_coeffs()
        space = SpatialGrid([-3.0], [3.0], (241,))
        sol = solve_pide_deterministic(co, space, TimeGrid.uniform(0.5, 160),
                                       U2, MEAS)
        rep = verification_run(sol.triplet, co, U2, MEAS, [0.0], 4000, 17,
                               n_alternatives=4)
        assert abs(rep.gap) <= 2e-2 + rep.ci
        assert rep.all_alternatives_dominated

    def test_singleton_controls(self):
        co = benchmark_coeffs()
        u1 = ControlSet.singleton([0.2])
        space = SpatialGrid([-3.0], [3.0], (241,))
        sol = solve_pide_deterministic(co, space, TimeGrid.uniform(0.5, 160),
                                       u1, MEAS)
        rep = verification_run(sol.triplet, co, u1, MEAS, [0.0], 4000, 3)
        assert abs(rep.gap) <= 2e-2 + rep.ci

    def test_corrupted_candidate_detected(self):
        co = benchmark_coeffs()
        space = SpatialGrid([-3.0], [3.0], (241,))
        sol = solve_pide_deterministic(co, space, TimeGrid.uniform(0.5, 160),
                                       U2, MEAS)
        bad_v = sol.triplet.V.copy()
        bad_v[0] += 0.1
        bad = RandomFieldTriplet(space, sol.triplet.time_nodes, bad_v,
                                 sol.triplet.Phi, sol.triplet.Psi)
        rep = verification_run(bad, co, U2, MEAS, [0.0], 4000, 17)
        assert rep.gap == pytest.approx(-0.1, abs=2e-2 + rep.ci)


class TestPairedAlternatives:
    """Feedback and alternatives priced on one bank per replication."""

    def solve(self, u1):
        prob = build_problem("smooth1d")
        sol = solve_pide_deterministic(
            prob.coeffs, SpatialGrid([-3.0], [3.0], (41,)),
            TimeGrid.uniform(prob.horizon, 40), u1, prob.measure)
        return prob, sol

    def test_own_atom_has_zero_difference(self):
        u1 = ControlSet.singleton([0.2])
        prob, sol = self.solve(u1)
        rep = verification_run(sol.triplet, prob.coeffs, u1, prob.measure,
                               prob.x0, 400, 5, n_alternatives=2)
        for alt in rep.alternatives:
            assert alt["diff"] == 0.0 and alt["diff_ci"] == 0.0
            assert alt["j"] == rep.j_feedback and alt["ci"] == rep.ci
        assert rep.all_alternatives_dominated
        assert json.loads(rep.to_json())["all_alternatives_dominated"] is True

    def test_alternative_does_not_replay_another_seeds_feedback(self):
        # With integer replication seeds (seed + 7 + a) * 1000 + r, the
        # first alternative of seed s ran on the streams of seed s + 6's
        # feedback, so for the same control the two costs were equal.
        u1 = ControlSet.singleton([0.2])
        prob, sol = self.solve(u1)
        run = lambda seed: verification_run(
            sol.triplet, prob.coeffs, u1, prob.measure, prob.x0, 400, seed,
            n_alternatives=1)
        assert run(3).alternatives[0]["j"] != run(9).j_feedback

    def test_one_replication_refused(self):
        prob, sol = self.solve(U2)
        with pytest.raises(ValueError, match="n_rep"):
            verification_run(sol.triplet, prob.coeffs, U2, prob.measure,
                             prob.x0, 400, 5, n_rep=1)


class TestTripletCsv:
    def test_roundtrip(self, tmp_path):
        space = SpatialGrid([-1.0], [1.0], (5,))
        rng = np.random.default_rng(0)
        trip = RandomFieldTriplet(space, np.linspace(0, 1, 4),
                                  rng.standard_normal((4, 5)),
                                  rng.standard_normal((4, 1, 5)),
                                  rng.standard_normal((4, 2, 5)))
        path = tmp_path / "triplet.csv"
        trip.to_csv(path)
        back = RandomFieldTriplet.from_csv(path, space)
        np.testing.assert_allclose(back.V, trip.V)
        np.testing.assert_allclose(back.Phi, trip.Phi)
        np.testing.assert_allclose(back.Psi, trip.Psi)
