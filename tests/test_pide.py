import json
import os
import subprocess
import sys

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
from jumphjb.drivers import MarkMeasure, TimeGrid
from jumphjb.dpp import Lattice, compute_value_table
from jumphjb.errors import CflViolationError, ConfigError, NumericError
from jumphjb import pide
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
from test_dpp import time_varying_coeffs

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
        h = hamiltonian(co, 0.0, [[0.0]], [0.0], [[1.0]], None, [[[0.0]]], [0.0])
        assert h.shape == (1,) and h[0] == 0.0

    def test_drift_inner_product(self):
        co = make_coeffs(b=lambda t, x, u, nz: np.ones_like(x))
        h = hamiltonian(co, 0.0, [[0.0], [2.0]], [0.0], [[1.0], [-3.0]], None,
                        np.zeros((2, 1, 1)), [0.0, 0.0])
        assert h.tolist() == [1.0, -3.0]

    def test_duplicate_formula_oracle(self):
        # Independent re-implementation of the same formula on smooth
        # randomized inputs, one row at a time against one batch with a
        # per-row t.
        n, d = 2, 2
        co = make_coeffs(
            n=n, d=d, m=1,
            b=lambda t, x, u, nz: np.stack(
                [np.sin(x[..., 0]), np.cos(x[..., 1])], axis=-1) + 0.2 * u
                + 0.1 * np.reshape(t, (-1, 1)),
            sigma=lambda t, x, u, nz: np.stack([
                np.stack([1.0 + 0.1 * np.tanh(x[..., 0]),
                          0.2 * np.ones_like(x[..., 0])], axis=-1),
                np.stack([0.1 * x[..., 1], 0.8 * np.ones_like(x[..., 0])],
                         axis=-1)], axis=-2),
            f=lambda t, x, u, y, z, k, nz:
                y + z[..., 0] * z[..., 1] + 0.3 * k + x[..., 0] * u[..., 0] - 0.2 * t)
        rng = np.random.default_rng(0)
        rows = []
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
            rows.append((t, x, u, p, dphi, A, k, y, phi))
        ts, xs, us, ps, dphis, As, ks, ys, phis = (np.array(c) for c in zip(*rows))
        got = hamiltonian(co, ts, xs, us, ps, dphis, As, ks, y=ys, phi=phis)
        assert got.shape == (25,)
        for s, (t, x, u, p, dphi, A, k, y, phi) in enumerate(rows):
            b = co.b(t, x[None, :], u[None, :], None)[0]
            sig = co.sigma(t, x[None, :], u[None, :], None).reshape(n, d)
            z = sig.T @ p + phi
            fv = float(co.f(t, x[None, :], u[None, :], np.array([y]),
                            z[None, :], np.array([k]), None)[0])
            expect = (fv + p @ b + np.sum(dphi * sig)
                      + 0.5 * np.trace(A @ sig @ sig.T))
            assert got[s] == pytest.approx(expect, abs=1e-12)

    def test_linearity_in_p_and_hessian(self):
        # With f = 0 the <p, b> and trace terms are linear in (p, A).
        co = make_coeffs(
            b=lambda t, x, u, nz: np.tanh(x),
            sigma=lambda t, x, u, nz: (0.5 + 0.1 * np.cos(x))[..., None])
        rng = np.random.default_rng(1)
        draws = [(rng.standard_normal(2), rng.standard_normal((2, 1)),
                  rng.standard_normal(2)) for _ in range(10)]
        (a, bcoef), (p1, p2), (A1, A2) = (np.stack(c, axis=-1) for c in zip(*draws))
        x, k = np.full((10, 1), 0.3), np.zeros(10)

        def ham(p, A):
            return hamiltonian(co, 0.0, x, [0.0], p.T, None, A.reshape(10, 1, 1), k)

        h_combo = ham(a * p1 + bcoef * p2, a * A1 + bcoef * A2)
        h_split = a * ham(p1, A1) + bcoef * ham(p2, A2)
        np.testing.assert_allclose(h_combo, h_split, rtol=0, atol=1e-12)

    def test_asymmetric_hessian_rejected(self):
        co = make_coeffs(n=2, d=1)
        hess = np.array([[[1.0, 0.5], [0.5, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError):
            hamiltonian(co, 0.0, np.zeros((2, 2)), [0.0], np.zeros((2, 2)), None,
                        hess, np.zeros(2))

    def test_nonfinite_rejected(self):
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: np.where(x[:, 0] > 0, 0.0, np.nan))
        with pytest.raises(NumericError, match="Hamiltonian"):
            hamiltonian(co, 0.0, [[1.0], [-1.0]], [0.0], np.zeros((2, 1)), None,
                        np.zeros((2, 1, 1)), np.zeros(2))


class TestNonlocal:
    def test_zero_g(self):
        space = SpatialGrid([-2.0], [2.0], (41,))
        co = make_coeffs(rho=np.array([0.0]))
        res = nonlocal_apply(space, space.nodes()[:, 0] ** 2, co, 0.0,
                             [[0.3], [-1.1]], [0.0], MEAS)
        assert res.per_atom.shape == (2, 1) and np.all(res.per_atom == 0.0)
        for term in (res.integral, res.compensated, res.weighted, res.psi):
            assert term.tolist() == [0.0, 0.0]

    def test_constant_field(self):
        space = SpatialGrid([-2.0], [2.0], (41,))
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.5 * np.ones_like(x),
                         rho=np.array([0.0]))
        res = nonlocal_apply(space, np.full(41, 3.0), co, 0.0, [[0.3], [1.9]],
                             [0.0], MEAS)
        assert np.all(res.per_atom == 0.0) and np.all(res.weighted == 0.0)

    def test_linear_exactness(self):
        # V(x) = x, g = e: I V = e and the compensated term vanishes.
        space = SpatialGrid([-3.0], [3.0], (61,))
        co = make_coeffs(g=lambda t, e, x, u, nz: e[0] * np.ones_like(x),
                         rho=np.array([0.0]))
        res = nonlocal_apply(space, space.nodes()[:, 0], co, 0.0,
                             [[0.4], [-2.0], [1.05]], [0.0], MEAS)
        np.testing.assert_allclose(res.per_atom[:, 0], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.compensated, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.integral, 0.3, rtol=0, atol=1e-12)
        assert res.clamped == 0

    def test_affine_exactness_with_psi(self):
        space = SpatialGrid([-3.0], [3.0], (121,))
        xs = space.nodes()[:, 0]
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.5 * np.ones_like(x),
                         l=lambda t, e: 2.0, rho=np.array([0.0]))
        v = 1.0 + 2.0 * xs
        psi = (0.5 - 0.25 * xs)[None, :]
        x = np.array([[0.2], [-1.0]])
        res = nonlocal_apply(space, v, co, 0.0, x, [0.0], MEAS, psi_slice=psi)
        # I V = 2 * 0.5 = 1; psi(x + 0.5) = 0.5 - 0.25 (x + 0.5); I Psi = -0.125.
        np.testing.assert_allclose(res.per_atom[:, 0], 1.0, rtol=0, atol=1e-12)
        expect = 0.3 * 2.0 * (1.0 + 0.5 - 0.25 * (x[:, 0] + 0.5))
        np.testing.assert_allclose(res.weighted, expect, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.psi, 0.3 * -0.125, rtol=0, atol=1e-12)

    def test_nodes_read_exactly(self):
        # x = None reads V and Psi at the nodes as they are; the same
        # nodes passed as points are interpolated, which agrees up to
        # rounding, and a per-row control gives each row its own g.
        space = SpatialGrid([-3.0], [3.0], (41,))
        rng = np.random.default_rng(2)
        v, psi = rng.standard_normal(41), rng.standard_normal((1, 41))
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.1 * u, rho=np.array([0.0]))
        u = rng.uniform(-1, 1, (41, 1))
        on_nodes = nonlocal_apply(space, v, co, 0.0, None, u, MEAS, psi_slice=psi)
        at_points = nonlocal_apply(space, v, co, 0.0, space.nodes(), u, MEAS,
                                   psi_slice=psi)
        shifted, _ = space.interpolate(v, space.nodes() + 0.1 * u)
        np.testing.assert_array_equal(on_nodes.per_atom[:, 0], shifted - v)
        for name in ("per_atom", "integral", "compensated", "weighted", "psi"):
            np.testing.assert_allclose(getattr(on_nodes, name), getattr(at_points, name),
                                       rtol=0, atol=1e-12)


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

    def test_nonfinite_hamiltonian_of_any_control_refused(self):
        # Only the second control's driver is NaN, so the minimum over the
        # controls would be finite; the Hamiltonian refuses it anyway.
        space = SpatialGrid([-2.0], [2.0], (21,))
        co = make_coeffs(
            f=lambda t, x, u, y, z, k, nz: np.where(u[:, 0] > 0, np.nan, 0.0),
            rho=np.array([0.0]))
        tg = TimeGrid.uniform(1.0, 5)
        trip = RandomFieldTriplet.deterministic(space, tg.nodes, np.ones((6, 21)), 1)
        with pytest.raises(NumericError, match="Hamiltonian"):
            drift_consistency_residual(trip, np.zeros((5, 21)), co, U2, MEAS)

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

    @staticmethod
    def wide_triplet(space, n_times=4):
        """Fields spanning 1e-300 to 1e300, negative zero and signs included."""
        rng = np.random.default_rng(3)

        def field(*shape):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
            v.flat[0] = -0.0
            return v

        return RandomFieldTriplet(space, np.array([0.0, 0.1, 0.25, 1 / 3])[:n_times],
                                  field(n_times, *space.shape),
                                  field(n_times, 2, *space.shape),
                                  field(n_times, 1, *space.shape))

    @pytest.mark.parametrize("shape", [(6,), (3, 4)])
    def test_interleaved_times_read_back_bitwise(self, tmp_path, shape):
        space = SpatialGrid([-1.0] * len(shape), [1.0] * len(shape), shape)
        trip = self.wide_triplet(space)
        path = tmp_path / "triplet.csv"
        trip.to_csv(path)
        header, *body = path.read_text().splitlines()
        pts = int(np.prod(shape))
        # Row r of every time, then row r + 1 of every time, ...
        mixed = [body[i * pts + r] for r in range(pts) for i in range(4)]
        path.write_text("\n".join([header] + mixed) + "\n")
        back = RandomFieldTriplet.from_csv(path, space)
        for name in ("time_nodes", "V", "Phi", "Psi"):
            assert getattr(back, name).tobytes() == getattr(trip, name).tobytes(), name

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    def test_missing_row_is_refused(self, tmp_path):
        space = SpatialGrid([-1.0], [1.0], (6,))
        path = tmp_path / "triplet.csv"
        self.wide_triplet(space).to_csv(path)
        lines = path.read_text().splitlines()
        for kept in (lines[:5] + lines[6:], lines[:1]):
            path.write_text("\n".join(kept) + "\n")
            with pytest.raises(ValueError, match="do not fill the spatial grid"):
                RandomFieldTriplet.from_csv(path, space)


def reference_pide(coeffs, space, time_grid, control_set, measure):
    """The explicit scheme with its difference stencils rebuilt per step.

    One-sided and centered differences per axis with the linear-ghost
    edges, central second differences at interior nodes, the cross
    term for n = 2 and the shifted values interpolated afresh.  Returns
    (V, argmin, clamped, margin), where margin is the gap between the
    two best totals of each node (inf with one control).
    """
    X = space.nodes()
    C = X.shape[0]
    n, d = coeffs.n, coeffs.d
    h = space.widths
    N = time_grid.n_steps
    V = np.empty((N + 1,) + space.shape)
    argmin = np.empty((N, C), dtype=int)
    margin = np.empty((N, C))
    V[N] = coeffs.h(X, None).reshape(space.shape)
    clamped = 0
    for i in range(N - 1, -1, -1):
        t, dt = float(time_grid.nodes[i]), float(time_grid.dt[i])
        v_next = V[i + 1]
        flat_next = v_next.ravel()
        l_vals = [float(coeffs.l(t, mark)) for mark in measure.marks]
        fwd, bwd, second = [], [], []
        for k in range(n):
            diff = np.diff(v_next, axis=k) / h[k]
            first = np.take(diff, [0], axis=k)
            last = np.take(diff, [-1], axis=k)
            fwd.append(np.concatenate([diff, last], axis=k).ravel())
            bwd.append(np.concatenate([first, diff], axis=k).ravel())
            d2 = np.zeros(space.shape)
            inner = [slice(None)] * n
            inner[k] = slice(1, -1)
            d2[tuple(inner)] = np.diff(v_next, 2, axis=k) / h[k] ** 2
            second.append(d2.ravel())
        cross = (np.gradient(np.gradient(v_next, h[0], axis=0), h[1], axis=1).ravel()
                 if n == 2 else None)
        totals = []
        for u in control_set.atoms:
            b_tilde, gs = compensated_drift(coeffs, measure, t, X, u, None)
            sig = batch_eval(coeffs.sigma, t, X, u, None, (n, d))
            a = np.einsum("cij,ckj->cik", sig, sig)
            total = np.zeros(C)
            dv = np.empty((C, n))
            for k in range(n):
                bk = b_tilde[:, k]
                total += np.where(bk >= 0.0, bk * fwd[k], bk * bwd[k])
                total += 0.5 * a[:, k, k] * second[k]
                dv[:, k] = 0.5 * (fwd[k] + bwd[k])
            if cross is not None:
                total += a[:, 0, 1] * cross
            k_agg = np.zeros(C)
            for j, gj in enumerate(gs):
                v_shift, cl = space.interpolate(v_next, X + gj)
                clamped += cl
                total += measure.weights[j] * (v_shift - flat_next)
                k_agg += measure.weights[j] * l_vals[j] * (v_shift - flat_next)
            z_slot = np.einsum("cij,ci->cj", sig, dv)
            f_val = coeffs.f(t, X, broadcast_control(u, C), flat_next, z_slot, k_agg, None)
            totals.append(total + np.asarray(f_val, dtype=float).reshape(C))
        totals = np.array(totals)
        argmin[i] = totals.argmin(axis=0)
        V[i] = v_next + dt * totals.min(axis=0).reshape(space.shape)
        ordered = np.sort(totals, axis=0)
        margin[i] = ordered[1] - ordered[0] if len(totals) > 1 else np.inf
    return V, argmin, clamped, margin


def two_dim_coeffs():
    """Two states with correlated diffusion (a cross term), two atoms."""
    return make_coeffs(
        n=2, d=2, m=1,
        b=lambda t, x, u, nz: np.stack(
            [0.3 * np.tanh(x[..., 1]) + u[:, 0], -0.2 * x[..., 0]], axis=-1),
        sigma=lambda t, x, u, nz: np.stack([
            np.stack([0.4 + 0.1 * np.cos(x[..., 0]), 0.1 + 0.0 * x[..., 0]], axis=-1),
            np.stack([0.2 + 0.1 * t + 0.0 * x[..., 0], 0.3 + 0.0 * x[..., 0]], axis=-1)],
            axis=-2),
        g=lambda t, e, x, u, nz: np.stack(
            [0.2 * e[0] + 0.0 * x[..., 0], -0.1 * x[..., 1]], axis=-1),
        f=lambda t, x, u, y, z, k, nz:
            x[..., 0] ** 2 + 0.3 * u[:, 0] * x[..., 1] + 0.1 * z[..., 0] + 0.05 * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2 - x[..., 1] ** 2),
        l=lambda t, e: 1.0 + t,
        rho=np.array([0.0]))


def pide_reference_cases():
    smooth, linear = build_problem("smooth1d"), build_problem("linear1d")
    space = SpatialGrid([-3.0], [3.0], (121,))
    return {
        "smooth1d": (smooth.coeffs, space, TimeGrid.uniform(smooth.horizon, 80),
                     smooth.control_set, smooth.measure),
        "linear1d": (linear.coeffs, SpatialGrid([-2.0], [2.0], (61,)),
                     TimeGrid.uniform(linear.horizon, 120), linear.control_set,
                     linear.measure),
        "time-varying": (time_varying_coeffs(), space, TimeGrid.uniform(0.5, 100),
                         U2, MEAS),
        "l-only": (time_varying_coeffs(0.0, 0.0), space, TimeGrid.uniform(0.5, 80),
                   U2, MEAS),
        "g-moving": (time_varying_coeffs(g_t=0.4), space, TimeGrid.uniform(0.5, 100),
                     U2, MEAS),
        "two-dim": (two_dim_coeffs(), SpatialGrid([-2.0, -2.0], [2.0, 2.0], (21, 17)),
                    TimeGrid.uniform(0.3, 40), ControlSet.from_1d(-0.5, 0.5, 3),
                    MarkMeasure.from_atoms([((1.0,), 0.3), ((-1.0,), 0.2)])),
    }


class TestReferenceStencil:
    """The cached node operators against the per-step stencils.

    Gates, fixed before the first comparison: V within 1e-12 of max|V|,
    argmin identical except where the two best totals are within 1e-12
    of max|V|, clamped counts equal.
    """

    @pytest.mark.parametrize("case", sorted(pide_reference_cases()))
    def test_matches_per_step_stencil(self, case):
        args = pide_reference_cases()[case]
        sol = solve_pide_deterministic(*args)
        V, argmin, clamped, margin = reference_pide(*args)
        scale = np.max(np.abs(V))
        assert np.max(np.abs(sol.triplet.V - V)) <= 1e-12 * scale
        same = sol.argmin.reshape(argmin.shape) == argmin
        assert np.all(same | (margin <= 1e-12 * scale))
        assert sol.clamped == clamped > 0


class TestCflEveryStep:
    def test_refuses_a_diffusion_peak_between_probe_times(self):
        # sigma is 0.4 at t = 0, T/2 and T but peaks at 2.4 at t = T/4,
        # where the monotone bound is about 12x below dt; the error
        # suggests the bound of the peak step, the smallest of all.
        T, lam, g = 0.5, 0.3, 0.25
        co = make_coeffs(
            sigma=lambda t, x, u, nz: np.full(
                x.shape + (1,), 0.4 + 2.0 * np.exp(-((t - T / 4) / 0.03) ** 2)),
            g=lambda t, e, x, u, nz: g * np.ones_like(x),
            h=lambda x, nz: np.exp(-x[..., 0] ** 2), rho=np.array([0.0]))
        space = SpatialGrid([-3.0], [3.0], (121,))
        h = space.widths[0]
        peak = 1.0 / (lam + lam * g / h + 2.4 ** 2 / h ** 2)
        with pytest.raises(CflViolationError) as ei:
            solve_pide_deterministic(co, space, TimeGrid.uniform(T, 100),
                                     ControlSet.singleton([0.0]),
                                     MarkMeasure.from_atoms([((1.0,), lam)]))
        assert ei.value.suggested_dt == pytest.approx(peak, rel=1e-12)
        assert ei.value.suggested_dt < 4.4e-4


@st.composite
def inward_drift_draws(draw):
    """Coefficients whose compensated drift points into [-2, 2] at both
    edges for every control, a step inside the monotone bound, and a
    pair of ordered terminals h1 <= h2."""
    unit = st.floats(-1.0, 1.0)
    c0, s0, s1, g0, f0, f1, h0, h1 = (draw(unit) for _ in range(8))
    kappa = draw(st.floats(0.5, 2.0))
    weight = draw(st.floats(0.05, 1.0))
    bump = draw(st.floats(0.0, 0.5))
    shift = draw(st.floats(-2.0, 2.0))
    # |c + u - w g| <= 0.3 + 0.3 + 0.3 < 2 kappa, so b~ > 0 at x = -2
    # and b~ < 0 at x = 2.
    coeffs = make_coeffs(
        b=lambda t, x, u, nz: -kappa * x + 0.3 * c0 + u[:, 0:1],
        sigma=lambda t, x, u, nz: (0.3 * abs(s0) + 0.2 * s1 * np.sin(x))[..., None],
        g=lambda t, e, x, u, nz: 0.3 * g0 * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz: f0 * np.sin(x[..., 0]) + f1 * u[:, 0] * x[..., 0],
        h=lambda x, nz: h0 * np.cos(x[..., 0]) + h1 * x[..., 0] / 3.0,
        rho=np.array([0.0]))
    higher = coeffs.with_terminal(
        lambda x, nz: coeffs.h(x, nz) + bump * np.exp(-(x[..., 0] - shift) ** 2))
    space = SpatialGrid([-2.0], [2.0], (41,))
    h = space.widths[0]
    worst = weight + (2.0 * kappa + 0.9) / h + (0.3 * abs(s0) + 0.2 * abs(s1)) ** 2 / h ** 2
    n_steps = int(np.ceil(0.4 * worst / 0.9))
    return coeffs, higher, space, TimeGrid.uniform(0.4, n_steps), \
        MarkMeasure.from_atoms([((1.0,), weight)])


@settings(max_examples=60, deadline=None)
@given(inward_drift_draws())
def test_pide_monotone_in_terminal(draw):
    # Inside the bound, with the drift pointing inward at the edges,
    # every row of I + dt L_u is nonnegative, so h1 <= h2 gives
    # V1 <= V2 on every slice when f reads only (x, u).
    lower, higher, space, tg, measure = draw
    u2 = ControlSet.from_1d(-0.3, 0.3, 2)
    v1 = solve_pide_deterministic(lower, space, tg, u2, measure).triplet.V
    v2 = solve_pide_deterministic(higher, space, tg, u2, measure).triplet.V
    assert np.all(v1 <= v2 + 1e-12 * np.max(np.abs(v2)))


def test_value_solvers_load_no_scipy():
    """The value solvers stay on numpy.

    Importing ``scipy.sparse`` after numpy takes 0.15-0.18 s and adds
    about 22 MB to the peak resident memory of the process (three runs
    on a 2-vCPU VM), half again the 43 MB peak of a whole ``dpp_ladder``
    benchmark run, so the operators are plain numpy arrays.
    """
    code = (
        "import sys\n"
        "from jumphjb.problems import build_problem\n"
        "from jumphjb.dpp import Lattice, compute_value_table\n"
        "from jumphjb.drivers import TimeGrid\n"
        "from jumphjb.pide import SpatialGrid, solve_pide_deterministic\n"
        "p = build_problem('smooth1d')\n"
        "compute_value_table(p.coeffs, p.control_set, Lattice([-3.0], [3.0], (20,)),\n"
        "                    TimeGrid.uniform(p.horizon, 4), p.measure)\n"
        "solve_pide_deterministic(p.coeffs, SpatialGrid([-3.0], [3.0], (21,)),\n"
        "                         TimeGrid.uniform(p.horizon, 10), p.control_set,\n"
        "                         p.measure)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("family", ["smooth1d", "linear1d", "exp_decay", "zero"])
def test_default_grid_builds_once_per_control(family, monkeypatch):
    # The coefficients of every built-in family are constant in t, so
    # one generator and one set of jump shifts per control serve all
    # steps of its default grid, whose steps differ by rounding only.
    calls = []
    for name in ("_local_generator", "_jump_shifts"):
        build = getattr(pide, name)
        monkeypatch.setattr(pide, name, lambda *a, _b=build, _n=name:
                            calls.append(_n) or _b(*a))
    p = build_problem(family)
    solve_pide_deterministic(
        p.coeffs, SpatialGrid([p.space_low], [p.space_high], (p.space_nodes,)),
        TimeGrid.uniform(p.horizon, p.n_steps), p.control_set, p.measure)
    n_u = p.control_set.n_atoms
    assert calls.count("_local_generator") == calls.count("_jump_shifts") == n_u
