import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jumphjb.bsde as bsde_module
from jumphjb.bsde import (
    NodeRegression,
    PolynomialBasis,
    backward_semigroup,
    comparison_check,
    mean_ci,
    price,
    replicate,
    solve_bsde,
)
from jumphjb.dpp import FeedbackPolicy, Lattice
from jumphjb.drivers import MarkMeasure, TimeGrid, child_seed, draw_noise
from jumphjb.forward import (ConstantControl, Control, FeedbackControl, OpenLoopControl,
                             simulate_batch)
from jumphjb.problems import build_problem

from conftest import make_coeffs

MEAS = MarkMeasure.from_atoms([((1.0,), 1.0)])
U0 = ConstantControl([0.0])


def diffusion_coeffs(**kw):
    kw.setdefault("sigma", lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)))
    kw.setdefault("g", lambda t, e, x, u, nz: 0.1 * np.ones_like(x))
    kw.setdefault("rho", np.array([0.0]))
    return make_coeffs(**kw)


class TestBasis:
    def test_feature_count(self):
        basis = PolynomialBasis(degree=3)
        assert basis.n_features(1) == 4
        assert basis.n_features(2) == 10

    def test_affine_exactness(self):
        basis = PolynomialBasis(degree=1, ridge=0.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 2))
        y = 3.0 + x @ np.array([1.5, -2.0])
        reg = basis.regressor(basis.features(x, None))
        pred = reg.predict(y[None])[0]
        np.testing.assert_allclose(pred, y, atol=1e-10)

    def test_ridge_keeps_constant_targets(self):
        # The ridge leaves the intercept alone, so a constant target is
        # reproduced at every node of a batch, including nodes whose
        # non-constant features are all zero (node 0 of a fixed start).
        prob = build_problem("random_terminal")
        grid = TimeGrid.uniform(prob.horizon, 8)
        batch = simulate_batch(prob.coeffs, U0, prob.x0, grid, prob.measure, 500, 3)
        basis = PolynomialBasis()
        for i in range(9):
            nz = batch.noise_state(i, prob.coeffs.randomness_channels)
            reg = basis.regressor(basis.features(batch.states[i], nz.values))
            for c in (1.0, -0.37, 2.5e3):
                pred = reg.predict(np.full((1, 500), c))
                np.testing.assert_allclose(pred, c, rtol=1e-15, atol=0)


class TestNodeRegressionOracle:
    """Each group's fit against ``np.linalg.lstsq`` on its centred features.

    Features are rows, (p, C*M).  Group 0 is well conditioned, group 1
    has a feature that is constant on its columns (the infinite-scale
    path) and group 2 has two equal +-1 features, whose Gram matrix
    fails the Cholesky factorisation exactly (pivot 64 - 8 * 8 = 0), so
    it alone takes the ridge fallback.  The ridge is far below rounding,
    so it biases no fit.  Gate, fixed before the first run: every fitted
    value within 1e-10 of max|fit| of its group.
    """

    M = 64

    def features(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3, self.M))
        x[1, 1] = 0.7
        x[2, 1] = x[2, 2] = rng.permutation(np.repeat([-1.0, 1.0], self.M // 2))
        phi = np.concatenate([np.ones((3, 1, self.M)), x], axis=1)
        return phi.transpose(1, 0, 2).reshape(4, 3 * self.M), rng

    def test_groups_match_lstsq(self):
        phi, rng = self.features()
        reg = NodeRegression(phi, 1e-20, groups=3)
        assert reg.ridge_fallback.tolist() == [False, False, True]
        cols = phi[1:].reshape(3, 3, self.M)
        targets = np.stack([np.sin(phi[1]) + phi[2] * phi[3],
                            rng.standard_normal(3 * self.M)])
        fit = reg.predict(targets).reshape(2, 3, self.M)
        for c in range(3):
            t = targets.reshape(2, 3, self.M)[:, c].T
            centred = (cols[:, c] - cols[:, c].mean(axis=1, keepdims=True)).T
            mean = t.mean(axis=0)
            coef = np.linalg.lstsq(centred, t - mean, rcond=None)[0]
            expect = (mean + centred @ coef).T
            assert np.max(np.abs(fit[:, c] - expect)) <= 1e-10 * np.max(np.abs(expect))


class TestSolveBsde:
    def test_constant_terminal(self):
        co = diffusion_coeffs(h=lambda x, nz: 7.0 * np.ones(x.shape[0]))
        batch = simulate_batch(co, U0, [0.5], TimeGrid.uniform(1.0, 20),
                               MEAS, 400, 42)
        sol = solve_bsde(co, U0, batch)
        assert sol.y0 == pytest.approx(7.0, abs=1e-5)
        assert np.max(np.abs(sol.Z)) < 1e-5
        assert np.max(np.abs(sol.K)) < 1e-5
        np.testing.assert_array_equal(sol.Y[-1], sol.terminal)

    def test_scalar_ode_oracle(self):
        # f = -r y, h = 1: Y(t) = exp(-r (T - t)).
        r = 0.1
        co = diffusion_coeffs(
            g=lambda t, e, x, u, nz: np.zeros_like(x),
            f=lambda t, x, u, y, z, k, nz: -r * y,
            h=lambda x, nz: np.ones(x.shape[0]))
        batch = simulate_batch(co, U0, [0.0], TimeGrid.uniform(1.0, 200),
                               MarkMeasure.empty(), 1000, 1)
        sol = solve_bsde(co, U0, batch, keep_paths=False)
        assert abs(sol.y0 - np.exp(-r)) / np.exp(-r) < 1e-3

    def test_martingale_representation_mean(self):
        # dX = int e mu~(de, dt), f = 0, h(x) = x: Y(0) = x0 within CI.
        co = make_coeffs(
            g=lambda t, e, x, u, nz: e[0] * np.ones_like(x),
            h=lambda x, nz: x[..., 0],
            rho=np.array([0.0]))
        batch = simulate_batch(co, U0, [2.0], TimeGrid.uniform(1.0, 20),
                               MEAS, 4000, 9)
        sol = solve_bsde(co, U0, batch)
        xt = batch.states[-1, :, 0]
        assert abs(sol.y0 - 2.0) < 3.5 * xt.std() / np.sqrt(xt.size)
        # K(e) estimates the unit jump of Y = X.
        assert abs(sol.k0[0] - 1.0) < 0.15

    def test_terminal_exactness_per_sample(self):
        co = diffusion_coeffs(h=lambda x, nz: np.cos(x[..., 0]))
        batch = simulate_batch(co, U0, [0.3], TimeGrid.uniform(1.0, 10),
                               MEAS, 300, 4)
        sol = solve_bsde(co, U0, batch)
        np.testing.assert_array_equal(sol.Y[-1], np.cos(batch.states[-1, :, 0]))

    def test_jump_free_matches_reference(self):
        # With nu(E) = 0 the solver must reproduce an independent
        # jump-free regression solve on the same paths to 1e-10: the
        # linear systems are identical.
        co = make_coeffs(
            b=lambda t, x, u, nz: 0.2 * x,
            sigma=lambda t, x, u, nz: (0.3 + 0.1 * np.tanh(x))[..., None],
            f=lambda t, x, u, y, z, k, nz: -0.2 * y + 0.1 * z[..., 0],
            h=lambda x, nz: np.tanh(x[..., 0]))
        grid = TimeGrid.uniform(1.0, 25)
        batch = simulate_batch(co, U0, [0.4], grid, MarkMeasure.empty(), 500, 6)
        basis = PolynomialBasis(degree=3, ridge=1e-8)
        sol = solve_bsde(co, U0, batch, basis)

        y = np.tanh(batch.states[-1, :, 0])
        for i in range(24, -1, -1):
            dt = float(grid.dt[i])
            phi = basis.features(batch.states[i], None)
            reg = NodeRegression(phi, basis.ridge)
            y_proj = reg.predict(y[None])[0]
            z = reg.predict(((y - y_proj) * batch.dw[i, :, 0])[None])[0] / dt
            y = y_proj + (-0.2 * y_proj + 0.1 * z) * dt
        assert np.max(np.abs(y - sol.Y[0])) < 1e-10

    def test_stability_under_doubling(self):
        co = diffusion_coeffs(
            f=lambda t, x, u, y, z, k, nz: -0.1 * y + 0.2 * k,
            h=lambda x, nz: x[..., 0] ** 2)
        grid = TimeGrid.uniform(1.0, 20)
        y0 = []
        for M in (2000, 4000):
            batch = simulate_batch(co, U0, [0.5], grid, MEAS, M, 3)
            y0.append(solve_bsde(co, U0, batch, keep_paths=False).y0)
        reps = []
        for r in range(8):
            b = simulate_batch(co, U0, [0.5], grid, MEAS, 500, 100 + r)
            reps.append(solve_bsde(co, U0, b, keep_paths=False).y0)
        half_width = 2.0 * np.std(reps, ddof=1) / np.sqrt(2.0)
        assert abs(y0[1] - y0[0]) <= half_width


class TestBackwardSemigroup:
    def test_delta_zero_identity(self):
        co = diffusion_coeffs()
        grid = TimeGrid.uniform(1.0, 10)
        v = backward_semigroup(co, U0, grid, MEAS, 4, [1.5], 0,
                               lambda x: x[:, 0] ** 2, 50, 1)
        assert v == 2.25

    def test_zero_dynamics_identity(self):
        co = make_coeffs()
        grid = TimeGrid.uniform(1.0, 10)
        v = backward_semigroup(co, U0, grid, MarkMeasure.empty(), 2, [1.5], 5,
                               lambda x: np.sin(x[:, 0]), 200, 1)
        assert v == pytest.approx(np.sin(1.5), abs=1e-6)

    def test_composition(self):
        # G_{t,t+2delta}[h] vs G_{t,t+delta}[G_{t+delta,t+2delta}[h]] on
        # a smooth 1-d problem, inner values interpolated in x.
        co = make_coeffs(
            b=lambda t, x, u, nz: -0.3 * x,
            sigma=lambda t, x, u, nz: 0.25 * np.ones(x.shape + (1,)),
            f=lambda t, x, u, y, z, k, nz: -0.2 * y,
        )
        grid = TimeGrid.uniform(1.0, 16)
        meas = MarkMeasure.empty()
        eta = lambda x: np.cos(x[:, 0])
        direct = backward_semigroup(co, U0, grid, meas, 4, [0.3], 8, eta, 40000, 7)

        xs = np.linspace(-1.2, 1.8, 25)
        inner = np.array([
            backward_semigroup(co, U0, grid, meas, 8, [xv], 4, eta, 8000, 1000 + i)
            for i, xv in enumerate(xs)])
        eta2 = lambda x: np.interp(x[:, 0], xs, inner)
        nested = backward_semigroup(co, U0, grid, meas, 4, [0.3], 4, eta2, 40000, 7)
        assert abs(direct - nested) < 0.01


class TestPrice:
    """``price`` is simulate_batch + solve_bsde on the bank's batch, bit for bit."""

    GRID = TimeGrid.uniform(1.0, 10)

    @pytest.mark.parametrize("name", ["smooth1d", "random_terminal"])
    def test_matches_simulate_then_solve(self, name):
        prob = build_problem(name)
        control = FeedbackControl(lambda t, x: -0.5 * x)
        bank = draw_noise(self.GRID, prob.coeffs.d, prob.measure, 300, 5, 2, 8)
        batch = simulate_batch(prob.coeffs, control, prob.x0, self.GRID,
                               prob.measure, 300, 5, start_node=2, end_node=8)
        assert (price(prob.coeffs, control, prob.x0, bank)
                == solve_bsde(prob.coeffs, control, batch).y0)
        eta = lambda x: np.cos(x[:, 0])
        assert (price(prob.coeffs, control, prob.x0, bank, terminal=eta)
                == solve_bsde(prob.coeffs, control, batch,
                              terminal_values=eta(batch.states[-1])).y0)

    def test_semigroup_is_price_on_a_fresh_bank(self):
        co = diffusion_coeffs(f=lambda t, x, u, y, z, k, nz: -0.2 * y)
        eta = lambda x: np.sin(x[:, 0])
        bank = draw_noise(self.GRID, 1, MEAS, 200, 3, 4, 7)
        assert (backward_semigroup(co, U0, self.GRID, MEAS, 4, [0.2], 3, eta, 200, 3)
                == price(co, U0, [0.2], bank, terminal=eta))


class TestReplicate:
    GRID = TimeGrid.uniform(1.0, 6)
    CONTROLS = [ConstantControl([0.0]), ConstantControl([0.5])]

    def coeffs(self):
        return diffusion_coeffs(b=lambda t, x, u, nz: u[:, 0:1] * np.ones_like(x),
                                f=lambda t, x, u, y, z, k, nz: x[..., 0] ** 2,
                                h=lambda x, nz: x[..., 0] ** 2)

    def test_rows_price_every_control_on_one_spawned_bank(self, monkeypatch):
        co = self.coeffs()
        seeds = []

        def recording_draw(*args):
            seeds.append(args[4])
            return draw_noise(*args)

        monkeypatch.setattr(bsde_module, "draw_noise", recording_draw)
        costs = replicate(co, self.CONTROLS, [0.1], self.GRID, MEAS, 120, 9,
                          n_rep=3, start_node=1)
        assert costs.shape == (3, 2)
        assert [(s.entropy, s.spawn_key) for s in seeds] == [(9, (r,)) for r in range(3)]
        for r in range(3):
            bank = draw_noise(self.GRID, 1, MEAS, 40, child_seed(9, r), 1)
            for k, c in enumerate(self.CONTROLS):
                assert costs[r, k] == price(co, c, [0.1], bank)

    def test_oversized_batch_refused_before_drawing(self, monkeypatch):
        # The bank alone fits under the cap, the whole batch does not: both
        # bank-drawing pricers refuse before the first path is drawn.
        import jumphjb.drivers as drivers
        co = self.coeffs()
        noise = 50 * 5 * (8.0 + 1)  # 8 bytes per increment, 1 per count
        monkeypatch.setattr(drivers, "MAX_BATCH_BYTES", noise + 8.0 * 50 * 3)
        drawn = []
        monkeypatch.setattr(bsde_module, "draw_noise",
                            lambda *a, **kw: drawn.append(a) or draw_noise(*a, **kw))
        with pytest.raises(MemoryError):
            replicate(co, self.CONTROLS, [0.1], self.GRID, MEAS, 200, 1, start_node=1)
        with pytest.raises(MemoryError):
            backward_semigroup(co, U0, self.GRID, MEAS, 1, [0.1], 5,
                               lambda x: x[:, 0], 50, 1)
        assert drawn == []

    def test_stacks_split_under_the_cap(self, monkeypatch):
        # Room for two of three controls per stack: each replication prices
        # a stack of two and then a stack of one, and the costs equal the
        # unsplit stack's bit for bit.  With no room for one control alone
        # nothing is drawn.
        import jumphjb.drivers as drivers
        co = self.coeffs()
        controls = self.CONTROLS + [FeedbackControl(lambda t, x: -x)]
        whole = replicate(co, controls, [0.1], self.GRID, MEAS, 120, 9, n_rep=3,
                          start_node=1)
        noise, states = 40 * 5 * (8.0 + 1), 8.0 * 40 * 6
        stacks, drawn = [], []
        monkeypatch.setattr(bsde_module, "simulate_batch",
                            lambda *a, **kw: stacks.append(len(a[1])) or simulate_batch(*a, **kw))
        monkeypatch.setattr(bsde_module, "draw_noise",
                            lambda *a, **kw: drawn.append(a) or draw_noise(*a, **kw))
        monkeypatch.setattr(drivers, "MAX_BATCH_BYTES", noise + 2 * states)
        split = replicate(co, controls, [0.1], self.GRID, MEAS, 120, 9, n_rep=3,
                          start_node=1)
        assert stacks == [2, 1] * 3
        assert np.array_equal(split, whole)
        stacks.clear()
        drawn.clear()
        monkeypatch.setattr(drivers, "MAX_BATCH_BYTES", noise + states - 1.0)
        with pytest.raises(MemoryError):
            replicate(co, controls, [0.1], self.GRID, MEAS, 120, 9, n_rep=3, start_node=1)
        assert drawn == [] and stacks == []

    @pytest.mark.parametrize("n_rep", [1, 0])
    def test_needs_two_replications(self, n_rep):
        with pytest.raises(ValueError, match="n_rep"):
            replicate(self.coeffs(), self.CONTROLS, [0.1], self.GRID, MEAS, 100, 1,
                      n_rep=n_rep)

    def test_mean_ci(self):
        mean, half = mean_ci(np.array([1.0, 2.0, 3.0, 6.0]))
        assert mean == 3.0
        assert half == pytest.approx(2.0 * np.std([1.0, 2.0, 3.0, 6.0], ddof=1) / 2.0)

    @settings(max_examples=200, deadline=None)
    @given(a=st.tuples(st.integers(0, 2**32), st.integers(0, 5000)),
           b=st.tuples(st.integers(0, 2**32), st.integers(0, 5000)))
    @example(a=(0, 1000), b=(1, 0))
    @example(a=(0, 0), b=(0, 1000))
    def test_bank_seeds_are_distinct(self, a, b):
        # Replication r of seed s draws its bank from child_seed(s, r); two
        # (s, r) pairs share no stream, also for r >= 1000, where the
        # integer seed (s + 1) * 1000 + r made (0, 1000) replay (1, 0).
        if a == b:
            return
        sa, sb = child_seed(*a), child_seed(*b)
        assert (sa.entropy, sa.spawn_key) != (sb.entropy, sb.spawn_key)
        assert not np.array_equal(sa.generate_state(4), sb.generate_state(4))
        # Nor does a bank's sample stream replay an unreplicated draw's.
        assert child_seed(sa, 0).spawn_key != child_seed(b[0], 0).spawn_key


class ChannelFeedback(Control):
    """A feedback that also reads the randomness channels, when there are any."""

    def value_batch(self, i, t, x, noise):
        u = -0.5 * x
        return u if noise is None else u + 0.2 * noise.values[:, :1]


def two_atom_problem():
    # Drift and jumps read both channels, also at event sub-steps.
    co = make_coeffs(d=2,
                     b=lambda t, x, u, nz: 0.3 * np.sin(x) + u[:, 0:1]
                     + 0.2 * nz.values[:, 0:1] + 0.05 * nz.values[:, 1:2],
                     sigma=lambda t, x, u, nz: np.stack(
                         [0.3 + 0.1 * np.tanh(x), 0.2 * np.ones_like(x)], axis=-1),
                     g=lambda t, e, x, u, nz: e[0] * 0.1 * (1.0 + 0.2 * x)
                     + 0.02 * nz.values[:, 1:2],
                     f=lambda t, x, u, y, z, k, nz: -0.2 * y + 0.1 * z[:, 1] + 0.3 * k
                     + x[..., 0] * u[:, 0],
                     h=lambda x, nz: np.cos(x[..., 0]),
                     l=lambda t, e: 0.5 + 0.25 * e[0] ** 2,
                     rho=np.array([0.02, 0.04]),
                     randomness_channels=("W2", "J"))
    meas = MarkMeasure.from_atoms([((1.0,), 1.5), ((-2.0,), 0.8)])
    return co, meas, np.array([0.2])


class TestStackedPrice:
    """Column k of a stacked ``price`` equals ``price`` of control k alone, bit for bit."""

    GRID = TimeGrid.uniform(0.5, 10)

    def controls(self, atoms):
        rng = np.random.default_rng(2)
        table = rng.integers(atoms.n_atoms, size=(self.GRID.n_steps, 12))
        return [ConstantControl([0.3]),
                OpenLoopControl(rng.uniform(-0.6, 0.6, (self.GRID.n_steps, 1))),
                FeedbackControl(lambda t, x: -0.5 * x),
                FeedbackPolicy(Lattice([-1.5], [1.5], (12,)), self.GRID, atoms, table),
                ChannelFeedback()]

    def setup(self, name):
        if name == "two_atoms":
            co, meas, x0 = two_atom_problem()
            return co, meas, x0, build_problem("smooth1d").control_set
        prob = build_problem(name)
        return prob.coeffs, prob.measure, prob.x0, prob.control_set

    @pytest.mark.parametrize("name,start,end,with_eta", [
        ("smooth1d", 0, 10, False),
        ("random_terminal", 0, 10, False),
        ("random_terminal", 3, 9, False),
        ("random_terminal", 3, 9, True),
        ("linear1d", 2, 10, True),
        ("two_atoms", 1, 10, False),
    ])
    def test_columns_equal_single_pricing(self, name, start, end, with_eta):
        co, meas, x0, atoms = self.setup(name)
        controls = self.controls(atoms)
        bank = draw_noise(self.GRID, co.d, meas, 300, 5, start, end)
        assert bank.event_row.size > 0
        eta = (lambda x: np.sin(2.0 * x[:, 0]) + x[:, 0] ** 2) if with_eta else None
        stacked = price(co, controls, x0, bank, terminal=eta)
        assert stacked.shape == (len(controls),)
        for k, c in enumerate(controls):
            assert stacked[k] == price(co, [c], x0, bank, terminal=eta)[0]

    @pytest.mark.parametrize("name", ["random_terminal", "two_atoms"])
    def test_groups_of_one_batch_equal_single_batches(self, name):
        # Group k of a stacked batch and its backward solve are the
        # one-control batch and solve, row for row; the noise is the
        # bank's, not tiled.
        co, meas, x0, atoms = self.setup(name)
        controls = self.controls(atoms)
        M, start = 200, 2
        bank = draw_noise(self.GRID, co.d, meas, M, 8, start)
        batch = simulate_batch(co, controls, x0, self.GRID, meas, M, 8, start, noise=bank)
        sol = solve_bsde(co, controls, batch)
        assert batch.groups == len(controls) and batch.n_samples == M * len(controls)
        assert batch.dw is bank.dw and batch.jump_counts is bank.counts
        if co.randomness_channels:
            assert batch.noise.shape == (self.GRID.n_steps - start + 1, M,
                                         len(co.randomness_channels))
        for k, c in enumerate(controls):
            one = simulate_batch(co, c, x0, self.GRID, meas, M, 8, start, noise=bank)
            ref = solve_bsde(co, c, one)
            rows = slice(k * M, (k + 1) * M)
            assert np.array_equal(batch.states[:, rows], one.states)
            assert all(np.array_equal(u[k], v[0])
                       for u, v in zip(batch.controls, one.controls))
            assert np.array_equal(sol.Y[:, rows], ref.Y)
            assert np.array_equal(sol.Z[:, rows], ref.Z)
            assert np.array_equal(sol.K[:, rows], ref.K)
            assert sol.y0s[k] == ref.y0

    def test_empty_control_list(self):
        co, meas, x0, _ = self.setup("smooth1d")
        bank = draw_noise(self.GRID, co.d, meas, 50, 1)
        assert price(co, [], x0, bank).shape == (0,)


class TestComparison:
    def test_equal_terminals(self):
        co = diffusion_coeffs()
        batch = simulate_batch(co, U0, [0.5], TimeGrid.uniform(1.0, 10),
                               MEAS, 200, 2)
        h = lambda x: x[:, 0] ** 2
        rep = comparison_check(co, U0, batch, h, h)
        assert rep.margin == 0.0 and rep.passed

    def test_shift_gap_exact_for_zero_driver(self):
        co = diffusion_coeffs()
        batch = simulate_batch(co, U0, [0.5], TimeGrid.uniform(1.0, 10),
                               MEAS, 200, 2)
        rep = comparison_check(co, U0, batch, lambda x: x[:, 0] ** 2,
                               lambda x: x[:, 0] ** 2 + 1.0)
        assert rep.terminal_ordered
        assert rep.margin == pytest.approx(1.0, abs=1e-6)
        assert rep.passed

    def test_monotone_driver_ordered_all_seeds(self):
        co = diffusion_coeffs(f=lambda t, x, u, y, z, k, nz: y)
        grid = TimeGrid.uniform(1.0, 8)
        for s in range(100):
            batch = simulate_batch(co, U0, [0.2], grid, MEAS, 150, s)
            rep = comparison_check(co, U0, batch,
                                   lambda x: np.sin(x[:, 0]),
                                   lambda x: np.sin(x[:, 0]) + 0.5)
            assert rep.margin > 0.0

    def test_ordering_every_seed_zero_driver(self):
        co = diffusion_coeffs()
        grid = TimeGrid.uniform(1.0, 8)
        for s in range(50):
            batch = simulate_batch(co, U0, [0.2], grid, MEAS, 100, s)
            rep = comparison_check(co, U0, batch,
                                   lambda x: x[:, 0] ** 2,
                                   lambda x: x[:, 0] ** 2 + np.cos(x[:, 0]) + 1.1)
            assert rep.margin > 0.0


class TestSummary:
    def test_json_summary(self):
        co = diffusion_coeffs(h=lambda x, nz: x[..., 0])
        batch = simulate_batch(co, U0, [0.5], TimeGrid.uniform(1.0, 5),
                               MEAS, 100, 11)
        sol = solve_bsde(co, U0, batch)
        s = sol.summary()
        assert set(s) == {"Y0", "Z0", "K0", "diagnostics"}
        assert s["diagnostics"]["nodes"] == 5


class TestJumpClosedFormSeeds:
    """Y(0) of a jump-diffusion BSDE with a closed form, over seeds 1..10.

    b = 0, sigma = s, g = c, one atom of weight lam, l = 1, f = -r y +
    kappa k + theta z, h(x) = exp(a x): Y(0) = exp(a x0 + mu T) with mu
    from Ito's formula with jumps.  Gate, fixed before the first run:
    every seed within 3 pathwise standard errors, and the mean error
    over the seeds within 3 std / sqrt(10).
    """

    A, S, C, LAM, R, KAPPA, THETA, T = 0.5, 0.4, 0.3, 1.0, 0.1, 0.5, 0.2, 1.0

    def test_ten_seeds(self):
        a, s, c, lam, r, kappa, theta, T = (self.A, self.S, self.C, self.LAM,
                                             self.R, self.KAPPA, self.THETA, self.T)
        co = make_coeffs(
            sigma=lambda t, x, u, nz: s * np.ones(x.shape + (1,)),
            g=lambda t, e, x, u, nz: c * np.ones_like(x),
            f=lambda t, x, u, y, z, k, nz: -r * y + kappa * k + theta * z[..., 0],
            h=lambda x, nz: np.exp(a * x[..., 0]),
            rho=np.array([0.0]))
        meas = MarkMeasure.from_atoms([((1.0,), lam)])
        jump = np.expm1(a * c)
        mu = (0.5 * a * a * s * s + lam * (jump - a * c) - r
              + kappa * lam * jump + theta * a * s)
        exact = np.exp(mu * T)
        grid = TimeGrid.uniform(T, 100)
        errs, ses = [], []
        for seed in range(1, 11):
            batch = simulate_batch(co, U0, [0.0], grid, meas, 4000, seed)
            sol = solve_bsde(co, U0, batch, keep_paths=False)
            # Pathwise estimator E[Gamma_T h(X_T)] with the adjoint weight
            # Gamma_T = exp(-r T) E(theta W)_T E(kappa N~)_T.
            w_T = batch.dw.sum(axis=0)[:, 0]
            n_T = batch.jump_counts.sum(axis=(0, 2))
            gamma = (np.exp(-r * T + theta * w_T - 0.5 * theta ** 2 * T - kappa * lam * T)
                     * (1.0 + kappa) ** n_T)
            weighted = gamma * sol.terminal
            errs.append(sol.y0 - exact)
            ses.append(weighted.std(ddof=1) / np.sqrt(weighted.size))
        errs, ses = np.array(errs), np.array(ses)
        assert np.all(np.abs(errs) <= 3.0 * ses), errs / ses
        assert abs(errs.mean()) <= 3.0 * errs.std(ddof=1) / np.sqrt(10), errs
