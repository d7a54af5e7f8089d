import dataclasses

import numpy as np
import pytest

from jumphjb import drivers
from jumphjb.bsde import solve_bsde
from jumphjb.coefficients import CoefficientSet, ControlSet
from jumphjb.dpp import FeedbackPolicy, Lattice
from jumphjb.drivers import (
    DriverPath,
    MarkMeasure,
    TimeGrid,
    draw_noise,
    sample_driver_path,
)
from jumphjb.errors import DivergenceError
from jumphjb.forward import (
    ConstantControl,
    FeedbackControl,
    OpenLoopControl,
    check_batch,
    flow_property_residual,
    simulate,
    simulate_batch,
    simulate_flow_gradient,
    trajectory_to_csv,
)

from jumphjb.problems import build_problem

from conftest import make_coeffs

MEAS = MarkMeasure.from_atoms([((1.0,), 1.0)])
U0 = ConstantControl([0.0])


def coarsen(path: DriverPath, factor: int) -> DriverPath:
    """Aggregate a fine path onto a grid coarsened by ``factor``."""
    nodes = path.grid.nodes[::factor]
    inc = path.brownian_increments.reshape(-1, factor, path.d).sum(axis=1)
    return DriverPath(TimeGrid(nodes), path.measure, inc,
                      path.jump_times, path.jump_atoms)


class TestSimulate:
    def test_zero_dynamics_constant(self):
        co = make_coeffs()
        p = sample_driver_path(TimeGrid.uniform(1.0, 20), 1, MEAS, 3)
        tr = simulate(co, U0, [1.5], p)
        assert np.all(tr.states == 1.5)

    def test_constant_drift_exact(self):
        co = make_coeffs(b=lambda t, x, u, nz: np.ones_like(x))
        p = sample_driver_path(TimeGrid.uniform(1.0, 7), 1, MarkMeasure.empty(), 3)
        tr = simulate(co, U0, [0.25], p)
        assert tr.terminal_state[0] == pytest.approx(1.25, abs=1e-14)

    def test_state_martingale_mean(self):
        # b = 0, g = 0, sigma(x) = x: E[X(T)] = x0.
        co = make_coeffs(
            sigma=lambda t, x, u, nz: x[..., None],
        )
        batch = simulate_batch(co, U0, [1.0], TimeGrid.uniform(1.0, 50),
                               MarkMeasure.empty(), 20000, 5)
        xt = batch.states[-1, :, 0]
        ci = 3.5 * xt.std() / np.sqrt(xt.size)
        assert abs(xt.mean() - 1.0) < ci

    def test_divergence_guard(self):
        co = make_coeffs(b=lambda t, x, u, nz: 60.0 * x)
        p = sample_driver_path(TimeGrid.uniform(1.0, 100), 1, MarkMeasure.empty(), 3)
        with pytest.raises(DivergenceError) as ei:
            simulate(co, U0, [1.0], p)
        assert ei.value.step_index >= 0

    def test_open_loop_control(self):
        co = make_coeffs(b=lambda t, x, u, nz: u)
        grid = TimeGrid.uniform(1.0, 4)
        p = sample_driver_path(grid, 1, MarkMeasure.empty(), 0)
        ctrl = OpenLoopControl(np.array([[1.0], [0.0], [1.0], [0.0]]))
        tr = simulate(co, ctrl, [0.0], p)
        assert tr.terminal_state[0] == pytest.approx(0.5)

    def test_compensator_consistency(self):
        # g independent of x: compensated jumps add no drift, so
        # E[X(T)] = x0 + int b dt within CI.
        co = make_coeffs(b=lambda t, x, u, nz: 0.7 * np.ones_like(x),
                         g=lambda t, e, x, u, nz: 0.5 * np.ones_like(x),
                         rho=np.array([0.0]))
        batch = simulate_batch(co, U0, [0.0], TimeGrid.uniform(1.0, 40),
                               MEAS, 20000, 9)
        xt = batch.states[-1, :, 0]
        ci = 3.5 * xt.std() / np.sqrt(xt.size)
        assert abs(xt.mean() - 0.7) < ci

    def test_csv_export(self, tmp_path):
        co = make_coeffs(b=lambda t, x, u, nz: np.ones_like(x))
        p = sample_driver_path(TimeGrid.uniform(1.0, 4), 1, MEAS, 12)
        tr = simulate(co, U0, [0.0], p)
        out = tmp_path / "traj.csv"
        trajectory_to_csv(tr, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,X_1,u_1,event"
        assert len(lines) == tr.times.size + 1


class TestBatchConsistency:
    def test_matches_single_path(self):
        co = make_coeffs(
            b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u,
            sigma=lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)),
            g=lambda t, e, x, u, nz: 0.1 * np.ones_like(x),
            rho=np.array([0.0]))
        grid = TimeGrid.uniform(1.0, 30)
        bank = draw_noise(grid, 1, MEAS, 50, 77)
        for control in (U0, FeedbackControl(lambda t, x: -0.5 * x)):
            batch = simulate_batch(co, control, [0.2], grid, MEAS, 50, 77)
            for s in (0, 7, 23):
                tr = simulate(co, control, [0.2], bank.path(s))
                nodes = np.array([tr.state_at_node(i) for i in range(31)])
                np.testing.assert_allclose(nodes, batch.states[:, s, :], atol=1e-12)

    def test_event_substeps_carry_channels(self):
        # random_terminal with channels (W2, J) and a drift that reads
        # both, so the sub-steps must carry the channel values.
        prob = build_problem("random_terminal", {"jump_weight": 3.0})
        co = dataclasses.replace(
            prob.coeffs, randomness_channels=("W2", "J"),
            b=lambda t, x, u, nz: (0.4 * np.tanh(x) + u[:, 0:1]
                                   + 0.3 * nz.values[:, 0:1] - 0.2 * nz.values[:, 1:2]))
        grid = TimeGrid.uniform(prob.horizon, 12)
        control = FeedbackControl(lambda t, x: -0.5 * x)
        bank = draw_noise(grid, co.d, prob.measure, 300, 4)
        batch = simulate_batch(co, control, prob.x0, grid, prob.measure, 300, 4,
                               noise=bank)
        assert bank.counts.sum(axis=2).max() >= 2
        for s in range(300):
            tr = simulate(co, control, prob.x0, bank.path(s))
            nodes = np.array([tr.state_at_node(i) for i in range(13)])
            np.testing.assert_allclose(nodes, batch.states[:, s, :], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pointwise", [False, True], ids=["batched", "pointwise"])
    def test_time_dependent_coefficients(self, pointwise):
        # b = t x and g = 0.1 t: event sub-steps pass each row its own t.
        kw = dict(sigma=lambda t, x, u, nz: 0.3 * np.ones(np.shape(x) + (1,)),
                  f=lambda t, x, u, y, z, k, nz: 0.0 * y, h=lambda x, nz: 0.0 * x[..., 0],
                  l=lambda t, e: 1.0, rho=np.array([0.0]))
        if pointwise:
            co = CoefficientSet.from_pointwise(
                1, 1, 1, b=lambda t, x, u, nz: t * x,
                g=lambda t, e, x, u, nz: 0.1 * t * np.ones_like(x), **kw)
        else:
            co = make_coeffs(b=lambda t, x, u, nz: np.reshape(t, (-1, 1)) * x,
                             g=lambda t, e, x, u, nz: 0.1 * np.reshape(t, (-1, 1))
                             * np.ones_like(x), **kw)
        grid = TimeGrid.uniform(1.0, 10)
        meas = MarkMeasure.from_atoms([((1.0,), 4.0)])
        bank = draw_noise(grid, 1, meas, 40, 6)
        batch = simulate_batch(co, U0, [0.5], grid, meas, 40, 6, noise=bank)
        assert bank.counts.sum(axis=2).max() >= 2
        for s in range(40):
            tr = simulate(co, U0, [0.5], bank.path(s))
            nodes = np.array([tr.state_at_node(i) for i in range(11)])
            np.testing.assert_allclose(nodes, batch.states[:, s, :], rtol=0, atol=1e-12)

    def test_determinism(self):
        co = make_coeffs(sigma=lambda t, x, u, nz: np.ones(x.shape + (1,)))
        grid = TimeGrid.uniform(1.0, 10)
        b1 = simulate_batch(co, U0, [0.0], grid, MEAS, 64, 5)
        b2 = simulate_batch(co, U0, [0.0], grid, MEAS, 64, 5)
        np.testing.assert_array_equal(b1.states, b2.states)
        np.testing.assert_array_equal(b1.jump_counts, b2.jump_counts)


BANK_FIELDS = ("states", "dw", "jump_counts", "noise")


def assert_same_batch(a, b):
    for name in BANK_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


class TestNoiseBank:
    """A bank drawn once gives every control the batch a seed would."""

    GRID = TimeGrid.uniform(0.5, 12)
    START, END, M, SEED = 4, 10, 40, 21

    @pytest.fixture(params=[("W2",), ("W2", "J")], ids=["W2", "W2-J"])
    def prob(self, request):
        prob = build_problem("random_terminal", {"jump_weight": 2.0})
        prob.coeffs = dataclasses.replace(prob.coeffs,
                                          randomness_channels=request.param)
        return prob

    def simulate(self, prob, control, **kw):
        return simulate_batch(prob.coeffs, control, prob.x0, self.GRID,
                              prob.measure, self.M, self.SEED,
                              self.START, self.END, **kw)

    def draw(self, prob):
        return draw_noise(self.GRID, prob.coeffs.d, prob.measure, self.M,
                          self.SEED, self.START, self.END)

    def test_bank_matches_seeded_draw(self, prob):
        bank = self.draw(prob)
        banked = self.simulate(prob, U0, noise=bank)
        assert_same_batch(banked, self.simulate(prob, U0))
        assert banked.dw is bank.dw and banked.jump_counts is bank.counts
        assert banked.jump_counts.sum() > 0

    def test_controls_share_bank_in_either_order(self, prob):
        controls = [ConstantControl([0.6]),
                    FeedbackControl(lambda t, x: -0.5 * x)]
        fresh = [self.simulate(prob, c) for c in controls]
        for order in ([0, 1], [1, 0]):
            bank = self.draw(prob)
            for k in order:
                assert_same_batch(self.simulate(prob, controls[k], noise=bank),
                                  fresh[k])

    def test_mismatched_bank_raises(self, prob):
        bank = self.draw(prob)
        wrong = [
            dict(seed=self.SEED + 1),
            dict(n_samples=self.M - 1),
            dict(start_node=self.START + 1),
            dict(end_node=self.END - 1),
            dict(grid=TimeGrid.uniform(0.5, 13)),
            dict(measure=MarkMeasure.from_atoms([((1.0,), 1.0)])),
        ]
        for change in wrong:
            args = dict(grid=self.GRID, measure=prob.measure, n_samples=self.M,
                        seed=self.SEED, start_node=self.START, end_node=self.END)
            args.update(change)
            with pytest.raises(ValueError, match="noise bank"):
                simulate_batch(prob.coeffs, U0, prob.x0, noise=bank, **args)

    def test_bank_arrays_are_read_only(self, prob):
        bank = self.draw(prob)
        for arr in (bank.dw, bank.counts, bank.w_start, bank.count_start,
                    bank.event_tau, bank.step_offsets):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_size_guard_allocates_nothing(self):
        with pytest.raises(MemoryError, match="batch would need"):
            draw_noise(TimeGrid.uniform(1.0, 1000), 1, MEAS, 10 ** 9, 0)

    def test_byte_counts_give_the_bits_of_int64_counts(self, prob):
        # The J channel of simulate_batch and comp in solve_bsde promote
        # the counts before any arithmetic, so an int64 copy of the bank
        # gives the same states, channel values and (Y, Z, K) bit for bit.
        bank = self.draw(prob)
        wide = dataclasses.replace(bank, counts=bank.counts.astype(np.int64))
        assert bank.counts.dtype == np.uint8 and bank.counts.sum() > 0
        batches = [self.simulate(prob, U0, noise=b) for b in (bank, wide)]
        sols = [solve_bsde(prob.coeffs, U0, b) for b in batches]
        for name in ("states", "noise"):
            a, b = (getattr(batch, name) for batch in batches)
            assert a.tobytes() == b.tobytes(), name
        for name in ("Y", "Z", "K", "y0s", "terminal"):
            a, b = (getattr(sol, name) for sol in sols)
            assert a.tobytes() == b.tobytes(), name

    def test_size_guard_counts_one_byte_per_count(self, prob, monkeypatch):
        # 8 bytes per state, channel value and Brownian increment, 1 per
        # jump count: the cap at exactly that many bytes holds the batch,
        # one byte less refuses it.
        co, M, N = prob.coeffs, 1000, 50
        r, n_atoms = len(co.randomness_channels), prob.measure.n_atoms
        need = 8 * M * ((N + 1) * (2 * co.n + r) + N * co.d) + M * N * n_atoms
        monkeypatch.setattr(drivers, "MAX_BATCH_BYTES", need)
        check_batch(co, prob.measure, M, N, groups=2)
        monkeypatch.setattr(drivers, "MAX_BATCH_BYTES", need - 1)
        with pytest.raises(MemoryError, match="batch would need"):
            check_batch(co, prob.measure, M, N, groups=2)


class TestWindowControls:
    """A batch on steps [4, 8) applies the controls of grid steps 4..7."""

    GRID = TimeGrid.uniform(1.0, 8)
    START, M, SEED = 4, 30, 3
    CO = make_coeffs(b=lambda t, x, u, nz: u + 0.0 * x,
                     sigma=lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)))

    def check(self, control, expected):
        """``expected[i]`` is the control of grid step i on every row."""
        meas = MarkMeasure.empty()
        bank = draw_noise(self.GRID, 1, meas, self.M, self.SEED, self.START)
        batch = simulate_batch(self.CO, control, [0.1], self.GRID, meas, self.M,
                               self.SEED, self.START, noise=bank)
        for k, (u,) in enumerate(batch.controls):
            assert np.all(u == expected[self.START + k])
        # The per-path reference on the same increments, placed at
        # steps 4..7 of a full-horizon path.
        for s in (0, 11, 29):
            dw = np.concatenate([np.zeros((self.START, 1)), bank.dw[:, s]])
            path = DriverPath(self.GRID, meas, dw, np.zeros(0), np.zeros(0, int))
            tr = simulate(self.CO, control, [0.1], path, start_node=self.START)
            nodes = [tr.state_at_node(i) for i in range(self.START, 9)]
            np.testing.assert_allclose(nodes, batch.states[:, s], rtol=0, atol=1e-14)

    def test_open_loop_control(self):
        values = np.linspace(-0.6, 0.6, 8)[:, None]
        self.check(OpenLoopControl(values), values[:, 0])

    def test_feedback_policy(self):
        # Slice i applies atom i % 3 everywhere, so slices i and i + 4
        # differ.
        atoms = ControlSet(np.array([[-0.5], [0.0], [0.5]]), [-1.0], [1.0])
        table = np.repeat(np.arange(8)[:, None] % 3, 6, axis=1)
        policy = FeedbackPolicy(Lattice([-2.0], [2.0], (6,)), self.GRID, atoms, table)
        self.check(policy, atoms.atoms[np.arange(8) % 3, 0])


class TestFlowGradient:
    def test_identity_for_state_free_coefficients(self):
        co = make_coeffs(b=lambda t, x, u, nz: np.ones_like(x),
                         sigma=lambda t, x, u, nz: 0.5 * np.ones(x.shape + (1,)),
                         g=lambda t, e, x, u, nz: 0.2 * np.ones_like(x),
                         rho=np.array([0.0]))
        p = sample_driver_path(TimeGrid.uniform(1.0, 20), 1, MEAS, 2)
        _, grads = simulate_flow_gradient(co, U0, [0.1], p)
        np.testing.assert_allclose(grads, np.eye(1)[None, :, :].repeat(len(grads), 0),
                                   atol=1e-12)

    def test_scalar_ode_closed_form(self):
        # b = a x, sigma = g = 0: dX(T) = e^a with rel err <= 2 a^2 dt.
        a = 0.9
        co = make_coeffs(b=lambda t, x, u, nz: a * x)
        n_steps = 800
        p = sample_driver_path(TimeGrid.uniform(1.0, n_steps), 1,
                               MarkMeasure.empty(), 0)
        _, grads = simulate_flow_gradient(co, U0, [0.0], p)
        rel = abs(grads[-1][0, 0] - np.exp(a)) / np.exp(a)
        assert rel <= 2.0 * a * a / n_steps

    def test_bump_and_reprice_oracle(self):
        co = make_coeffs(
            b=lambda t, x, u, nz: 0.5 * np.sin(x),
            sigma=lambda t, x, u, nz: (0.2 + 0.1 * np.cos(x))[..., None],
            g=lambda t, e, x, u, nz: 0.1 * np.tanh(x),
            rho=np.array([0.1]))
        p = sample_driver_path(TimeGrid.uniform(1.0, 500), 1, MEAS, 31)
        _, grads = simulate_flow_gradient(co, U0, [0.4], p)
        eps = 1e-4
        up = simulate(co, U0, [0.4 + eps], p).terminal_state
        dn = simulate(co, U0, [0.4 - eps], p).terminal_state
        fd = (up - dn) / (2 * eps)
        assert abs(grads[-1][0, 0] - fd[0]) < 1e-6


class TestFlowProperty:
    def test_grid_restart_exact(self):
        co = make_coeffs(
            b=lambda t, x, u, nz: 0.4 * np.tanh(x),
            sigma=lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)),
            g=lambda t, e, x, u, nz: 0.15 * np.cos(x),
            rho=np.array([0.15]))
        p = sample_driver_path(TimeGrid.uniform(1.0, 24), 1, MEAS, 8)
        assert flow_property_residual(co, U0, [0.2], 0, 9, 24, p) == 0.0

    def test_drift_only(self):
        co = make_coeffs(b=lambda t, x, u, nz: np.ones_like(x))
        p = sample_driver_path(TimeGrid.uniform(1.0, 10), 1, MarkMeasure.empty(), 0)
        assert flow_property_residual(co, U0, [0.0], 0, 4, 10, p) == 0.0

    def test_randomized_hundred_seeds(self):
        co = make_coeffs(
            b=lambda t, x, u, nz: 0.3 * x,
            sigma=lambda t, x, u, nz: (0.2 * np.abs(x) + 0.1)[..., None],
            g=lambda t, e, x, u, nz: 0.1 * x,
            rho=np.array([0.1]))
        grid = TimeGrid.uniform(1.0, 12)
        rng = np.random.default_rng(0)
        worst = 0.0
        for s in range(100):
            p = sample_driver_path(grid, 1, MEAS, s)
            t0, tau = sorted(rng.integers(0, 12, size=2))
            gamma = int(rng.integers(tau + 1, 13))
            worst = max(worst, flow_property_residual(
                co, U0, [0.5], int(t0), int(tau), gamma, p))
        assert worst == 0.0


class TestRefinement:
    def test_strong_order_at_least_half(self):
        co = make_coeffs(
            b=lambda t, x, u, nz: 0.5 * np.tanh(x),
            sigma=lambda t, x, u, nz: (0.4 + 0.2 * np.sin(x))[..., None],
            g=lambda t, e, x, u, nz: 0.2 * np.cos(x),
            rho=np.array([0.2]))
        fine_grid = TimeGrid.uniform(1.0, 512)
        errs = {8: [], 16: [], 32: []}
        for s in range(60):
            pf = sample_driver_path(fine_grid, 1, MEAS, s)
            ref = simulate(co, U0, [0.3], pf).terminal_state
            for n in errs:
                pc = coarsen(pf, 512 // n)
                errs[n].append(abs(
                    simulate(co, U0, [0.3], pc).terminal_state[0] - ref[0]))
        means = np.array([np.mean(errs[n]) for n in (8, 16, 32)])
        slopes = np.log2(means[:-1] / means[1:])
        assert np.all(means[:-1] > means[1:])
        assert slopes.mean() >= 0.4

    def test_moment_ode_oracle(self):
        # dX = a X dt + s X dW: E[X(T)^2] = x0^2 exp((2a + s^2) T).
        a, s = -0.3, 0.4
        co = make_coeffs(b=lambda t, x, u, nz: a * x,
                         sigma=lambda t, x, u, nz: s * x[..., None])
        batch = simulate_batch(co, U0, [1.0], TimeGrid.uniform(1.0, 100),
                               MarkMeasure.empty(), 20000, 13)
        m2 = batch.states[-1, :, 0] ** 2
        target = np.exp(2 * a + s * s)
        ci = 4.0 * m2.std() / np.sqrt(m2.size)
        assert abs(m2.mean() - target) < ci + 0.01 * target
