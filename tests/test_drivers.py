import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from jumphjb.drivers import (
    DriverPath,
    MarkMeasure,
    TimeGrid,
    draw_noise,
    sample_driver_path,
    write_csv,
)
from jumphjb.errors import ConfigError
from jumphjb.forward import ConstantControl, simulate

from conftest import make_coeffs


def measure_1atom(weight=2.0):
    return MarkMeasure.from_atoms([((1.0,), weight)])


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        assert g.n_steps == 4
        assert g.horizon == 2.0
        np.testing.assert_allclose(g.dt, 0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))

    def test_refine(self):
        g = TimeGrid.uniform(1.0, 3).refine(2)
        assert g.n_steps == 6
        np.testing.assert_allclose(g.dt, 1.0 / 6.0)

    def test_dt_stored_read_only(self):
        g = TimeGrid(np.array([0.0, 0.05, 0.2, 0.3, 1.0]))
        assert g.dt.tobytes() == np.diff(g.nodes).tobytes()
        assert g.dt is g.dt
        with pytest.raises(ValueError):
            g.dt[0] = 1.0
        assert "dt" not in repr(g)

    @pytest.mark.parametrize("horizon, n_steps", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_uniform_refusal_is_config_error(self, horizon, n_steps):
        with pytest.raises(ConfigError):
            TimeGrid.uniform(horizon, n_steps)


class TestMarkMeasure:
    def test_total_mass(self):
        m = MarkMeasure.from_atoms([((1.0,), 1.0), ((2.0,), 0.5)])
        assert m.total_mass == pytest.approx(1.5)
        assert m.n_atoms == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            MarkMeasure.from_atoms([((1.0,), 0.0)])
        with pytest.raises(ValueError):
            MarkMeasure.from_atoms([((1.0,), -1.0)])


class TestWriteCsv:
    """Every real cell reads back bit for bit with ``float``; every
    integer cell stays integer text."""

    @settings(max_examples=60, deadline=None)
    @given(reals=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=8),
           ints=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=3),
           numpy_reals=st.booleans())
    @example(reals=[5e-324, -2.2250738585072014e-308, 1e308, -1e308, -0.0, 0.1],
             ints=[-1, 0, 7], numpy_reals=True)
    def test_reals_read_back_bitwise_and_ints_stay_integers(self, tmp_path_factory, reals,
                                                              ints, numpy_reals):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        cells = [np.float64(v) for v in reals] if numpy_reals else reals
        write_csv(path, ["c"] * (len(reals) + len(ints)), [cells + ints])
        with open(path, newline="") as fh:
            _, row = csv.reader(fh)
        back = np.array([float(c) for c in row[:len(reals)]])
        assert back.tobytes() == np.array(reals).tobytes()
        assert row[len(reals):] == [str(i) for i in ints]


class TestBrownian:
    def test_determinism(self):
        g = TimeGrid.uniform(1.0, 1)
        a = draw_noise(g, 3, measure_1atom(), 5, 123)
        b = draw_noise(g, 3, measure_1atom(), 5, 123)
        np.testing.assert_array_equal(a.dw, b.dw)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            draw_noise(TimeGrid.uniform(1.0, 2), 0, MarkMeasure.empty(), 1, 1)

    def test_variance_concentration(self):
        # chi-square bound: with 1e4 pooled increments the sample
        # variance of N(0, dt) lies in [0.8 dt, 1.2 dt] w.p. >> 1-1e-6.
        dt = 0.001
        g = TimeGrid.uniform(1.0, 1000)
        incs = draw_noise(g, 2, MarkMeasure.empty(), 10, 7).dw.reshape(-1, 2)
        v = incs.var(axis=0)
        assert np.all(v > 0.8 * dt) and np.all(v < 1.2 * dt)

    def test_mean_clt_bound(self):
        dt = 0.01
        g = TimeGrid.uniform(1.0, 100)
        incs = draw_noise(g, 1, MarkMeasure.empty(), 1000, 11).dw
        assert incs.size == 100000
        assert abs(incs.mean()) < 4.0 * np.sqrt(dt / incs.size)


class TestJumps:
    def test_empty_measure(self):
        bank = draw_noise(TimeGrid.uniform(1.0, 4), 1, MarkMeasure.empty(), 3, 5)
        assert bank.counts.shape == (4, 3, 0)
        assert bank.event_tau.size == 0 and bank.event_atom.size == 0

    def test_poisson_mean(self):
        g = TimeGrid.uniform(1.0, 4)
        counts = draw_noise(g, 1, measure_1atom(2.0), 10000, 3).counts.sum(axis=(0, 2))
        assert abs(counts.mean() - 2.0) < 3.0 * np.sqrt(2.0 / 10000)

    def test_mark_frequencies(self):
        g = TimeGrid.uniform(1.0, 4)
        m = MarkMeasure.from_atoms([((0.0,), 1.0), ((1.0,), 3.0)])
        picks = draw_noise(g, 1, m, 3000, 9).event_atom
        freq = np.mean(picks == 0)
        se = np.sqrt(0.25 * 0.75 / picks.size)
        assert abs(freq - 0.25) < 4.0 * se

    def test_count_law_ks(self):
        # KS distance of the empirical count law to Poisson(T nu(E))
        # below the 1% critical value 1.63 / sqrt(M) at M = 1e4.
        g = TimeGrid.uniform(1.0, 4)
        M = 10000
        counts = draw_noise(g, 1, measure_1atom(2.0), M, 21).counts.sum(axis=(0, 2))
        ks = np.max(np.abs(
            np.array([np.mean(counts <= k) for k in range(counts.max() + 1)])
            - stats.poisson.cdf(np.arange(counts.max() + 1), 2.0)))
        assert ks < 1.63 / np.sqrt(M)

    def test_times_in_range_sorted(self):
        g = TimeGrid.uniform(3.0, 5)
        bank = draw_noise(g, 1, measure_1atom(5.0), 20, 1)
        for s in range(20):
            times = bank.path(s).jump_times
            assert np.all(times > 0) and np.all(times <= 3.0)
            assert np.all(np.diff(times) >= 0)

    def test_in_step_times_uniform(self):
        # KS distance of the in-step positions (tau - t_i) / dt to
        # U(0, 1] below the 1% critical value 1.63 / sqrt(n).
        g = TimeGrid.uniform(1.0, 4)
        bank = draw_noise(g, 1, measure_1atom(2.0), 5000, 17)
        pos = np.sort((bank.event_tau - g.nodes[bank.event_step]) / 0.25)
        n = pos.size
        ks = max(np.max(np.arange(1, n + 1) / n - pos), np.max(pos - np.arange(n) / n))
        assert n > 5000 and ks < 1.63 / np.sqrt(n)


BANK_MEASURE = MarkMeasure.from_atoms([((0.5,), 1.5), ((-1.0,), 2.5)])


def bank_rows(bank, rows):
    """The first ``rows`` rows of a bank, events included."""
    mine = bank.event_row < rows
    return (bank.dw[:, :rows], bank.counts[:, :rows], bank.w_start[:rows],
            bank.count_start[:rows], bank.event_step[mine], bank.event_row[mine],
            bank.event_atom[mine], bank.event_tau[mine])


class TestNoiseBankInvariants:
    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(min_value=1, max_value=600),
           n_steps=st.integers(min_value=1, max_value=12),
           nodes=st.tuples(st.integers(0, 11), st.integers(1, 12)),
           seed=st.integers(min_value=0, max_value=2**63 - 1),
           data=st.data())
    def test_bank_invariants(self, M, n_steps, nodes, seed, data):
        grid = TimeGrid.uniform(1.5, n_steps)
        start = min(nodes[0], n_steps - 1)
        end = max(start + 1, min(nodes[1], n_steps))
        bank = draw_noise(grid, 2, BANK_MEASURE, M, seed, start, end)
        N = end - start

        t_lo = grid.nodes[start + bank.event_step]
        t_hi = grid.nodes[start + bank.event_step + 1]
        assert np.all(bank.event_tau > t_lo) and np.all(bank.event_tau <= t_hi)
        tally = np.zeros_like(bank.counts)
        np.add.at(tally, (bank.event_step, bank.event_row, bank.event_atom), 1)
        np.testing.assert_array_equal(tally, bank.counts)
        order = np.lexsort((bank.event_tau, bank.event_row, bank.event_step))
        np.testing.assert_array_equal(order, np.arange(order.size))
        np.testing.assert_array_equal(
            bank.step_offsets, np.searchsorted(bank.event_step, np.arange(N + 1)))
        if start == 0:
            assert np.all(bank.w_start == 0) and np.all(bank.count_start == 0)

        rows = data.draw(st.integers(min_value=1, max_value=M))
        small = draw_noise(grid, 2, BANK_MEASURE, rows, seed, start, end)
        for a, b in zip(bank_rows(bank, rows), bank_rows(small, rows)):
            np.testing.assert_array_equal(a, b)

        for name in ("dw", "counts", "w_start", "count_start", "event_step",
                     "event_row", "event_atom", "event_tau", "step_offsets"):
            with pytest.raises(ValueError):
                getattr(bank, name)[...] = 0

    def test_counts_take_one_byte_and_never_wrap(self):
        # w*dt = 150: counts above the int8 range, far below 255.
        grid = TimeGrid.uniform(1.0, 2)
        bank = draw_noise(grid, 1, MarkMeasure.from_atoms([((1.0,), 300.0)]), 300, 4)
        assert bank.counts.dtype == np.uint8 and bank.counts.max() > 127
        assert int(bank.counts.sum(dtype=np.int64)) == bank.event_step.size

    @pytest.mark.parametrize("start", [0, 2])
    def test_count_above_a_byte_is_refused(self, start):
        # w*dt = 1000 on atom 1: about 1000 events per path and step.
        heavy = MarkMeasure.from_atoms([((1.0,), 0.5), ((2.0,), 1000.0)])
        with pytest.raises(ConfigError,
                           match=rf"step {start} drew \d+ events of atom 1 at rate w\*dt = 1000;"):
            draw_noise(TimeGrid.uniform(4.0, 4), 1, heavy, 3, 0, start)

    def test_rate_numpy_cannot_draw_is_refused(self):
        # numpy's Poisson sampler refuses a rate near 2**63 with a ValueError.
        huge = MarkMeasure.from_atoms([((1.0,), 1e21)])
        with pytest.raises(ConfigError, match=r"w\*dt = 2.5e\+20 is too large to draw"):
            draw_noise(TimeGrid.uniform(1.0, 4), 1, huge, 3, 0)

    def test_path_is_row_of_full_horizon_bank(self):
        grid = TimeGrid.uniform(1.0, 6)
        bank = draw_noise(grid, 2, BANK_MEASURE, 300, 8)
        p = bank.path(270)
        np.testing.assert_array_equal(p.brownian_increments, bank.dw[:, 270])
        counts = np.zeros((6, 2), dtype=np.uint8)
        np.add.at(counts, (np.searchsorted(grid.nodes[1:-1], p.jump_times), p.jump_atoms), 1)
        np.testing.assert_array_equal(counts, bank.counts[:, 270])
        one = sample_driver_path(grid, 2, BANK_MEASURE, 8)
        np.testing.assert_array_equal(one.brownian_increments, bank.dw[:, 0])
        with pytest.raises(ValueError, match="full-horizon"):
            draw_noise(grid, 2, BANK_MEASURE, 5, 8, 1).path(0)
        with pytest.raises(IndexError):
            bank.path(300)


class TestDriverPath:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           n_steps=st.integers(min_value=1, max_value=40))
    def test_seed_determinism(self, seed, n_steps):
        g = TimeGrid.uniform(1.0, n_steps)
        m = measure_1atom(1.0)
        p1 = sample_driver_path(g, 2, m, seed)
        p2 = sample_driver_path(g, 2, m, seed)
        np.testing.assert_array_equal(p1.brownian_increments, p2.brownian_increments)
        np.testing.assert_array_equal(p1.jump_times, p2.jump_times)
        np.testing.assert_array_equal(p1.jump_atoms, p2.jump_atoms)

    def test_immutability(self):
        p = sample_driver_path(TimeGrid.uniform(1.0, 3), 1, measure_1atom(), 0)
        with pytest.raises(ValueError):
            p.brownian_increments[0, 0] = 1.0

    def test_jump_counts_per_step(self):
        g = TimeGrid.uniform(1.0, 4)
        p = DriverPath(g, measure_1atom(1.0), np.zeros((4, 1)),
                       np.array([0.1, 0.2, 0.3, 0.75, 1.0]), np.zeros(5, dtype=int))
        tr = simulate(make_coeffs(), ConstantControl([0.0]), [0.0], p)
        # The simulator puts events in (t_i, t_{i+1}]: two in step 0, one
        # each after (0.75 lands on the node, hence in step 2).
        np.testing.assert_array_equal(np.diff(tr.grid_rows) - 1, [2, 1, 1, 1])
