import dataclasses

import numpy as np
import pytest

from jumphjb.bsde import PolynomialBasis, solve_bsde
from jumphjb.coefficients import (
    CoefficientSet,
    ControlSet,
    SamplingPlan,
    validate_driver_monotonicity,
    validate_jump_nondegeneracy,
    validate_lipschitz,
)
from jumphjb.dpp import Lattice, compute_value_table
from jumphjb.drivers import MarkMeasure, TimeGrid
from jumphjb.errors import NumericError
from jumphjb.forward import ConstantControl, simulate_batch

from conftest import make_coeffs


MEAS = MarkMeasure.from_atoms([((1.0,), 1.0)])
PLAN = SamplingPlan.cube(1, 1, half_width=1.5, n_samples=150, seed=0)


class TestControlSet:
    def test_singleton(self):
        u = ControlSet.singleton([0.3, -0.1])
        assert u.n_atoms == 1 and u.m == 2

    def test_from_1d(self):
        u = ControlSet.from_1d(-1.0, 1.0, 5)
        assert u.n_atoms == 5
        np.testing.assert_allclose(u.atoms[:, 0], np.linspace(-1, 1, 5))

    def test_rejects_empty_and_outside(self):
        with pytest.raises(ValueError):
            ControlSet(np.zeros((0, 1)), [-1.0], [1.0])
        with pytest.raises(ValueError):
            ControlSet(np.array([[2.0]]), [-1.0], [1.0])


class TestLipschitz:
    def test_linear_passes_with_tight_ratio(self):
        co = make_coeffs(b=lambda t, x, u, nz: 2.0 * x,
                         g=lambda t, e, x, u, nz: 0.4 * x,
                         lipschitz_C=2.0, rho=np.array([0.5]))
        rep = validate_lipschitz(co, MEAS, PLAN)
        assert rep.passed
        assert rep.observed <= 2.0 + 1e-9
        assert rep.observed > 1.9

    def test_violation_detected(self):
        co = make_coeffs(b=lambda t, x, u, nz: 3.0 * x,
                         lipschitz_C=2.0, rho=np.array([0.0]))
        assert not validate_lipschitz(co, MEAS, PLAN).passed

    def test_jump_envelope(self):
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.4 * x,
                         lipschitz_C=1.0, rho=np.array([0.5]))
        assert validate_lipschitz(co, MEAS, PLAN).passed
        co_bad = make_coeffs(g=lambda t, e, x, u, nz: 0.8 * x,
                             lipschitz_C=1.0, rho=np.array([0.5]))
        assert not validate_lipschitz(co_bad, MEAS, PLAN).passed

    def test_nonfinite_reported(self):
        co = make_coeffs(b=lambda t, x, u, nz: np.full_like(x, np.nan),
                         rho=np.array([0.0]))
        with pytest.raises(NumericError):
            validate_lipschitz(co, MEAS, PLAN)


class TestJumpNondegeneracy:
    def test_zero_g_passes_any_delta(self):
        co = make_coeffs(delta=1.0, rho=np.array([0.0]))
        rep = validate_jump_nondegeneracy(co, MEAS, PLAN)
        assert rep.passed and rep.observed == pytest.approx(1.0, abs=1e-8)

    def test_reflection_fails(self):
        co = make_coeffs(g=lambda t, e, x, u, nz: -x, delta=0.5,
                         rho=np.array([1.0]))
        rep = validate_jump_nondegeneracy(co, MEAS, PLAN)
        assert not rep.passed and rep.observed == pytest.approx(0.0, abs=1e-6)

    def test_expansion_passes(self):
        co = make_coeffs(g=lambda t, e, x, u, nz: 0.5 * x, delta=1.0,
                         rho=np.array([0.5]))
        rep = validate_jump_nondegeneracy(co, MEAS, PLAN)
        assert rep.passed and rep.observed == pytest.approx(1.5, abs=1e-6)


class TestDriverMonotonicity:
    def test_monotone_driver_passes(self):
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: y + k)
        assert validate_driver_monotonicity(co, MEAS, PLAN).passed

    def test_decreasing_driver_fails(self):
        co = make_coeffs(f=lambda t, x, u, y, z, k, nz: -k)
        assert not validate_driver_monotonicity(co, MEAS, PLAN).passed

    def test_l_bound(self):
        co = make_coeffs(l=lambda t, e: 1.0, lipschitz_C=1.0)
        assert validate_driver_monotonicity(co, MEAS, PLAN).passed
        co_bad = make_coeffs(l=lambda t, e: 10.0, lipschitz_C=1.0)
        rep = validate_driver_monotonicity(co_bad, MEAS, PLAN)
        assert not rep.passed and "l outside" in rep.notes


class TestValidatorContracts:
    def test_purity(self):
        co = make_coeffs(b=lambda t, x, u, nz: 2.0 * x, lipschitz_C=2.0,
                         rho=np.array([0.0]))
        r1 = validate_lipschitz(co, MEAS, PLAN)
        r2 = validate_lipschitz(co, MEAS, PLAN)
        assert r1.observed == r2.observed and r1.passed == r2.passed

    def test_stability_under_doubling(self):
        # Same verdict at M and 2M across seeded reruns.
        co = make_coeffs(b=lambda t, x, u, nz: 2.0 * x,
                         g=lambda t, e, x, u, nz: 0.4 * x,
                         f=lambda t, x, u, y, z, k, nz: y + k,
                         lipschitz_C=2.0, rho=np.array([0.5]), delta=0.5)
        agree = 0
        reruns = 20
        for s in range(reruns):
            p1 = SamplingPlan.cube(1, 1, 1.5, n_samples=100, seed=s)
            p2 = SamplingPlan.cube(1, 1, 1.5, n_samples=200, seed=s)
            v1 = all(v(co, MEAS, p1).passed for v in
                     (validate_lipschitz, validate_jump_nondegeneracy,
                      validate_driver_monotonicity))
            v2 = all(v(co, MEAS, p2).passed for v in
                     (validate_lipschitz, validate_jump_nondegeneracy,
                      validate_driver_monotonicity))
            agree += (v1 == v2)
        assert agree >= 0.99 * reruns

    def test_rho_alignment_checked(self):
        co = make_coeffs(rho=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            validate_lipschitz(co, MEAS, PLAN)


def _w(nz):
    """The W1 channel value; 0 when the set is used without channels."""
    return 0.0 if nz is None else nz.values[..., 0]


POINTWISE = dict(
    b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[0] + 0.1 * _w(nz),
    sigma=lambda t, x, u, nz: np.array([[0.3 + 0.1 * np.cos(x[0])]]),
    g=lambda t, e, x, u, nz: 0.2 * e[0] * (1.0 + 0.1 * np.sin(x)),
    f=lambda t, x, u, y, z, k, nz: (-0.1 * y + 0.05 * k + 0.2 * z[0]
                                    + 0.1 * x[0] ** 2 + 0.1 * u[0] * x[0]),
    h=lambda x, nz: np.exp(-x[0] ** 2) * (1.0 + 0.3 * _w(nz)),
)

BATCHED = dict(
    b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[:, 0:1] + 0.1 * np.reshape(_w(nz), (-1, 1)),
    sigma=lambda t, x, u, nz: (0.3 + 0.1 * np.cos(x))[..., None],
    g=lambda t, e, x, u, nz: 0.2 * e[0] * (1.0 + 0.1 * np.sin(x)),
    f=lambda t, x, u, y, z, k, nz: (-0.1 * y + 0.05 * k + 0.2 * z[:, 0]
                                    + 0.1 * x[:, 0] ** 2 + 0.1 * u[:, 0] * x[:, 0]),
    h=lambda x, nz: np.exp(-x[:, 0] ** 2) * (1.0 + 0.3 * _w(nz)),
)


class TestFromPointwise:
    """A pointwise set runs through every solver like its batched twin."""

    def twins(self):
        kw = dict(n=1, d=1, m=1, l=lambda t, e: 1.0, rho=np.array([0.0]),
                  randomness_channels=("W1",))
        return (CoefficientSet.from_pointwise(**POINTWISE, **kw),
                CoefficientSet(**BATCHED, **kw))

    def test_pointwise_matches_batched(self):
        measure = MarkMeasure.from_atoms([((1.0,), 1.5)])
        grid = TimeGrid.uniform(0.5, 10)
        control = ConstantControl([0.3])
        sols = []
        for co in self.twins():
            batch = simulate_batch(co, control, [0.2], grid, measure, 200, 4)
            sols.append((batch.states, solve_bsde(co, control, batch,
                                                  PolynomialBasis(degree=2)).y0))
        np.testing.assert_allclose(sols[0][0], sols[1][0], rtol=0, atol=1e-12)
        assert abs(sols[0][1] - sols[1][1]) <= 1e-12

    def test_value_table_matches_batched(self):
        measure = MarkMeasure.from_atoms([((1.0,), 1.5)])
        tables = [
            compute_value_table(
                dataclasses.replace(co, randomness_channels=()),
                ControlSet.from_1d(-0.5, 0.5, 2), Lattice([-2.0], [2.0], (12,)),
                TimeGrid.uniform(0.5, 6), measure).values
            for co in self.twins()]
        np.testing.assert_allclose(tables[0], tables[1], rtol=0, atol=1e-12)

    def test_validators_match_batched(self):
        # Each validator runs its samples as one batch with a per-row t;
        # the pointwise set sees every row with its own t and noise.
        measure = MarkMeasure.from_atoms([((1.0,), 1.5)])
        plan = SamplingPlan.cube(1, 1, half_width=1.5, n_samples=40, seed=3)
        for validate in (validate_lipschitz, validate_jump_nondegeneracy,
                         validate_driver_monotonicity):
            pointwise, batched = (validate(co, measure, plan) for co in self.twins())
            assert pointwise == batched
            assert batched.worst_point and batched.observed != 0.0

    def test_pointwise_flag_refused(self):
        with pytest.raises(ValueError, match="from_pointwise"):
            make_coeffs(vectorized=False)
