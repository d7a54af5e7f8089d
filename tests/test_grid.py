"""Properties of the shared regular-grid kernel.

The cell-center lattice of the DPP solver and the node grid of the PIDE
solver interpolate and look up nearest points through one kernel; these
properties hold for both on random boxes, shapes and points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jumphjb.coefficients import ControlSet
from jumphjb.dpp import FeedbackPolicy, Lattice
from jumphjb.drivers import TimeGrid
from jumphjb.pide import RandomFieldTriplet, SpatialGrid, TripletFeedback


@st.composite
def grids(draw):
    """(grid, points, affine coefficients) for a random box in R^1..R^3."""
    n = draw(st.integers(1, 3))
    node_grid = draw(st.booleans())
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    lower = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    span = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
    shape = tuple(draw(st.lists(st.integers(2 if node_grid else 1, 7),
                                min_size=n, max_size=n)))
    grid = (SpatialGrid if node_grid else Lattice)(lower, lower + span, shape)
    m = draw(st.integers(1, 12))
    # Points reach past the box on every side, so clamping is exercised.
    pts = draw(st.lists(st.floats(-1.0, 2.0), min_size=m * n, max_size=m * n))
    points = lower + span * np.array(pts).reshape(m, n)
    coefs = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n + 1,
                                   max_size=n + 1)))
    return grid, points, coefs


def grid_points(grid):
    return grid.nodes() if isinstance(grid, SpatialGrid) else grid.centers()


@settings(max_examples=80, deadline=None)
@given(grids())
def test_affine_fields_interpolate_exactly(case):
    grid, points, coefs = case
    axes = grid.axes()
    first = np.array([a[0] for a in axes])
    last = np.array([a[-1] for a in axes])
    values = (coefs[0] + grid_points(grid) @ coefs[1:]).reshape(grid.shape)
    out, clamped = grid.interpolate(values, points)
    # Off-grid coordinates read the boundary value: the field at the
    # clamped point.
    expected = coefs[0] + np.clip(points, first, last) @ coefs[1:]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    assert clamped == int(np.sum((points < first) | (points > last)))


@settings(max_examples=80, deadline=None)
@given(grids(), st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 12), max_size=3))
def test_interpolation_is_batch_invariant(case, seed, cuts):
    # Interpolating stacked point sets in one call gives bitwise the
    # per-set results, and the clamped counts add up.
    grid, points, _ = case
    values = np.random.default_rng(seed).standard_normal(grid.shape)
    parts = np.split(points, sorted(min(c, points.shape[0]) for c in cuts))
    whole, clamped = grid.interpolate(values, np.concatenate(parts))
    each = [grid.interpolate(values, part) for part in parts]
    assert whole.tobytes() == np.concatenate([v for v, _ in each]).tobytes()
    assert clamped == sum(c for _, c in each)


def _assert_nearest(grid, points, idx):
    for k, axis in enumerate(grid.axes()):
        dist = np.abs(points[:, k, None] - axis[None, :])
        chosen = dist[np.arange(points.shape[0]), idx[k]]
        assert np.all(chosen <= dist.min(axis=1) + 1e-9)


@settings(max_examples=80, deadline=None)
@given(grids())
def test_policy_lookup_is_nearest(case):
    grid, points, _ = case
    controls = ControlSet.from_1d(-1.0, 1.0, 2)
    table = np.zeros((1,) + grid.shape, dtype=int)
    if isinstance(grid, SpatialGrid):
        times = np.array([0.0, 1.0])
        field = RandomFieldTriplet.deterministic(
            grid, times, np.zeros((2,) + grid.shape), 0)
        policy = TripletFeedback(field, controls, table)
    else:
        policy = FeedbackPolicy(grid, TimeGrid.uniform(1.0, 1), controls, table)
    _assert_nearest(grid, points, policy.cell_of(points))


def reference_interpolate(values, points, axes, widths):
    """Per-axis bracketing, then one weighted read per corner, summed in
    corner order."""
    shape = tuple(c.size for c in axes)
    vals = np.asarray(values, dtype=float).reshape(shape)
    idx0, frac, clamped = [], [], 0
    for k, c in enumerate(axes):
        x = points[:, k]
        clamped += int(np.sum((x < c[0]) | (x > c[-1])))
        if c.size == 1:
            idx0.append(np.zeros(x.size, dtype=int))
            frac.append(np.zeros(x.size))
            continue
        pos = (np.clip(x, c[0], c[-1]) - c[0]) / widths[k]
        i0 = np.clip(np.floor(pos).astype(int), 0, c.size - 2)
        idx0.append(i0)
        frac.append(np.clip(pos - i0, 0.0, 1.0))
    out = np.zeros(points.shape[0])
    for corner in range(1 << len(axes)):
        weight = np.ones(points.shape[0])
        idx = []
        for k in range(len(axes)):
            hi = (corner >> k) & 1
            weight = weight * (frac[k] if hi else 1.0 - frac[k])
            idx.append(np.minimum(idx0[k] + hi, shape[k] - 1))
        out += weight * vals[tuple(idx)]
    return out, clamped


@settings(max_examples=80, deadline=None)
@given(grids(), st.integers(0, 2 ** 32 - 1))
def test_stencil_gather_matches_corner_reads_bitwise(case, seed):
    # Interpolation is a gather over the shared stencil; it must give
    # the per-corner reads bit for bit.
    grid, points, _ = case
    values = np.random.default_rng(seed).standard_normal(grid.shape)
    out, clamped = grid.interpolate(values, points)
    ref, ref_clamped = reference_interpolate(values, points, grid.axes(), grid.widths)
    assert out.tobytes() == ref.tobytes() and clamped == ref_clamped
