"""Properties of the one regular-grid class, :class:`jumphjb.dpp.Grid`.

The cell-center lattice of the DPP solver and the node grid of the PIDE
solver are its two placements; both build axes, interpolate and look
up nearest points through the same methods.  These properties hold for
both on random boxes, shapes and points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumphjb.coefficients import ControlSet
from jumphjb.dpp import FeedbackPolicy, Lattice
from jumphjb.drivers import MarkMeasure, TimeGrid
from jumphjb.errors import ConfigError
from jumphjb.pide import SpatialGrid


@st.composite
def grids(draw):
    """(grid, points, affine coefficients) for a random box in R^1..R^3."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([Lattice, SpatialGrid]))
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    lower = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    span = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
    shape = tuple(draw(st.lists(st.integers(1 + kind.e, 7), min_size=n, max_size=n)))
    grid = kind(lower, lower + span, shape)
    m = draw(st.integers(1, 12))
    # Points reach past the box on every side, so clamping is exercised.
    pts = draw(st.lists(st.floats(-1.0, 2.0), min_size=m * n, max_size=m * n))
    points = lower + span * np.array(pts).reshape(m, n)
    coefs = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n + 1,
                                   max_size=n + 1)))
    return grid, points, coefs


@settings(max_examples=80, deadline=None)
@given(grids())
def test_affine_fields_interpolate_exactly(case):
    grid, points, coefs = case
    axes = grid.axes()
    first = np.array([a[0] for a in axes])
    last = np.array([a[-1] for a in axes])
    values = (coefs[0] + grid.nodes() @ coefs[1:]).reshape(grid.shape)
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


@st.composite
def boxes(draw):
    """A grid of either placement on a random box in R^1..R^3, with up
    to 64 points per axis."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([Lattice, SpatialGrid]))
    lower = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    span = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
    shape = draw(st.lists(st.integers(1 + kind.e, 64), min_size=n, max_size=n))
    return kind(lower, lower + span, tuple(shape))


@settings(max_examples=200, deadline=None)
@given(boxes(), st.integers(1, 4))
def test_placements_match_their_own_formulas(grid, factor):
    # Nodes: np.linspace over the box; cell centers: the midpoints of
    # shape[k] equal cells.  Both bit for bit, with the matching widths
    # and refined shapes.
    span, shape = grid.upper - grid.lower, np.array(grid.shape)
    if isinstance(grid, SpatialGrid):
        axes = [np.linspace(lo, hi, s) for lo, hi, s in zip(grid.lower, grid.upper, shape)]
        widths, refined = span / (shape - 1), (shape - 1) * factor + 1
    else:
        widths, refined = span / shape, shape * factor
        axes = [lo + w * (np.arange(s) + 0.5) for lo, w, s in zip(grid.lower, widths, shape)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grid.axes(), axes))
    assert grid.widths.tobytes() == widths.tobytes()
    fine = grid.refine(factor)
    assert type(fine) is type(grid) and fine.shape == tuple(refined)


@pytest.mark.parametrize("kind, lower, upper, shape", [
    (Lattice, [0.0], [1.0], (0,)),
    (SpatialGrid, [0.0], [1.0], (1,)),
    (Lattice, [1.0], [-1.0], (4,)),
    (SpatialGrid, [0.0, 2.0], [1.0, 2.0], (3, 3)),
    (Lattice, [0.0, 0.0], [1.0], (4, 4)),
    (SpatialGrid, [0.0], [1.0], (3, 3)),
    (Lattice, [0.0], [1.0], (12.7,)),
    (SpatialGrid, [0.0, 0.0], [1.0, 1.0], (3, 3.5)),
    (Lattice, [0.0], [1.0], ("12",)),
])
def test_constructor_refusals_are_config_errors(kind, lower, upper, shape):
    with pytest.raises(ConfigError):
        kind(lower, upper, shape)


def _measure(*weights):
    return MarkMeasure.from_atoms([((0.5 * j,), w) for j, w in enumerate(weights)])


@pytest.mark.parametrize("make, same, other", [
    (lambda a: TimeGrid.uniform(1.0, a), 4, 5),
    (lambda a: TimeGrid(np.array([0.0, 0.5, a])), 1.0, 1.5),
    (lambda a: _measure(0.3, a), 0.2, 0.25),
    (lambda a: _measure(*[0.3] * a), 2, 3),
    (lambda a: ControlSet.from_1d(-1, 1, a), 3, 2),
    (lambda a: ControlSet.from_1d(-1, a, 3), 1, 2),
    (lambda a: Lattice([0.0, 0.0], [1.0, 1.0], (3, a)), 4, 5),
    (lambda a: Lattice([0.0, 0.0], [1.0, a], (3, 4)), 1.0, 2.0),
    (lambda a: SpatialGrid([0.0] * a, [1.0] * a, (3,) * a), 2, 3),
])
def test_value_classes_compare_by_value(make, same, other):
    assert make(same) == make(same) and not make(same) != make(same)
    assert make(same) != make(other) and not make(same) == make(other)


def test_value_classes_of_different_types_are_unequal():
    box = ([0.0, 0.0], [1.0, 1.0], (3, 3))
    assert Lattice(*box) != SpatialGrid(*box)
    assert TimeGrid.uniform(1.0, 4) != TimeGrid.uniform(1.0, 4).nodes
    assert _measure(0.3) != ControlSet.singleton([0.3])
    assert ControlSet.singleton([0.0]) != 0.0


@pytest.mark.parametrize("kind", [Lattice, SpatialGrid])
def test_nodes_are_built_once_and_read_only(kind):
    # One node array per grid, shared by every caller, so no caller can
    # change what another reads; a refined grid builds its own.  The
    # same holds for the axes and widths, and the box is the grid's own
    # copy, so they cannot drift apart.
    lower = np.array([-1.0, 0.0])
    grid = kind(lower, [1.0, 2.0], (4, 3))
    lower[0] = 5.0
    assert grid.lower[0] == -1.0
    assert grid.axes() is grid.axes() and grid.widths is grid.widths
    for a in (*grid.axes(), grid.widths, grid.lower, grid.upper):
        with pytest.raises(ValueError):
            a[0] = 5.0
    nodes = grid.nodes()
    assert grid.nodes() is nodes and not nodes.flags.writeable
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    assert np.array_equal(nodes, np.stack([m.ravel() for m in mesh], axis=1))
    fine = grid.refine()
    assert fine == kind([-1.0, 0.0], [1.0, 2.0], fine.shape) != grid
    assert fine.nodes().shape == (np.prod(fine.shape), 2)
    with pytest.raises(ValueError):
        nodes[0, 0] = 5.0


@pytest.mark.parametrize("kind", [Lattice, SpatialGrid])
@pytest.mark.parametrize("shape", [(9,), (6, 5)])
def test_gradient_stencil_is_the_centred_gradient(kind, shape):
    # The one gradient of a grid: flat (points, n), within rounding of
    # np.gradient's centred differences (one-sided at the edges) on
    # either placement, from one stencil built once and read-only.
    grid = kind([-1.0, 0.5][:len(shape)], [2.0, 1.5][:len(shape)], shape)
    v = np.random.default_rng(3).standard_normal(shape) * 40.0
    grad = grid.gradient(v)
    assert grad.shape == (v.size, len(shape))
    for k, h in enumerate(grid.widths):
        expect = np.gradient(v, h, axis=k).ravel()
        assert np.max(np.abs(grad[:, k] - expect)) <= 1e-13 * np.max(np.abs(v)) / h
    stencil = grid.gradient_stencil
    assert grid.gradient_stencil is stencil
    for a in stencil:
        with pytest.raises(ValueError):
            a.flat[0] = 0
