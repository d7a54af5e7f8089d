"""Desk-scale dynamic programming on a state lattice, and the backward
sweep that both value solvers run.

The conditional one-step expectation is a deterministic quadrature:
Gauss-Hermite nodes (5 per Brownian dimension) for the diffusion part,
an exact atomic sum with at most one jump per step for the Poisson part
(probability w_j dt for atom j, so the truncation error is O(dt^2)).
The jump compensator is folded into the drift exactly as in the forward
scheme, and the cost driver is applied explicitly:

    V_i(x) = min_u { E_u[V_{i+1}] + dt f(t_i, x, u, E_u[V_{i+1}], Z, k) }

with Z the quadrature estimate of the martingale slope and k the
l-weighted nonlocal increment of V_{i+1}.  For a fixed control the
quadrature is a sparse linear map of the next slice (a Markov-chain
approximation).  Values live on a :class:`Lattice`, the cell-center
placement of the regular :class:`Grid` whose node placement the PIDE
solver uses.  The grid interpolates, builds the stencils and looks up
nearest points; off-lattice evaluations clamp to the boundary, which
reads a constant extension past the edge, and are counted in the report.

:func:`backward_sweep` is the one backward minimisation over the control
grid; both value solvers run it with their own step builders, the
quadrature above and the explicit monotone step of :mod:`jumphjb.pide`.
Argmin ties break to the lowest control index, so tables are
bit-reproducible.

These routines require deterministic coefficients (no randomness
channels); the stochastic case is handled by the Galerkin solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .bsde import mean_ci, price, replicate
from .coefficients import (
    CoefficientSet,
    ControlSet,
    batch_eval,
    broadcast_control,
    compensated_drift,
)
from .drivers import (MarkMeasure, TimeGrid, check_batch_bytes, draw_noise, fields_equal,
                      write_csv)
from .errors import ConfigError, NumericError
from .forward import ConstantControl, Control, check_batch

__all__ = [
    "Grid",
    "Lattice",
    "ValueTable",
    "FeedbackPolicy",
    "backward_sweep",
    "compute_value_table",
    "dpp_residual",
    "epsilon_optimal_control",
    "gauss_hermite",
]


# Gauss-Hermite nodes per Brownian dimension of the lattice quadrature.
GH_NODES = 5


def gauss_hermite(n_nodes: int, d: int):
    """Tensor Gauss-Hermite rule for a standard normal in R^d.

    Returns (nodes (K, d), probability weights (K,)).
    """
    z, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * np.pi)
    nodes, weights = z[:, None], w
    for _ in range(d - 1):
        nodes = np.concatenate(
            [np.repeat(nodes, z.size, axis=0),
             np.tile(z, nodes.shape[0])[:, None]], axis=1)
        weights = np.outer(weights, w).ravel()
    return nodes, weights


class Stencil(NamedTuple):
    """A sparse linear map stored row by row at a common width: row r
    reads sum_s weights[r, s] v[indices[r, s]] (leading axes index the
    rows too, and extra leading axes of ``weights`` give several maps
    that read the same entries), and an index repeated within a row
    adds up."""

    indices: np.ndarray
    weights: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("...s,...s->...", self.weights, v[self.indices])


@dataclass(frozen=True)
class Grid:
    """Uniform grid over a box in R^n with ``shape[k]`` points on axis k.

    The class constant ``e`` places the points, and each placement is a
    subclass: 0 on the cell centers (:class:`Lattice`), 1 on the nodes,
    box ends included (:class:`~jumphjb.pide.SpatialGrid`).  Off-grid
    points clamp to the boundary in :meth:`interpolate` and
    :meth:`nearest`.  The box, the widths and the axes are the grid's
    own read-only arrays, built once.
    """

    lower: np.ndarray
    upper: np.ndarray
    shape: tuple
    e: ClassVar[int]
    __eq__ = fields_equal

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float, ndmin=1)
        upper = np.array(self.upper, dtype=float, ndmin=1)
        counts = np.atleast_1d(self.shape)
        if counts.dtype.kind not in "iu":
            raise ConfigError(f"grid point counts must be integers, got {self.shape!r}")
        shape = tuple(int(s) for s in counts)
        if lower.size != upper.size or lower.size != len(shape):
            raise ConfigError("grid box and shape dimensions disagree")
        with np.errstate(over="ignore", invalid="ignore"):
            span = upper - lower
        # A non-finite end or an overflowing width makes the span non-finite.
        if not np.all(np.isfinite(span) & (span > 0)) or any(s < 1 + self.e for s in shape):
            raise ConfigError(
                f"grid box must be finite and nonempty with >= {1 + self.e} points per dim")
        # The axes and the points, 8 bytes a coordinate, before any is built.
        check_batch_bytes(8.0 * (sum(shape) + len(shape) * math.prod(shape)))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "shape", shape)
        widths = span / (np.array(shape) - self.e)
        axes = []
        for lo, hi, w, s in zip(lower, upper, widths, shape):
            axis = lo + w * (np.arange(s) + (1 - self.e) / 2)
            if self.e:
                axis[-1] = hi
            axis.flags.writeable = False
            axes.append(axis)
        for a in (lower, upper, widths):
            a.flags.writeable = False
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_axes", tuple(axes))

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        """The point spacing on each axis, built once, read-only."""
        return self._widths

    def axes(self) -> tuple:
        """Each axis's coordinates, built once, read-only; on nodes the
        last one is ``upper`` itself, which makes the axis np.linspace
        bit for bit."""
        return self._axes

    def nodes(self) -> np.ndarray:
        """All grid points, shape (n_points, n), C-order over the grid;
        built on the first call and then shared, read-only."""
        if "_nodes" not in self.__dict__:
            mesh = np.meshgrid(*self.axes(), indexing="ij")
            nodes = np.stack([m.ravel() for m in mesh], axis=1)
            nodes.flags.writeable = False
            object.__setattr__(self, "_nodes", nodes)
        return self._nodes

    def refine(self, factor: int = 2) -> "Grid":
        return type(self)(self.lower, self.upper,
                          tuple((s - self.e) * factor + self.e for s in self.shape))

    def stencil(self, points: np.ndarray):
        """The corners and weights of :meth:`interpolate` as a
        :class:`Stencil` (M rows of 2^n flat C-order grid indices), and
        the number of clamped coordinates.  Corner c takes the upper
        neighbour along axis k when bit k of c is set."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        axes, widths = self.axes(), self.widths
        M, n = points.shape[0], len(axes)
        idx0 = np.zeros((M, n), dtype=int)
        frac = np.zeros((M, n))
        clamped = 0
        for k, c in enumerate(axes):
            x = points[:, k]
            clamped += int(np.count_nonzero((x < c[0]) | (x > c[-1])))
            if c.size > 1:
                # np.minimum(np.maximum(.)) is np.clip without its call overhead.
                pos = (np.minimum(np.maximum(x, c[0]), c[-1]) - c[0]) / widths[k]
                idx0[:, k] = np.minimum(np.maximum(np.floor(pos).astype(int), 0), c.size - 2)
                frac[:, k] = np.minimum(np.maximum(pos - idx0[:, k], 0.0), 1.0)
        index, weights = np.zeros((M, 1 << n), dtype=int), np.ones((M, 1 << n))
        for corner in range(1 << n):
            for k, c in enumerate(axes):
                hi = (corner >> k) & 1
                weights[:, corner] *= frac[:, k] if hi else 1.0 - frac[:, k]
                index[:, corner] = (index[:, corner] * c.size
                                    + np.minimum(idx0[:, k] + hi, c.size - 1))
        return Stencil(index, weights), clamped

    def interpolate(self, values: np.ndarray, points: np.ndarray):
        """Multilinear interpolation at ``points`` (M, n) with clamping.

        Returns (interpolated (M,), number of clamped coordinates).
        Clamping keeps the monotone schemes monotone: points outside
        [axes[k][0], axes[k][-1]] read the nearest boundary value.
        """
        (index, weights), clamped = self.stencil(points)
        flat = np.asarray(values, dtype=float).reshape(self.shape).ravel()
        out = np.zeros(index.shape[0])
        for corner in range(index.shape[1]):
            out += weights[:, corner] * flat[index[:, corner]]
        return out, clamped

    def nearest(self, points: np.ndarray) -> tuple:
        """Per-axis index of the grid point nearest to each of ``points``.

        Off-grid points get the nearest boundary index.
        """
        points, widths = np.atleast_2d(points), self.widths
        idx = []
        for k, c in enumerate(self.axes()):
            i = np.round((points[:, k] - c[0]) / widths[k]).astype(int)
            idx.append(np.minimum(np.maximum(i, 0), c.size - 1))
        return tuple(idx)

    @cached_property
    def gradient_stencil(self) -> Stencil:
        """The centred gradient, one-sided at the edges, as a
        :class:`Stencil`; built on first use and then shared, read-only.
        ``indices`` (n, n_points, 2) hold each point's up and down
        neighbour along axis k, the point itself past an edge (so a
        one-point axis reads a zero gradient), and ``weights`` the
        matching +-1 / (2 h_k), or +-1 / h_k at an edge."""
        node = np.arange(math.prod(self.shape))
        pos = np.indices(self.shape).reshape(self.n, -1)
        strides = np.cumprod((1,) + self.shape[:0:-1])[::-1, None]
        first, last = pos == 0, pos == np.array(self.shape)[:, None] - 1
        q = 1.0 / (self.widths[:, None] * np.maximum(2.0 - first - last, 1.0))
        grad = Stencil(np.stack([node + strides * ~last, node - strides * ~first], axis=-1),
                       np.stack([q, -q], axis=-1))
        for a in grad:
            a.flags.writeable = False
        return grad

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """The :attr:`gradient_stencil` applied to a field on the grid:
        (n_points, n), one row per point in the order of :meth:`nodes`."""
        flat = np.asarray(values, dtype=float).reshape(self.shape).ravel()
        return self.gradient_stencil.apply(flat).T


class Lattice(Grid):
    """Uniform cell-center lattice over a box in R^n."""

    e = 0


@dataclass
class ValueTable:
    """Backward-recursion values and argmin controls on the lattice."""

    lattice: Lattice
    grid: TimeGrid
    control_set: ControlSet
    values: np.ndarray
    argmin: np.ndarray
    clamped_points: int = 0

    def value_at(self, t_node: int, x) -> float:
        v, _ = self.lattice.interpolate(self.values[t_node], np.atleast_2d(x))
        return float(v[0])

    def policy(self) -> "FeedbackPolicy":
        return FeedbackPolicy(self.lattice, self.grid, self.control_set, self.argmin)

    def to_csv(self, path) -> None:
        centers = self.lattice.nodes()
        nt, pts = self.values.shape[0], centers.shape[0]
        reals = np.column_stack([np.repeat(self.grid.nodes, pts), np.tile(centers, (nt, 1)),
                                 self.values.reshape(-1)]).tolist()
        argmin = np.full((nt, pts), -1)
        argmin[:self.argmin.shape[0]] = self.argmin.reshape(-1, pts)
        write_csv(path, ["t"] + [f"x_{k+1}" for k in range(self.lattice.n)] + ["value", "argmin"],
                  [r + [a] for r, a in zip(reals, argmin.ravel().tolist())])


class FeedbackPolicy(Control):
    """Markov feedback policy: (time node, grid point) -> control atom.

    The space is a :class:`Grid` of either placement (the cell centers
    of a value table or the nodes of a PIDE solution); states use
    :meth:`Grid.nearest`, so off-grid ones get the nearest boundary
    point.  Total by construction: every point of every time slice
    carries an atom index.
    """

    def __init__(self, space: Grid, grid: TimeGrid, control_set: ControlSet,
                 table: np.ndarray):
        self.space = space
        self.grid = grid
        self.control_set = control_set
        self.table = np.asarray(table, dtype=int)
        if self.table.shape[1:] != space.shape:
            raise ValueError("policy table shape does not match the grid")
        if self.table.min() < 0 or self.table.max() >= control_set.n_atoms:
            raise ValueError("policy table entries must index control atoms")

    def cell_of(self, points: np.ndarray) -> tuple:
        return self.space.nearest(points)

    def value_batch(self, i, t, x, noise):
        cell = self.cell_of(x)
        return self.control_set.atoms[self.table[min(i, self.table.shape[0] - 1)][cell]]


def _require_deterministic(coeffs: CoefficientSet, who: str):
    if coeffs.is_random:
        raise ConfigError(
            f"{who} requires deterministic coefficients "
            f"(randomness channels {coeffs.randomness_channels!r} declared)")


def point_coefficients(coeffs: CoefficientSet, measure: MarkMeasure, t,
                       X: np.ndarray, u) -> tuple:
    """b~, sigma and the jumps g_j of one control at the points ``X``."""
    b_tilde, gs = compensated_drift(coeffs, measure, t, X, u, None)
    return b_tilde, batch_eval(coeffs.sigma, t, X, u, None, (X.shape[1], coeffs.d)), gs


def backward_sweep(coeffs: CoefficientSet, control_set: ControlSet, space: Grid,
                   grid: TimeGrid, measure: MarkMeasure, who: str, build, step,
                   advance, *, dt_keyed: bool) -> tuple:
    """The backward minimisation over the control grid U_h on ``space``.

    The terminal slice is h at the points.  A step evaluates b~, sigma
    and g in one call on the points of every control stacked, control
    iu on rows iu*C to (iu+1)*C - 1 (the batch convention), so
    coefficients that move with t are caught bit for bit on every step.
    Each control takes its rows and its operator from ``build(b_tilde,
    sig, gs, dt)``, reused while those values are bitwise the ones it
    was built for and, when ``dt_keyed`` (the operator reads dt), dt is
    its step up to the rounding of the node times (the steps of a
    uniform grid differ by that much); an operator that does not read
    dt serves every step of a graded grid.
    l(t, e) stays outside the operator, in the step's atom weights
    ``jump_w``.  ``step(t, dt, v_next, jump_w)`` returns the step's row:
    ``row(op, u, sig)`` is one control's total at every point.  The
    minimum over U_h (lowest index on ties) goes to ``advance(v_next,
    best, dt)``, which returns the new slice, flat like ``v_next``; a
    non-finite slice raises NumericError.

    Returns (values (N+1, *shape), argmin (N, *shape), the clamped
    coordinates of every operator use, as ``op.clamped`` counts them).
    """
    _require_deterministic(coeffs, who)
    if space.n != coeffs.n:
        raise ConfigError(f"{who}: grid dimension does not match the state dimension")
    X = space.nodes()
    C, N = X.shape[0], grid.n_steps
    values = np.empty((N + 1,) + space.shape)
    argmin = np.empty((N,) + space.shape, dtype=int)
    values[N] = np.asarray(coeffs.h(X, None), dtype=float).reshape(space.shape)

    clamped = 0
    U = control_set.n_atoms
    keys, steps, ops = ([None] * U for _ in range(3))
    totals, cols = np.empty((U, C)), np.arange(C)
    X_all = np.tile(X, (U, 1))
    u_all = np.concatenate([broadcast_control(u, C) for u in control_set.atoms])
    rows = [slice(iu * C, (iu + 1) * C) for iu in range(U)]
    dt_slack = 4.0 * np.spacing(np.max(np.abs(grid.nodes)))
    mark_w = np.asarray(measure.weights)
    for i in range(N - 1, -1, -1):
        t = float(grid.nodes[i])
        dt = float(grid.dt[i])
        v_next = values[i + 1].ravel()
        jump_w = mark_w * [float(coeffs.l(t, mark)) for mark in measure.marks]
        row = step(t, dt, v_next, jump_w)
        b_all, sig_all, gs_all = point_coefficients(coeffs, measure, t, X_all, u_all)
        for iu, r in enumerate(rows):
            u, b_tilde, sig, gs = u_all[r], b_all[r], sig_all[r], [g[r] for g in gs_all]
            key = (b_tilde.tobytes(), sig.tobytes(), *(g.tobytes() for g in gs))
            if keys[iu] != key or (dt_keyed and abs(dt - steps[iu]) > dt_slack):
                keys[iu], steps[iu], ops[iu] = key, dt, build(b_tilde, sig, gs, dt)
            clamped += ops[iu].clamped
            totals[iu] = row(ops[iu], u, sig)
        best_idx = totals.argmin(axis=0)
        values[i] = advance(v_next, totals[best_idx, cols], dt).reshape(space.shape)
        argmin[i] = best_idx.reshape(space.shape)
        if not np.all(np.isfinite(values[i])):
            raise NumericError(f"{who}: the value became non-finite at time node {i}")
    return values, argmin, clamped


@dataclass(eq=False)
class StepOperator:
    """A control's one-step quadrature: the interpolation stencil of its
    points, the quadrature over the continuation points and the clamped
    coordinates of its points.

    :meth:`channels` reads it on a slice.  Its first use applies the
    stencil, 2^n reads per point, and then the quadrature.  The second
    use, the first reuse by a later step, composes the two into
    ``banded``, one map per cell over the distinct offsets its cells
    read, which replaces the stencil, and every use from then on is one
    gather and one product.  An operator that serves one step only, as
    for coefficients that move with t, never pays for the composition,
    and one whose map would be wider than its stencil keeps the stencil
    (:meth:`_compose`).
    """

    stencil: Stencil | None
    quadrature: np.ndarray
    clamped: int
    banded: Stencil | None = None
    uses: int = 0

    def channels(self, v: np.ndarray) -> np.ndarray:
        """E_u[V], the slopes Z_1..Z_d and the J jump-shift reads of the
        flat slice ``v`` at every cell, shape (1 + d + J, cells)."""
        self.uses += 1
        if self.uses == 2:
            self.banded = self._compose(v.size)
            if self.banded is not None:
                self.stencil = None
        if self.banded is not None:
            return self.banded.apply(v)
        read = self.stencil.apply(v).reshape(-1, v.size)
        n_cont = self.quadrature.shape[1]
        return np.concatenate([self.quadrature @ read[:n_cont], read[n_cont:]])

    def _compose(self, C: int) -> Stencil | None:
        """The stencil and the quadrature as one :class:`Stencil` with
        ``indices`` (C, K), each cell plus the K distinct flat offsets
        its cells read (not the min-to-max range, which spans whole
        rows for n > 1), and ``weights`` (1 + d + J, C, K), one
        np.bincount per channel.

        None when K exceeds the stencil's reads per cell.  K grows with
        the lattice when a shift moves with x (a jump g = c x reads
        about c x / width cells away), and a map wider than the stencil
        costs more to apply than the stencil and the quadrature it
        would replace."""
        idx = self.stencil.indices.reshape(-1, C, self.stencil.indices.shape[-1])
        w = self.stencil.weights.reshape(idx.shape)
        cells = np.arange(C)[:, None]
        # np.unique with its inverse, by a presence count in place of a sort.
        slot = idx - cells
        lo = slot.min()
        slot -= lo
        seen = np.bincount(slot.ravel()) > 0
        offsets = np.flatnonzero(seen) + lo
        K = offsets.size
        if K > idx.shape[0] * idx.shape[2]:
            return None
        slot = (np.cumsum(seen) - 1)[slot]
        slot += K * cells
        n_cont, d = self.quadrature.shape[1], self.quadrature.shape[0] - 1
        weights = np.empty((idx.shape[0] - n_cont + 1 + d, C * K))
        for p, q in enumerate(self.quadrature):
            weights[p] = np.bincount(slot[:n_cont].ravel(),
                                     (q[:, None, None] * w[:n_cont]).ravel(), C * K)
        for j, r in enumerate(range(n_cont, idx.shape[0])):
            weights[1 + d + j] = np.bincount(slot[r].ravel(), w[r].ravel(), C * K)
        # A cell's slots that read nothing get weight 0 and a valid index.
        indices = np.minimum(np.maximum(cells + offsets, 0), C - 1)
        return Stencil(indices, weights.reshape(-1, C, K))


def _step_operator(lattice: Lattice, b_tilde, sig, gs, dt: float,
                   zeta: np.ndarray, gh_w: np.ndarray,
                   measure: MarkMeasure) -> StepOperator:
    """The one-step quadrature of one control.

    The continuation points are X + b~ dt + sqrt(dt) sigma zeta_q; each
    is read as it is with probability 1 - lambda dt and shifted by g_j
    with w_j dt.  The stencil reads every continuation point, then the
    shifted centers X + g_j, C rows each.  Row 0 of the quadrature sums
    the continuation rows into E_u[V] (Gauss-Hermite weights w_q), row
    1 + k into the slope channel Z_k (weights w_q zeta_qk / sqrt(dt)).
    The operator composes the two into its banded map when a second
    step reuses it and the map is no wider than the stencil
    (:class:`StepOperator`).
    """
    X = lattice.nodes()
    n = X.shape[1]
    sqdt = np.sqrt(dt)
    cont = X + b_tilde * dt + sqdt * np.moveaxis(sig @ zeta.T, -1, 0)
    jumps = np.stack([np.zeros_like(X)] + list(gs))
    stencil, clamped = lattice.stencil(
        np.concatenate([(cont[:, None] + jumps).reshape(-1, n),
                        (X + jumps[1:]).reshape(-1, n)]))
    branch = np.concatenate([[1.0 - measure.total_mass * dt],
                             np.asarray(measure.weights) * dt])
    quadrature = np.concatenate([gh_w[None], (gh_w / sqdt) * zeta.T])[:, :, None] * branch
    return StepOperator(stencil, quadrature.reshape(1 + zeta.shape[1], -1), clamped)


def compute_value_table(coeffs: CoefficientSet, control_set: ControlSet,
                        lattice: Lattice, grid: TimeGrid, measure: MarkMeasure) -> ValueTable:
    """Backward dynamic programming over the control grid U_h.

    :func:`backward_sweep` on the cell centers with the one-step
    quadrature of :func:`_step_operator` as each control's operator: a
    control's total is E_u[V] + dt f at every center, and the minimum
    over U_h, with its argmin, is the new slice.  A step reads E_u[V],
    Z and the jump shifts of a control through
    :meth:`StepOperator.channels`: one stencil apply and one quadrature
    product on the operator's first step, one gather and one product
    on the banded map on every step that reuses it, unless that map
    would be wider than the stencil.
    """
    lam = measure.total_mass
    max_dt = float(np.max(grid.dt))
    if lam * max_dt > 1.0:
        raise ConfigError(
            f"jump intensity {lam} times dt {max_dt} exceeds 1; refine the grid")
    X = lattice.nodes()
    C, d = X.shape[0], coeffs.d
    zeta, gh_w = gauss_hermite(GH_NODES, d)

    def build(b_tilde, sig, gs, dt):
        return _step_operator(lattice, b_tilde, sig, gs, dt, zeta, gh_w, measure)

    def step(t, dt, v_next, jump_w):
        def row(op, u, sig):
            read = op.channels(v_next)
            e_val, z_val = read[0], read[1:1 + d].T
            k_val = jump_w @ (read[1 + d:] - v_next)
            f_val = coeffs.f(t, X, u, e_val, z_val, k_val, None)
            return e_val + dt * np.asarray(f_val, dtype=float).reshape(C)
        return row

    values, argmin, clamped = backward_sweep(
        coeffs, control_set, lattice, grid, measure, "compute_value_table",
        build, step, lambda v_next, best, dt: best, dt_keyed=True)
    return ValueTable(lattice, grid, control_set, values, argmin, clamped)


def dpp_residual(coeffs: CoefficientSet, control_set: ControlSet,
                 table: ValueTable, measure: MarkMeasure, t_node: int, x,
                 delta_nodes: int, n_samples: int, seed) -> float:
    """| V(t,x) - min_u G^{t,x;u}_{t,t+delta}[ V(t+delta, .) ] |.

    The inner semigroup runs the BSDE over [t, t+delta] with constant
    controls from U_h and the interpolated table slice as terminal
    data.  All of U_h is priced in one :func:`~jumphjb.bsde.price` call
    on one bank drawn from the seed (common random numbers), so each
    path is drawn once and the controls run as one stacked batch; over
    delta = 0 the residual is 0.
    """
    grid = table.grid
    if t_node + delta_nodes > grid.n_steps:
        raise ConfigError("delta_nodes exceeds the table horizon")
    if delta_nodes == 0:
        return 0.0
    v_slice = table.values[t_node + delta_nodes]

    def eta(states):
        return table.lattice.interpolate(v_slice, states)[0]

    check_batch(coeffs, measure, n_samples, delta_nodes)
    bank = draw_noise(grid, coeffs.d, measure, n_samples, seed, t_node,
                      t_node + delta_nodes)
    best = float(price(coeffs, [ConstantControl(u) for u in control_set.atoms], x, bank,
                       terminal=eta).min())
    return abs(table.value_at(t_node, x) - best)


@dataclass
class EpsilonOptimalResult:
    control: Control
    achieved_j: float
    ci_half_width: float
    v_estimate: float
    converged: bool
    rounds: int
    evaluations: list = field(default_factory=list)


def epsilon_optimal_control(coeffs: CoefficientSet, control_set: ControlSet,
                            grid: TimeGrid, measure: MarkMeasure,
                            lattice: Lattice, t_node: int, x, eps: float,
                            n_samples: int, seed,
                            max_rounds: int = 3) -> EpsilonOptimalResult:
    """Search for a control with cost within eps of the estimated value.

    Rounds alternate candidate evaluation (constant controls from the
    current U_h, then the greedy feedback policy of a value table) with
    joint refinement of U_h and the lattice.  A round prices all its
    candidates in one :func:`~jumphjb.bsde.replicate` call, then scans
    them in order and stops as soon as the best Monte Carlo cost is
    below V_est + eps + CI; if the budget runs out the best candidate
    is returned flagged as not converged.
    """
    _require_deterministic(coeffs, "epsilon_optimal_control")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    evaluations = []
    best_j = np.inf
    best_ci = 0.0
    best_control: Control | None = None
    u_set = control_set
    lat = lattice
    v_est = np.inf
    rounds = 0

    for round_idx in range(max_rounds):
        rounds = round_idx + 1
        table = compute_value_table(coeffs, u_set, lat, grid, measure)
        v_est = table.value_at(t_node, x)
        names = [f"constant[{iu}]" for iu in range(u_set.n_atoms)] + ["feedback"]
        candidates = [ConstantControl(u) for u in u_set.atoms] + [table.policy()]
        costs = replicate(coeffs, candidates, x, grid, measure, n_samples, seed,
                          start_node=t_node)
        for k, (name, cand) in enumerate(zip(names, candidates)):
            j, half = mean_ci(costs[:, k])
            evaluations.append({"round": rounds, "candidate": name, "j": j, "ci": half})
            if j < best_j:
                best_j, best_ci, best_control = j, half, cand
            if best_j <= v_est + eps + best_ci:
                return EpsilonOptimalResult(
                    best_control, best_j, best_ci, v_est, True, rounds, evaluations)
        if u_set.n_atoms > 1:
            lo, hi = u_set.lower, u_set.upper
            k = min(2 * u_set.n_atoms - 1, 65)
            atoms = np.stack([
                np.linspace(lo[j], hi[j], k) for j in range(u_set.m)
            ], axis=1)
            u_set = ControlSet(atoms, lo, hi)
        lat = lat.refine(2)

    return EpsilonOptimalResult(
        best_control, best_j, best_ci, v_est, False, rounds, evaluations)
