"""Hamiltonian, nonlocal operator, and the degenerate HJB integro-PDE.

With deterministic coefficients the backward stochastic HJB collapses
to a deterministic nonlinear second-order PIDE,

    -dV/dt = inf_u { H(t,x,u, DV, 0, D^2 V, k(V))
                     + int_E [ I V - (g, DV) ] nu(de) },
    V(T, .) = h,

where I V(t,e,x,u) = V(t, x + g(t,e,x,u)) - V(t,x) is the nonlocal jump
operator and k(V) = int_E I V l(t,e) nu(de) feeds the driver's jump
slot.  The field lives on a :class:`SpatialGrid`, the node placement
(box ends included) of :class:`~jumphjb.dpp.Grid`, whose interpolation
and stencil read it between the nodes.  The solver steps this
explicitly.  Per control it keeps a local generator (upwind
differences on the compensated drift b - int g nu(de), central second
differences), reused while b~ and sigma at the nodes stay bitwise the
same, and the jump shifts (clamped linear interpolation at x + g),
reused while g does.  Every generator build checks the monotone step
bound.

The Hamiltonian follows

    H(t,x,u,p,q,A,k) = f(t,x,u, y, sigma^T p + phi, k)
                       + (p, b) + (q, sigma)_F + 1/2 Tr[A sigma sigma^T],

where q is the x-gradient of the martingale field Phi and phi its
value; with deterministic coefficients both vanish.  The driver's y
slot is fed the field value V(t,x).  :func:`hamiltonian` and
:func:`nonlocal_apply` (the jump terms, int I Psi nu(de) among them)
take a batch of points, and the verification integrand of
:func:`verification_run` and :func:`drift_consistency_residual` is
their sum at the grid nodes, minimised over the controls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bsde import PolynomialBasis, mean_ci, replicate
from .coefficients import (
    CoefficientSet,
    ControlSet,
    batch_eval,
    broadcast_control,
    compensated_drift,
)
from .dpp import FeedbackPolicy, Grid, Stencil
from .drivers import MarkMeasure, TimeGrid, write_csv
from .errors import CflViolationError, ConfigError, NumericError
from .forward import ConstantControl, OpenLoopControl

__all__ = [
    "SpatialGrid",
    "RandomFieldTriplet",
    "PideSolution",
    "hamiltonian",
    "nonlocal_apply",
    "NonlocalResult",
    "solve_pide_deterministic",
    "drift_consistency_residual",
    "verification_run",
    "VerificationReport",
]


class SpatialGrid(Grid):
    """Uniform node grid (endpoints included) over a box in R^n."""

    e = 1


@dataclass
class RandomFieldTriplet:
    """Grid representation of the value field and its martingale parts.

    ``V`` has shape (N+1, *space); ``Phi`` (N+1, n_phi, *space) holds
    one field per carried Brownian channel and ``Psi`` (N+1, n_atoms,
    *space) one per jump atom.  Deterministic problems carry zero Phi
    and Psi.
    """

    space: SpatialGrid
    time_nodes: np.ndarray
    V: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray

    def __post_init__(self):
        nt = self.time_nodes.size
        if self.V.shape[0] != nt or self.Phi.shape[0] != nt or self.Psi.shape[0] != nt:
            raise ValueError("field arrays must carry one slice per time node")
        if not np.all(np.isfinite(self.V)):
            raise ValueError("V contains non-finite entries")

    @classmethod
    def deterministic(cls, space: SpatialGrid, time_nodes, V,
                      n_atoms: int) -> "RandomFieldTriplet":
        nt = np.asarray(time_nodes).size
        return cls(space, np.asarray(time_nodes, dtype=float),
                   np.asarray(V, dtype=float),
                   np.zeros((nt, 1) + space.shape),
                   np.zeros((nt, n_atoms) + space.shape))

    def value_at(self, t_node: int, x) -> float:
        v, _ = self.space.interpolate(self.V[t_node], np.atleast_2d(x))
        return float(v[0])

    def to_csv(self, path) -> None:
        """One row per (time, node): t, x_1..x_n, V, Phi_c, Psi_j."""
        nodes = self.space.nodes()
        nt, pts = self.time_nodes.size, nodes.shape[0]
        per_node = np.concatenate([self.V[:, None], self.Phi, self.Psi], axis=1)
        per_node = per_node.reshape(nt, -1, pts).transpose(0, 2, 1).reshape(nt * pts, -1)
        write_csv(path, ["t"] + [f"x_{k+1}" for k in range(self.space.n)] + ["V"]
                  + [f"Phi_{c+1}" for c in range(self.Phi.shape[1])]
                  + [f"Psi_{j+1}" for j in range(self.Psi.shape[1])],
                  np.column_stack([np.repeat(self.time_nodes, pts),
                                   np.tile(nodes, (nt, 1)), per_node]).tolist())

    @classmethod
    def from_csv(cls, path, space: SpatialGrid) -> "RandomFieldTriplet":
        """Read back a :meth:`to_csv` file.  Rows of different times may
        interleave; the rows of one time come in node order."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n_phi = sum(c.startswith("Phi_") for c in header)
        pts = int(np.prod(space.shape))
        times, at, counts = np.unique(body[:, 0], return_inverse=True, return_counts=True)
        if not times.size or np.any(counts != pts):
            raise ValueError("CSV rows do not fill the spatial grid")
        # (column, time, *space): a column's slice of one time is its field.
        cols = body[np.argsort(at, kind="stable")].T.reshape((-1, times.size) + space.shape)
        lo = 2 + space.n
        Phi = cols[lo:lo + n_phi] if n_phi else np.zeros((1, times.size) + space.shape)
        return cls(space, times, cols[lo - 1], Phi.swapaxes(0, 1),
                   cols[lo + n_phi:].swapaxes(0, 1))


def hamiltonian(coeffs: CoefficientSet, t, x, u, p, dphi, hess, k_agg,
                noise=None, y=0.0, phi=None) -> np.ndarray:
    """Hamiltonian of the control problem on a batch of B points, (B,).

    ``x`` (B, n) are the points and ``u`` one control or one per row;
    ``p`` (B, n) is the value gradient, ``dphi`` (B, n, d) the gradient
    of the martingale field, ``hess`` (B, n, n) the symmetric value
    Hessian, ``k_agg`` (B,) the l-weighted nonlocal aggregate, ``phi``
    (B, d) the martingale field value entering the driver's z slot and
    ``y`` (B,) the field value feeding the driver's y slot.  ``t`` is
    shared or one per row.  A non-finite value raises NumericError.
    """
    x = np.asarray(x, dtype=float)
    (B, n), d = x.shape, coeffs.d
    p = np.asarray(p, dtype=float).reshape(B, n)
    hess = np.asarray(hess, dtype=float).reshape(B, n, n)
    if not np.allclose(hess, np.swapaxes(hess, 1, 2), atol=1e-12):
        raise ValueError("the Hessian argument must be symmetric")
    u = broadcast_control(u, B)
    b = batch_eval(coeffs.b, t, x, u, noise, (n,))
    sig = batch_eval(coeffs.sigma, t, x, u, noise, (n, d))
    z_slot = np.einsum("cij,ci->cj", sig, p)
    if phi is not None:
        z_slot = z_slot + np.asarray(phi, dtype=float).reshape(B, d)
    f_val = np.asarray(coeffs.f(
        t, x, u, np.broadcast_to(np.asarray(y, dtype=float), (B,)), z_slot,
        np.broadcast_to(np.asarray(k_agg, dtype=float), (B,)), noise),
        dtype=float).reshape(B)
    q_sigma = 0.0 if dphi is None else np.sum(
        np.asarray(dphi, dtype=float).reshape(B, n, d) * sig, axis=(1, 2))
    val = (f_val + np.sum(b * p, axis=1) + q_sigma
           + 0.5 * np.einsum("cik,cik->c", hess, np.einsum("cij,ckj->cik", sig, sig)))
    if not np.all(np.isfinite(val)):
        bad = int(np.argmax(~np.isfinite(val)))
        raise NumericError(f"Hamiltonian evaluated to {val[bad]!r} at x={x[bad]}")
    return val


@dataclass
class NonlocalResult:
    """Jump terms at B points: ``per_atom`` (B, n_atoms) increments and
    (B,) nu-aggregates, with the clamped coordinates of the points read."""

    per_atom: np.ndarray
    integral: np.ndarray
    compensated: np.ndarray
    weighted: np.ndarray
    psi: np.ndarray
    clamped: int


def nonlocal_apply(space: SpatialGrid, v_slice: np.ndarray,
                   coeffs: CoefficientSet, t, x, u, measure: MarkMeasure,
                   psi_slice: np.ndarray | None = None,
                   dv=None, noise=None) -> NonlocalResult:
    """Jump operator values I V(t, e, x, u) and their nu-aggregates.

    ``x`` (B, n) are the points, or None for the nodes of ``space``,
    where the fields are read as they are rather than interpolated;
    ``u`` is one control or one per row and ``t`` a scalar.  Returns
    per-atom increments V(x + g) - V(x), the plain integral
    int I V nu(de), the compensated integral int [I V - (g, DV)] nu(de),
    the l-weighted aggregate int (I V + Psi(e, x + g)) l(t,e) nu(de)
    feeding the driver and int I Psi nu(de).  One stencil per atom reads
    V and Psi at x + g.  ``psi_slice`` has one field per atom; omit it
    for deterministic problems.  ``dv`` (B, n) is the value gradient at
    x, taken from the central differences of the slice when omitted.
    """
    v_flat = np.asarray(v_slice, dtype=float).ravel()
    psi = (np.zeros((measure.n_atoms, v_flat.size)) if psi_slice is None
           else np.asarray(psi_slice, dtype=float).reshape(measure.n_atoms, v_flat.size))
    clamped = 0
    if x is None:
        x, read = space.nodes(), np.asarray
    else:
        x = np.asarray(x, dtype=float)
        here, clamped = space.stencil(x)
        read = here.apply
    v_here, psi_here = read(v_flat), [read(field) for field in psi]
    if dv is None:
        grad = space.gradient(v_slice).reshape(-1, space.n)
        dv = np.stack([read(column) for column in grad.T], axis=1)
    dv = np.asarray(dv, dtype=float).reshape(x.shape)
    B = x.shape[0]
    per_atom = np.zeros((B, measure.n_atoms))
    integral, compensated, weighted, psi_term = (np.zeros(B) for _ in range(4))
    for j, (mark, w) in enumerate(zip(measure.marks, measure.weights)):
        g = batch_eval(coeffs.g, t, x, u, noise, (space.n,), mark)
        shift, cl = space.stencil(x + g)
        clamped += cl
        inc = shift.apply(v_flat) - v_here
        psi_shift = shift.apply(psi[j])
        per_atom[:, j] = inc
        integral += w * inc
        compensated += w * (inc - np.sum(g * dv, axis=1))
        psi_term += w * (psi_shift - psi_here[j])
        weighted += w * float(coeffs.l(t, mark)) * (inc + psi_shift)
    return NonlocalResult(per_atom, integral, compensated, weighted, psi_term, clamped)


@dataclass
class PideSolution:
    triplet: RandomFieldTriplet
    argmin: np.ndarray
    control_set: ControlSet
    clamped: int = 0

    @property
    def gamma(self) -> np.ndarray:
        """Drift field from time differencing: V_i = V_{i+1} + dt Gamma_i."""
        dt = np.diff(self.triplet.time_nodes)
        return (self.triplet.V[:-1] - self.triplet.V[1:]) / dt.reshape(
            (-1,) + (1,) * self.triplet.space.n)

    def value_at(self, t_node: int, x) -> float:
        return self.triplet.value_at(t_node, x)


class NodePattern(NamedTuple):
    """What the maps of every control share on one node grid: the grid
    and its nodes, the columns of the local generator, per axis the
    interior mask, the weights of the cross difference D_0 D_1 (n = 2)
    and the centered gradient, one-sided at the edges."""

    space: SpatialGrid
    nodes: np.ndarray
    columns: np.ndarray
    inner: np.ndarray
    cross: np.ndarray
    gradient: Stencil

    @classmethod
    def of(cls, space: SpatialGrid) -> "NodePattern":
        X = space.nodes()
        C, n = X.shape
        pos = np.indices(space.shape).reshape(n, C)
        strides = np.cumprod((1,) + space.shape[:0:-1])[::-1]
        node = np.arange(C)
        cols, inner, grad = [], [], []
        for k in range(n):
            first, last, st = pos[k] == 0, pos[k] == space.shape[k] - 1, strides[k]
            # Forward and backward differences; at the far edge each falls
            # back to the adjacent one (linear ghost).
            up, down = node + st * ~last, node - st * ~first
            inner.append(~(first | last))
            cols += [up, up - st, down + st, down,
                     node - st * inner[k], node, node + st * inner[k]]
            q = 1.0 / (space.widths[k] * (2.0 - first - last))
            grad.append(Stencil(np.stack([up, down], axis=1), np.stack([q, -q], axis=1)))
        cross = np.zeros((C, 0))
        if n == 2:
            # D_0 D_1, the composition of the centered gradients.
            (i0, w0), (i1, w1) = grad
            cols += [i0[:, s0] + i1[:, s1] - node for s0 in range(2) for s1 in range(2)]
            cross = np.stack([w0[:, s0] * w1[:, s1] for s0 in range(2) for s1 in range(2)],
                             axis=1)
        return cls(space, X, np.stack(cols, axis=1),
                   np.array(inner), cross, Stencil(*(np.stack(x) for x in zip(*grad))))


class LocalGenerator(NamedTuple):
    """A control's cached local generator, the (b~, sigma) key it was
    built for and its monotone step bound."""

    key: tuple
    stencil: Stencil
    bound: float


class JumpShifts(NamedTuple):
    """A control's cached shifts S_j V = V(x + g_j) as (n_atoms, C) rows,
    the g key they were built for and the clamped coordinates of the
    shifted nodes."""

    key: tuple
    stencil: Stencil
    clamped: int


def _local_generator(pattern: NodePattern, key: tuple, b_tilde, sig,
                     lam: float) -> LocalGenerator:
    """Upwind transport on b~ plus 1/2 a D^2 at interior nodes (and
    a_01 D_0 D_1 when n = 2), so that the generator is L_u V = local V +
    sum_j w_j (S_j V - V), with a = sigma sigma^T.

    The explicit step stays monotone while dt times lambda + sum_k
    (|b_k| / h_k + a_kk / h_k^2) + sum_{k < k2} |a_kk2| / (h_k h_k2) is
    at most 1 at every node; the bound is that largest dt.
    """
    C, n = b_tilde.shape
    h = pattern.space.widths
    a = np.einsum("cij,ckj->cik", sig, sig)
    slope = b_tilde / h
    fwd = np.maximum(slope, 0.0)
    bwd = slope - fwd
    curve = np.einsum("ckk->ck", a) / h ** 2
    half = 0.5 * curve * pattern.inner.T
    weights = np.concatenate([
        np.stack([fwd, -fwd, bwd, -bwd, half, -2.0 * half, half], axis=-1).reshape(C, -1),
        a[:, 0, -1, None] * pattern.cross], axis=1)
    rate = lam + np.abs(slope).sum(axis=1) + curve.sum(axis=1)
    if n == 2:
        rate += np.abs(a[:, 0, 1]) / (h[0] * h[1])
    worst = float(np.max(rate))
    # With no drift, diffusion or jumps every step is monotone.
    return LocalGenerator(key, Stencil(pattern.columns, weights),
                          1.0 / worst if worst > 0 else np.inf)


def _jump_shifts(pattern: NodePattern, key: tuple, gs) -> JumpShifts:
    X = pattern.nodes
    C, n = X.shape
    shift, clamped = pattern.space.stencil(
        (X + np.stack(gs)).reshape(-1, n) if gs else np.empty((0, n)))
    return JumpShifts(key, Stencil(*(x.reshape(len(gs), C, 1 << n) for x in shift)),
                      clamped)


def solve_pide_deterministic(coeffs: CoefficientSet, space: SpatialGrid,
                             time_grid: TimeGrid, control_set: ControlSet,
                             measure: MarkMeasure) -> PideSolution:
    """Explicit monotone scheme for the degenerate HJB integro-PDE.

    A step evaluates b~, sigma and g at the nodes for every control and
    reuses that control's local generator while b~ and sigma, and its
    jump shifts while g, are bitwise the values they were built for.
    Every generator build checks the monotone step bound; a step above
    it is refused, and the raised error suggests the smallest bound over
    all steps and controls.
    """
    if coeffs.is_random:
        raise ConfigError("solve_pide_deterministic needs deterministic coefficients")
    if space.n != coeffs.n:
        raise ConfigError("spatial grid dimension must match the state dimension")
    if space.n > 2:
        raise ConfigError("the PIDE solver is desk scale: n <= 2 only")

    pattern = NodePattern.of(space)
    X = pattern.nodes
    (C, n), d, N = X.shape, coeffs.d, time_grid.n_steps

    def coefficients(t, u):
        b_tilde, gs = compensated_drift(coeffs, measure, t, X, u, None)
        return b_tilde, batch_eval(coeffs.sigma, t, X, u, None, (n, d)), gs

    V = np.empty((N + 1,) + space.shape)
    argmin = np.empty((N,) + space.shape, dtype=int)
    V[N] = np.asarray(coeffs.h(X, None), dtype=float).reshape(space.shape)

    clamped = 0
    local, shifts = [None] * control_set.n_atoms, [None] * control_set.n_atoms
    totals = np.empty((control_set.n_atoms, C))
    controls = [broadcast_control(u, C) for u in control_set.atoms]
    lam, mark_w = measure.total_mass, np.asarray(measure.weights)
    for i in range(N - 1, -1, -1):
        t = float(time_grid.nodes[i])
        dt = float(time_grid.dt[i])
        v_next = V[i + 1].ravel()
        grad = pattern.gradient.apply(v_next)
        jump_w = mark_w * [float(coeffs.l(t, mark)) for mark in measure.marks]
        for iu, u in enumerate(controls):
            b_tilde, sig, gs = coefficients(t, u)
            key = (b_tilde.tobytes(), sig.tobytes())
            if local[iu] is None or local[iu].key != key:
                local[iu] = _local_generator(pattern, key, b_tilde, sig, lam)
            if dt > local[iu].bound * (1.0 + 1e-12):
                raise CflViolationError(dt, min(
                    _local_generator(pattern, None, *coefficients(float(s), w)[:2], lam).bound
                    for s in time_grid.nodes[:-1] for w in controls))
            key = tuple(g.tobytes() for g in gs)
            if shifts[iu] is None or shifts[iu].key != key:
                shifts[iu] = _jump_shifts(pattern, key, gs)
            clamped += shifts[iu].clamped
            jumps = shifts[iu].stencil.apply(v_next) - v_next
            k_agg = jump_w @ jumps
            z_slot = np.einsum("cij,ic->cj", sig, grad)
            f_val = coeffs.f(t, X, u, v_next, z_slot, k_agg, None)
            totals[iu] = (np.asarray(f_val, dtype=float).reshape(C)
                          + local[iu].stencil.apply(v_next) + mark_w @ jumps)
        best_idx = totals.argmin(axis=0)
        V[i] = V[i + 1] + dt * totals[best_idx, np.arange(C)].reshape(space.shape)
        argmin[i] = best_idx.reshape(space.shape)
        if not np.all(np.isfinite(V[i])):
            raise NumericError(f"PIDE field became non-finite at time node {i}")

    triplet = RandomFieldTriplet.deterministic(
        space, time_grid.nodes, V, measure.n_atoms)
    return PideSolution(triplet, argmin, control_set, clamped)


def _delta_field(triplet: RandomFieldTriplet, coeffs: CoefficientSet,
                 control_set: ControlSet, measure: MarkMeasure,
                 t: float, slice_idx: int):
    """min_u Delta(t, x, u) over the grid plus the argmin table.

    Delta is the verification-theorem integrand at the nodes, per
    control the :func:`hamiltonian` with the candidate fields plus the
    compensated and Psi terms of :func:`nonlocal_apply`.  Spatial
    derivatives are central; shifted evaluations interpolate.
    """
    space = triplet.space
    X = space.nodes()
    C, n, d = X.shape[0], coeffs.n, coeffs.d
    v_slice = triplet.V[slice_idx]
    grads = space.gradient(v_slice)
    grad_v = grads.reshape(C, n)
    # Hessian by differentiating the gradient once more, symmetrized.
    hess = np.stack([space.gradient(grads[..., k]).reshape(C, n) for k in range(n)], axis=1)
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    # Phi sits on the carried channels (the last Brownian components):
    # its value enters the driver's z slot, its gradient the (q, sigma)
    # term.
    n_phi = triplet.Phi.shape[1]
    phi = np.zeros((C, d))
    dphi = np.zeros((C, n, d))
    for c in range(n_phi):
        phi[:, d - n_phi + c] = triplet.Phi[slice_idx, c].ravel()
        dphi[:, :, d - n_phi + c] = space.gradient(triplet.Phi[slice_idx, c]).reshape(C, n)

    best = best_idx = None
    for iu, u in enumerate(control_set.atoms):
        jumps = nonlocal_apply(space, v_slice, coeffs, t, None, u, measure,
                               triplet.Psi[slice_idx], dv=grad_v)
        total = (hamiltonian(coeffs, t, X, u, grad_v, dphi, hess, jumps.weighted,
                             y=v_slice.ravel(), phi=phi)
                 + jumps.compensated + jumps.psi)
        if best is None:
            best = total
            best_idx = np.zeros(C, dtype=int)
        else:
            better = total < best
            best = np.where(better, total, best)
            best_idx = np.where(better, iu, best_idx)
    if not np.all(np.isfinite(best)):
        bad = int(np.argmax(~np.isfinite(best)))
        raise NumericError(
            f"feedback extraction hit a non-finite minimum at grid point {X[bad]}")
    return best, best_idx


def drift_consistency_residual(triplet: RandomFieldTriplet, gamma: np.ndarray,
                               coeffs: CoefficientSet, control_set: ControlSet,
                               measure: MarkMeasure) -> np.ndarray:
    """Residual Gamma(t,x) - min_u Delta(t,x,u) on the grid.

    For a field family that solves the equation the residual vanishes
    as the discretization is refined; the affine structure means adding
    a constant to Gamma shifts the residual by exactly that constant.
    Fields on slice i+1 pair with the drift over [t_i, t_{i+1}],
    matching the explicit solver's quadrature.
    """
    N = triplet.time_nodes.size - 1
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape[0] != N:
        raise ValueError("gamma must carry one slice per time step")
    out = np.empty_like(gamma)
    for i in range(N):
        t = float(triplet.time_nodes[i])
        delta, _ = _delta_field(triplet, coeffs, control_set, measure, t, i + 1)
        out[i] = gamma[i] - delta.reshape(triplet.space.shape)
    return out


@dataclass
class VerificationReport:
    j_feedback: float
    ci: float
    v0: float
    gap: float
    alternatives: list = field(default_factory=list)

    @property
    def all_alternatives_dominated(self) -> bool:
        return all(a["diff"] >= -a["diff_ci"] for a in self.alternatives)

    def to_json(self) -> str:
        return json.dumps({
            "J_feedback": self.j_feedback,
            "ci": self.ci,
            "V0": self.v0,
            "gap": self.gap,
            "alternatives": self.alternatives,
            "all_alternatives_dominated": self.all_alternatives_dominated,
        }, sort_keys=True)


def verification_run(triplet: RandomFieldTriplet, coeffs: CoefficientSet,
                     control_set: ControlSet, measure: MarkMeasure, x0,
                     n_samples: int, seed, basis: PolynomialBasis | None = None,
                     n_alternatives: int = 0, n_rep: int = 4) -> VerificationReport:
    """Closed-loop check of a candidate solution triplet.

    Extracts the greedy feedback from the pointwise minimizer of the
    verification integrand and reports the gap between its recursive
    cost and the candidate's V(0, x0).  Optionally also costs randomly
    sampled alternative controls, which a correct solution must not
    beat.  All are priced in one :func:`~jumphjb.bsde.replicate` call,
    which runs the feedback and the alternatives of a replication as one
    stacked batch on its bank; an alternative reports its cost ``j``
    with half-width ``ci``, and ``diff``, the mean of J_a - J_feedback
    over the replications (both on the same bank), with half-width
    ``diff_ci``.
    """
    grid = TimeGrid(triplet.time_nodes)
    N = grid.n_steps
    table = np.empty((N,) + triplet.space.shape, dtype=int)
    for i in range(N):
        t = float(triplet.time_nodes[i])
        _, idx = _delta_field(triplet, coeffs, control_set, measure, t, i)
        table[i] = idx.reshape(triplet.space.shape)
    feedback = FeedbackPolicy(triplet.space, grid, control_set, table)

    names, controls = [], [feedback]
    rng = np.random.default_rng(seed)
    for a in range(n_alternatives):
        if a % 2 == 0:
            u = control_set.atoms[int(rng.integers(control_set.n_atoms))]
            controls.append(ConstantControl(u))
            names.append(f"constant[{u.tolist()}]")
        else:
            controls.append(OpenLoopControl(
                control_set.atoms[rng.integers(control_set.n_atoms, size=N)]))
            names.append("piecewise-random")

    costs = replicate(coeffs, controls, x0, grid, measure, n_samples, seed,
                      n_rep=n_rep, basis=basis)
    j_feedback, ci = mean_ci(costs[:, 0])
    v0 = triplet.value_at(0, x0)
    alternatives = []
    for k, name in enumerate(names, start=1):
        j, half = mean_ci(costs[:, k])
        diff, diff_ci = mean_ci(costs[:, k] - costs[:, 0])
        alternatives.append({"name": name, "j": j, "ci": half,
                             "diff": diff, "diff_ci": diff_ci})

    return VerificationReport(j_feedback, ci, v0, j_feedback - v0, alternatives)
