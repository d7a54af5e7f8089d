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
explicitly on :func:`~jumphjb.dpp.backward_sweep`, the backward sweep
it shares with the lattice solver.  Its step builder makes per control
a local generator (upwind differences on the compensated drift
b - int g nu(de), central second differences) and the jump shifts
(clamped linear interpolation at x + g), which the sweep reuses while
b~, sigma and g at the nodes stay bitwise the same.  Every step checks
the monotone step bound.  Where b~ points out of the box, the edge row
reads a zero-gradient ghost and drops its transport term, the constant
extension past the edge that the lattice's clamping reads, so I + dt L_u
has no negative entry inside the bound.

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

from .bsde import mean_ci, replicate
from .coefficients import CoefficientSet, ControlSet, batch_eval, broadcast_control
from .dpp import FeedbackPolicy, Grid, Stencil, backward_sweep, point_coefficients
from .drivers import MarkMeasure, TimeGrid, check_batch_bytes, write_csv
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
    hess_t = np.swapaxes(hess, 1, 2)
    if not (np.array_equal(hess, hess_t) or np.allclose(hess, hess_t, atol=1e-12)):
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
    x, the grid's centred gradient of the slice read there when omitted.
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
        dv = np.stack([read(column) for column in space.gradient(v_flat).T], axis=1)
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


class NodePattern(NamedTuple):
    """What the maps of every control share on one node grid: the grid,
    the columns of the local generator, per axis the interior mask and
    the weights of the cross difference D_0 D_1 (n = 2), all read off
    the grid's centred-gradient stencil."""

    space: SpatialGrid
    columns: np.ndarray
    inner: np.ndarray
    cross: np.ndarray

    @classmethod
    def of(cls, space: SpatialGrid) -> "NodePattern":
        grad = space.gradient_stencil
        C = grad.indices.shape[1]
        up, down = np.moveaxis(grad.indices, -1, 0)
        node = np.broadcast_to(np.arange(C), up.shape)
        inner = (up != node) & (down != node)
        # Forward and backward differences; past the edge each reads the
        # node itself (a zero-gradient ghost), so an outflow edge has no
        # transport term and the step stays monotone there.  Then the
        # second difference, at interior nodes only.
        cols = np.stack([up, node, node, down, np.where(inner, down, node), node,
                         np.where(inner, up, node)], axis=-1).transpose(1, 0, 2).reshape(C, -1)
        cross = np.zeros((C, 0))
        if space.n == 2:
            # D_0 D_1, the composition of the centred gradients.
            (i0, i1), (w0, w1) = grad
            corners = i0[:, :, None] + i1[:, None, :] - node[0][:, None, None]
            cols = np.concatenate([cols, corners.reshape(C, 4)], axis=1)
            cross = (w0[:, :, None] * w1[:, None, :]).reshape(C, 4)
        return cls(space, cols, inner, cross)


class NodeOperator(NamedTuple):
    """A control's node maps: the local generator and its monotone step
    bound, and the shifts S_j V = V(x + g_j) as (n_atoms, C) rows with
    the clamped coordinates of the shifted nodes."""

    generator: Stencil
    bound: float
    shifts: Stencil
    clamped: int


def _local_generator(pattern: NodePattern, b_tilde, sig, lam: float) -> tuple:
    """Upwind transport on b~ (none at an outflow edge) plus 1/2 a D^2 at
    interior nodes (and a_01 D_0 D_1 when n = 2), so that the generator
    is L_u V = local V + sum_j w_j (S_j V - V), with a = sigma sigma^T.
    Returns the local stencil and its monotone step bound.

    The explicit step stays monotone while dt times lambda + sum_k
    (|b_k| / h_k + a_kk / h_k^2) + sum_{k < k2} |a_kk2| / (h_k h_k2) is
    at most 1 at every node; the bound is that largest dt.  With a_01 != 0
    no dt makes it monotone: the centred D_0 D_1 weighs two corners < 0.
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
    return Stencil(pattern.columns, weights), 1.0 / worst if worst > 0 else np.inf


def _jump_shifts(pattern: NodePattern, gs) -> tuple:
    """The shift stencil S_j of every atom and its clamped coordinates."""
    X = pattern.space.nodes()
    C, n = X.shape
    shift, clamped = pattern.space.stencil(
        (X + np.stack(gs)).reshape(-1, n) if gs else np.empty((0, n)))
    return Stencil(*(x.reshape(len(gs), C, 1 << n) for x in shift)), clamped


def solve_pide_deterministic(coeffs: CoefficientSet, space: SpatialGrid,
                             time_grid: TimeGrid, control_set: ControlSet,
                             measure: MarkMeasure) -> PideSolution:
    """Explicit monotone scheme for the degenerate HJB integro-PDE.

    :func:`~jumphjb.dpp.backward_sweep` on the nodes with each control's
    local generator and jump shifts as its operator: a control's total
    is f + L_u V at every node, and the new slice is V + dt times the
    minimum over U_h.  Every step checks dt against the monotone bound
    of the operator it uses; a step above it is refused, and the raised
    error suggests the smallest bound over all steps and controls.
    """
    if space.n > 2:
        raise ConfigError("the PIDE solver is desk scale: n <= 2 only")
    pattern = NodePattern.of(space)
    X = space.nodes()
    C = X.shape[0]
    lam, mark_w = measure.total_mass, np.asarray(measure.weights)

    def build(b_tilde, sig, gs, dt):
        return NodeOperator(*_local_generator(pattern, b_tilde, sig, lam),
                            *_jump_shifts(pattern, gs))

    def step(t, dt, v_next, jump_w):
        grad = space.gradient(v_next)

        def row(op, u, sig):
            if dt > op.bound * (1.0 + 1e-12):
                raise CflViolationError(dt, min(
                    _local_generator(pattern, *point_coefficients(
                        coeffs, measure, float(s), X, broadcast_control(w, C))[:2], lam)[1]
                    for s in time_grid.nodes[:-1] for w in control_set.atoms))
            jumps = op.shifts.apply(v_next) - v_next
            z_slot = np.einsum("cij,ci->cj", sig, grad)
            f_val = coeffs.f(t, X, u, v_next, z_slot, jump_w @ jumps, None)
            return (np.asarray(f_val, dtype=float).reshape(C)
                    + op.generator.apply(v_next) + mark_w @ jumps)
        return row

    V, argmin, clamped = backward_sweep(
        coeffs, control_set, space, time_grid, measure, "solve_pide_deterministic",
        build, step, lambda v_next, best, dt: v_next + dt * best, dt_keyed=False)
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
    derivatives are the grid's centred gradient, the Hessian that
    gradient taken twice and symmetrized; shifted evaluations
    interpolate.  Ties break to the lowest control index, as in
    :func:`~jumphjb.dpp.backward_sweep`.
    """
    space = triplet.space
    X = space.nodes()
    C, n, d = X.shape[0], coeffs.n, coeffs.d
    v_slice = triplet.V[slice_idx].ravel()
    grad_v = space.gradient(v_slice)
    # Hessian by differentiating each gradient component once more, symmetrized.
    hess = np.stack([space.gradient(g) for g in grad_v.T], axis=1)
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    # Phi sits on the carried channels (the last Brownian components):
    # its value enters the driver's z slot, its gradient the (q, sigma)
    # term.
    n_phi = triplet.Phi.shape[1]
    phi = np.zeros((C, d))
    dphi = np.zeros((C, n, d))
    for c in range(n_phi):
        phi[:, d - n_phi + c] = triplet.Phi[slice_idx, c].ravel()
        dphi[:, :, d - n_phi + c] = space.gradient(triplet.Phi[slice_idx, c])

    totals = np.empty((control_set.n_atoms, C))
    for iu, u in enumerate(control_set.atoms):
        jumps = nonlocal_apply(space, v_slice, coeffs, t, None, u, measure,
                               triplet.Psi[slice_idx], dv=grad_v)
        totals[iu] = (hamiltonian(coeffs, t, X, u, grad_v, dphi, hess, jumps.weighted,
                                  y=v_slice, phi=phi)
                      + jumps.compensated + jumps.psi)
    best_idx = totals.argmin(axis=0)
    best = totals[best_idx, np.arange(C)]
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
                     n_samples: int, seed, n_alternatives: int = 0,
                     n_rep: int = 4) -> VerificationReport:
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
    # The alternatives' control tables, at most N atoms each.
    check_batch_bytes(8.0 * n_alternatives * N * control_set.m)
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
                      n_rep=n_rep)
    j_feedback, ci = mean_ci(costs[:, 0])
    v0 = triplet.value_at(0, x0)
    alternatives = []
    for k, name in enumerate(names, start=1):
        j, half = mean_ci(costs[:, k])
        diff, diff_ci = mean_ci(costs[:, k] - costs[:, 0])
        alternatives.append({"name": name, "j": j, "ci": half,
                             "diff": diff, "diff_ci": diff_ci})

    return VerificationReport(j_feedback, ci, v0, j_feedback - v0, alternatives)
