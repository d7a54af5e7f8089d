"""Galerkin solvers for backward stochastic evolution equations with jumps.

The equation lives in the Gelfand triple H^1_0 subset L^2 subset H^{-1}
on a truncated interval [-L, L]:

    dY(t) = [ A(t) Y(t) + B(t) Z(t) + F(t, Y, Z, R) ] dt
            + Z(t) dW(t) + int_E R(t, e) mu~(de, dt),       Y(T) = xi,

with A the symmetric second-order part, <A w, phi> = 1/2 int <sigma^T
Dw, sigma^T Dphi> dx, and B the first-order coupling <B z, phi> = int
sigma_d z Dphi dx.  Well-posedness and the stability of the implicit
step rest on the super-parabolic inequality

    2 <A phi, phi> + lambda ||phi||_H^2 >= alpha ||phi||_V^2
                                           + ||B* phi||_H^2,

which in one dimension reduces to the pointwise bound
sigma_hat sigma_hat^T >= alpha on the first d-1 diffusion columns
(identity 2<A phi, phi> - ||B* phi||^2 = int sigma_hat sigma_hat^T
|Dphi|^2 dx; checked numerically by the coercivity validator).

Projection onto the first n_b sine modes turns the equation into a
finite BSDE system in the coordinates.  An :class:`OperatorPair` is
one discretisation: A and B with the triple and time grid they were
assembled on, which every solution carries and every solver and
diagnostic reads.  Time stepping is implicit in A and explicit in B and
F, so the stiff part never restricts the step.  Randomness is carried
by a recombining scenario lattice, whose step tables are built once: a
binomial walk for the carried Brownian channel times
at-most-one-jump-per-step atom branches, under which Z and R are
conditional-covariance projections exactly as in the regression solver.
Nonlinear equations
are solved by Picard iteration, freezing (Y, Z, R) inside F and
solving the linear equation until the successive difference in the
mixed norm sup_t E||.||_H^2 + int E||.||_V^2 dt falls below tolerance.

Each pass runs over the whole horizon at once.  Its forcing reads only
the frozen previous iterate, so it is evaluated for every step before
the backward sweep, in one call F(i, t, noise, y, z, r) on the lattice
rows of steps 0..N-1 stacked step by step: ``i`` and ``t`` are the step
index and time of each row (R,), ``noise`` the channel values (R, r),
``y`` and ``z`` (R, n_b) and ``r`` (R, n_atoms, n_b), and F returns
(R, n_b).  The sweep applies the stored step inverses (I + dt A)^{-1},
and the successive difference and its reference are summed in one pass
over the stacked steps.

The stochastic HJB equation in divergence form is recovered by the
specific nonlinearity assembled in :func:`solve_hjb_weak`: transport
and reaction terms, the compensated nonlocal jump terms, the driver,
and a pointwise infimum over the control grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coefficients import (
    CoefficientSet,
    ControlSet,
    NoiseState,
    batch_eval,
    broadcast_control,
    compensated_drift,
    jacobian_x,
)
from .drivers import MarkMeasure, TimeGrid, check_batch_bytes, write_csv
from .errors import ConfigError, NotConvergedError, NumericError
from .pide import RandomFieldTriplet, SpatialGrid

__all__ = [
    "GelfandTriple",
    "OperatorPair",
    "BseejSolution",
    "BinomialJumpTree",
    "assemble_triple",
    "assemble_operators",
    "check_coercivity",
    "CoercivityReport",
    "solve_linear_bseej",
    "solve_nonlinear_bseej",
    "continuous_dependence_check",
    "energy_identity_residual",
    "weak_residual",
    "solve_hjb_weak",
    "WeakHjbResult",
]

ORTHONORMALITY_TOL = 1e-10

# Random unit directions, and their seed, that the coercivity validator
# tests next to the basis vectors.
COERCIVITY_TRIALS = 64
COERCIVITY_SEED = 0


@dataclass(frozen=True)
class GelfandTriple:
    """Sine basis and quadrature on [-L, L] (one spatial dimension).

    Modes phi_k(x) = sqrt(1/L) sin(k pi (x + L) / (2L)) vanish on the
    boundary and are orthonormal in L^2; the V-norm of mode k is
    1 + (k pi / 2L)^2.  :meth:`eval_basis` extends them by zero outside
    the interval, the natural H^1_0 extension.
    """

    length: float
    n_modes: int
    quad_x: np.ndarray
    quad_w: np.ndarray
    basis_q: np.ndarray
    dbasis_q: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray

    @property
    def n_quad(self) -> int:
        return self.quad_x.size

    def eval_basis(self, x) -> np.ndarray:
        """Basis values at arbitrary points, zero outside [-L, L]."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = np.arange(1, self.n_modes + 1)
        inside = (x >= -self.length) & (x <= self.length)
        arg = k[None, :] * np.pi * (x[:, None] + self.length) / (2.0 * self.length)
        out = np.sqrt(1.0 / self.length) * np.sin(arg)
        out[~inside] = 0.0
        return out

    def project(self, values_at_quad: np.ndarray) -> np.ndarray:
        """L^2 projection coordinates of a function given at quad points."""
        rhs = self.basis_q.T @ (self.quad_w * values_at_quad)
        return np.linalg.solve(self.mass, rhs)


def assemble_triple(length: float, n_dim: int, n_modes: int,
                    n_quad: int | None = None) -> GelfandTriple:
    """Build the sine-mode Gelfand triple on [-L, L].

    The quadrature is composite Gauss-Legendre with enough points that
    all assembled matrices are exact to well below 1e-10 for the
    trigonometric integrands (doubling the count moves nothing).
    """
    if n_dim != 1:
        raise ConfigError(
            "the Galerkin stack is one-dimensional at desk scale (n_dim=1)")
    if length <= 0 or n_modes < 1:
        raise ConfigError("need length > 0 and n_modes >= 1")
    if n_quad is None:
        n_quad = max(4 * n_modes + 32, 64)
    # The two basis tables, their two Gram matrices and the quadrature.
    check_batch_bytes(8.0 * (2 * n_quad * n_modes + 2 * n_modes ** 2 + 2 * n_quad))
    pts, wts = np.polynomial.legendre.leggauss(n_quad)
    quad_x = pts * length
    quad_w = wts * length
    k = np.arange(1, n_modes + 1)
    freq = k * np.pi / (2.0 * length)
    arg = freq[None, :] * (quad_x[:, None] + length)
    basis_q = np.sqrt(1.0 / length) * np.sin(arg)
    dbasis_q = np.sqrt(1.0 / length) * freq[None, :] * np.cos(arg)
    mass = basis_q.T @ (quad_w[:, None] * basis_q)
    stiffness = dbasis_q.T @ (quad_w[:, None] * dbasis_q)
    if np.max(np.abs(mass - np.eye(n_modes))) > ORTHONORMALITY_TOL:
        raise NumericError(
            "basis failed the orthonormality check; increase n_quad")
    return GelfandTriple(float(length), int(n_modes), quad_x, quad_w,
                         basis_q, dbasis_q, mass, stiffness)


@dataclass(frozen=True)
class OperatorPair:
    """Time-indexed Galerkin matrices of the evolution operators, with
    the basis ``triple`` and the time ``grid`` they were assembled on.

    ``A[i]``, ``B[i]`` act at step i (left time node); ``bstar_gram[i]``
    is the exact H Gram of B* phi = sigma_d D phi, and ``hat_gram[i]``
    the Gram weighted by sigma_hat sigma_hat^T, so the one-dimensional
    super-parabolicity identity reads 2A = bstar_gram + hat_gram, and
    ``alpha`` is the least sigma_hat sigma_hat^T.  ``step_inverse[i]``
    is (I + dt_i A_i)^{-1}, the implicit step, inverted once for every
    solve on the pair.
    """

    A: np.ndarray
    B: np.ndarray
    bstar_gram: np.ndarray
    hat_gram: np.ndarray
    alpha: float
    triple: GelfandTriple
    grid: TimeGrid
    step_inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "step_inverse", _step_inverses(self.A, self.grid.dt))

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def dump_csv(self, path) -> None:
        """Long-format dump of the assembled matrices for inspection."""
        idx = np.indices(self.A.shape).reshape(3, -1).T.tolist()
        reals = np.column_stack([m.reshape(-1) for m in (self.A, self.B, self.bstar_gram)])
        write_csv(path, ["step", "row", "col", "A", "B", "bstar_gram"],
                  [i + r for i, r in zip(idx, reals.tolist())])


def _step_inverses(A: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """(I + dt_i A_i)^{-1} of every step in one batched inversion; a
    singular step raises :class:`NumericError` with its condition number."""
    steps = dt[:, None, None] * A
    steps += np.eye(A.shape[1])
    try:
        return np.linalg.inv(steps)
    except np.linalg.LinAlgError as exc:
        cond = np.nan_to_num(np.linalg.cond(steps), nan=np.inf)
        i = int(np.argmax(cond))
        raise NumericError(
            f"singular implicit step at node {i} (cond ~ {cond[i]:.2e})") from exc


def assemble_operators(coeffs: CoefficientSet, triple: GelfandTriple,
                       time_grid: TimeGrid,
                       control_set: ControlSet | None = None) -> OperatorPair:
    """Quadrature assembly of A(t) and B(t) in the sine basis.

    Requires the diffusion to be control-free (checked against two
    control atoms when a control set is supplied) and deterministic;
    the last Brownian column sigma_d is the randomness carrier.
    """
    if coeffs.control_in_sigma:
        raise ConfigError("the weak pipeline needs control_in_sigma = False")
    if coeffs.n != 1:
        raise ConfigError("the Galerkin stack supports state dimension 1")
    u_ref = (control_set.atoms[0] if control_set is not None
             else np.zeros(coeffs.m))
    X = triple.quad_x[:, None]
    if control_set is not None and control_set.n_atoms > 1:
        t_probe = float(time_grid.nodes[0])
        s0 = batch_eval(coeffs.sigma, t_probe, X, control_set.atoms[0], None, (coeffs.d,))
        s1 = batch_eval(coeffs.sigma, t_probe, X, control_set.atoms[-1], None, (coeffs.d,))
        if np.max(np.abs(s0 - s1)) > 1e-12:
            raise ConfigError("sigma depends on the control; the weak "
                              "pipeline requires control_in_sigma = False")

    N = time_grid.n_steps
    nb = triple.n_modes
    A = np.empty((N, nb, nb))
    B = np.empty((N, nb, nb))
    bstar = np.empty((N, nb, nb))
    hat = np.empty((N, nb, nb))
    alpha = np.inf
    w = triple.quad_w
    for i in range(N):
        t = float(time_grid.nodes[i])
        sig = batch_eval(coeffs.sigma, t, X, u_ref, None, (coeffs.d,))
        a_full = np.sum(sig * sig, axis=1)
        sig_d = sig[:, -1]
        a_hat = a_full - sig_d ** 2
        A[i] = 0.5 * triple.dbasis_q.T @ ((w * a_full)[:, None] * triple.dbasis_q)
        B[i] = triple.dbasis_q.T @ ((w * sig_d)[:, None] * triple.basis_q)
        bstar[i] = triple.dbasis_q.T @ ((w * sig_d ** 2)[:, None] * triple.dbasis_q)
        hat[i] = triple.dbasis_q.T @ ((w * a_hat)[:, None] * triple.dbasis_q)
        alpha = min(alpha, float(a_hat.min()))
    alpha = max(alpha, 0.0)
    return OperatorPair(A, B, bstar, hat, alpha, triple, time_grid)


@dataclass
class CoercivityReport:
    passed: bool
    min_slack: float
    alpha: float
    lam: float
    identity_gap: float
    n_trials: int


def check_coercivity(pair: OperatorPair, alpha: float, lam: float) -> CoercivityReport:
    """Verify the super-parabolic inequality on sampled directions.

    Tests every basis vector plus ``COERCIVITY_TRIALS`` random unit
    combinations at every assembled time slice; passes when the minimum
    slack of

        2 <A phi, phi> + lambda ||phi||_H^2
            - alpha ||phi||_V^2 - ||B* phi||_H^2

    stays above -1e-10.  Also reports the defect of the exact identity
    2A - ||B*.||^2-Gram = sigma_hat-Gram, a quadrature cross-check.
    """
    rng = np.random.default_rng(COERCIVITY_SEED)
    triple = pair.triple
    nb = triple.n_modes
    trials = rng.standard_normal((COERCIVITY_TRIALS, nb))
    # One direction per row: every basis vector, then the unit trials.
    directions = np.vstack([np.eye(nb),
                            trials / np.linalg.norm(trials, axis=1)[:, None]])
    static = lam * triple.mass - alpha * (triple.mass + triple.stiffness)
    # Step by step, so that no temporary spans all N slices.
    min_slack, identity_gap = np.inf, 0.0
    for i in range(pair.n_steps):
        twice_a = 2.0 * pair.A[i]
        form = twice_a + static - pair.bstar_gram[i]
        slack = np.sum((directions @ form) * directions, axis=1)
        min_slack = min(min_slack, float(slack.min()))
        identity_gap = max(identity_gap, float(np.max(np.abs(
            twice_a - pair.bstar_gram[i] - pair.hat_gram[i]))))
    return CoercivityReport(min_slack >= -1e-10, min_slack, alpha, lam,
                            identity_gap, len(directions))


class BinomialJumpTree:
    """Recombining scenario lattice for the carried randomness channels.

    The Brownian channel W_d walks up or down by sqrt(dt) each step
    (probability 1/2 each); the jump channel places at most one event
    per step, atom j with probability w_j dt.  Because the coefficients
    read only the current values (W_d(t), compensated count), states
    recombine: a node at step i is (k, j) with k up-moves and j jumps,
    so the lattice stays polynomial in the horizon.  Counts are capped
    at ``j_cap`` (excess mass is parked on the cap, an O((lam T)^cap)
    truncation).  A lattice without channels has one node per step and
    is the deterministic model; only a lattice that carries a channel
    needs a uniform time grid.  The constructor builds every step's
    ``branches``, ``noise_values`` and ``probabilities`` as read-only
    arrays, which the accessors look up.

    Whole-horizon work reads the nodes of all time nodes stacked step by
    step: time node i owns rows ``offsets[i]:offsets[i + 1]``, and
    ``row_step``, ``noise_rows`` and ``prob_rows`` hold each row's
    step, channel values and probability (the per-step accessors return
    views of them).
    """

    def __init__(self, grid: TimeGrid, measure: MarkMeasure, channels,
                 j_cap: int | None = None):
        self.grid = grid
        self.measure = measure
        self.channels = tuple(channels)
        dt = grid.dt
        if self.channels and np.max(np.abs(dt - dt[0])) > 1e-12 * dt[0]:
            raise ConfigError("scenario lattices need a uniform time grid")
        bad = [c for c in self.channels if c not in ("J",) and not c.startswith("W")]
        if bad:
            raise ConfigError(f"unsupported scenario channels {bad}")
        self.dt = float(dt[0])
        lam = measure.total_mass
        if lam * self.dt > 1.0:
            raise ConfigError("jump intensity times dt exceeds 1; refine the grid")
        self.has_jumps = "J" in self.channels and measure.n_atoms > 0
        self.has_w = any(c.startswith("W") for c in self.channels)
        if j_cap is None:
            horizon_mean = lam * grid.horizon
            j_cap = int(np.ceil(horizon_mean + 4.0 * np.sqrt(horizon_mean + 1.0) + 2))
        self.j_cap = int(j_cap) if self.has_jumps else 0
        # Branches in order: W up then down, each with no jump and then
        # one jump per atom.  Every node of every step has the same
        # branches; only the child indices move with the node.
        sq = np.sqrt(self.dt)
        w_moves = [(1, 0.5, sq), (0, 0.5, -sq)] if self.has_w else [(0, 1.0, 0.0)]
        moves = []
        for dk, pw, dw in w_moves:
            if self.has_jumps:
                moves.append((dk, 0, pw * (1.0 - lam * self.dt), dw, -1))
                moves += [(dk, 1, pw * w * self.dt, dw, a)
                          for a, w in enumerate(measure.weights)]
            else:
                moves.append((dk, 0, pw, dw, -1))
        dk, dj, self._probs, self._dw, self._atom = (np.array(c) for c in zip(*moves))
        self._noise = [self._channel_values(i) for i in range(grid.n_steps + 1)]
        self._children, self._prob = [], [np.ones(1)]
        for i in range(grid.n_steps):
            ks, js = self.node_states(i)
            children = self.node_index(i + 1, ks[:, None] + dk,
                                       np.minimum(js[:, None] + dj, self.j_cap))
            self._children.append(children)
            # children repeat (capped jump count); bincount adds in
            # node-then-branch order.
            self._prob.append(np.bincount(
                children.ravel(), (self._prob[i][:, None] * self._probs).ravel(),
                self.n_nodes(i + 1)))
        counts = [self.n_nodes(i) for i in range(grid.n_steps + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.row_step = np.repeat(np.arange(grid.n_steps + 1), counts)
        self.noise_rows = np.concatenate(self._noise)
        self.prob_rows = np.concatenate(self._prob)
        for arr in (self._probs, self._dw, self._atom, *self._children,
                    self.offsets, self.row_step, self.noise_rows, self.prob_rows):
            arr.flags.writeable = False
        self._noise = _per_step(self.noise_rows, self.offsets)
        self._prob = _per_step(self.prob_rows, self.offsets)

    def n_w(self, i: int) -> int:
        return (i + 1) if self.has_w else 1

    def n_j(self, i: int) -> int:
        return (min(i, self.j_cap) + 1) if self.has_jumps else 1

    def n_nodes(self, i: int) -> int:
        return self.n_w(i) * self.n_j(i)

    def node_states(self, i: int):
        """(k, j) pairs in node order (k-major)."""
        ks = np.repeat(np.arange(self.n_w(i)), self.n_j(i))
        js = np.tile(np.arange(self.n_j(i)), self.n_w(i))
        return ks, js

    def node_index(self, i: int, k, j):
        return k * self.n_j(i) + j

    def _channel_values(self, i: int) -> np.ndarray:
        t = float(self.grid.nodes[i])
        ks, js = self.node_states(i)
        cols = []
        for c in self.channels:
            if c == "J":
                cols.append(js - t * self.measure.total_mass)
            else:
                cols.append((2.0 * ks - i) * np.sqrt(self.dt)
                            if self.has_w else np.zeros(ks.size))
        return np.stack(cols, axis=-1) if cols else np.zeros((ks.size, 0))

    def noise_values(self, i: int) -> np.ndarray:
        """Channel values per node at time node i, shape (n_nodes, r)."""
        return self._noise[i]

    def probabilities(self, i: int) -> np.ndarray:
        """Forward node probabilities at time node i."""
        return self._prob[i]

    def branches(self, i: int):
        """Transition of step i: (children, probs, dw, atom).

        ``children`` (n_nodes_i, K) indexes the nodes of step i + 1;
        ``probs``, ``dw`` and ``atom`` (jump atom or -1), shape (K,), are
        the same for every node and step.
        """
        return self._children[i], self._probs, self._dw, self._atom


def _per_step(rows: np.ndarray, offsets: np.ndarray) -> list:
    """Views of stacked ``rows``, one per step of the ``offsets`` that
    the rows cover."""
    return [rows[a:b] for a, b in zip(offsets[:-1], offsets[1:]) if b <= len(rows)]


def _lattice(scenario: BinomialJumpTree | None, grid: TimeGrid) -> BinomialJumpTree:
    """``scenario``, or the one-node lattice that models a deterministic
    run; a lattice on other time nodes than ``grid`` is refused."""
    if scenario is None:
        return BinomialJumpTree(grid, MarkMeasure.empty(), ())
    if scenario.grid != grid:
        raise ConfigError("the scenario lattice and the operators have different time grids")
    return scenario


def _expect(p: np.ndarray, a: np.ndarray, gram: np.ndarray, b=None) -> float:
    """E <a, gram b> over nodes with probabilities ``p`` (``b`` defaults to ``a``)."""
    return float(p @ np.sum((a @ gram) * (a if b is None else b), axis=1))


@dataclass
class BseejSolution:
    """Coordinate solution of the scenario-indexed system on the basis
    and time grid of ``pair``.

    The coordinates are held stacked over the lattice rows (see
    :class:`BinomialJumpTree`): ``y_rows`` over every time node,
    ``z_rows`` and ``r_rows`` over the steps 0..N-1.  ``y[i]`` (shape
    (n_nodes_i, n_b)), ``z[i]`` and ``r[i]`` (shape (n_nodes_i,
    n_atoms, n_b)), the martingale coordinates on step i, are views of
    them, built on first use, as is ``forcing_values[i]``.
    Deterministic runs carry the one-node lattice.
    """

    pair: OperatorPair
    scenario: BinomialJumpTree
    y_rows: np.ndarray
    z_rows: np.ndarray
    r_rows: np.ndarray
    forcing_rows: np.ndarray | None = None
    history: list = field(default_factory=list)
    converged: bool = True

    @cached_property
    def y(self) -> list:
        return _per_step(self.y_rows, self.scenario.offsets)

    @cached_property
    def z(self) -> list:
        return _per_step(self.z_rows, self.scenario.offsets)

    @cached_property
    def r(self) -> list:
        return _per_step(self.r_rows, self.scenario.offsets)

    @cached_property
    def forcing_values(self) -> list | None:
        if self.forcing_rows is None:
            return None
        return _per_step(self.forcing_rows, self.scenario.offsets)

    @property
    def n_steps(self) -> int:
        return self.pair.n_steps

    def y0(self) -> np.ndarray:
        return self.y[0][0]

    def probabilities(self, i: int) -> np.ndarray:
        return self.scenario.probabilities(i)

    def expected_h_norm2(self, i: int) -> float:
        return _expect(self.probabilities(i), self.y[i], self.pair.triple.mass)

    def max_z_norm(self) -> float:
        return float(np.max(np.abs(self.z_rows), initial=0.0))

    def max_r_norm(self) -> float:
        return float(np.max(np.abs(self.r_rows), initial=0.0))


def _as_terminal(xi, pair, scenario):
    """Terminal coordinates per node, shape (n_nodes, n_b).

    ``xi`` is a callable of the terminal noise values, one coordinate
    vector shared by every node, or an (n_nodes, n_b) array.
    """
    N, nb = pair.n_steps, pair.triple.n_modes
    shape = (scenario.n_nodes(N), nb)
    if callable(xi):
        return np.asarray(xi(scenario.noise_values(N)), dtype=float).reshape(shape)
    xi = np.asarray(xi, dtype=float)
    if xi.shape == shape:
        return xi.copy()
    return np.broadcast_to(xi.reshape(nb), shape).copy()


def _forcing_rows(F, scenario: BinomialJumpTree, nb: int, *state) -> np.ndarray:
    """The forcing on the stacked rows of steps 0..N-1, shape (R, n_b).

    ``F`` is None (no forcing); a callable of (i, t, noise values,
    *state), called once with per-row arrays (the step index (R,), its
    time (R,) and the channel values (R, r)) and the stacked ``state``;
    a per-step array or list (entry i for the nodes of step i); or one
    coordinate vector shared by every step and node.
    """
    N = scenario.grid.n_steps
    R = int(scenario.offsets[N])
    if F is None:
        return np.zeros((R, nb))
    if callable(F):
        steps = scenario.row_step[:R]
        return np.asarray(F(steps, scenario.grid.nodes[steps], scenario.noise_rows[:R],
                            *state), dtype=float).reshape(R, nb)
    if isinstance(F, list) or np.ndim(F) > 1:
        return np.concatenate([np.broadcast_to(np.asarray(F[i], dtype=float),
                                               (scenario.n_nodes(i), nb))
                               for i in range(N)])
    return np.broadcast_to(np.asarray(F, dtype=float), (R, nb)).copy()


def solve_linear_bseej(pair: OperatorPair, f0, xi,
                       scenario: BinomialJumpTree | None) -> BseejSolution:
    """Backward stepping of the linear equation (forcing independent of Y).

    Implicit in A, explicit in B and the forcing; Z and R are the
    conditional covariances of the next-step coordinates against the
    Brownian increment and the compensated jump indicators.  With
    deterministic data the martingale coordinates vanish identically
    and the scheme is a deterministic implicit parabolic step;
    ``scenario=None`` runs on the one-node lattice.

    The forcing of every step is taken before the backward sweep (see
    :func:`_forcing_rows`: a callable ``f0(i, t, noise)`` is called once,
    on the stacked rows of all steps), and each step applies the pair's
    stored ``step_inverse``.
    """
    grid, nb = pair.grid, pair.triple.n_modes
    N = grid.n_steps
    scenario = _lattice(scenario, grid)
    off = scenario.offsets
    n_atoms = scenario.measure.n_atoms if scenario.has_jumps else 0
    mw = scenario.measure.weights

    forcing = _forcing_rows(f0, scenario, nb)
    y = np.empty((off[-1], nb))
    z, r = np.zeros((off[N], nb)), np.zeros((off[N], n_atoms, nb))
    y[off[N]:] = _as_terminal(xi, pair, scenario)

    for i in range(N - 1, -1, -1):
        dt = float(grid.dt[i])
        rows = slice(off[i], off[i + 1])
        children, probs, dws, atoms = scenario.branches(i)
        yc = y[off[i + 1]:off[i + 2]][children]
        e_y = probs @ yc
        if scenario.has_w:
            z[rows] = (probs * dws) @ yc / dt
        for a in range(n_atoms):
            ind = (atoms == a).astype(float) - mw[a] * dt
            r[rows, a] = (probs * ind) @ yc / (mw[a] * dt)
        rhs = e_y - dt * (z[rows] @ pair.B[i].T + forcing[rows])
        y[rows] = rhs @ pair.step_inverse[i].T
        if not np.all(np.isfinite(y[rows])):
            raise NumericError(f"coordinates became non-finite at node {i}")
    return BseejSolution(pair, scenario, y, z, r, forcing_rows=forcing)


def _mixed_norms(pair: OperatorPair, scenario: BinomialJumpTree, *stacks) -> list:
    """(sup_t E||.||_H^2, int E||.||_V^2 dt) of each stacked coordinate
    array (rows of every time node), in one pass: the H and V forms of
    every row, weighted by its probability, then the per-step sums of
    all stacks by one ``np.add.reduceat``."""
    triple, N = pair.triple, pair.n_steps
    grams = (triple.mass, triple.mass + triple.stiffness)
    # Row by row <x, G x>, without a temporary wider than x.
    q = np.stack([[np.einsum("rk,rk->r", x @ gram, x) for gram in grams] for x in stacks])
    per_step = np.add.reduceat(q * scenario.prob_rows, scenario.offsets[:-1], axis=2)
    sup_h = per_step[:, 0].max(axis=1)
    int_v = per_step[:, 1, :N] @ pair.grid.dt
    return list(zip(sup_h.tolist(), int_v.tolist()))


def solve_nonlinear_bseej(pair: OperatorPair, F, xi,
                          scenario: BinomialJumpTree | None,
                          tol: float = 1e-8, max_iter: int = 50) -> BseejSolution:
    """Picard iteration for the nonlinear equation.

    Each pass calls ``F(i, t, noise_values, y, z, r)`` once, on the
    frozen previous iterate over the whole horizon: the rows of steps
    0..N-1 stacked step by step (the lattice's ``offsets``), with the
    step index ``i`` and time ``t`` per row (R,), the channel values
    (R, r), ``y`` and ``z`` (R, n_b) and ``r`` (R, n_atoms, n_b).  F
    returns (R, n_b); an elementwise forcing such as ``0.01 * y``
    serves unchanged.  The resulting linear equation is solved, and
    iteration stops when the relative successive difference in the
    mixed norm drops below ``tol``.  Raises :class:`NotConvergedError`
    (carrying the history and the last iterate) when ``max_iter`` is
    exhausted.
    """
    # Iterate 0 is the forcing-free linear solution; each pass freezes
    # the latest iterate inside F and re-solves the linear equation.
    # The terminal does not depend on the iterate: project it once.
    scenario = _lattice(scenario, pair.grid)
    xi = _as_terminal(xi, pair, scenario)
    R = scenario.offsets[pair.n_steps]
    current = solve_linear_bseej(pair, None, xi, scenario)
    history = []
    for _ in range(max_iter):
        frozen = current

        def forcing(i, t, noise, _frozen=frozen):
            state = (_frozen.y_rows[:R], _frozen.z_rows, _frozen.r_rows)
            rows = np.asarray(F(i, t, noise, *state), dtype=float)
            # F may hand back its state (F = y, say), and the frozen
            # rows are overwritten below: keep a copy then.
            return rows.copy() if any(np.may_share_memory(rows, x) for x in state) else rows

        new = solve_linear_bseej(pair, forcing, xi, scenario)
        # Nothing reads the previous iterate again: its rows take the
        # difference.
        (sup_h, int_v), (ref_h, ref_v) = _mixed_norms(
            pair, scenario, np.subtract(new.y_rows, current.y_rows, out=current.y_rows),
            new.y_rows)
        scale = max(np.sqrt(ref_h + ref_v), 1e-30)
        history.append(np.sqrt(sup_h + int_v) / scale)
        current = new
        if history[-1] < tol:
            current.history = history
            current.converged = True
            return current
    current.history = history
    current.converged = False
    raise NotConvergedError(
        f"Picard iteration did not reach tol={tol} in {max_iter} iterations",
        history=history, partial=current)


@dataclass
class DependenceReport:
    lhs_sup_h: float
    lhs_int_v: float
    lhs_int_z: float
    lhs_int_r: float
    rhs_xi: float
    rhs_forcing: float

    @property
    def lhs(self) -> float:
        return self.lhs_sup_h + self.lhs_int_v + self.lhs_int_z + self.lhs_int_r

    @property
    def rhs(self) -> float:
        return self.rhs_xi + self.rhs_forcing

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else np.inf


def continuous_dependence_check(sol: BseejSolution, sol_bar: BseejSolution,
                                F, F_bar, xi, xi_bar) -> DependenceReport:
    """Both sides of the stability estimate for two generator pairs.

    LHS: sup_t E||dY||_H^2 + int E||dY||_V^2 + int E||dZ||_H^2
    + int int E||dR||^2 nu(de) dt.  RHS: E||xi - xi_bar||_H^2
    + int E||F - F_bar||_H^2 dt with the forcing difference evaluated
    along the second solution.
    """
    scenario, mass = sol.scenario, sol.pair.triple.mass
    nb, N = sol.pair.triple.n_modes, sol.n_steps
    (sup_h, int_v), = _mixed_norms(sol.pair, scenario, sol.y_rows - sol_bar.y_rows)
    R = scenario.offsets[N]
    # Probability times dt of each row of steps 0..N-1.
    w = scenario.prob_rows[:R] * sol.pair.grid.dt[scenario.row_step[:R]]
    int_z = _expect(w, sol.z_rows - sol_bar.z_rows, mass)
    dr = sol.r_rows - sol_bar.r_rows
    int_r = sum(scenario.measure.weights[a] * _expect(w, dr[:, a], mass)
                for a in range(dr.shape[1]))
    state = (sol_bar.y_rows[:R], sol_bar.z_rows, sol_bar.r_rows)
    df = (_forcing_rows(F, scenario, nb, *state)
          - _forcing_rows(F_bar, scenario, nb, *state))
    rhs_f = _expect(w, df, mass)
    dxi = _as_terminal(xi, sol.pair, scenario) - _as_terminal(xi_bar, sol.pair, scenario)
    rhs_xi = _expect(sol.probabilities(N), dxi, mass)
    return DependenceReport(sup_h, int_v, int_z, int_r, rhs_xi, rhs_f)


@dataclass
class EnergyReport:
    residual: float
    terminal_h2: float
    initial_h2: float
    drift_term: float
    z_term: float
    r_term: float


def _forcing_of(sol: BseejSolution, F) -> list:
    """Per-step views of ``F`` on the stacked rows of ``sol``."""
    N = sol.n_steps
    rows = _forcing_rows(F, sol.scenario, sol.pair.triple.n_modes,
                         sol.y_rows[:sol.scenario.offsets[N]], sol.z_rows, sol.r_rows)
    return _per_step(rows, sol.scenario.offsets)


def energy_identity_residual(sol: BseejSolution, F) -> EnergyReport:
    """Discrete defect of the squared-H-norm balance.

    The continuous identity gives

        E||xi||^2 - E||Y(0)||^2 = int [ 2 E<A Y + B Z + F, Y>
                                        + E||Z||^2
                                        + int E||R||^2 nu(de) ] dt;

    the report's residual is the difference of the two sides under the
    scheme's own left-point quadrature, which vanishes at first order
    in dt on smooth data.
    """
    pair, triple, grid = sol.pair, sol.pair.triple, sol.pair.grid
    N = grid.n_steps
    drift = z_term = r_term = 0.0
    weights = sol.scenario.measure.weights
    forcing = _forcing_of(sol, F)
    for i in range(N):
        dt = float(grid.dt[i])
        p = sol.probabilities(i)
        y_i, z_i, r_i = sol.y[i], sol.z[i], sol.r[i]
        gen = y_i @ pair.A[i].T + z_i @ pair.B[i].T + forcing[i]
        drift += 2.0 * dt * _expect(p, gen, triple.mass, y_i)
        z_term += dt * _expect(p, z_i, triple.mass)
        for a in range(r_i.shape[1]):
            r_term += dt * weights[a] * _expect(p, r_i[:, a], triple.mass)
    terminal, initial = sol.expected_h_norm2(N), sol.expected_h_norm2(0)
    residual = (terminal - initial) - (drift + z_term + r_term)
    return EnergyReport(float(residual), terminal, initial, drift, z_term, r_term)


def weak_residual(sol: BseejSolution, F) -> float:
    """Max defect of the discrete weak form over basis functions.

    Checks, node by node, that the solved coordinates satisfy
    E_i[y_{i+1}] = y_i + dt (A y_i + B z_i + F_i); for the scheme's own
    output this is solver algebra and sits at rounding level.
    """
    pair, grid = sol.pair, sol.pair.grid
    forcing = _forcing_of(sol, F)
    worst = 0.0
    for i in range(grid.n_steps):
        dt = float(grid.dt[i])
        children, probs, _, _ = sol.scenario.branches(i)
        e_y = probs @ sol.y[i + 1][children]
        defect = e_y - sol.y[i] - dt * (
            sol.y[i] @ pair.A[i].T + sol.z[i] @ pair.B[i].T + forcing[i])
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


@dataclass
class WeakHjbResult:
    """Weak HJB solution (operators in ``solution.pair``) and health figures.

    ``clamped`` counts jump-shifted quadrature points x_q + g outside
    [-L, L] (where the basis reads zero), summed over every forcing
    evaluation: every control and atom on every step of every Picard
    pass, so it grows with the number of passes.  The CLI reports it as
    ``clamped_points``.
    """

    solution: BseejSolution
    measure: MarkMeasure
    coercivity: CoercivityReport
    clamped: int

    def reconstruct_triplet(self, space: SpatialGrid) -> RandomFieldTriplet:
        """Point fields on a grid; scenario runs return expected fields.

        Psi always carries one field per measure atom (zeros when the
        run had no jump channel), matching the PIDE export schema.
        """
        sol = self.solution
        basis = sol.pair.triple.eval_basis(space.nodes()[:, 0])
        N = sol.n_steps
        V = np.zeros((N + 1,) + space.shape)
        Phi = np.zeros((N + 1, 1) + space.shape)
        Psi = np.zeros((N + 1, self.measure.n_atoms) + space.shape)
        for i in range(N + 1):
            p = sol.probabilities(i)
            V[i] = (basis @ (p @ sol.y[i])).reshape(space.shape)
            if i < N:
                Phi[i, 0] = (basis @ (p @ sol.z[i])).reshape(space.shape)
                for a in range(sol.r[i].shape[1]):
                    Psi[i, a] = (basis @ (p @ sol.r[i][:, a])).reshape(space.shape)
        return RandomFieldTriplet(space, sol.pair.grid.nodes, V, Phi, Psi)


def _at_shift(segments: list, coords: np.ndarray) -> np.ndarray:
    """Values at the shifted points (rows, Q) of coordinates (rows, n_b).

    ``segments`` are the (first row, end row, block) runs that cover a
    slab's rows: a (Q, n_b) block that every row of the run shares, or
    an (n_rows, Q, n_b) block with one row per node.
    """
    out = np.empty((coords.shape[0], segments[0][2].shape[-2]))
    for lo, hi, block in segments:
        if block.ndim == 2:
            np.matmul(coords[lo:hi], block.T, out=out[lo:hi])
        else:
            np.einsum("nqk,nk->nq", block, coords[lo:hi], out=out[lo:hi])
    return out


@dataclass
class _Slab:
    """Picard-invariant data of the weak HJB forcing on a run of
    consecutive lattice steps: the stacked ``rows`` of the steps, the
    slab-local step of each row, which indexes ``sigma`` (sigma, D_x of
    sigma sigma^T and D_x sigma_d per step), the time, points and noise
    of each quadrature point, l per row and atom, and per control its
    compensated drift (rows, Q) and per atom the key of its shifted
    basis in ``shifts``.
    ``outside`` counts the shifted points outside [-L, L] over the
    slab's steps, controls and atoms.
    """

    rows: slice
    local_step: np.ndarray
    sigma: tuple
    t: np.ndarray
    flat_x: np.ndarray
    noise: NoiseState | None
    l_rows: np.ndarray
    controls: list
    shifts: dict
    outside: int


def solve_hjb_weak(coeffs: CoefficientSet, triple: GelfandTriple,
                   control_set: ControlSet, measure: MarkMeasure,
                   time_grid: TimeGrid, scenario: BinomialJumpTree | None = None,
                   tol: float = 1e-8, max_iter: int = 50,
                   require_coercivity: bool = True) -> WeakHjbResult:
    """Weak (Sobolev) solution of the stochastic HJB in divergence form.

    Assembles the transport/reaction/nonlocal/driver nonlinearity with
    the pointwise infimum over the control grid, verifies coercivity,
    and runs the Picard-Galerkin solver.  With deterministic
    coefficients the martingale fields vanish and the first component
    is comparable with the finite-difference PIDE solver on the shared
    interior.

    The forcing walks the lattice in slabs, runs of consecutive steps
    whose coefficient values and shifted basis are built once, and
    calls the cost f once per slab and control on every Picard pass,
    with a per-row t.

    ``require_coercivity=False`` skips the super-parabolicity refusal;
    the implicit stepping itself tolerates a degenerate A (for example
    fully zero dynamics, where the solution is constant in time), but
    well-posedness for rough data is then no longer guaranteed.
    """
    if coeffs.is_random and scenario is None:
        raise ConfigError("random coefficients need a scenario model")
    scenario = _lattice(scenario, time_grid)
    extra = set(coeffs.randomness_channels) - set(scenario.channels)
    if extra:
        raise ConfigError(f"scenario model does not carry channels {extra}")
    bad = set(coeffs.randomness_channels) - {"J", f"W{coeffs.d}"}
    if bad:
        raise ConfigError(
            f"the weak pipeline carries only W_d and jumps; got {bad}")

    pair = assemble_operators(coeffs, triple, time_grid, control_set)
    coercivity = check_coercivity(pair, pair.alpha, pair.alpha)
    if require_coercivity:
        if pair.alpha <= 0:
            raise ConfigError(
                "sigma_hat is degenerate (alpha = 0); the super-parabolic "
                "condition fails")
        if not coercivity.passed:
            raise ConfigError(f"coercivity check failed: {coercivity}")

    xq, Q = triple.quad_x, triple.n_quad
    channels = coeffs.randomness_channels
    # The scenario's noise values come in the scenario's channel order;
    # the coefficients read them in their own.
    columns = [scenario.channels.index(c) for c in channels]
    n_atoms = measure.n_atoms
    # L^2 projection of values at the quadrature points: values @ proj.
    proj = np.linalg.solve(triple.mass, (triple.quad_w[:, None] * triple.basis_q).T).T
    clamp_count = [0]
    # A basis block at x_q + g is shared by every step and control whose
    # g moves all nodes alike.
    blocks = {}

    def batch(t, noise_vals):
        """Quadrature points of every node, node-major, and their noise."""
        flatX = np.tile(xq, noise_vals.shape[0])[:, None]
        nz = (NoiseState(float(t), channels,
                         np.repeat(noise_vals[:, columns], Q, axis=0))
              if channels else None)
        return flatX, nz

    # Spatial derivative of sigma sigma^T and sigma_d by central
    # differences (sigma is deterministic and control-free here).
    def sigma_derivatives(t):
        def a_and_sd(t, x, u, nz):
            s = batch_eval(coeffs.sigma, t, x, u, nz, (coeffs.d,))
            return np.stack([np.sum(s * s, axis=1), s[:, -1]], axis=1)

        u_ref = control_set.atoms[0]
        jac = jacobian_x(a_and_sd, t, xq[:, None], u_ref, None, 2)
        s0 = batch_eval(coeffs.sigma, t, xq[:, None], u_ref, None, (coeffs.d,))
        return s0, jac[:, 0, 0], jac[:, 1, 0]

    def shifted_basis(a, g):
        """Basis at x_q + g (n_nodes, Q): one shared (Q, n_b) block when
        every node's row of g is the same, else (n_nodes, Q, n_b)."""
        if np.all(g == g[0]):
            points = xq + g[0]
            key = (a, points.tobytes())
            if key not in blocks:
                blocks[key] = triple.eval_basis(points)
            return blocks[key]
        return triple.eval_basis((xq + g).ravel()).reshape(g.shape + (-1,))

    off, N = scenario.offsets, time_grid.n_steps
    # A slab holds at most as many rows as the widest step or n_b, so no
    # (rows, Q) temporary outgrows a step's or a basis block.
    cap = max(int(np.max(np.diff(off[:N + 1]))), triple.n_modes)
    flat_x = np.tile(xq, cap)[:, None]

    def slab(s0, s1):
        lo, hi = off[s0], off[s1]
        drifts = [[] for _ in control_set.atoms]
        runs = [[[] for _ in range(n_atoms)] for _ in control_set.atoms]
        sigma, l_rows, outside = [], [], 0
        for i in range(s0, s1):
            # The coefficients read this step's t; the step's values are
            # copied into the slab's arrays below and not kept.
            t, noise_vals = float(time_grid.nodes[i]), scenario.noise_values(i)
            n_nodes, first = noise_vals.shape[0], off[i] - lo
            flatX, nz = batch(t, noise_vals)
            for c, u in enumerate(control_set.atoms):
                U = broadcast_control(u, flatX.shape[0])
                # b carries the compensator -sum_a w_a g_a of the transport.
                b, gs = compensated_drift(coeffs, measure, t, flatX, U, nz)
                drifts[c].append(b.reshape(n_nodes, Q))
                for a, g in enumerate(gs):
                    g = g.reshape(n_nodes, Q)
                    outside += int(np.count_nonzero(np.abs(xq + g) > triple.length))
                    block, run = shifted_basis(a, g), runs[c][a]
                    if run and run[-1][2] is block:
                        run[-1] = (run[-1][0], first + n_nodes, block)
                    else:
                        run.append((first, first + n_nodes, block))
            sigma.append(sigma_derivatives(t))
            l_rows.append(np.broadcast_to([float(coeffs.l(t, mark)) for mark in measure.marks],
                                          (n_nodes, n_atoms)))
        # Controls whose runs hold the same blocks share one key, so the
        # jump increment is formed once per key on every pass.
        shifts, controls = {}, []
        for u, drift, per_atom in zip(control_set.atoms, drifts, runs):
            keys = []
            for a, run in enumerate(per_atom):
                key = (a,) + tuple((r0, r1, id(block)) for r0, r1, block in run)
                shifts[key] = run
                keys.append(key)
            controls.append((broadcast_control(u, (hi - lo) * Q), np.concatenate(drift), keys))
        t_q = np.repeat(time_grid.nodes[scenario.row_step[lo:hi]], Q)
        nz = (NoiseState(t_q, channels,
                         np.repeat(scenario.noise_rows[lo:hi][:, columns], Q, axis=0))
              if channels else None)
        sigma = tuple(np.stack(parts) for parts in zip(*sigma))
        return _Slab(slice(lo, hi), scenario.row_step[lo:hi] - s0, sigma, t_q,
                     flat_x[:(hi - lo) * Q], nz, np.concatenate(l_rows), controls,
                     shifts, outside)

    # No Picard pass changes the coefficient values or the basis at the
    # jump-shifted points: every slab's are built before the first pass.
    firsts = [0]
    for i in range(1, N):
        if off[i + 1] - off[firsts[-1]] > cap:
            firsts.append(i)
    slabs = [slab(s0, s1) for s0, s1 in zip(firsts, firsts[1:] + [N])]

    def hjb_forcing(i, t, noise_vals, y, z, r):
        """The forcing on the stacked rows of every step, slab by slab;
        the rows' steps, times and noise are the slabs' own."""
        out = np.empty_like(y)
        # Psi components exist only when the scenario carries the jump
        # channel; deterministic runs have Psi identically zero.
        have_psi = r.shape[1] == n_atoms and n_atoms > 0
        for s in slabs:
            ys, rs = y[s.rows], r[s.rows]
            w_q = ys @ triple.basis_q.T          # (rows, Q)
            dw_q = ys @ triple.dbasis_q.T
            phi_q = z[s.rows] @ triple.basis_q.T
            psi_q = rs @ triple.basis_q.T if have_psi else None   # (rows, n_atoms, Q)
            sig0, da_dx, dsd_dx = (part[s.local_step] for part in s.sigma)
            z_slot = np.multiply(sig0, dw_q[..., None], out=sig0)
            z_slot[:, :, -1] += phi_q
            z_slot = z_slot.reshape(-1, coeffs.d)
            clamp_count[0] += s.outside

            incs, best = {}, None
            for U, b, keys in s.controls:
                total = b * dw_q
                k_agg = np.zeros_like(w_q)
                for a, key in enumerate(keys):
                    if key not in incs:
                        # Jump of w (and of psi_a) across x_q -> x_q + g.
                        incs[key] = _at_shift(s.shifts[key], ys) - w_q
                        if have_psi:
                            incs[key] += _at_shift(s.shifts[key], rs[:, a])
                    inc, wgt = incs[key], measure.weights[a]
                    if have_psi:
                        total += wgt * (inc - psi_q[:, a])
                    else:
                        total += wgt * inc
                    k_agg += wgt * s.l_rows[:, a:a + 1] * inc
                f_val = np.asarray(coeffs.f(s.t, s.flat_x, U, w_q.ravel(), z_slot,
                                            k_agg.ravel(), s.noise), dtype=float)
                total += f_val.reshape(total.shape)
                best = total if best is None else np.minimum(best, total, out=best)

            j1 = -da_dx * dw_q - phi_q * dsd_dx
            j1 += best
            out[s.rows] = np.negative(j1, out=j1) @ proj
        return out

    def xi_fn(noise_vals):
        flatX, nz = batch(time_grid.horizon, noise_vals)
        hv = np.asarray(coeffs.h(flatX, nz), dtype=float)
        return hv.reshape(noise_vals.shape[0], Q) @ proj

    solution = solve_nonlinear_bseej(pair, hjb_forcing, xi_fn, scenario,
                                     tol, max_iter)
    return WeakHjbResult(solution, measure, coercivity, clamp_count[0])
