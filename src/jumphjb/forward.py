"""Euler-Maruyama simulation of the controlled jump-diffusion.

Scheme.  Between events the state advances with drift and diffusion
frozen at the start of each sub-interval; the compensator of the jump
integral is folded into the drift,

    b_tilde = b - sum_j g(t, e_j, x, u) w_j,

so the discrete compensated jump term stays a martingale to O(dt).  Jump
events keep their exact times: a step containing events is split at the
event times, the Brownian increment of the step is allocated to the
pieces proportionally to their lengths, and at an event the state moves
by g evaluated at the pre-jump state.  Controls are step-constant,
evaluated at the left grid node.

The first-variation process propagates the exact Jacobian of this
discrete map (coefficient gradients by central differences), so a
bump-and-reprice under common random numbers reproduces it to finite
difference accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drivers
from .coefficients import (
    CoefficientSet,
    NoiseState,
    batch_eval,
    brownian_index,
    compensated_drift,
    jacobian_x,
)
from .drivers import (DriverPath, MarkMeasure, NoiseBank, TimeGrid, check_batch_bytes,
                      draw_noise, sample_driver_path)  # noqa: F401  (kept importable here)
from .errors import DivergenceError

__all__ = [
    "Control",
    "ConstantControl",
    "OpenLoopControl",
    "FeedbackControl",
    "StateTrajectory",
    "ForwardBatch",
    "simulate",
    "simulate_flow_gradient",
    "flow_property_residual",
    "as_controls",
    "check_batch",
    "stack_size",
    "stack_controls",
    "simulate_batch",
    "trajectory_to_csv",
]

DIVERGENCE_GUARD = 1e8


class Control:
    """Step-constant admissible control.

    ``value_batch(i, t, x, noise)`` returns the control applied on grid
    step i (counted from t_0, also in a batch on a later window) to the
    states ``x`` (B, n), chosen from the information available at the
    left endpoint: one control (m,) for every row, or one per row (B, m).
    """

    def value_batch(self, i: int, t: float, x, noise):
        raise NotImplementedError


class ConstantControl(Control):
    def __init__(self, u):
        self.u = np.atleast_1d(np.asarray(u, dtype=float))

    def value_batch(self, i, t, x, noise):
        return self.u


class OpenLoopControl(Control):
    """One control vector per grid step, shape (N, m)."""

    def __init__(self, values):
        self.values = np.atleast_2d(np.asarray(values, dtype=float))

    def value_batch(self, i, t, x, noise):
        return self.values[i]


class FeedbackControl(Control):
    """Markov feedback u = fn(t, x) under the batch convention.

    ``fn`` takes states of shape (B, n) and returns controls of shape
    (B, m), or (B,) when m = 1.
    """

    def __init__(self, fn, m: int = 1):
        self.fn = fn
        self.m = m

    def value_batch(self, i, t, x, noise):
        return np.asarray(self.fn(t, x), dtype=float).reshape(x.shape[0], self.m)


def as_controls(controls) -> list:
    """A list of controls from one :class:`Control` or a sequence of them."""
    return [controls] if isinstance(controls, Control) else list(controls)


@dataclass(frozen=True)
class StateTrajectory:
    """Grid-aligned states plus post-jump states at event times.

    ``event_atom`` is -1 on grid rows and the atom index on event rows.
    ``controls[k]`` is the control in force from row k onward (the last
    row repeats the final step's control).  ``grid_rows`` maps grid node
    indices to row indices.
    """

    times: np.ndarray
    states: np.ndarray
    event_atom: np.ndarray
    controls: np.ndarray
    grid_rows: np.ndarray
    start_node: int

    def state_at_node(self, node: int) -> np.ndarray:
        return self.states[self.grid_rows[node - self.start_node]]

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


class _NoiseTracker:
    """Running W and event count along one path; their channel values
    come from :func:`_noise_values` on one row, as in a batch."""

    def __init__(self, coeffs: CoefficientSet, path: DriverPath, start_node: int):
        self.coeffs = coeffs
        self.mass = path.measure.total_mass
        self.w = np.zeros(path.d)
        if start_node > 0:
            self.w += path.brownian_increments[:start_node].sum(axis=0)
        t0 = path.grid.nodes[start_node]
        self.count = int(np.searchsorted(path.jump_times, t0, side="right"))

    def state(self, t: float) -> NoiseState | None:
        channels = self.coeffs.randomness_channels
        if not channels:
            return None
        return NoiseState(t, channels, _noise_values(
            self.coeffs, t, self.w[None], np.array([float(self.count)]), self.mass))


def _events_in_step(path: DriverPath, i: int):
    lo = np.searchsorted(path.jump_times, path.grid.nodes[i], side="right")
    hi = np.searchsorted(path.jump_times, path.grid.nodes[i + 1], side="right")
    return path.jump_times[lo:hi], path.jump_atoms[lo:hi]


def _euler_path(coeffs: CoefficientSet, control: Control, x0, path: DriverPath,
                start_node: int, end_node: int | None, with_grad: bool):
    """One event-exact Euler pass along ``path``, the per-path reference.

    The state is a one-row batch, and so are the noise and the control.
    Returns the trajectory and, with ``with_grad``, the flow gradients
    aligned to its rows (else None).
    """
    grid, measure, n, d = path.grid, path.measure, coeffs.n, coeffs.d
    if end_node is None:
        end_node = grid.n_steps
    if not (0 <= start_node < end_node <= grid.n_steps):
        raise ValueError("need 0 <= start_node < end_node <= n_steps")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.size != n or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite vector of length n")
    x = x[None, :]
    jac = np.eye(n)
    tracker = _NoiseTracker(coeffs, path, start_node)
    times, states, atoms, grads = [grid.nodes[start_node]], [x[0].copy()], [-1], [jac.copy()]
    controls, grid_rows = [], [0]

    def drift(*args):
        return compensated_drift(coeffs, measure, *args)[0]

    def sigma(*args):
        return batch_eval(coeffs.sigma, *args, (n * d,))

    def record(t, atom, u):
        times.append(t)
        states.append(x[0].copy())
        atoms.append(atom)
        controls.append(u[0])
        grads.append(jac.copy())

    def advance(t_cur, t_to, dt, dw, u):
        nonlocal x, jac
        noise = tracker.state(t_cur)
        span = t_to - t_cur
        dw_part = dw * (span / dt)
        x_new = (x + drift(t_cur, x, u, noise) * span
                 + sigma(t_cur, x, u, noise).reshape(n, d) @ dw_part)
        if with_grad:
            d_drift = jacobian_x(drift, t_cur, x, u, noise, n)[0]
            d_sig = jacobian_x(sigma, t_cur, x, u, noise, n * d)[0].reshape(n, d, n)
            jac = jac + span * (d_drift @ jac) + np.einsum(
                "c,acm,mk->ak", dw_part, d_sig, jac)
        x = x_new
        tracker.w += dw_part

    for i in range(start_node, end_node):
        t_lo, t_hi = grid.nodes[i], grid.nodes[i + 1]
        dt = t_hi - t_lo
        u = np.asarray(control.value_batch(i, t_lo, x, tracker.state(t_lo)),
                       dtype=float).reshape(1, -1)
        ev_times, ev_atoms = _events_in_step(path, i)
        dw = path.brownian_increments[i]
        t_cur = t_lo
        for tau, a in zip(ev_times, ev_atoms):
            if tau > t_cur:
                advance(t_cur, tau, dt, dw, u)
                t_cur = tau
            noise = tracker.state(tau)
            mark = measure.marks[a]

            def jump(*args):
                return batch_eval(coeffs.g, *args, (n,), mark)

            if with_grad:
                jac = (np.eye(n) + jacobian_x(jump, tau, x, u, noise, n)[0]) @ jac
            x = x + jump(tau, x, u, noise)
            tracker.count += 1
            record(tau, int(a), u)
        if t_hi > t_cur:
            advance(t_cur, t_hi, dt, dw, u)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_GUARD:
            raise DivergenceError("state left the admissible range", i)
        record(t_hi, -1, u)
        grid_rows.append(len(times) - 1)

    controls.append(controls[-1] if controls else np.zeros(coeffs.m))
    traj = StateTrajectory(
        np.array(times), np.array(states), np.array(atoms, dtype=int),
        np.array(controls), np.array(grid_rows, dtype=int), start_node,
    )
    return traj, (np.array(grads) if with_grad else None)


def simulate(coeffs: CoefficientSet, control: Control, x0, path: DriverPath,
             start_node: int = 0, end_node: int | None = None) -> StateTrajectory:
    """Simulate the state along one noise realization.

    Deterministic given (coeffs, control, x0, path); aborts with
    :class:`DivergenceError` when |X| exceeds 1e8.  This per-path pass
    is the reference that the batched sub-steps of
    :func:`simulate_batch` are checked against.
    """
    return _euler_path(coeffs, control, x0, path, start_node, end_node, False)[0]


def simulate_flow_gradient(coeffs: CoefficientSet, control: Control, x0,
                           path: DriverPath, start_node: int = 0,
                           end_node: int | None = None):
    """State trajectory together with the flow gradient dX/dx0.

    The gradient solves the linearized dynamics driven by D_x b, D_x
    sigma and D_x g along the same event schedule; it starts at the
    identity.  Returns (trajectory, gradients) with gradients aligned to
    the trajectory rows.  The control is treated as independent of the
    state (open-loop semantics).
    """
    return _euler_path(coeffs, control, x0, path, start_node, end_node, True)


def flow_property_residual(coeffs: CoefficientSet, control: Control, x,
                           t_node: int, tau_node: int, gamma_node: int,
                           path: DriverPath) -> float:
    """Max-abs gap between X^{t,x}(gamma) and the restart at tau.

    Both runs share the path, so the residual is exactly zero whenever
    tau and gamma are grid nodes: the scheme re-freezes coefficients at
    sub-interval starts, hence a restart reproduces every increment.
    """
    if not (0 <= t_node <= tau_node <= gamma_node <= path.grid.n_steps):
        raise ValueError("need t_node <= tau_node <= gamma_node as grid indices")
    full = simulate(coeffs, control, x, path, start_node=t_node, end_node=gamma_node)
    if tau_node == gamma_node:
        return 0.0
    x_tau = full.state_at_node(tau_node)
    restart = simulate(coeffs, control, x_tau, path,
                       start_node=tau_node, end_node=gamma_node)
    return float(np.max(np.abs(full.terminal_state - restart.terminal_state)))


@dataclass(frozen=True)
class ForwardBatch:
    """Grid-node data of a batch of simulated paths.

    The batch holds ``groups`` = C controls on one bank of M paths.
    Group c is rows c*M .. (c+1)*M - 1 of ``states`` (N+1, C*M, n), and
    its row c*M + s rides on bank row s.  The noise is the bank's, once
    for all groups: ``dw`` (N, M, d) and
    ``jump_counts`` (N, M, n_atoms) of ``np.uint8`` are the bank's
    read-only arrays, not copies, and ``noise`` (N+1, M, r) holds the
    channel values, or None when the coefficient set is deterministic;
    every reader promotes the counts before any arithmetic.
    ``controls[i]`` is a tuple with each group's control on step i of
    the batch, shape (m,) when sample-independent else (M, m).
    """

    grid: TimeGrid
    measure: MarkMeasure
    states: np.ndarray
    dw: np.ndarray
    jump_counts: np.ndarray
    noise: np.ndarray | None
    controls: list
    start_node: int = 0
    groups: int = 1

    @property
    def n_samples(self) -> int:
        """Rows of the batch, C*M."""
        return self.states.shape[1]

    def noise_state(self, node: int, channels) -> NoiseState | None:
        """Channel values at ``node`` for every row, (C*M, r)."""
        if self.noise is None:
            return None
        t = self.grid.nodes[self.start_node + node]
        return NoiseState(float(t), channels, np.tile(self.noise[node], (self.groups, 1)))


def _batch_bytes(coeffs: CoefficientSet, measure: MarkMeasure, M: int, N: int,
                 groups: int) -> float:
    r = len(coeffs.randomness_channels)
    return M * (8.0 * ((N + 1) * (groups * coeffs.n + r) + N * coeffs.d) + N * measure.n_atoms)


def check_batch(coeffs: CoefficientSet, measure: MarkMeasure, M: int, N: int,
                groups: int = 1) -> None:
    """Refuse a batch of M paths over N steps before any of it is drawn.

    A stack of ``groups`` controls holds one state array per control and
    the noise once; a real takes 8 bytes and a jump count 1.
    """
    check_batch_bytes(_batch_bytes(coeffs, measure, M, N, groups))


def stack_size(coeffs: CoefficientSet, measure: MarkMeasure, M: int, N: int,
               n_controls: int) -> int:
    """How many of ``n_controls`` controls one stacked batch holds under the cap.

    As many as fit under ``drivers.MAX_BATCH_BYTES`` (the cap of
    :func:`check_batch`), at least one: a single control that does not
    fit raises MemoryError.
    """
    check_batch(coeffs, measure, M, N)
    spare = drivers.MAX_BATCH_BYTES - _batch_bytes(coeffs, measure, M, N, 1)
    return int(max(1, min(n_controls, 1 + spare // (8.0 * M * (N + 1) * coeffs.n))))


def stack_controls(us, M: int, m: int) -> np.ndarray:
    """The (C*M, m) control of C stacked groups: rows c*M ... (c+1)*M - 1
    hold ``us[c]``, one control value or one row per path."""
    out = np.empty((len(us) * M, m))
    for c, v in enumerate(us):
        out[c * M:(c + 1) * M] = v
    return out


def simulate_batch(coeffs: CoefficientSet, control, x0, grid: TimeGrid,
                   measure: MarkMeasure, n_samples: int, seed,
                   start_node: int = 0, end_node: int | None = None, *,
                   noise: NoiseBank | None = None) -> ForwardBatch:
    """Simulate ``n_samples`` i.i.d. paths on a bank from ``seed``.

    ``control`` is one :class:`Control` or a sequence of C of them; the
    batch then holds C groups of rows on the same paths (see
    :class:`ForwardBatch`), and one control is the case C = 1.  Every
    step evaluates each control once on its own group's rows and
    advances all C*M rows in one vectorized update; the rows whose step
    holds jump events are then redone with the exact event sub-steps of
    :func:`simulate`, batched over those rows, so each group agrees with
    :func:`simulate` on ``NoiseBank.path(s)`` up to floating-point
    summation order, and with its own one-control batch bit for bit.
    ``start_node``/``end_node`` restrict the simulation to a sub-horizon
    of the grid.

    ``noise`` is a bank from :func:`~jumphjb.drivers.draw_noise` for
    exactly these grid, measure, sample count, seed and node range
    (anything else raises ValueError); the batch then reads it in place
    of drawing, bit for bit the same, and never writes into it.  Several
    controls priced on common random numbers share one bank.
    """
    controls = as_controls(control)
    C, M = len(controls), int(n_samples)
    n, d = coeffs.n, coeffs.d
    if C < 1:
        raise ValueError("need at least one control")
    if end_node is None:
        end_node = grid.n_steps
    if not (0 <= start_node < end_node <= grid.n_steps):
        raise ValueError("need 0 <= start_node < end_node <= n_steps")
    N = end_node - start_node
    n_atoms = measure.n_atoms
    r = len(coeffs.randomness_channels)

    check_batch(coeffs, measure, M, N, C)
    if noise is None:
        noise = draw_noise(grid, d, measure, M, seed, start_node, end_node)
    else:
        noise.check(grid, d, measure, M, seed, start_node, end_node)
    dw, counts, off = noise.dw, noise.counts, noise.step_offsets

    x0 = np.asarray(x0, dtype=float)
    states = np.empty((N + 1, C * M, n))
    states[0] = (np.tile(x0, (C, 1)) if x0.ndim == 2
                 else np.broadcast_to(np.atleast_1d(x0), (C * M, n)))

    noise_vals = np.zeros((N + 1, M, r)) if r else None
    if noise_vals is not None:
        # Running copies: the bank's starting values stay as drawn.
        w_run = noise.w_start.copy()
        cnt_run = noise.count_start.astype(float)
        noise_vals[0] = _noise_values(coeffs, grid.nodes[start_node], w_run,
                                      cnt_run, measure.total_mass)

    steps = []
    channels = coeffs.randomness_channels
    groups = [slice(c * M, (c + 1) * M) for c in range(C)]
    shift = M * np.arange(C)[:, None]

    for i in range(N):
        gi = start_node + i
        t_lo = grid.nodes[gi]
        dt = grid.dt[gi]
        own = None if noise_vals is None else NoiseState(float(t_lo), channels, noise_vals[i])
        us = tuple(np.asarray(c.value_batch(gi, t_lo, states[i, g], own), dtype=float)
                   for c, g in zip(controls, groups))
        steps.append(us)
        # The (C*M, m) control, the channel values and dw of every row
        # exist only for the step being computed.
        u = stack_controls(us, M, coeffs.m)
        nstate = None if own is None else NoiseState(own.t, channels, np.tile(own.values, (C, 1)))
        dw_i = np.tile(dw[i], (C, 1))

        X = states[i]
        b, _ = compensated_drift(coeffs, measure, t_lo, X, u, nstate)
        sig = batch_eval(coeffs.sigma, t_lo, X, u, nstate, (n, d))
        states[i + 1] = X + b * dt + np.einsum("snd,sd->sn", sig, dw_i)

        if off[i + 1] > off[i]:
            ev = slice(off[i], off[i + 1])
            rows, x_hi = _event_substeps(
                coeffs, measure, t_lo, grid.nodes[gi + 1], X, u, dw_i,
                (noise.event_row[ev] + shift).ravel(), np.tile(noise.event_atom[ev], C),
                np.tile(noise.event_tau[ev], C),
                None if noise_vals is None else (w_run, cnt_run))
            states[i + 1, rows] = x_hi

        if not np.all(np.isfinite(states[i + 1])) or np.max(np.abs(states[i + 1])) > DIVERGENCE_GUARD:
            raise DivergenceError("batch state left the admissible range", gi)
        if noise_vals is not None:
            w_run += dw[i]
            if n_atoms:
                cnt_run += counts[i].sum(axis=1)
            noise_vals[i + 1] = _noise_values(
                coeffs, grid.nodes[gi + 1], w_run, cnt_run, measure.total_mass)

    return ForwardBatch(grid, measure, states, dw, counts, noise_vals, steps,
                        start_node, C)


def _noise_values(coeffs, t, w_run, cnt_run, mass):
    cols = []
    for c in coeffs.randomness_channels:
        if c == "J":
            cols.append(cnt_run - t * mass)
        else:
            cols.append(w_run[:, brownian_index(c) - 1])
    return np.stack(cols, axis=-1)


def _event_substeps(coeffs, measure, t_lo, t_hi, X, u, dw, rows, atoms, taus,
                    running):
    """Exact sub-steps of one grid step for the rows that carry events.

    ``rows``, ``atoms`` and ``taus`` are the step's events sorted by
    (row, tau), with rows of the stacked batch.  Pass k takes every row with more than k events to its
    k-th event time (a per-row t), applies g for that event's atom (one
    evaluation per atom) and carries the channel values; then all these
    rows advance to t_hi.  ``running`` is the (W, count) of the bank
    rows at t_lo, only read, or None for deterministic coefficients.
    Returns the rows and their states at t_hi.
    """
    R, first, n_ev = np.unique(rows, return_index=True, return_counts=True)
    rank = np.arange(rows.size) - np.repeat(first, n_ev)
    pos = np.repeat(np.arange(R.size), n_ev)
    x, dw = X[R], dw[R]
    u = u[R] if u.ndim == 2 else u
    t_cur = np.full(R.size, t_lo)
    if running is not None:
        bank_rows = R % running[1].size
        w, cnt = running[0][bank_rows], running[1][bank_rows]

    def at(p, t):
        """Rows p of x and u, and their noise at times t."""
        nz = None if running is None else NoiseState(
            t, coeffs.randomness_channels,
            _noise_values(coeffs, t, w[p], cnt[p], measure.total_mass))
        return x[p], (u[p] if u.ndim == 2 else u), nz

    def advance(p, t_to):
        keep = t_to > t_cur[p]
        p, t_to = p[keep], t_to[keep]
        if not p.size:
            return
        span = t_to - t_cur[p]
        xp, up, nz = at(p, t_cur[p])
        b, _ = compensated_drift(coeffs, measure, t_cur[p], xp, up, nz)
        sig = batch_eval(coeffs.sigma, t_cur[p], xp, up, nz, (coeffs.n, coeffs.d))
        piece = dw[p] * (span / (t_hi - t_lo))[:, None]
        x[p] = xp + b * span[:, None] + np.einsum("snd,sd->sn", sig, piece)
        if running is not None:
            w[p] += piece
        t_cur[p] = t_to

    for k in range(rank.max() + 1):
        p, tau, a = pos[rank == k], taus[rank == k], atoms[rank == k]
        advance(p, tau)
        for j in np.unique(a):
            q, tq = p[a == j], tau[a == j]
            xq, uq, nz = at(q, tq)
            x[q] = xq + batch_eval(coeffs.g, tq, xq, uq, nz, (coeffs.n,),
                                   measure.marks[j])
        if running is not None:
            cnt[p] += 1
    advance(np.arange(R.size), np.full(R.size, t_hi))
    return R, x


def trajectory_to_csv(traj: StateTrajectory, path) -> None:
    """Columns: t, X_1..X_n, u_1..u_m, event (atom index or -1)."""
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    reals = np.column_stack([traj.times, traj.states, traj.controls]).tolist()
    drivers.write_csv(path, ["t"] + [f"X_{k+1}" for k in range(n)]
                      + [f"u_{k+1}" for k in range(m)] + ["event"],
                      [r + [a] for r, a in zip(reals, traj.event_atom.tolist())])
