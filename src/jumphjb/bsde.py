"""Regression Monte Carlo solver for the cost BSDE with jumps.

Backward induction on a simulated forward batch:

    Y_N = h(X_N)
    Z_i  = P_i[ Y_{i+1} dW_i ] / dt_i                 (per Brownian channel)
    K_i(e_j) = P_i[ Y_{i+1} (dN_i^j - w_j dt_i) ] / (w_j dt_i)
    Y_i  = P_i[ Y_{i+1} ] + f(t_i, X_i, u_i, P_i[Y_{i+1}], Z_i, k_i) dt_i

where P_i is least-squares projection onto a polynomial basis in
(X_i, noise_i) and k_i = sum_j K_i(e_j) l(t_i, e_j) w_j is the jump
aggregate fed to the driver.  The scheme is explicit: the driver sees
the projection of Y_{i+1}, which is stable for Lipschitz drivers at
small dt and avoids per-step fixed points.  The per-atom K estimator
regresses against compensated jump indicators, which is unbiased under
the compensated measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .coefficients import CoefficientSet
from .errors import NumericError
from .forward import (Control, ForwardBatch, as_controls, check_batch, simulate_batch,
                      stack_controls, stack_size)
from .drivers import MarkMeasure, NoiseBank, TimeGrid, child_seed, draw_noise, write_csv

__all__ = [
    "PolynomialBasis",
    "BsdeSolution",
    "solve_bsde",
    "price",
    "replicate",
    "mean_ci",
    "backward_semigroup",
    "comparison_check",
]


class PolynomialBasis:
    """Tensor polynomials up to a total degree in (X, noise values).

    The default (degree 3, ridge 1e-8) is the desk-scale workhorse; the
    ridge is scaled by trace(G)/p so it is invariant to feature scaling.
    """

    def __init__(self, degree: int = 3, ridge: float = 1e-8):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self.ridge = ridge

    def n_features(self, n_vars: int) -> int:
        return sum(
            1 for deg in range(self.degree + 1)
            for _ in combinations_with_replacement(range(n_vars), deg)
        )

    def features(self, x: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        v = x if noise is None else np.concatenate([x, noise], axis=1)
        M, n_vars = v.shape
        cols = [np.ones(M)]
        for deg in range(1, self.degree + 1):
            for combo in combinations_with_replacement(range(n_vars), deg):
                col = np.ones(M)
                for j in combo:
                    col = col * v[:, j]
                cols.append(col)
        return np.stack(cols, axis=1)

    def regressor(self, phi: np.ndarray, groups: int = 1) -> "NodeRegression":
        return NodeRegression(phi, self.ridge, groups)


class NodeRegression:
    """Ridge-regularized projections onto one node's feature matrix.

    ``phi`` (C*M, p) stacks C groups of M rows, and each group gets its
    own fit, the same as a one-group regression on its rows alone.  The
    first feature is the constant; the others are mean-centered and
    scaled to unit RMS per group before the solve.  Centered columns are
    orthogonal to the constant, so the projection splits into the mean
    of the target plus a ridge fit on the centered columns: the ridge
    never shrinks the mean, and the Gram matrix is far better
    conditioned, so it barely biases well-posed fits.  The factorization
    is shared across all targets at the node.  ``ridge_fallback`` (C,)
    marks the groups whose Gram matrix needed the eigenvalue floor.
    """

    def __init__(self, phi: np.ndarray, ridge: float, groups: int = 1):
        rows, p = phi.shape
        M = rows // groups
        cols = phi.reshape(groups, M, p)[:, :, 1:]
        shift = cols.mean(axis=1)
        work = cols - shift[:, None, :]
        gram = np.matmul(work.transpose(0, 2, 1), work)
        scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2) / M)
        # A column that is constant up to rounding is the constant again:
        # an infinite scale zeroes it, so every column stays orthogonal
        # to the constant.
        scale[scale <= 1e-12 * np.abs(shift) + 1e-300] = np.inf
        work /= scale[:, None, :]
        self._work = work
        gram /= scale[:, :, None] * scale[:, None, :]
        reg = ridge * (M + np.trace(gram, axis1=1, axis2=2)) / p
        eye = np.eye(p - 1)
        self.ridge_fallback = np.zeros(groups, dtype=bool)
        try:
            self._factor = np.linalg.cholesky(gram + reg[:, None, None] * eye)
        except np.linalg.LinAlgError:
            self._factor = np.stack([self._floored_factor(gram[c], reg[c], eye, c)
                                     for c in range(groups)])
        self.basis_size = int(p)

    def _floored_factor(self, gram, reg, eye, c):
        try:
            return np.linalg.cholesky(gram + reg * eye)
        except np.linalg.LinAlgError:
            self.ridge_fallback[c] = True
            w, v = np.linalg.eigh(gram)
            floor = max(reg, 1e-12 * max(w.max(), 1.0))
            return np.linalg.cholesky((v * np.maximum(w, floor)) @ v.T + reg * eye)

    def predict(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values of each target column, shape like ``targets`` (C*M, k)."""
        C, M, _ = self._work.shape
        targets = targets.reshape(C, M, -1)
        mean = targets.mean(axis=1, keepdims=True)
        rhs = np.matmul(self._work.transpose(0, 2, 1), targets - mean)
        coefs = np.linalg.solve(self._factor.transpose(0, 2, 1),
                                np.linalg.solve(self._factor, rhs))
        return (mean + self._work @ coefs).reshape(C * M, -1)


@dataclass
class BsdeSolution:
    """Discretized (Y, Z, K) with per-node regression diagnostics.

    Per-sample arrays are kept when the solver ran with
    ``keep_paths=True``: ``Y`` is (N+1, C*M), ``Z`` (N, C*M, d), ``K``
    (N, C*M, n_atoms), rows in the batch's group layout.  ``y0s`` (C,)
    holds each control group's Y(0); ``y0``, ``z0`` and ``k0`` are the
    node-0 values of group 0, the only group of a one-control batch
    (identical across samples for a deterministic start, up to the
    shared projection).  Each node's diagnostics hold the largest
    residual norm over the groups, and whether any group's fit needed
    the ridge fallback.
    """

    grid: TimeGrid
    y0: float
    z0: np.ndarray
    k0: np.ndarray
    terminal: np.ndarray
    diagnostics: list = field(default_factory=list)
    Y: np.ndarray | None = None
    Z: np.ndarray | None = None
    K: np.ndarray | None = None
    y0s: np.ndarray | None = None

    def summary(self) -> dict:
        return {
            "Y0": self.y0,
            "Z0": [float(v) for v in self.z0],
            "K0": [float(v) for v in self.k0],
            "diagnostics": {
                "nodes": len(self.diagnostics),
                "max_residual_norm": float(
                    max((d["residual_norm"] for d in self.diagnostics), default=0.0)
                ),
                "basis_size": self.diagnostics[0]["basis_size"] if self.diagnostics else 0,
                "ridge_fallbacks": int(
                    sum(d["ridge_fallback"] for d in self.diagnostics)
                ),
            },
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)

    def to_csv(self, path) -> None:
        """Full long-format dump: one row per (node, sample).

        Needs the per-sample arrays (``keep_paths=True``); size is
        (N+1) x M rows, so keep batches at desk scale before dumping.
        """
        if self.Y is None:
            raise ValueError("solution was computed with keep_paths=False")
        N, M = self.Y.shape[0] - 1, self.Y.shape[1]
        Z, K = (np.concatenate([a[:N], np.zeros_like(a[:1])]).reshape(-1, a.shape[2])
                for a in (self.Z, self.K))
        reals = np.column_stack([np.repeat(self.grid.nodes[:N + 1], M),
                                 self.Y.reshape(-1), Z, K]).tolist()
        write_csv(path, ["node", "t", "sample", "Y"] + [f"Z_{c+1}" for c in range(Z.shape[1])]
                  + [f"K_{j+1}" for j in range(K.shape[1])],
                  [[r // M, row[0], r % M] + row[1:] for r, row in enumerate(reals)])


def solve_bsde(coeffs: CoefficientSet, control, batch: ForwardBatch,
               basis: PolynomialBasis | None = None, *,
               terminal_values: np.ndarray | None = None,
               keep_paths: bool = True) -> BsdeSolution:
    """Solve the recursive-cost BSDE backward along a forward batch.

    A batch of C control groups is solved in one backward pass: each
    node makes one regression for all groups, every group fitted on its
    own rows (see :class:`NodeRegression`), so group c's values equal
    those of its own one-control batch bit for bit.  The controls are
    read from ``batch``; ``control`` is not used.  ``terminal_values``
    (C*M,) overrides h(X_N) (used by the backward semigroup).  With
    ``keep_paths=False`` only node-0 values, terminal values and
    diagnostics are retained, which keeps memory flat on large batches.
    """
    if basis is None:
        basis = PolynomialBasis()
    grid = batch.grid
    measure = batch.measure
    N = batch.states.shape[0] - 1
    C = batch.groups
    rows = batch.n_samples
    M = rows // C
    d = batch.dw.shape[2]
    n_atoms = measure.n_atoms

    if terminal_values is not None:
        y_next = np.asarray(terminal_values, dtype=float).reshape(rows).copy()
    else:
        nz = batch.noise_state(N, coeffs.randomness_channels)
        y_next = np.asarray(coeffs.h(batch.states[N], nz), dtype=float).reshape(rows)
    if not np.all(np.isfinite(y_next)):
        raise NumericError("terminal values are not finite")
    terminal = y_next.copy()

    Y = np.empty((N + 1, rows)) if keep_paths else None
    Z = np.empty((N, rows, d)) if keep_paths else None
    K = np.empty((N, rows, n_atoms)) if keep_paths else None
    if keep_paths:
        Y[N] = y_next

    diags = []
    z_i = np.zeros((rows, d))
    k_atoms = np.zeros((rows, n_atoms))
    l_w = np.zeros(n_atoms)

    for i in range(N - 1, -1, -1):
        t_i = float(grid.nodes[batch.start_node + i])
        dt = float(grid.dt[batch.start_node + i])
        X_i = batch.states[i]
        nz = batch.noise_state(i, coeffs.randomness_channels)
        phi = basis.features(X_i, None if nz is None else nz.values)
        reg = basis.regressor(phi, C)

        y_proj = reg.predict(y_next[:, None])[:, 0]
        # Martingale targets are centered by the Y-projection: same
        # conditional expectation, far lower variance, and exactly zero
        # for constant terminal data.  The increments are the bank's,
        # shared by the groups.
        resid = (y_next - y_proj).reshape(C, M, 1)
        comp = batch.jump_counts[i] - measure.weights * dt
        preds = reg.predict(resid * np.concatenate([batch.dw[i], comp], axis=1))
        diags.append({
            "basis_size": reg.basis_size,
            "residual_norm": float(np.sqrt(np.mean(resid[..., 0] ** 2, axis=1)).max()),
            "ridge_fallback": bool(reg.ridge_fallback.any()),
        })

        z_i = preds[:, :d] / dt
        if n_atoms:
            k_atoms = preds[:, d:] / (measure.weights * dt)
            for j in range(n_atoms):
                l_w[j] = float(coeffs.l(t_i, measure.marks[j])) * measure.weights[j]
            k_agg = (k_atoms.reshape(C, M, n_atoms) @ l_w).reshape(rows)
        else:
            k_agg = np.zeros(rows)

        u_i = stack_controls(batch.controls[i], M, coeffs.m)
        f_val = np.asarray(coeffs.f(t_i, X_i, u_i, y_proj, z_i, k_agg, nz),
                           dtype=float).reshape(rows)
        y_next = y_proj + f_val * dt
        if not np.all(np.isfinite(y_next)):
            raise NumericError(f"BSDE value became non-finite at node {i}")
        if keep_paths:
            Y[i] = y_next
            Z[i] = z_i
            K[i] = k_atoms

    diags.reverse()
    y0s = y_next.reshape(C, M).mean(axis=1)
    return BsdeSolution(
        grid=grid,
        y0=float(y0s[0]),
        z0=np.mean(z_i[:M], axis=0),
        k0=np.mean(k_atoms[:M], axis=0) if n_atoms else np.zeros(0),
        terminal=terminal,
        diagnostics=diags,
        Y=Y, Z=Z, K=K, y0s=y0s,
    )


def price(coeffs: CoefficientSet, controls, x, bank: NoiseBank, *,
          terminal=None, basis: PolynomialBasis | None = None) -> np.ndarray:
    """Costs J(t, x; u) = Y(t) of ``controls`` on the paths of ``bank``, (C,).

    The one path from controls to Monte Carlo costs; the bank fixes
    everything but the control, and t is its start node.  ``controls``
    is a sequence of C controls (or one :class:`Control`, C = 1).  They
    are priced as stacked batches (:func:`~jumphjb.forward.simulate_batch`
    and :func:`solve_bsde` with one group per control), as many
    consecutive controls per stack as fit under the batch cap, so entry
    k equals ``price(..., [controls[k]], ...)`` bit for bit.
    ``terminal`` maps the end states (rows, n) to values (rows,); None
    means h.
    """
    controls = as_controls(controls)
    M = bank.n_samples
    size = stack_size(coeffs, bank.measure, M, bank.end_node - bank.start_node,
                      len(controls))
    costs = []
    for lo in range(0, len(controls), size):
        stack = controls[lo:lo + size]
        batch = simulate_batch(coeffs, stack, x, bank.grid, bank.measure, M, bank.seed,
                               bank.start_node, bank.end_node, noise=bank)
        values = None if terminal is None else terminal(batch.states[-1])
        costs.extend(solve_bsde(coeffs, stack, batch, basis, terminal_values=values,
                                keep_paths=False).y0s)
    return np.array(costs)


def replicate(coeffs: CoefficientSet, controls, x, grid: TimeGrid,
              measure: MarkMeasure, n_samples: int, seed, *, n_rep: int = 4,
              start_node: int = 0, basis: PolynomialBasis | None = None) -> np.ndarray:
    """Costs (n_rep, len(controls)) over independent replications.

    Replication r draws one bank of max(n_samples // n_rep, 2) paths
    from ``child_seed(seed, r)`` and prices every control on it in one
    :func:`price` call before the next is drawn, so the columns of a row
    share their paths and a difference of two columns is a paired
    comparison.
    """
    if n_rep < 2:
        raise ValueError("need n_rep >= 2 replications for a confidence width")
    m = max(int(n_samples) // n_rep, 2)
    check_batch(coeffs, measure, m, grid.n_steps - start_node)
    out = np.empty((n_rep, len(controls)))
    for r in range(n_rep):
        bank = draw_noise(grid, coeffs.d, measure, m, child_seed(seed, r), start_node)
        out[r] = price(coeffs, controls, x, bank, basis=basis)
        del bank
    return out


def mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Mean of replication values (n_rep,) and its half-width 2 std / sqrt(n_rep)."""
    return float(values.mean()), 2.0 * float(values.std(ddof=1)) / np.sqrt(values.size)


def backward_semigroup(coeffs: CoefficientSet, control: Control, grid: TimeGrid,
                       measure: MarkMeasure, t_node: int, x, delta_nodes: int,
                       eta, n_samples: int, seed,
                       basis: PolynomialBasis | None = None) -> float:
    """Value at t of the BSDE run on [t, t + delta] with terminal eta.

    ``eta`` maps states (M, n) to terminal values (M,), the batch
    convention of ``h``; delta_nodes counts grid steps.  With
    delta_nodes = 0 this is eta(x) exactly, otherwise :func:`price` on
    a fresh bank over those steps.  For f = 0 the result is the Monte
    Carlo estimate of E[eta(X(t + delta))].
    """
    if delta_nodes < 0 or t_node + delta_nodes > grid.n_steps:
        raise ValueError("delta_nodes out of range for the grid")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if delta_nodes == 0:
        return float(np.ravel(eta(x[None, :]))[0])
    check_batch(coeffs, measure, n_samples, delta_nodes)
    bank = draw_noise(grid, coeffs.d, measure, n_samples, seed, t_node,
                      t_node + delta_nodes)
    return float(price(coeffs, [control], x, bank, terminal=eta, basis=basis)[0])


@dataclass
class ComparisonReport:
    y1: float
    y2: float
    margin: float
    terminal_ordered: bool
    passed: bool


def comparison_check(coeffs: CoefficientSet, control: Control,
                     batch: ForwardBatch, h1, h2,
                     basis: PolynomialBasis | None = None,
                     tol: float = 0.0) -> ComparisonReport:
    """Check Y1(0) <= Y2(0) + tol for pointwise-ordered terminals.

    ``h1`` and ``h2`` map the terminal states (M, n) to values (M,).
    Both solves share the batch (common random numbers), so for f = 0
    the ordering is exact sample by sample, not just in the mean.
    """
    X_T = batch.states[-1]
    M = X_T.shape[0]
    t1 = np.asarray(h1(X_T), dtype=float).reshape(M)
    t2 = np.asarray(h2(X_T), dtype=float).reshape(M)
    ordered = bool(np.all(t1 <= t2 + 1e-12))
    s1 = solve_bsde(coeffs, control, batch, basis, terminal_values=t1, keep_paths=False)
    s2 = solve_bsde(coeffs, control, batch, basis, terminal_values=t2, keep_paths=False)
    margin = s2.y0 - s1.y0
    return ComparisonReport(s1.y0, s2.y0, margin, ordered, margin >= -abs(tol))
