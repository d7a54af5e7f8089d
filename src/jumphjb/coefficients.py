"""Coefficient tuples for the controlled jump-diffusion and its cost.

A :class:`CoefficientSet` bundles the six maps

    b(t, x, u, noise)        drift, R^n
    sigma(t, x, u, noise)    diffusion, R^{n x d}
    g(t, mark, x, u, noise)  jump amplitude, R^n
    f(t, x, u, y, z, k, noise)  cost driver, scalar
    h(x, noise)              terminal cost, scalar
    l(t, mark)               jump aggregation weight, scalar >= 0

together with the declared regularity constants.  Randomness enters only
through a :class:`NoiseState` built from finitely many path functionals:
current values of selected Brownian components (channels ``"W1"``,
``"W2"``, ...) and the compensated jump count (channel ``"J"``).  All
callables must be pure and re-entrant.

Every callable except l follows one batch convention: ``x`` has shape
(B, n), ``u`` (B, m), ``y`` and ``k`` (B,), ``z`` (B, d) and the noise
values (B, r), and each output carries the same leading batch axis.
Every caller evaluates the coefficients this way (:func:`batch_eval`,
and :func:`compensated_drift` for the drift with the jump compensator
folded in); there is no single-point evaluator, and the per-path
reference simulation holds its state as a one-row batch.  The time
``t`` is a scalar shared by the rows, except where rows stand at
different times: in the event sub-steps of the batch forward
simulation, and in the validators below, whose samples each draw their
own t.  There ``t``, and the ``t`` of the NoiseState, are (B,) arrays
with one entry per row.  A family that reads t writes it so that both broadcast, for
example ``np.reshape(t, (-1, 1)) * x``.  Callables written for one
point at a time go through :meth:`CoefficientSet.from_pointwise`, which
loops over the rows and passes each row its own t.

The validators below check the standing regularity assumptions by
sampling, all samples of a check in one batch, since the coefficients
are opaque callables: Lipschitz bounds
for (b, sigma) and per-atom envelopes for g, the non-degeneracy floor
|det(I + D_x g)| >= delta, monotonicity of the driver in its jump
aggregate, and the growth bound on l.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drivers import MarkMeasure, fields_equal
from .errors import NumericError

__all__ = [
    "NoiseState",
    "CoefficientSet",
    "ControlSet",
    "batch_eval",
    "broadcast_control",
    "brownian_index",
    "compensated_drift",
    "SamplingPlan",
    "ValidationReport",
    "validate_lipschitz",
    "validate_jump_nondegeneracy",
    "validate_driver_monotonicity",
    "FD_STEP_SCALE",
]

# Central-difference step for D_x of opaque coefficients, scaled by 1+|x|.
FD_STEP_SCALE = 1e-5


def brownian_index(channel: str) -> int:
    """k of a randomness channel named W<k>, the k-th Brownian component
    (k >= 1, no sign, space or leading zero); 0 for any other name."""
    match = re.fullmatch("W([1-9][0-9]*)", channel)
    return int(match[1]) if match else 0


@dataclass(frozen=True)
class NoiseState:
    """Values of the declared randomness channels at one time.

    ``values`` is aligned with the owning coefficient set's
    ``randomness_channels``; coefficient callables see it with a leading
    batch axis.  ``t`` is a float, or a (B,) array of per-row times at
    event sub-steps.
    """

    t: float | np.ndarray
    channels: tuple
    values: np.ndarray


@dataclass(frozen=True)
class CoefficientSet:
    n: int
    d: int
    m: int
    b: Callable
    sigma: Callable
    g: Callable
    f: Callable
    h: Callable
    l: Callable
    lipschitz_C: float = 1.0
    rho: np.ndarray = field(default_factory=lambda: np.zeros(0))
    delta: float = 1.0
    control_in_sigma: bool = False
    randomness_channels: tuple = ()
    # The batch convention is the only one; the field remains so that
    # callers passing vectorized=True keep working.
    vectorized: bool = True

    def __post_init__(self):
        if not self.vectorized:
            raise ValueError(
                "coefficient callables must follow the batch convention; "
                "wrap pointwise callables with CoefficientSet.from_pointwise")
        if min(self.n, self.d, self.m) < 1:
            raise ValueError("dimensions n, d, m must all be >= 1")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if self.lipschitz_C <= 0:
            raise ValueError("lipschitz_C must be positive")
        rho = np.asarray(self.rho, dtype=float).ravel()
        if rho.size and np.any(rho < 0):
            raise ValueError("rho entries must be nonnegative")
        object.__setattr__(self, "rho", rho)
        bad = [c for c in self.randomness_channels
               if c != "J" and not 1 <= brownian_index(c) <= self.d]
        if bad:
            raise ValueError(f"unknown randomness channels {bad}")
        object.__setattr__(
            self, "randomness_channels", tuple(self.randomness_channels)
        )

    @classmethod
    def from_pointwise(cls, n: int, d: int, m: int, b: Callable, sigma: Callable,
                       g: Callable, f: Callable, h: Callable, l: Callable,
                       **kw) -> "CoefficientSet":
        """Coefficient set from callables that take one point at a time.

        The pointwise signatures are b(t, x, u, noise), sigma(t, x, u,
        noise), g(t, mark, x, u, noise), f(t, x, u, y, z, k, noise) and
        h(x, noise), with ``x`` (n,), ``u`` (m,), ``z`` (d,), scalar ``y``
        and ``k``, and a NoiseState holding one row of channel values (or
        None).  Each is wrapped in a loop over the batch rows, so such a
        set runs everywhere a batched one does, one Python call per row.
        """
        return cls(n=n, d=d, m=m,
                   b=_per_row(b, (n,), 1), sigma=_per_row(sigma, (n, d), 1),
                   g=_per_row(g, (n,), 2), f=_per_row(f, (), 1),
                   h=_per_row(h, (), 0), l=l, **kw)

    @property
    def is_random(self) -> bool:
        return len(self.randomness_channels) > 0


def _per_row(fun: Callable, out_shape: tuple, n_shared: int) -> Callable:
    """Batch adapter of a pointwise callable.

    The first ``n_shared`` arguments (t, and the mark for g) are passed
    as they are, except that a per-row t gives row s its own entry; the
    last is the NoiseState, and every argument between them is indexed
    by row.
    """
    def row_t(t, s):
        return t[s] if np.ndim(t) else t

    def batched(*args):
        shared, rows, noise = args[:n_shared], args[n_shared:-1], args[-1]
        out = np.empty((rows[0].shape[0],) + out_shape)
        for s in range(out.shape[0]):
            row_shared = (row_t(shared[0], s),) + shared[1:] if shared else ()
            row_noise = (None if noise is None else NoiseState(
                row_t(noise.t, s), noise.channels, noise.values[s]))
            out[s] = np.asarray(fun(*row_shared, *(a[s] for a in rows), row_noise),
                                dtype=float).reshape(out_shape)
        return out

    return batched


def broadcast_control(u, batch_size: int) -> np.ndarray:
    """Normalize a control value to shape (batch_size, m).

    Coefficient callables always see batched controls, so family
    implementations need to handle a single layout.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim <= 1:
        return np.broadcast_to(np.atleast_1d(u), (batch_size, max(u.size, 1)))
    return u


def batch_eval(fun: Callable, t, X: np.ndarray, u, noise, out_shape: tuple,
               *mark) -> np.ndarray:
    """Evaluate b, sigma or g on the rows of ``X``, shape (B,) + out_shape.

    ``u`` is one control for every row or one per row; ``mark`` is given
    for the jump amplitude g, whose signature takes it after t.
    """
    B = X.shape[0]
    out = fun(t, *mark, X, broadcast_control(u, B), noise)
    return np.asarray(out, dtype=float).reshape((B,) + out_shape)


def compensated_drift(coeffs: CoefficientSet, measure: MarkMeasure, t,
                      X: np.ndarray, u, noise):
    """b - sum_j w_j g(t, e_j, .) on the rows of ``X``, and each g_j.

    Folding the compensator of the jump integral into the drift keeps
    the discrete compensated jump term a martingale.  Returns the
    compensated drift (B, n) and the list of per-atom jumps g_j (B, n).
    """
    b = batch_eval(coeffs.b, t, X, u, noise, (coeffs.n,))
    gs = [batch_eval(coeffs.g, t, X, u, noise, (coeffs.n,), mark)
          for mark in measure.marks]
    for w, gj in zip(measure.weights, gs):
        b = b - w * gj
    return b, gs


@dataclass(frozen=True)
class ControlSet:
    """Finite grid U_h inside a compact box of R^m."""

    atoms: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        if atoms.shape[0] == 0:
            raise ValueError("control grid must be nonempty")
        if atoms.shape[1] != lower.size or lower.size != upper.size:
            raise ValueError("control atoms and box dimensions disagree")
        if np.any(lower > upper):
            raise ValueError("control box is empty")
        eps = 1e-12 * (1.0 + np.abs(upper) + np.abs(lower))
        if np.any(atoms < lower - eps) or np.any(atoms > upper + eps):
            raise ValueError("control atoms must lie inside the declared box")
        for name, a in (("atoms", atoms), ("lower", lower), ("upper", upper)):
            a = np.ascontiguousarray(a)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def m(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def singleton(cls, u) -> "ControlSet":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(u[None, :], u, u)

    @classmethod
    def from_1d(cls, lo: float, hi: float, k: int) -> "ControlSet":
        if k < 1:
            raise ValueError("need at least one control atom")
        pts = np.linspace(lo, hi, k) if k > 1 else np.array([0.5 * (lo + hi)])
        return cls(pts[:, None], np.array([lo]), np.array([hi]))


@dataclass(frozen=True)
class SamplingPlan:
    """Where and how much to sample when validating coefficients."""

    n_samples: int
    x_low: np.ndarray
    x_high: np.ndarray
    u_low: np.ndarray
    u_high: np.ndarray
    seed: int = 0
    t_max: float = 1.0
    noise_scale: float = 1.0

    def __post_init__(self):
        for name in ("x_low", "x_high", "u_low", "u_high"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, v)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @classmethod
    def cube(cls, n: int, m: int, half_width: float = 2.0, n_samples: int = 200,
             seed: int = 0) -> "SamplingPlan":
        return cls(
            n_samples=n_samples,
            x_low=-half_width * np.ones(n),
            x_high=half_width * np.ones(n),
            u_low=-half_width * np.ones(m),
            u_high=half_width * np.ones(m),
            seed=seed,
        )


@dataclass
class ValidationReport:
    check: str
    passed: bool
    observed: float
    bound: float
    n_samples: int
    worst_point: dict = field(default_factory=dict)
    notes: str = ""


def _plan_samples(coeffs: CoefficientSet, plan: SamplingPlan):
    rng = np.random.default_rng(plan.seed)
    ns = plan.n_samples
    xs = rng.uniform(plan.x_low, plan.x_high, size=(ns, coeffs.n))
    xs2 = rng.uniform(plan.x_low, plan.x_high, size=(ns, coeffs.n))
    us = rng.uniform(plan.u_low, plan.u_high, size=(ns, coeffs.m))
    us2 = rng.uniform(plan.u_low, plan.u_high, size=(ns, coeffs.m))
    ts = rng.uniform(0.0, plan.t_max, size=ns)
    r = len(coeffs.randomness_channels)
    noises = plan.noise_scale * rng.standard_normal((ns, r))
    return ts, xs, xs2, us, us2, noises


def _noise_at(coeffs: CoefficientSet, ts: np.ndarray, values) -> NoiseState:
    """The sampled channel values as one batch, each row at its own time."""
    return NoiseState(ts, coeffs.randomness_channels, np.asarray(values, dtype=float))


def _check_finite(name: str, value, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``value`` (one row per sample); a non-finite row raises with its point."""
    value = np.asarray(value, dtype=float)
    bad = ~np.isfinite(value.reshape(value.shape[0], -1)).all(axis=1)
    if np.any(bad):
        s = int(np.argmax(bad))
        raise NumericError(f"{name} returned non-finite value at t={ts[s]}, x={xs[s]}")
    return value


def validate_lipschitz(coeffs: CoefficientSet, measure: MarkMeasure,
                       plan: SamplingPlan) -> ValidationReport:
    """Sampled check of the Lipschitz bounds for b, sigma and g.

    For pairs of sampled points the ratio
    (|b - b'| + |sigma - sigma'|) / (|x - x'| + |u - u'|) must stay below
    the declared constant C, and per atom |g - g'| below
    rho(e) (|x - x'| + |u - u'|).
    """
    if measure.n_atoms and coeffs.rho.size != measure.n_atoms:
        raise ValueError("coeffs.rho must have one entry per measure atom")
    ts, xs, xs2, us, us2, noises = _plan_samples(coeffs, plan)
    gap = np.linalg.norm(xs - xs2, axis=1) + np.linalg.norm(us - us2, axis=1)
    keep = gap >= 1e-12
    ts, xs, xs2, us, us2, noises, gap = (
        a[keep] for a in (ts, xs, xs2, us, us2, noises, gap))
    noise = _noise_at(coeffs, ts, noises)

    def spread(name, fun, out_shape, *mark):
        """|fun(x) - fun(x')| of every kept pair."""
        ends = [_check_finite(name, batch_eval(fun, ts, x, u, noise, out_shape, *mark), ts, x)
                for x, u in ((xs, us), (xs2, us2))]
        return np.linalg.norm((ends[0] - ends[1]).reshape(gap.size, -1), axis=1)

    tol = 1.0 + 1e-9
    ratio = (spread("b", coeffs.b, (coeffs.n,))
             + spread("sigma", coeffs.sigma, (coeffs.n, coeffs.d))) / gap
    worst_ratio = float(ratio.max(initial=0.0))
    worst = {}
    if worst_ratio > 0.0:
        s = int(np.argmax(ratio))
        worst = {"t": float(ts[s]), "x": xs[s].tolist(), "x2": xs2[s].tolist()}
    g_ok = True
    for j, mark in enumerate(measure.marks):
        if np.any(spread("g", coeffs.g, (coeffs.n,), mark)
                  > coeffs.rho[j] * gap * tol + 1e-14):
            g_ok = False
            worst.setdefault("g_atom", j)
    passed = worst_ratio <= coeffs.lipschitz_C * tol and g_ok
    notes = "" if g_ok else "per-atom jump Lipschitz envelope violated"
    return ValidationReport(
        "lipschitz", passed, worst_ratio, coeffs.lipschitz_C, plan.n_samples,
        worst, notes,
    )


def jacobian_x(fun, t, X: np.ndarray, u, noise, n_out: int) -> np.ndarray:
    """Central-difference D_x of ``fun(t, X, u, noise)`` on the rows of X.

    Returns (B, n_out, n).  The 2 n B shifted rows go through ``fun`` in
    one call, each with its row's t, u and noise; the step of row b is
    1e-5 (1 + |X_b|).
    """
    X = np.asarray(X, dtype=float)
    B, n = X.shape

    def tile(a):
        a = np.asarray(a, dtype=float)
        return np.tile(a, (2 * n,) + (1,) * (a.ndim - 1))

    step = FD_STEP_SCALE * (1.0 + np.linalg.norm(X, axis=1))
    shift = np.eye(n)[:, None, :] * step[:, None]          # (n, B, n)
    points = np.concatenate([X + shift, X - shift]).reshape(-1, n)
    u = np.asarray(u, dtype=float)
    if noise is not None:
        noise = NoiseState(tile(noise.t) if np.ndim(noise.t) else noise.t,
                           noise.channels, tile(noise.values))
    vals = np.asarray(fun(tile(t) if np.ndim(t) else t, points,
                          tile(u) if u.ndim == 2 else u, noise),
                      dtype=float).reshape(2, n, B, n_out)
    return np.transpose((vals[0] - vals[1]) / (2.0 * step[:, None]), (1, 2, 0))


def validate_jump_nondegeneracy(coeffs: CoefficientSet, measure: MarkMeasure,
                                plan: SamplingPlan) -> ValidationReport:
    """Sampled check of |det(I + D_x g)| >= delta on the atoms."""
    ts, xs, _, us, _, noises = _plan_samples(coeffs, plan)
    noise = _noise_at(coeffs, ts, noises)
    min_det, worst = 1.0, {}
    if measure.n_atoms:
        # (samples, atoms), so the first minimum is the sample-major one.
        dets = np.stack([np.abs(np.linalg.det(np.eye(coeffs.n) + _check_finite(
            "D_x g", jacobian_x(
                lambda t, x, u, nz: batch_eval(coeffs.g, t, x, u, nz, (coeffs.n,), mark),
                ts, xs, us, noise, coeffs.n), ts, xs)))
            for mark in measure.marks], axis=1)
        s, j = np.unravel_index(np.argmin(dets), dets.shape)
        min_det = float(dets[s, j])
        worst = {"t": float(ts[s]), "x": xs[s].tolist(), "atom": int(j)}
    passed = min_det >= coeffs.delta - 1e-9
    return ValidationReport(
        "jump-nondegeneracy", passed, min_det, coeffs.delta,
        plan.n_samples, worst,
    )


def validate_driver_monotonicity(coeffs: CoefficientSet, measure: MarkMeasure,
                                 plan: SamplingPlan) -> ValidationReport:
    """Sampled check that k -> f is non-decreasing and l obeys its bound.

    The k-slope is probed with ordered pairs k < k'; the weight l must
    satisfy 0 <= l(t, e) <= C (1 + |e|) on every atom.
    """
    ts, xs, _, us, _, noises = _plan_samples(coeffs, plan)
    noise = _noise_at(coeffs, ts, noises)
    ns, d = plan.n_samples, coeffs.d
    # One row of normals per sample: y, k1, z (d of them), then the
    # draw that sets k2 - k1.
    draws = np.random.default_rng(plan.seed + 1).standard_normal((ns, 3 + d))
    y, k1, z = draws[:, 0], draws[:, 1], draws[:, 2:2 + d]
    k2 = k1 + np.abs(draws[:, -1]) + 1e-3
    f1, f2 = (_check_finite("f", np.asarray(
        coeffs.f(ts, xs, us, y, z, k, noise), dtype=float).reshape(ns), ts, xs)
        for k in (k1, k2))
    gap = f2 - f1
    s = int(np.argmin(gap))
    min_gap = float(gap[s])
    worst = {"t": float(ts[s]), "x": xs[s].tolist(), "k1": float(k1[s]), "k2": float(k2[s])}
    l_ok = True
    for t in np.linspace(0.0, plan.t_max, 7):
        for mark in measure.marks:
            lv = float(coeffs.l(t, mark))
            if not np.isfinite(lv):
                raise NumericError(f"l returned {lv!r} at (t={t}, mark={mark})")
            if lv < -1e-12 or lv > coeffs.lipschitz_C * (1.0 + np.linalg.norm(mark)) + 1e-9:
                l_ok = False
    passed = min_gap >= -1e-9 and l_ok
    notes = "" if l_ok else "l outside [0, C(1+|e|)] on some atom"
    return ValidationReport(
        "driver-monotonicity", passed, min_gap, 0.0, plan.n_samples,
        worst, notes,
    )
