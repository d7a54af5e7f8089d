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
Every solver calls the coefficients this way (:func:`batch_eval`, and
:func:`compensated_drift` for the drift with the jump compensator folded
in); single-point call sites pass a one-row batch.  The time ``t`` is a
scalar shared by the rows, except in the event sub-steps of the batch
forward simulation, where rows stand at different event times: there
``t``, and the ``t`` of the NoiseState, are (B,) arrays with one entry
per row.  A family that reads t writes it so that both broadcast, for
example ``np.reshape(t, (-1, 1)) * x``.  Callables written for one
point at a time go through :meth:`CoefficientSet.from_pointwise`, which
loops over the rows and passes each row its own t.

The validators below check the standing regularity assumptions by
sampling, since the coefficients are opaque callables: Lipschitz bounds
for (b, sigma) and per-atom envelopes for g, the non-degeneracy floor
|det(I + D_x g)| >= delta, monotonicity of the driver in its jump
aggregate, and the growth bound on l.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .drivers import MarkMeasure
from .errors import NumericError

__all__ = [
    "NoiseState",
    "CoefficientSet",
    "ControlSet",
    "batch_eval",
    "broadcast_control",
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

    def channel(self, name: str):
        try:
            i = self.channels.index(name)
        except ValueError:
            raise KeyError(f"channel {name!r} not in {self.channels}") from None
        return self.values[..., i]


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
        bad = [c for c in self.randomness_channels if not self._valid_channel(c)]
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

    def _valid_channel(self, c: str) -> bool:
        if c == "J":
            return True
        if c.startswith("W"):
            try:
                i = int(c[1:])
            except ValueError:
                return False
            return 1 <= i <= self.d
        return False

    @property
    def is_random(self) -> bool:
        return len(self.randomness_channels) > 0

    def with_terminal(self, h: Callable) -> "CoefficientSet":
        return replace(self, h=h)


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


def _as_batch(x, u, noise):
    """One point as a one-row batch: (1, n) state, (1, m) control, noise."""
    if noise is not None and noise.values.ndim == 1:
        noise = NoiseState(noise.t, noise.channels, noise.values[None, :])
    return (np.asarray(x, dtype=float)[None, :],
            np.atleast_1d(np.asarray(u, dtype=float))[None, :], noise)


def eval_drift_tilde(coeffs: CoefficientSet, measure: MarkMeasure, t, x, u,
                     noise):
    """Compensated drift b - sum_j w_j g_j at a single point."""
    X, U, nz = _as_batch(x, u, noise)
    return compensated_drift(coeffs, measure, t, X, U, nz)[0][0]


def eval_b(coeffs: CoefficientSet, t, x, u, noise):
    """Drift at a single point."""
    X, U, nz = _as_batch(x, u, noise)
    return batch_eval(coeffs.b, t, X, U, nz, (coeffs.n,))[0]


def eval_sigma(coeffs: CoefficientSet, t, x, u, noise):
    X, U, nz = _as_batch(x, u, noise)
    return batch_eval(coeffs.sigma, t, X, U, nz, (coeffs.n, coeffs.d))[0]


def eval_g(coeffs: CoefficientSet, t, mark, x, u, noise):
    X, U, nz = _as_batch(x, u, noise)
    return batch_eval(coeffs.g, t, X, U, nz, (coeffs.n,), mark)[0]


def eval_f(coeffs: CoefficientSet, t, x, u, y, z, k, noise) -> float:
    X, U, nz = _as_batch(x, u, noise)
    out = coeffs.f(t, X, U, np.atleast_1d(float(y)),
                   np.asarray(z, dtype=float)[None, :], np.atleast_1d(float(k)), nz)
    return float(np.asarray(out, dtype=float).ravel()[0])


@dataclass(frozen=True)
class ControlSet:
    """Finite grid U_h inside a compact box of R^m."""

    atoms: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

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

    def subset(self, indices: Sequence[int]) -> "ControlSet":
        return ControlSet(self.atoms[list(indices)], self.lower, self.upper)


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

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.check}: observed {self.observed:.6g} "
            f"vs bound {self.bound:.6g} over {self.n_samples} samples"
        )


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


def _noise_at(coeffs: CoefficientSet, t: float, values) -> NoiseState:
    return NoiseState(t, coeffs.randomness_channels, np.asarray(values, dtype=float))


def _check_finite(name: str, value, point) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise NumericError(f"{name} returned non-finite value at {point}")
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
    tol = 1.0 + 1e-9
    worst_ratio = 0.0
    worst = {}
    g_ok = True
    for t, x, x2, u, u2, nv in zip(ts, xs, xs2, us, us2, noises):
        gap = float(np.linalg.norm(x - x2) + np.linalg.norm(u - u2))
        if gap < 1e-12:
            continue
        noise = _noise_at(coeffs, t, nv)
        db = _check_finite("b", eval_b(coeffs, t, x, u, noise), (t, x, u)) - _check_finite(
            "b", eval_b(coeffs, t, x2, u2, noise), (t, x2, u2)
        )
        ds = _check_finite(
            "sigma", eval_sigma(coeffs, t, x, u, noise), (t, x, u)
        ) - _check_finite("sigma", eval_sigma(coeffs, t, x2, u2, noise), (t, x2, u2))
        ratio = (np.linalg.norm(db) + np.linalg.norm(ds)) / gap
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst = {"t": float(t), "x": x.tolist(), "x2": x2.tolist()}
        for j in range(measure.n_atoms):
            mark = measure.marks[j]
            dg = _check_finite(
                "g", eval_g(coeffs, t, mark, x, u, noise), (t, mark, x, u)
            ) - _check_finite("g", eval_g(coeffs, t, mark, x2, u2, noise), (t, mark, x2, u2))
            if np.linalg.norm(dg) > coeffs.rho[j] * gap * tol + 1e-14:
                g_ok = False
                worst.setdefault("g_atom", j)
    passed = worst_ratio <= coeffs.lipschitz_C * tol and g_ok
    notes = "" if g_ok else "per-atom jump Lipschitz envelope violated"
    return ValidationReport(
        "lipschitz", passed, worst_ratio, coeffs.lipschitz_C, plan.n_samples,
        worst, notes,
    )


def jacobian_x(fun, x: np.ndarray, n_out: int) -> np.ndarray:
    """Central-difference Jacobian in x, step 1e-5 (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    step = FD_STEP_SCALE * (1.0 + np.linalg.norm(x))
    jac = np.empty((n_out, x.size))
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        jac[:, k] = (np.asarray(fun(xp), dtype=float).ravel()
                     - np.asarray(fun(xm), dtype=float).ravel()) / (2.0 * step)
    return jac


def validate_jump_nondegeneracy(coeffs: CoefficientSet, measure: MarkMeasure,
                                plan: SamplingPlan) -> ValidationReport:
    """Sampled check of |det(I + D_x g)| >= delta on the atoms."""
    ts, xs, _, us, _, noises = _plan_samples(coeffs, plan)
    min_det = np.inf
    worst = {}
    for t, x, u, nv in zip(ts, xs, us, noises):
        noise = _noise_at(coeffs, t, nv)
        for j in range(measure.n_atoms):
            mark = measure.marks[j]
            dg = jacobian_x(lambda xx: eval_g(coeffs, t, mark, xx, u, noise), x, coeffs.n)
            _check_finite("D_x g", dg, (t, mark, x, u))
            det = abs(float(np.linalg.det(np.eye(coeffs.n) + dg)))
            if det < min_det:
                min_det = det
                worst = {"t": float(t), "x": x.tolist(), "atom": j}
    if measure.n_atoms == 0:
        min_det = 1.0
    passed = min_det >= coeffs.delta - 1e-9
    return ValidationReport(
        "jump-nondegeneracy", passed, float(min_det), coeffs.delta,
        plan.n_samples, worst,
    )


def validate_driver_monotonicity(coeffs: CoefficientSet, measure: MarkMeasure,
                                 plan: SamplingPlan) -> ValidationReport:
    """Sampled check that k -> f is non-decreasing and l obeys its bound.

    The k-slope is probed with ordered pairs k < k'; the weight l must
    satisfy 0 <= l(t, e) <= C (1 + |e|) on every atom.
    """
    ts, xs, _, us, _, noises = _plan_samples(coeffs, plan)
    rng = np.random.default_rng(plan.seed + 1)
    min_gap = np.inf
    worst = {}
    for t, x, u, nv in zip(ts, xs, us, noises):
        noise = _noise_at(coeffs, t, nv)
        y, k1 = rng.standard_normal(2)
        z = rng.standard_normal(coeffs.d)
        k2 = k1 + abs(rng.standard_normal()) + 1e-3
        f1 = float(_check_finite("f", eval_f(coeffs, t, x, u, y, z, k1, noise), (t, x, u, k1)))
        f2 = float(_check_finite("f", eval_f(coeffs, t, x, u, y, z, k2, noise), (t, x, u, k2)))
        gap = f2 - f1
        if gap < min_gap:
            min_gap = gap
            worst = {"t": float(t), "x": x.tolist(), "k1": float(k1), "k2": float(k2)}
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
        "driver-monotonicity", passed, float(min_gap), 0.0, plan.n_samples,
        worst, notes,
    )
