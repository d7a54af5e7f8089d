"""Named benchmark problems addressable from CLI configs.

Each family builds a coefficient set, mark measure, control grid and
solver defaults from a parameter dict; unknown parameters are rejected
so config typos fail loudly.  All built-in coefficients follow the
batch convention of :mod:`jumphjb.coefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, ControlSet
from .drivers import MarkMeasure
from .errors import ConfigError

__all__ = ["Problem", "build_problem", "PROBLEM_NAMES"]


@dataclass
class Problem:
    name: str
    coeffs: CoefficientSet
    measure: MarkMeasure
    control_set: ControlSet
    x0: np.ndarray
    horizon: float
    space_low: float = -3.0
    space_high: float = 3.0
    space_nodes: int = 241
    lattice_cells: int = 240
    n_steps: int = 160
    galerkin_length: float = 6.0
    galerkin_modes: int = 48
    params: dict = field(default_factory=dict)


def _take(params: dict, defaults: dict, family: str) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)}",
                          field=f"problem.params ({family})")
    merged = dict(defaults)
    merged.update(params)
    return merged


def _smooth1d(params: dict) -> Problem:
    """Bounded smooth drift, constant 2-channel diffusion, one jump atom.

    The running cost and terminal decay at infinity, so the same
    problem is solvable by the lattice, the PIDE scheme and the
    sine-basis Galerkin solver, and their values can be cross-checked
    on the interior.
    """
    p = _take(params, {
        "drift_scale": 0.4,
        "sigma": (0.4, 0.1),
        "jump_size": 0.25,
        "jump_weight": 0.3,
        "cost_x": 0.5,
        "cost_xu": 0.3,
        "cost_k": 0.05,
        "control_max": 0.6,
        "n_controls": 2,
        "horizon": 0.5,
        "x0": 0.0,
    }, "smooth1d")
    sig = np.asarray(p["sigma"], dtype=float)
    d = sig.size
    a, cx, cxu, ck, gj = (p["drift_scale"], p["cost_x"], p["cost_xu"],
                          p["cost_k"], p["jump_size"])
    coeffs = CoefficientSet(
        n=1, d=d, m=1,
        b=lambda t, x, u, nz: a * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: np.broadcast_to(sig, x.shape + (d,)),
        g=lambda t, e, x, u, nz: gj * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz:
            (cx * x[..., 0] ** 2 + cxu * u[:, 0] * x[..., 0])
            * np.exp(-0.25 * x[..., 0] ** 2) + ck * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2),
        l=lambda t, e: 1.0,
        lipschitz_C=max(a, 1.0) + 1.0,
        rho=np.array([0.0]),
        delta=1.0)
    measure = MarkMeasure.from_atoms([((1.0,), p["jump_weight"])])
    control = ControlSet.from_1d(-p["control_max"], p["control_max"],
                                 int(p["n_controls"]))
    return Problem("smooth1d", coeffs, measure, control,
                   np.array([p["x0"]]), float(p["horizon"]), params=p)


def _zero(params: dict) -> Problem:
    p = _take(params, {"h_const": 1.0, "horizon": 1.0, "x0": 0.0,
                       "jump_weight": 0.5}, "zero")
    hc = float(p["h_const"])
    coeffs = CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: np.zeros_like(x),
        sigma=lambda t, x, u, nz: np.zeros(x.shape + (1,)),
        g=lambda t, e, x, u, nz: np.zeros_like(x),
        f=lambda t, x, u, y, z, k, nz: np.zeros(np.shape(y)),
        h=lambda x, nz: hc * np.ones(x.shape[0]),
        l=lambda t, e: 1.0,
        rho=np.array([0.0]))
    measure = MarkMeasure.from_atoms([((1.0,), p["jump_weight"])])
    return Problem("zero", coeffs, measure, ControlSet.singleton([0.0]),
                   np.array([p["x0"]]), float(p["horizon"]),
                   space_nodes=41, lattice_cells=40, n_steps=20, params=p)


def _exp_decay(params: dict) -> Problem:
    """Scalar closed form: f = -r y, h = 1, so Y(t) = exp(-r (T - t))."""
    p = _take(params, {"rate": 0.1, "horizon": 1.0, "x0": 0.0}, "exp_decay")
    r = float(p["rate"])
    coeffs = CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: np.zeros_like(x),
        sigma=lambda t, x, u, nz: np.zeros(x.shape + (1,)),
        g=lambda t, e, x, u, nz: np.zeros_like(x),
        f=lambda t, x, u, y, z, k, nz: -r * y,
        h=lambda x, nz: np.ones(x.shape[0]),
        l=lambda t, e: 1.0)
    return Problem("exp_decay", coeffs, MarkMeasure.empty(),
                   ControlSet.singleton([0.0]), np.array([p["x0"]]),
                   float(p["horizon"]), space_nodes=41, lattice_cells=40,
                   n_steps=100, params=p)


def _linear1d(params: dict) -> Problem:
    """Affine coefficients with declared constants, for the validators."""
    p = _take(params, {
        "b_x": 0.5, "b_u": 1.0, "sigma0": 0.3, "g_x": 0.2,
        "jump_weight": 1.0, "horizon": 1.0, "x0": 0.5,
        "lipschitz_C": 1.6, "rho": 0.25, "delta": 0.5,
    }, "linear1d")
    bx, bu, s0, gx = p["b_x"], p["b_u"], p["sigma0"], p["g_x"]
    coeffs = CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: bx * x + bu * u[:, 0:1],
        sigma=lambda t, x, u, nz: s0 * np.ones(x.shape + (1,)),
        g=lambda t, e, x, u, nz: gx * x,
        f=lambda t, x, u, y, z, k, nz: 0.5 * y + 0.2 * k + x[..., 0] ** 2,
        h=lambda x, nz: x[..., 0] ** 2,
        l=lambda t, e: 1.0,
        lipschitz_C=float(p["lipschitz_C"]),
        rho=np.array([float(p["rho"])]),
        delta=float(p["delta"]))
    measure = MarkMeasure.from_atoms([((1.0,), p["jump_weight"])])
    return Problem("linear1d", coeffs, measure, ControlSet.from_1d(-1, 1, 3),
                   np.array([p["x0"]]), float(p["horizon"]),
                   space_nodes=81, lattice_cells=80, n_steps=50, params=p)


def _random_terminal(params: dict) -> Problem:
    """smooth1d dynamics with a terminal cost reading the W_d channel."""
    p = _take(params, {"noise_gain": 0.3, "horizon": 0.5, "x0": 0.0,
                       "jump_weight": 0.3}, "random_terminal")
    gain = float(p["noise_gain"])
    coeffs = CoefficientSet(
        n=1, d=2, m=1,
        b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.5, 0.15]), x.shape + (2,)),
        g=lambda t, e, x, u, nz: 0.2 * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz: 0.1 * y + 0.05 * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2)
        * (1.0 + gain * (nz.values[..., 0] if nz is not None else 0.0)),
        l=lambda t, e: 1.0,
        rho=np.array([0.0]),
        randomness_channels=("W2",))
    measure = MarkMeasure.from_atoms([((1.0,), p["jump_weight"])])
    return Problem("random_terminal", coeffs, measure,
                   ControlSet.from_1d(-0.6, 0.6, 2), np.array([p["x0"]]),
                   float(p["horizon"]), n_steps=30, galerkin_modes=24,
                   params=p)


_FAMILIES = {
    "smooth1d": _smooth1d,
    "zero": _zero,
    "exp_decay": _exp_decay,
    "linear1d": _linear1d,
    "random_terminal": _random_terminal,
}

PROBLEM_NAMES = tuple(sorted(_FAMILIES))


def build_problem(name: str, params: dict | None = None) -> Problem:
    if name not in _FAMILIES:
        raise ConfigError(f"unknown problem {name!r}; available: "
                          f"{', '.join(PROBLEM_NAMES)}", field="problem.name")
    return _FAMILIES[name](dict(params or {}))
