"""Named benchmark problems addressable from CLI configs, and the one
config reader.

:class:`Section` reads one JSON object of a config (a CLI section, the
top level, a ``control`` object or ``problem.params``) key by key, each
with the reader of its kind, and then refuses every key that no reader
took, so config typos fail loudly.  Each family builds a coefficient
set, mark measure, control grid and solver defaults from its params,
read through a Section.  All built-in coefficients follow the batch
convention of :mod:`jumphjb.coefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, ControlSet
from .drivers import MarkMeasure
from .errors import ConfigError
from .forward import ConstantControl, OpenLoopControl

__all__ = ["Problem", "Section", "build_problem", "PROBLEM_NAMES"]


def _finite(val) -> bool:
    """Whether ``val`` is a finite real number and not a bool."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= np.finfo(float).max)


def _real_list(val, length=None) -> bool:
    """Whether ``val`` is a list of ``length`` finite reals (at least one when None)."""
    return (isinstance(val, (list, tuple)) and all(map(_finite, val))
            and (len(val) == length if length else len(val) > 0))


class Section:
    """One JSON object of a config, named ``path`` in messages.

    Each reader takes a key and its default, checks the value, records
    the key and returns the value; a bad value is a :class:`ConfigError`
    naming ``path.key``.  :meth:`done` then refuses every unread key.
    """

    def __init__(self, obj, path: str):
        if not isinstance(obj, dict):
            raise ConfigError("expected an object", path)
        self.obj, self.path, self.read = obj, path, set()

    def _get(self, key: str, default):
        self.read.add(key)
        return self.obj.get(key, default)

    def _fail(self, key: str, msg: str):
        raise ConfigError(msg, f"{self.path}.{key}")

    def count(self, key: str, default, low: int = 1, high: int = 2 ** 63) -> int:
        """An integer in [low, high), not a bool."""
        val = self._get(key, default)
        if isinstance(val, bool) or not isinstance(val, int) or not low <= val < high:
            self._fail(key, f"expected an integer in [{low}, {high})")
        return val

    def real(self, key: str, default, low=-np.inf, strict: bool = True) -> float:
        """A finite real, not a bool, above ``low`` (or at it unless
        ``strict``)."""
        val = self._get(key, default)
        if not (_finite(val) and (low < val if strict else low <= val)):
            bound = f" {'>' if strict else '>='} {low}" if low > -np.inf else ""
            self._fail(key, f"expected a finite real number{bound}")
        return float(val)

    def reals(self, key: str, default, length=None, rows=None) -> np.ndarray:
        """A list of ``length`` finite reals (of at least one when None),
        or with ``rows``, a list of ``rows`` such lists."""
        val = self._get(key, default)
        table = [val] if rows is None else val
        if not (isinstance(table, list) and len(table) == (rows or 1)
                and all(_real_list(row, length) for row in table)):
            rows_of = f"a list of {rows} rows, each " if rows else ""
            self._fail(key, f"expected {rows_of}a list of {length or 'one or more'} finite reals")
        return np.array(val, dtype=float)

    def flag(self, key: str, default: bool) -> bool:
        """True or false."""
        val = self._get(key, default)
        if not isinstance(val, bool):
            self._fail(key, "expected true or false")
        return val

    def text(self, key: str, default, choices: tuple = ()) -> str:
        """A string, one of ``choices`` when they are given."""
        val = self._get(key, default)
        if not isinstance(val, str) or choices and val not in choices:
            self._fail(key, f"expected one of {', '.join(choices)}" if choices
                       else "expected a string")
        return val

    def section(self, key: str, default=None) -> "Section":
        """The object at ``key`` ({} when absent) as a Section; a config
        section, a key of the top level, is named by its key alone."""
        return Section(self._get(key, {} if default is None else default),
                       key if self.path == "config" else f"{self.path}.{key}")

    def grid(self, kind, key: str, default, box, box_key: str = "box"):
        """A one-dimensional ``kind`` grid of ``key`` points over the box
        ``box_key``; a bad one is a config error naming the section."""
        count, box = self._get(key, default), self._get(box_key, box)
        if isinstance(count, bool) or not isinstance(count, int) or not _real_list(box, 2):
            raise ConfigError(f"expected an integer {key} and a list of 2 finite reals "
                              f"{box_key}", self.path)
        try:
            return kind([box[0]], [box[1]], (count,))
        except ValueError as exc:
            raise ConfigError(str(exc), self.path) from None

    def control(self, m: int, n_steps: int):
        """The ``control`` object: ``{"type": "constant", "value": m
        reals}`` or ``{"type": "openloop", "values": n_steps rows of m
        reals}``; the zero control when absent."""
        ctl = self.section("control", {"type": "constant", "value": [0.0] * m})
        if ctl.text("type", None, ("constant", "openloop")) == "constant":
            control = ConstantControl(ctl.reals("value", None, m))
        else:
            control = OpenLoopControl(ctl.reals("values", None, m, rows=n_steps))
        ctl.done()
        return control

    def values(self, defaults: dict) -> dict:
        """Every key of ``defaults``, each read by the reader that its
        default's kind picks: :meth:`count` for an int, :meth:`real` for
        a float, :meth:`reals` for a tuple; then :meth:`done`."""
        readers = {int: self.count, float: self.real, tuple: self.reals}
        vals = {key: readers[type(d)](key, d) for key, d in defaults.items()}
        self.done()
        return vals

    def done(self, *known: str):
        """Refuse the first key, in sorted order, that no reader took and
        ``known`` does not name."""
        allowed = self.read | set(known)
        for key in sorted(set(self.obj) - allowed, key=str):
            self._fail(key, f"unknown key; this run reads {', '.join(sorted(allowed))}")


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


def _smooth1d(params: Section) -> Problem:
    """Bounded smooth drift, constant 2-channel diffusion, one jump atom.

    The running cost and terminal decay at infinity, so the same
    problem is solvable by the lattice, the PIDE scheme and the
    sine-basis Galerkin solver, and their values can be cross-checked
    on the interior.
    """
    p = params.values({
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
    })
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
                                 p["n_controls"])
    return Problem("smooth1d", coeffs, measure, control,
                   np.array([p["x0"]]), float(p["horizon"]), params=p)


def _zero(params: Section) -> Problem:
    p = params.values({"h_const": 1.0, "horizon": 1.0, "x0": 0.0,
                       "jump_weight": 0.5})
    coeffs = CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: np.zeros_like(x),
        sigma=lambda t, x, u, nz: np.zeros(x.shape + (1,)),
        g=lambda t, e, x, u, nz: np.zeros_like(x),
        f=lambda t, x, u, y, z, k, nz: np.zeros(np.shape(y)),
        h=lambda x, nz: p["h_const"] * np.ones(x.shape[0]),
        l=lambda t, e: 1.0,
        rho=np.array([0.0]))
    measure = MarkMeasure.from_atoms([((1.0,), p["jump_weight"])])
    return Problem("zero", coeffs, measure, ControlSet.singleton([0.0]),
                   np.array([p["x0"]]), float(p["horizon"]),
                   space_nodes=41, lattice_cells=40, n_steps=20, params=p)


def _exp_decay(params: Section) -> Problem:
    """Scalar closed form: f = -r y, h = 1, so Y(t) = exp(-r (T - t))."""
    p = params.values({"rate": 0.1, "horizon": 1.0, "x0": 0.0})
    coeffs = CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: np.zeros_like(x),
        sigma=lambda t, x, u, nz: np.zeros(x.shape + (1,)),
        g=lambda t, e, x, u, nz: np.zeros_like(x),
        f=lambda t, x, u, y, z, k, nz: -p["rate"] * y,
        h=lambda x, nz: np.ones(x.shape[0]),
        l=lambda t, e: 1.0)
    return Problem("exp_decay", coeffs, MarkMeasure.empty(),
                   ControlSet.singleton([0.0]), np.array([p["x0"]]),
                   float(p["horizon"]), space_nodes=41, lattice_cells=40,
                   n_steps=100, params=p)


def _linear1d(params: Section) -> Problem:
    """Affine coefficients with declared constants, for the validators."""
    p = params.values({
        "b_x": 0.5, "b_u": 1.0, "sigma0": 0.3, "g_x": 0.2,
        "jump_weight": 1.0, "horizon": 1.0, "x0": 0.5,
        "lipschitz_C": 1.6, "rho": 0.25, "delta": 0.5,
    })
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


def _random_terminal(params: Section) -> Problem:
    """smooth1d dynamics with a terminal cost reading the W_d channel."""
    p = params.values({"noise_gain": 0.3, "horizon": 0.5, "x0": 0.0,
                       "jump_weight": 0.3})
    coeffs = CoefficientSet(
        n=1, d=2, m=1,
        b=lambda t, x, u, nz: 0.4 * np.tanh(x) + u[:, 0:1],
        sigma=lambda t, x, u, nz: np.broadcast_to(
            np.array([0.5, 0.15]), x.shape + (2,)),
        g=lambda t, e, x, u, nz: 0.2 * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz: 0.1 * y + 0.05 * k,
        h=lambda x, nz: np.exp(-x[..., 0] ** 2)
        * (1.0 + p["noise_gain"] * (nz.values[..., 0] if nz is not None else 0.0)),
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


def build_problem(name: str, params: dict | Section | None = None) -> Problem:
    """The family ``name`` with ``params`` overriding its defaults: a dict,
    or a config's ``problem.params`` Section."""
    if name not in _FAMILIES:
        raise ConfigError(f"unknown problem {name!r}; available: "
                          f"{', '.join(PROBLEM_NAMES)}", field="problem.name")
    try:
        if not isinstance(params, Section):
            params = Section(params or {}, "problem.params")
        return _FAMILIES[name](params)
    except ValueError as exc:
        raise ConfigError(str(exc), field=f"problem.params ({name})") from exc
