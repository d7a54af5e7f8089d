"""Seeded Brownian and marked-Poisson noise generation.

The jump-mark measure is a finite list of weighted atoms, so every
integral against it reduces to an exact finite sum and all simulation
output is reproducible bit-for-bit from a 64-bit seed.

:func:`draw_noise` draws a read-only :class:`NoiseBank` in blocks of
``BLOCK_ROWS`` rows.  Block b uses the stream ``child_seed(seed, b)``,
spawned into one sub-stream per quantity, each drawn row by row in one
vectorised call: the Brownian increments of the bank's steps, a Poisson
count per (step, row, atom), one uniform time per event inside its step
and, for a window bank (``start_node > 0``), W and the event count at
the start node as one Gaussian and one Poisson variate.  Row s is thus
the same in a bank of any size.  A window bank draws only its own
steps: it is not a slice of the full-horizon bank of the same seed.

:func:`write_csv` writes every CSV artifact of the package, each real
as the shortest text that reads back bit for bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "MarkMeasure",
    "TimeGrid",
    "DriverPath",
    "child_seed",
    "sample_driver_path",
    "compensated_integral",
    "jump_counts_per_step",
    "brownian_nodes",
    "NoiseBank",
    "draw_noise",
    "check_batch_bytes",
    "write_csv",
]

# Largest batch, in bytes, that the simulators agree to allocate.
MAX_BATCH_BYTES = 3.5e9

# Rows per noise stream; part of the noise scheme, so changing it
# changes which random numbers a seed produces.
BLOCK_ROWS = 256


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``, a real cell (``float`` or
    ``np.floating``) as ``repr(float(v))`` and any other (an index, an
    atom, a ``-1`` marker) as it is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                     for v in row] for row in rows)


def fields_equal(a, b) -> bool:
    """``==`` of frozen dataclasses with array fields: the same type and
    every compared field ``np.array_equal``."""
    return type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a) if f.compare)


def child_seed(seed, index: int) -> np.random.SeedSequence:
    """Derive the stream for one block of a bank, or one replication.

    Uses a spawn key rather than arithmetic on the seed, so streams for
    distinct indices never collide and the assignment does not depend on
    how many samples are drawn or in which order.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (index,)
        )
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(index,))


@dataclass(frozen=True)
class MarkMeasure:
    """Finite jump-mark measure: weighted atoms in R^q.

    ``marks`` has shape (n_atoms, q), ``weights`` shape (n_atoms,) with
    strictly positive entries.  The total mass plays the role of the
    jump intensity of the driving Poisson point process.
    """

    marks: np.ndarray
    weights: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self):
        marks = np.atleast_2d(np.asarray(self.marks, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if marks.shape[0] != weights.shape[0]:
            raise ValueError(
                f"{marks.shape[0]} marks but {weights.shape[0]} weights"
            )
        if weights.size and (not np.all(np.isfinite(weights)) or np.any(weights <= 0)):
            raise ValueError("atom weights must be finite and strictly positive")
        if marks.size and not np.all(np.isfinite(marks)):
            raise ValueError("atom marks must be finite")
        object.__setattr__(self, "marks", _readonly(marks))
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    @property
    def mark_dim(self) -> int:
        return self.marks.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def empty(cls, mark_dim: int = 1) -> "MarkMeasure":
        return cls(np.zeros((0, mark_dim)), np.zeros(0))

    @classmethod
    def from_atoms(cls, atoms) -> "MarkMeasure":
        """Build from an iterable of (mark, weight) pairs."""
        atoms = list(atoms)
        if not atoms:
            return cls.empty()
        marks = np.array([np.atleast_1d(m) for m, _ in atoms], dtype=float)
        weights = np.array([w for _, w in atoms], dtype=float)
        return cls(marks, weights)

    def to_json(self) -> str:
        return json.dumps(
            {
                "atoms": [
                    {"mark": list(map(float, m)), "weight": float(w)}
                    for m, w in zip(self.marks, self.weights)
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MarkMeasure":
        data = json.loads(text)
        return cls.from_atoms((a["mark"], a["weight"]) for a in data["atoms"])


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes 0 = t_0 < ... < t_N; ``dt`` holds
    the N steps, read-only like ``nodes``."""

    nodes: np.ndarray
    dt: np.ndarray = field(init=False, repr=False, compare=False)
    __eq__ = fields_equal

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).ravel()
        if nodes.size < 2:
            raise ValueError("a time grid needs at least one step")
        if nodes[0] != 0.0:
            raise ValueError("time grids start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "dt", _readonly(np.diff(nodes)))

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if horizon <= 0 or n_steps < 1:
            raise ConfigError("need horizon > 0 and n_steps >= 1")
        return cls(np.linspace(0.0, horizon, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def refine(self, factor: int) -> "TimeGrid":
        """Split every step into ``factor`` equal pieces."""
        pieces = [
            np.linspace(a, b, factor + 1)[:-1]
            for a, b in zip(self.nodes[:-1], self.nodes[1:])
        ]
        return TimeGrid(np.append(np.concatenate(pieces), self.nodes[-1]))


@dataclass(frozen=True)
class DriverPath:
    """One realization of the driving noise on a time grid.

    ``brownian_increments`` has shape (N, d).  Jump events are kept at
    their exact times in (0, T] with an index into the measure's atoms;
    they are not snapped to grid nodes.
    """

    grid: TimeGrid
    measure: MarkMeasure
    brownian_increments: np.ndarray
    jump_times: np.ndarray
    jump_atoms: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.brownian_increments, dtype=float)
        if inc.ndim != 2 or inc.shape[0] != self.grid.n_steps:
            raise ValueError(
                f"brownian_increments must be (n_steps, d), got {inc.shape}"
            )
        times = np.asarray(self.jump_times, dtype=float).ravel()
        atoms = np.asarray(self.jump_atoms, dtype=int).ravel()
        if times.shape != atoms.shape:
            raise ValueError("jump_times and jump_atoms must align")
        if times.size:
            if np.any(times <= 0) or np.any(times > self.grid.horizon):
                raise ValueError("jump times must lie in (0, T]")
            if np.any(np.diff(times) < 0):
                raise ValueError("jump times must be nondecreasing")
            if np.any(atoms < 0) or np.any(atoms >= self.measure.n_atoms):
                raise ValueError("jump atom index out of range")
        object.__setattr__(self, "brownian_increments", _readonly(inc))
        object.__setattr__(self, "jump_times", _readonly(times))
        object.__setattr__(self, "jump_atoms", _readonly(atoms, int))

    @property
    def d(self) -> int:
        return self.brownian_increments.shape[1]

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size


def sample_driver_path(grid: TimeGrid, d: int, measure: MarkMeasure, seed) -> DriverPath:
    """Draw one noise realization: row 0 of a one-row bank from ``seed``."""
    return draw_noise(grid, d, measure, 1, seed).path(0)


def compensated_integral(path: DriverPath, measure: MarkMeasure | None, integrand) -> float:
    """Integral of ``integrand(t, mark)`` against the compensated jump measure.

    Events contribute their exact values; the compensator integral
    int_0^T sum_j phi(t, e_j) w_j dt is evaluated with left-point
    quadrature on the path's grid.
    """
    if measure is None:
        measure = path.measure
    total = 0.0
    for t, a in zip(path.jump_times, path.jump_atoms):
        v = float(integrand(float(t), measure.marks[a]))
        if not np.isfinite(v):
            raise NumericError(
                f"integrand returned {v!r} at event (t={t}, atom={a})"
            )
        total += v
    comp = 0.0
    for t, dt in zip(path.grid.nodes[:-1], path.grid.dt):
        for mark, w in zip(measure.marks, measure.weights):
            v = float(integrand(float(t), mark))
            if not np.isfinite(v):
                raise NumericError(
                    f"integrand returned {v!r} at (t={t}, mark={mark})"
                )
            comp += v * w * dt
    return total - comp


def jump_counts_per_step(path: DriverPath) -> np.ndarray:
    """Event counts per (step, atom), shape (N, n_atoms).

    A jump at time tau belongs to step i when t_i < tau <= t_{i+1}.
    """
    grid = path.grid
    counts = np.zeros((grid.n_steps, path.measure.n_atoms), dtype=int)
    if path.n_jumps:
        step_of = np.searchsorted(grid.nodes[1:-1], path.jump_times, side="left")
        np.add.at(counts, (step_of, path.jump_atoms), 1)
    return counts


def brownian_nodes(path: DriverPath) -> np.ndarray:
    """Brownian values W(t_i) at the grid nodes, shape (N+1, d)."""
    out = np.zeros((path.grid.n_steps + 1, path.d))
    np.cumsum(path.brownian_increments, axis=0, out=out[1:])
    return out


def check_batch_bytes(est_bytes: float) -> None:
    """Refuse a batch before anything of it is allocated."""
    if est_bytes > MAX_BATCH_BYTES:
        raise MemoryError(
            f"batch would need ~{est_bytes / 1e9:.1f} GB; reduce n_samples or steps"
        )


def _stream_key(seed) -> tuple:
    """(entropy, spawn key): the streams ``child_seed`` derives from ``seed``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed.entropy, tuple(seed.spawn_key)
    return int(seed), ()


@dataclass(frozen=True, eq=False)
class NoiseBank:
    """The noise of ``n_samples`` paths on steps start_node..end_node-1.

    Drawn once by :func:`draw_noise` and shared by every control priced
    on common random numbers.  ``dw`` is (N, M, d) and ``counts``
    (N, M, n_atoms) with N = end_node - start_node; ``w_start`` (M, d)
    and ``count_start`` (M,) are W and the event count at the start
    node.  The events are flat arrays ``event_step`` (relative to the
    start node), ``event_row``, ``event_atom`` and ``event_tau``, sorted
    by (step, row, tau); the events of step i are the slice
    ``step_offsets[i]:step_offsets[i + 1]``.  Every array is read-only,
    so no consumer can change the noise another one reads.
    """

    grid: TimeGrid
    measure: MarkMeasure
    n_samples: int
    seed: object
    start_node: int
    end_node: int
    dw: np.ndarray
    counts: np.ndarray
    w_start: np.ndarray
    count_start: np.ndarray
    event_step: np.ndarray
    event_row: np.ndarray
    event_atom: np.ndarray
    event_tau: np.ndarray
    step_offsets: np.ndarray

    @property
    def d(self) -> int:
        return self.dw.shape[2]

    def path(self, s: int) -> DriverPath:
        """Row s of a full-horizon bank as one :class:`DriverPath`."""
        if (self.start_node, self.end_node) != (0, self.grid.n_steps):
            raise ValueError("only a full-horizon bank holds whole paths")
        if not 0 <= s < self.n_samples:
            raise IndexError(f"row {s} of a {self.n_samples}-row bank")
        mine = self.event_row == s
        return DriverPath(self.grid, self.measure, self.dw[:, s],
                          self.event_tau[mine], self.event_atom[mine])

    def check(self, grid: TimeGrid, d: int, measure: MarkMeasure,
              n_samples: int, seed, start_node: int, end_node: int) -> None:
        """Raise ValueError unless the bank was drawn for exactly this batch."""
        wanted = {
            "grid": self.grid == grid,
            "d": self.d == d,
            "measure": self.measure == measure,
            "n_samples": self.n_samples == int(n_samples),
            "seed": _stream_key(self.seed) == _stream_key(seed),
            "node range": (self.start_node, self.end_node) == (start_node, end_node),
        }
        wrong = [name for name, ok in wanted.items() if not ok]
        if wrong:
            raise ValueError(
                f"noise bank was drawn for another batch ({', '.join(wrong)} differ)")


def draw_noise(grid: TimeGrid, d: int, measure: MarkMeasure, n_samples: int,
               seed, start_node: int = 0, end_node: int | None = None) -> NoiseBank:
    """Draw the noise of a batch on steps [start_node, end_node) once.

    Rows are drawn in blocks of ``BLOCK_ROWS`` from ``child_seed(seed,
    block)`` as the module docstring describes, straight into the
    bank's arrays.  An event of step i has its time in (t_i, t_{i+1}].
    """
    M = int(n_samples)
    if d < 1:
        raise ValueError("need d >= 1 Brownian components")
    if end_node is None:
        end_node = grid.n_steps
    if not (0 <= start_node < end_node <= grid.n_steps):
        raise ValueError("need 0 <= start_node < end_node <= n_steps")
    N = end_node - start_node
    n_atoms = measure.n_atoms
    check_batch_bytes(8.0 * M * N * (d + n_atoms))

    t_lo, t_hi = grid.nodes[start_node:end_node], grid.nodes[start_node + 1:end_node + 1]
    dt = grid.dt[start_node:end_node]
    rates = dt[:, None] * measure.weights
    t0 = grid.nodes[start_node]
    dw = np.empty((N, M, d))
    counts = np.empty((N, M, n_atoms), dtype=np.int64)
    w_start = np.zeros((M, d))
    count_start = np.zeros(M, dtype=np.int64)
    events = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0),)]
    z = np.empty((min(BLOCK_ROWS, M), N, d))
    for block, lo in enumerate(range(0, M, BLOCK_ROWS)):
        B = min(BLOCK_ROWS, M - lo)
        streams = [np.random.default_rng(s)
                   for s in child_seed(seed, block).spawn(5 if start_node else 3)]
        streams[0].standard_normal(out=z[:B])
        z[:B] *= np.sqrt(dt)[:, None]
        dw[:, lo:lo + B] = z[:B].transpose(1, 0, 2)
        c = streams[1].poisson(rates, (B, N, n_atoms))
        counts[:, lo:lo + B] = c.transpose(1, 0, 2)
        hit = np.nonzero(c)
        row, step, atom = (np.repeat(a, c[hit]) for a in hit)
        u = streams[2].random(row.size)
        tau = np.clip(t_lo[step] + (1.0 - u) * dt[step],
                      np.nextafter(t_lo[step], np.inf), t_hi[step])
        events.append((step, row + lo, atom, tau))
        if start_node:
            w_start[lo:lo + B] = streams[3].standard_normal((B, d)) * np.sqrt(t0)
            count_start[lo:lo + B] = streams[4].poisson(t0 * measure.total_mass, B)

    step, row, atom, tau = (np.concatenate(a) for a in zip(*events))
    order = np.lexsort((tau, row, step))
    return NoiseBank(grid, measure, M, seed, start_node, end_node,
                     _readonly(dw), _readonly(counts, np.int64),
                     _readonly(w_start), _readonly(count_start, np.int64),
                     _readonly(step[order], np.int64), _readonly(row[order], np.int64),
                     _readonly(atom[order], np.int64), _readonly(tau[order]),
                     _readonly(np.searchsorted(step[order], np.arange(N + 1)), np.int64))
