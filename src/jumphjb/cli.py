"""Experiment orchestration: config-driven subcommands with manifests.

Every run consumes a JSON config (seed required, no silent
nondeterminism), writes CSV/JSON artifacts plus a ``manifest.json``
carrying the config hash, the full config echo and library versions,
and exits 0 on success, 2 on config errors (a bad grid box or horizon,
or a setting of a section, such as a count or a tolerance, that is not
an integer or a finite real number in range, among them), 3 on numeric
failures (including a Monte Carlo batch too large for memory) and 4
when an iterative solver did not converge.  Failures other than config
errors write ``failure_diagnostic.json`` to the output directory.
Identical configs reproduce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bsde import PolynomialBasis, solve_bsde
from .coefficients import (
    CoefficientSet,
    SamplingPlan,
    validate_driver_monotonicity,
    validate_jump_nondegeneracy,
    validate_lipschitz,
)
from .dpp import Lattice, compute_value_table, dpp_residual
from .drivers import DriverPath, TimeGrid, draw_noise, write_csv
from .errors import (
    CflViolationError,
    ConfigError,
    DivergenceError,
    NotConvergedError,
    NumericError,
)
from .forward import ConstantControl, OpenLoopControl, simulate, simulate_batch, trajectory_to_csv
from .galerkin import (
    BinomialJumpTree,
    assemble_operators,
    assemble_triple,
    energy_identity_residual,
    solve_hjb_weak,
    solve_linear_bseej,
    weak_residual,
)
from .pide import SpatialGrid, solve_pide_deterministic, verification_run
from .problems import build_problem


def _fail(msg: str, field: str | None = None):
    raise ConfigError(msg, field)


def _need(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        _fail("missing required key", f"{path}.{key}")
    val = cfg[key]
    if kind is int and isinstance(val, bool):
        _fail("expected an integer", f"{path}.{key}")
    if not isinstance(val, kind):
        _fail(f"expected {getattr(kind, '__name__', kind)}", f"{path}.{key}")
    return val


def _count(sec: dict, key: str, default, path: str, low: int = 1) -> int:
    """``sec[key]``, or ``default`` when absent, as an integer >= ``low``;
    anything else is a config error naming ``path.key``."""
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int) or val < low:
        _fail(f"expected an integer >= {low}", f"{path}.{key}")
    return val


def _finite(val) -> bool:
    """Whether ``val`` is a finite real number and not a bool."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) < np.inf


def _real(sec: dict, key: str, default, path: str, low=-np.inf, strict=True) -> float:
    """``sec[key]``, or ``default`` when absent, as a finite real (not a
    bool) above ``low``, or at it unless ``strict``; else a config error."""
    val = sec.get(key, default)
    if not (_finite(val) and (low < val if strict else low <= val)):
        bound = f" {'>' if strict else '>='} {low}" if low > -np.inf else ""
        _fail(f"expected a finite real number{bound}", f"{path}.{key}")
    return float(val)


def _reals(val, length: int, field: str) -> np.ndarray:
    """``val`` as a list of ``length`` finite reals (not bools); anything
    else is a config error naming ``field``."""
    if not (isinstance(val, list) and len(val) == length and all(map(_finite, val))):
        _fail(f"expected a list of {length} finite real numbers", field)
    return np.array(val, dtype=float)


def _flag(sec: dict, key: str, default: bool, path: str) -> bool:
    """``sec[key]``, or ``default`` when absent, as true or false."""
    val = sec.get(key, default)
    if not isinstance(val, bool):
        _fail("expected true or false", f"{path}.{key}")
    return val


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        _fail("expected an object", name)
    return sec


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        _fail(f"config file {path} not found", "config")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}", "config")
    if not isinstance(cfg, dict):
        _fail("top level must be an object", "config")
    _need(cfg, "seed", int, "config")
    if not (0 <= cfg["seed"] < 2 ** 64):
        _fail("seed must be an unsigned 64-bit integer", "config.seed")
    return cfg


def _grid(kind, box, count, section: str):
    """A one-dimensional ``kind`` grid of ``count`` points over ``box``;
    a bad box or count is a config error naming ``section``."""
    try:
        return kind([box[0]], [box[1]], (count,))
    except (TypeError, IndexError, ValueError) as exc:
        _fail(str(exc), section)


def _problem(cfg: dict):
    sec = _section(cfg, "problem")
    name = _need(sec, "name", str, "problem")
    params = sec.get("params", {})
    if not isinstance(params, dict):
        _fail("expected an object", "problem.params")
    return build_problem(name, params)


def _control_from(sec: dict, path: str, m: int, n_steps: int):
    """The ``control`` object of a section: ``{"type": "constant",
    "value": m reals}`` or ``{"type": "openloop", "values": n_steps rows
    of m reals}``; the zero control when absent."""
    ctl = sec.get("control", {"type": "constant", "value": [0.0] * m})
    kind = ctl.get("type") if isinstance(ctl, dict) else None
    if kind == "constant":
        return ConstantControl(_reals(ctl.get("value"), m, f"{path}.control.value"))
    if kind == "openloop":
        rows = ctl.get("values")
        if not (isinstance(rows, list) and len(rows) == n_steps):
            _fail(f"expected a list of {n_steps} rows, one per step", f"{path}.control.values")
        return OpenLoopControl(np.array([_reals(r, m, f"{path}.control.values") for r in rows]))
    _fail('expected an object with "type" "constant" or "openloop"', f"{path}.control")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_simulate(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "simulate")
    n_steps = _count(sec, "n_steps", prob.n_steps, "simulate")
    n_paths = _count(sec, "n_paths", 1, "simulate")
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    control = _control_from(sec, "simulate", prob.coeffs.m, n_steps)
    bank = draw_noise(grid, prob.coeffs.d, prob.measure, n_paths, cfg["seed"])
    outputs = []
    for k in range(n_paths):
        traj = simulate(prob.coeffs, control, prob.x0, bank.path(k))
        name = f"trajectory_{k:03d}.csv"
        trajectory_to_csv(traj, out / name)
        outputs.append(name)
    return outputs


def run_bsde(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "bsde")
    n_steps = _count(sec, "n_steps", prob.n_steps, "bsde")
    n_samples = _count(sec, "n_samples", 2000, "bsde")
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    control = _control_from(sec, "bsde", prob.coeffs.m, n_steps)
    basis = PolynomialBasis(degree=_count(sec, "basis_degree", 3, "bsde", low=0),
                            ridge=_real(sec, "ridge", 1e-8, "bsde", 0.0, strict=False))
    batch = simulate_batch(prob.coeffs, control, prob.x0, grid, prob.measure,
                           n_samples, cfg["seed"])
    sol = solve_bsde(prob.coeffs, control, batch, basis)
    _write_json(out / "bsde_summary.json", sol.summary())
    means = [np.concatenate([a.mean(axis=1), np.zeros((1, a.shape[2]))]) for a in (sol.Z, sol.K)]
    rows = np.column_stack([grid.nodes, sol.Y.mean(axis=1), sol.Y.std(axis=1)] + means)
    header = (["t", "Y_mean", "Y_std"]
              + [f"Z{c+1}_mean" for c in range(prob.coeffs.d)]
              + [f"K{j+1}_mean" for j in range(prob.measure.n_atoms)])
    write_csv(out / "bsde_solution.csv", header, rows.tolist())
    return ["bsde_summary.json", "bsde_solution.csv"]


def run_value(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "value")
    cells = sec.get("cells", prob.lattice_cells)
    box = sec.get("box", [prob.space_low, prob.space_high])
    n_steps = _count(sec, "n_steps", prob.n_steps, "value")
    lat = _grid(Lattice, box, cells, "value")
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    table = compute_value_table(prob.coeffs, prob.control_set, lat, grid,
                                prob.measure)
    table.to_csv(out / "value_table.csv")
    _write_json(out / "value_report.json", {
        "V0": table.value_at(0, prob.x0),
        "clamped_points": table.clamped_points,
        "cells": cells,
        "n_steps": n_steps,
    })
    return ["value_table.csv", "value_report.json"]


def run_dpp_check(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "dpp_check")
    cells = sec.get("cells", prob.lattice_cells)
    box = sec.get("box", [prob.space_low, prob.space_high])
    n_steps = _count(sec, "n_steps", prob.n_steps, "dpp_check")
    delta_nodes = _count(sec, "delta_nodes", 1, "dpp_check", low=0)
    n_samples = _count(sec, "n_samples", 20000, "dpp_check")
    t_node = _count(sec, "t_node", 0, "dpp_check", low=0)
    x = _reals(sec.get("x", prob.x0.tolist()), prob.coeffs.n, "dpp_check.x")
    lat = _grid(Lattice, box, cells, "dpp_check")
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    table = compute_value_table(prob.coeffs, prob.control_set, lat, grid,
                                prob.measure)
    res = dpp_residual(prob.coeffs, prob.control_set, table, prob.measure,
                       t_node, x, delta_nodes, n_samples, cfg["seed"])
    _write_json(out / "dpp_report.json", {
        "residual": res,
        "t_node": t_node,
        "x": [float(v) for v in x],
        "delta_nodes": delta_nodes,
        "V": table.value_at(t_node, x),
    })
    return ["dpp_report.json"]


def _pide_solution(cfg: dict, prob):
    sec = _section(cfg, "pide")
    nodes = sec.get("nodes", prob.space_nodes)
    box = sec.get("box", [prob.space_low, prob.space_high])
    n_steps = _count(sec, "n_steps", prob.n_steps, "pide")
    space = _grid(SpatialGrid, box, nodes, "pide")
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    return solve_pide_deterministic(prob.coeffs, space, grid,
                                    prob.control_set, prob.measure)


def run_pide(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sol = _pide_solution(cfg, prob)
    sol.triplet.to_csv(out / "pide_field.csv")
    _write_json(out / "pide_report.json", {
        "V0": sol.value_at(0, prob.x0),
        "clamped_points": sol.clamped,
    })
    return ["pide_field.csv", "pide_report.json"]


def run_verify(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "verify")
    n_samples = _count(sec, "n_samples", 4000, "verify")
    n_alternatives = _count(sec, "n_alternatives", 4, "verify", low=0)
    sol = _pide_solution(cfg, prob)
    rep = verification_run(
        sol.triplet, prob.coeffs, prob.control_set, prob.measure, prob.x0,
        n_samples, cfg["seed"], n_alternatives=n_alternatives)
    (out / "verify_report.json").write_text(rep.to_json() + "\n")
    return ["verify_report.json"]


def _heat_coeffs(sigma: float) -> CoefficientSet:
    """The heat equation's coefficients: diffusion ``sigma``, nothing else."""
    return CoefficientSet(
        n=1, d=1, m=1,
        b=lambda t, x, u, nz: np.zeros_like(x),
        sigma=lambda t, x, u, nz: sigma * np.ones(x.shape + (1,)),
        g=lambda t, e, x, u, nz: np.zeros_like(x),
        f=lambda t, x, u, y, z, k, nz: np.zeros(np.shape(y)),
        h=lambda x, nz: np.zeros(x.shape[0]),
        l=lambda t, e: 1.0)


def run_bseej(cfg: dict, out: Path) -> list:
    sec = _section(cfg, "bseej")
    kind = sec.get("kind", "heat")
    length = _real(sec, "length", 2.0, "bseej", 0.0)
    n_modes = _count(sec, "modes", 8, "bseej")
    n_steps = _count(sec, "n_steps", 200, "bseej")
    horizon = _real(sec, "horizon", 1.0, "bseej", 0.0)
    sigma0 = _real(sec, "sigma", 1.0, "bseej")
    forcing = _real(sec, "forcing", 0.3, "bseej")
    triple = assemble_triple(length, 1, n_modes)
    grid = TimeGrid.uniform(horizon, n_steps)
    pair = assemble_operators(_heat_coeffs(sigma0), triple, grid)
    xi = np.zeros(n_modes)
    xi[0] = 1.0
    if kind == "heat":
        f0 = None
    elif kind == "integration":
        f0 = np.broadcast_to(forcing * np.ones(n_modes),
                             (n_steps, n_modes)).copy()
    else:
        _fail(f"unknown bseej kind {kind!r}", "bseej.kind")
    sol = solve_linear_bseej(pair, f0, xi, None)
    energy = energy_identity_residual(sol, f0)
    kappa = 0.5 * sigma0 ** 2 * (np.pi / (2 * length)) ** 2
    _write_json(out / "bseej_report.json", {
        "kind": kind,
        "y0": [float(v) for v in sol.y[0][0]],
        "first_mode_decay_target": float(np.exp(-kappa * horizon)),
        "energy_residual": energy.residual,
        "weak_residual": weak_residual(sol, f0),
    })
    write_csv(out / "bseej_coords.csv", ["t"] + [f"y_{k+1}" for k in range(n_modes)],
              np.column_stack([grid.nodes, [y[0] for y in sol.y]]).tolist())
    return ["bseej_report.json", "bseej_coords.csv"]


def run_hjb_weak(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "hjb_weak")
    n_modes = _count(sec, "modes", prob.galerkin_modes, "hjb_weak")
    length = _real(sec, "length", prob.galerkin_length, "hjb_weak", 0.0)
    n_steps = _count(sec, "n_steps", max(prob.n_steps // 2, 10), "hjb_weak")
    triple = assemble_triple(length, 1, n_modes)
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    out_box = sec.get("out_box", [prob.space_low, prob.space_high])
    space = _grid(SpatialGrid, out_box, sec.get("out_nodes", 81), "hjb_weak")
    extra = ["operators.csv"] if _flag(sec, "dump_operators", False, "hjb_weak") else []
    scenario = None
    if prob.coeffs.is_random:
        channels = tuple(sorted(set(prob.coeffs.randomness_channels) | {"J"}))
        scenario = BinomialJumpTree(grid, prob.measure, channels)
    res = solve_hjb_weak(prob.coeffs, triple, prob.control_set, prob.measure,
                         grid, scenario=scenario,
                         tol=_real(sec, "tol", 1e-8, "hjb_weak", 0.0),
                         max_iter=_count(sec, "max_iter", 50, "hjb_weak"))
    if extra:
        res.solution.pair.dump_csv(out / "operators.csv")
    trip = res.reconstruct_triplet(space)
    trip.to_csv(out / "hjb_weak_field.csv")
    _write_json(out / "hjb_weak_report.json", {
        "V0": trip.value_at(0, prob.x0),
        "picard_iterations": len(res.solution.history),
        "picard_history": [float(v) for v in res.solution.history],
        "coercivity_min_slack": res.coercivity.min_slack,
        "coercivity_alpha": res.coercivity.alpha,
        "clamped_points": res.clamped,
        "max_z_coord": res.solution.max_z_norm(),
        "max_r_coord": res.solution.max_r_norm(),
    })
    return ["hjb_weak_field.csv", "hjb_weak_report.json"] + extra


def _coarsen_path(path: DriverPath, factor: int) -> DriverPath:
    nodes = path.grid.nodes[::factor]
    inc = path.brownian_increments.reshape(-1, factor, path.d).sum(axis=1)
    return DriverPath(TimeGrid(nodes), path.measure, inc,
                      path.jump_times, path.jump_atoms)


def run_convergence(cfg: dict, out: Path) -> list:
    sec = _section(cfg, "convergence")
    study = sec.get("study", "forward_strong")
    halvings = _count(sec, "halvings", 3, "convergence")
    rows = []
    if study == "forward_strong":
        prob = _problem(cfg)
        base = _count(sec, "base_steps", 16, "convergence")
        n_paths = _count(sec, "n_paths", 40, "convergence")
        fine_factor = 4 * 2 ** halvings
        fine_steps = base * fine_factor
        control = ConstantControl(np.zeros(prob.coeffs.m))
        errs = {lvl: [] for lvl in range(halvings + 1)}
        bank = draw_noise(TimeGrid.uniform(prob.horizon, fine_steps), prob.coeffs.d,
                          prob.measure, n_paths, cfg["seed"])
        for s in range(n_paths):
            pf = bank.path(s)
            ref = simulate(prob.coeffs, control, prob.x0, pf).terminal_state
            for lvl in range(halvings + 1):
                factor = fine_steps // (base * 2 ** lvl)
                pc = _coarsen_path(pf, factor)
                xt = simulate(prob.coeffs, control, prob.x0, pc).terminal_state
                errs[lvl].append(float(np.max(np.abs(xt - ref))))
        for lvl in range(halvings + 1):
            n = base * 2 ** lvl
            rows.append([lvl, prob.horizon / n, float(np.mean(errs[lvl]))])
    elif study == "energy_identity":
        length = _real(sec, "length", 2.0, "convergence", 0.0)
        n_modes = _count(sec, "modes", 6, "convergence")
        base = _count(sec, "base_steps", 40, "convergence")
        triple = assemble_triple(length, 1, n_modes)
        coeffs = _heat_coeffs(1.0)
        xi = np.zeros(n_modes)
        xi[0] = 1.0
        for lvl in range(halvings + 1):
            n = base * 2 ** lvl
            grid = TimeGrid.uniform(1.0, n)
            pair = assemble_operators(coeffs, triple, grid)
            sol = solve_linear_bseej(pair, None, xi, None)
            rep = energy_identity_residual(sol, None)
            rows.append([lvl, 1.0 / n, abs(rep.residual)])
    elif study == "dpp_residual":
        prob = _problem(cfg)
        base_steps = _count(sec, "base_steps", 8, "convergence")
        # An integer here; the lattice refuses a count below 1.
        base_cells = _count(sec, "base_cells", 40, "convergence", low=0)
        n_samples = _count(sec, "n_samples", 40000, "convergence")
        box = sec.get("box", [prob.space_low, prob.space_high])
        for lvl in range(halvings + 1):
            k = 2 ** lvl
            lat = _grid(Lattice, box, base_cells * k, "convergence")
            grid = TimeGrid.uniform(prob.horizon, base_steps * k)
            table = compute_value_table(prob.coeffs, prob.control_set, lat,
                                        grid, prob.measure)
            res = dpp_residual(prob.coeffs, prob.control_set, table,
                               prob.measure, 0, prob.x0, 1, n_samples,
                               cfg["seed"])
            rows.append([lvl, prob.horizon / (base_steps * k), res])
    else:
        _fail(f"unknown study {study!r}", "convergence.study")

    write_csv(out / "convergence.csv", ["level", "dt", "error"], rows)
    _, dts, errors = np.array(rows, dtype=float).T
    mask = errors > 0
    slope = float(np.polyfit(np.log(dts[mask]), np.log(errors[mask]), 1)[0]) \
        if mask.sum() >= 2 else float("nan")
    _write_json(out / "convergence_report.json",
                {"study": study, "halvings": halvings, "fitted_slope": slope})
    return ["convergence.csv", "convergence_report.json"]


def run_validate_assumptions(cfg: dict, out: Path) -> list:
    prob = _problem(cfg)
    sec = _section(cfg, "validate_assumptions")
    plan = SamplingPlan.cube(
        prob.coeffs.n, prob.coeffs.m,
        half_width=_real(sec, "box_half_width", 2.0, "validate_assumptions", 0.0),
        n_samples=_count(sec, "n_samples", 200, "validate_assumptions"),
        seed=cfg["seed"])
    reports = {
        "lipschitz": validate_lipschitz(prob.coeffs, prob.measure, plan),
        "jump_nondegeneracy": validate_jump_nondegeneracy(
            prob.coeffs, prob.measure, plan),
        "driver_monotonicity": validate_driver_monotonicity(
            prob.coeffs, prob.measure, plan),
    }
    payload = {
        name: {
            "passed": rep.passed,
            "observed": rep.observed,
            "bound": rep.bound,
            "n_samples": rep.n_samples,
            "notes": rep.notes,
        } for name, rep in reports.items()
    }
    payload["all_passed"] = all(rep.passed for rep in reports.values())
    _write_json(out / "validation_report.json", payload)
    return ["validation_report.json"]


RUNNERS = {
    "simulate": run_simulate,
    "bsde": run_bsde,
    "value": run_value,
    "dpp-check": run_dpp_check,
    "pide": run_pide,
    "verify": run_verify,
    "bseej": run_bseej,
    "hjb-weak": run_hjb_weak,
    "convergence": run_convergence,
    "validate-assumptions": run_validate_assumptions,
}


def _manifest(subcommand: str, cfg: dict, cfg_text: str, outputs: list) -> dict:
    return {
        "subcommand": subcommand,
        # 3: rows drawn in blocks from child_seed(seed, block).  2: one
        # stream per sample from child_seed(seed, sample).  Absent:
        # replications seeded (seed + k) * 1000 + r.
        "noise_scheme": 3,
        "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
        "config": cfg,
        "seed": cfg["seed"],
        "versions": {
            "jumphjb": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": sorted(outputs),
    }


def _write_diagnostic(out_dir: Path, payload: dict):
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "failure_diagnostic.json", payload)
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumphjb",
        description="Stochastic optimal control of jump-diffusions: "
                    "simulation, BSDEs, dynamic programming, HJB solvers.")
    parser.add_argument("subcommand", choices=tuple(RUNNERS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config out_dir or .)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out or cfg.get("out_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_text = Path(args.config).read_text()
        outputs = RUNNERS[args.subcommand](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # The batch size guard in simulate_batch raises MemoryError before
    # allocating, so it is a numeric failure with a diagnostic.
    except (NumericError, DivergenceError, CflViolationError, MemoryError) as exc:
        _write_diagnostic(out_dir, {"error": type(exc).__name__, "message": str(exc)})
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except NotConvergedError as exc:
        _write_diagnostic(out_dir, {
            "error": "NotConverged",
            "message": str(exc),
            "history": [float(v) for v in exc.history],
        })
        print(f"not converged: {exc}", file=sys.stderr)
        return 4

    _write_json(out_dir / "manifest.json",
                _manifest(args.subcommand, cfg, cfg_text, outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
