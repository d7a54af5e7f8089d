"""Experiment orchestration: config-driven subcommands with manifests.

Every run consumes a JSON config (seed required, no silent
nondeterminism) and reads each of its objects through one
:class:`~jumphjb.problems.Section`, which refuses a bad value or an
unknown key before any solver work.  A run writes CSV/JSON artifacts
plus a ``manifest.json`` (config hash, full config echo, library
versions) and exits 0 on success, 2 on config errors, 3 on numeric
failures (including a Monte Carlo batch too large for memory) and 4
when an iterative solver did not converge.  Failures other than config
errors write ``failure_diagnostic.json`` to the output directory.
Identical configs reproduce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

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
from .drivers import DriverPath, TimeGrid, check_batch_bytes, draw_noise, write_csv
from .errors import (
    CflViolationError,
    ConfigError,
    DivergenceError,
    NotConvergedError,
    NumericError,
)
from .forward import ConstantControl, simulate, simulate_batch, trajectory_to_csv
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
from .problems import Section, build_problem


def _load_config(path: str):
    try:
        text = Path(path).read_text()
        return text, Section(json.loads(text), "config")
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path} as JSON: {exc}", "config") from None


def _problem(cfg: Section):
    sec = cfg.section("problem")
    name, params = sec.text("name", None), sec.section("params")
    sec.done()
    return build_problem(name, params)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_simulate(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    n_steps = sec.count("n_steps", prob.n_steps)
    n_paths = sec.count("n_paths", 1)
    control = sec.control(prob.coeffs.m, n_steps)
    sec.done()
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    bank = draw_noise(grid, prob.coeffs.d, prob.measure, n_paths, cfg.obj["seed"])
    outputs = []
    for k in range(n_paths):
        traj = simulate(prob.coeffs, control, prob.x0, bank.path(k))
        name = f"trajectory_{k:03d}.csv"
        trajectory_to_csv(traj, out / name)
        outputs.append(name)
    return outputs


def run_bsde(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    n_steps = sec.count("n_steps", prob.n_steps)
    n_samples = sec.count("n_samples", 2000)
    control = sec.control(prob.coeffs.m, n_steps)
    basis = PolynomialBasis(degree=sec.count("basis_degree", 3, low=0),
                            ridge=sec.real("ridge", 1e-8, 0.0, strict=False))
    sec.done()
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    batch = simulate_batch(prob.coeffs, control, prob.x0, grid, prob.measure,
                           n_samples, cfg.obj["seed"])
    sol = solve_bsde(prob.coeffs, control, batch, basis)
    _write_json(out / "bsde_summary.json", sol.summary())
    means = [np.concatenate([a.mean(axis=1), np.zeros((1, a.shape[2]))]) for a in (sol.Z, sol.K)]
    rows = np.column_stack([grid.nodes, sol.Y.mean(axis=1), sol.Y.std(axis=1)] + means)
    header = (["t", "Y_mean", "Y_std"]
              + [f"Z{c+1}_mean" for c in range(prob.coeffs.d)]
              + [f"K{j+1}_mean" for j in range(prob.measure.n_atoms)])
    write_csv(out / "bsde_solution.csv", header, rows.tolist())
    return ["bsde_summary.json", "bsde_solution.csv"]


def _value_table(sec: Section, prob):
    n_steps = sec.count("n_steps", prob.n_steps)
    lat = sec.grid(Lattice, "cells", prob.lattice_cells, [prob.space_low, prob.space_high])
    sec.done()
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    return compute_value_table(prob.coeffs, prob.control_set, lat, grid, prob.measure)


def run_value(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    table = _value_table(sec, prob)
    table.to_csv(out / "value_table.csv")
    _write_json(out / "value_report.json", {
        "V0": table.value_at(0, prob.x0),
        "clamped_points": table.clamped_points,
        "cells": table.lattice.shape[0],
        "n_steps": table.grid.n_steps,
    })
    return ["value_table.csv", "value_report.json"]


def run_dpp_check(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    delta_nodes = sec.count("delta_nodes", 1, low=0)
    n_samples = sec.count("n_samples", 20000)
    t_node = sec.count("t_node", 0, low=0)
    x = sec.reals("x", prob.x0.tolist(), prob.coeffs.n)
    table = _value_table(sec, prob)
    res = dpp_residual(prob.coeffs, prob.control_set, table, prob.measure,
                       t_node, x, delta_nodes, n_samples, cfg.obj["seed"])
    _write_json(out / "dpp_report.json", {
        "residual": res,
        "t_node": t_node,
        "x": [float(v) for v in x],
        "delta_nodes": delta_nodes,
        "V": table.value_at(t_node, x),
    })
    return ["dpp_report.json"]


def _pide_solution(sec: Section, prob):
    n_steps = sec.count("n_steps", prob.n_steps)
    space = sec.grid(SpatialGrid, "nodes", prob.space_nodes, [prob.space_low, prob.space_high])
    sec.done()
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    return solve_pide_deterministic(prob.coeffs, space, grid,
                                    prob.control_set, prob.measure)


def run_pide(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    sol = _pide_solution(sec, prob)
    sol.triplet.to_csv(out / "pide_field.csv")
    _write_json(out / "pide_report.json", {
        "V0": sol.triplet.value_at(0, prob.x0),
        "clamped_points": sol.clamped,
    })
    return ["pide_field.csv", "pide_report.json"]


def run_verify(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    n_samples = sec.count("n_samples", 4000)
    n_alternatives = sec.count("n_alternatives", 4, low=0)
    sec.done()
    sol = _pide_solution(cfg.section("pide"), prob)
    rep = verification_run(
        sol.triplet, prob.coeffs, prob.control_set, prob.measure, prob.x0,
        n_samples, cfg.obj["seed"], n_alternatives=n_alternatives)
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


def run_bseej(cfg: Section, sec: Section, out: Path) -> list:
    kind = sec.text("kind", "heat", ("heat", "integration"))
    length = sec.real("length", 2.0, 0.0)
    n_modes = sec.count("modes", 8)
    n_steps = sec.count("n_steps", 200)
    horizon = sec.real("horizon", 1.0, 0.0)
    sigma0 = sec.real("sigma", 1.0)
    forcing = sec.real("forcing", 0.3)
    sec.done()
    triple = assemble_triple(length, 1, n_modes)
    grid = TimeGrid.uniform(horizon, n_steps)
    pair = assemble_operators(_heat_coeffs(sigma0), triple, grid)
    f0 = None if kind == "heat" else np.broadcast_to(
        forcing * np.ones(n_modes), (n_steps, n_modes)).copy()
    sol = solve_linear_bseej(pair, f0, np.eye(1, n_modes)[0], None)
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


def run_hjb_weak(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    n_modes = sec.count("modes", prob.galerkin_modes)
    length = sec.real("length", prob.galerkin_length, 0.0)
    n_steps = sec.count("n_steps", max(prob.n_steps // 2, 10))
    space = sec.grid(SpatialGrid, "out_nodes", 81, [prob.space_low, prob.space_high],
                     "out_box")
    extra = ["operators.csv"] if sec.flag("dump_operators", False) else []
    tol, max_iter = sec.real("tol", 1e-8, 0.0), sec.count("max_iter", 50)
    sec.done()
    triple = assemble_triple(length, 1, n_modes)
    grid = TimeGrid.uniform(prob.horizon, n_steps)
    scenario = None
    if prob.coeffs.is_random:
        channels = tuple(sorted(set(prob.coeffs.randomness_channels) | {"J"}))
        scenario = BinomialJumpTree(grid, prob.measure, channels)
    res = solve_hjb_weak(prob.coeffs, triple, prob.control_set, prob.measure,
                         grid, scenario=scenario,
                         tol=tol, max_iter=max_iter)
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


def run_convergence(cfg: Section, sec: Section, out: Path) -> list:
    study = sec.text("study", "forward_strong",
                     ("forward_strong", "energy_identity", "dpp_residual"))
    # Each study bounds halvings so that its finest level's step or cell
    # count, base * 2**halvings, stays below 2**63, and refuses a finest
    # level too large for memory before level 0 runs.
    if study == "forward_strong":
        prob = _problem(cfg)
        base = sec.count("base_steps", 16)
        n_paths = sec.count("n_paths", 40)
        halvings = sec.count("halvings", 3, high=64 - (4 * base).bit_length())
        sec.done()
        control = ConstantControl(np.zeros(prob.coeffs.m))
        errs = [[] for _ in range(halvings + 1)]
        bank = draw_noise(TimeGrid.uniform(prob.horizon, base * 4 * 2 ** halvings),
                          prob.coeffs.d, prob.measure, n_paths, cfg.obj["seed"])
        for s in range(n_paths):
            pf = bank.path(s)
            ref = simulate(prob.coeffs, control, prob.x0, pf).terminal_state
            for lvl, err in enumerate(errs):
                pc = _coarsen_path(pf, 2 ** (halvings + 2 - lvl))
                xt = simulate(prob.coeffs, control, prob.x0, pc).terminal_state
                err.append(float(np.max(np.abs(xt - ref))))
        rows = [[lvl, prob.horizon / (base * 2 ** lvl), float(np.mean(err))]
                for lvl, err in enumerate(errs)]
    elif study == "energy_identity":
        length = sec.real("length", 2.0, 0.0)
        n_modes = sec.count("modes", 6)
        base = sec.count("base_steps", 40)
        halvings = sec.count("halvings", 3, high=64 - base.bit_length())
        sec.done()
        # The finest operator pair: A, B, two Grams and the step inverses.
        check_batch_bytes(8.0 * 5 * base * 2 ** halvings * n_modes ** 2)
        triple = assemble_triple(length, 1, n_modes)
        coeffs = _heat_coeffs(1.0)
        rows = []
        for lvl in range(halvings + 1):
            n = base * 2 ** lvl
            grid = TimeGrid.uniform(1.0, n)
            pair = assemble_operators(coeffs, triple, grid)
            sol = solve_linear_bseej(pair, None, np.eye(1, n_modes)[0], None)
            rep = energy_identity_residual(sol, None)
            rows.append([lvl, 1.0 / n, abs(rep.residual)])
    else:
        prob = _problem(cfg)
        base_steps = sec.count("base_steps", 8)
        n_samples = sec.count("n_samples", 40000)
        # Read as a count first, so that a non-integer names the key; the
        # lattice refuses a count below 1.
        base_cells = sec.count("base_cells", 40, low=0)
        lat = sec.grid(Lattice, "base_cells", 40, [prob.space_low, prob.space_high])
        halvings = sec.count("halvings", 3, high=64 - max(base_steps, base_cells).bit_length())
        sec.done()
        # The finest value table and its argmin, one slice per time node.
        fine = 2 ** halvings
        check_batch_bytes(16.0 * (base_steps * fine + 1) * math.prod(s * fine for s in lat.shape))
        rows = []
        for lvl in range(halvings + 1):
            k = 2 ** lvl
            grid = TimeGrid.uniform(prob.horizon, base_steps * k)
            table = compute_value_table(prob.coeffs, prob.control_set, lat.refine(k),
                                        grid, prob.measure)
            res = dpp_residual(prob.coeffs, prob.control_set, table,
                               prob.measure, 0, prob.x0, 1, n_samples,
                               cfg.obj["seed"])
            rows.append([lvl, prob.horizon / (base_steps * k), res])

    write_csv(out / "convergence.csv", ["level", "dt", "error"], rows)
    _, dts, errors = np.array(rows, dtype=float).T
    mask = errors > 0
    slope = float(np.polyfit(np.log(dts[mask]), np.log(errors[mask]), 1)[0]) \
        if mask.sum() >= 2 else float("nan")
    _write_json(out / "convergence_report.json",
                {"study": study, "halvings": halvings, "fitted_slope": slope})
    return ["convergence.csv", "convergence_report.json"]


def run_validate_assumptions(cfg: Section, sec: Section, out: Path) -> list:
    prob = _problem(cfg)
    half_width = sec.real("box_half_width", 2.0, 0.0)
    n_samples = sec.count("n_samples", 200)
    sec.done()
    plan = SamplingPlan.cube(prob.coeffs.n, prob.coeffs.m, half_width=half_width,
                             n_samples=n_samples, seed=cfg.obj["seed"])
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
        cfg_text, cfg = _load_config(args.config)
        cfg.count("seed", None, low=0, high=2 ** 64)
        out_dir = cfg.text("out_dir", ".")
        # A section is named after its subcommand, with "-" as "_".
        cfg.done("problem", *(name.replace("-", "_") for name in RUNNERS))
        sec = cfg.section(args.subcommand.replace("-", "_"))
        out_dir = Path(args.out or out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = RUNNERS[args.subcommand](cfg, sec, out_dir)
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
                _manifest(args.subcommand, cfg.obj, cfg_text, outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
