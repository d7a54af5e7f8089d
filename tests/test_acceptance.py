"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (bypassing pytest capture) so
a plain ``pytest tests/test_acceptance.py`` run shows the verdicts.
"""

import json
import sys
import time

import numpy as np

from jumphjb.bsde import solve_bsde, comparison_check
from jumphjb.cli import main as cli_main
from jumphjb.dpp import Lattice, compute_value_table, dpp_residual
from jumphjb.drivers import MarkMeasure, TimeGrid, sample_driver_path
from jumphjb.forward import ConstantControl, simulate, simulate_batch, simulate_flow_gradient
from jumphjb.galerkin import (
    assemble_operators,
    assemble_triple,
    check_coercivity,
    continuous_dependence_check,
    energy_identity_residual,
    solve_hjb_weak,
    solve_linear_bseej,
    solve_nonlinear_bseej,
)
from jumphjb.pide import SpatialGrid, solve_pide_deterministic, verification_run
from jumphjb.problems import build_problem

from conftest import make_coeffs


def announce(num, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {num:2d} ({name}): {detail}",
          file=sys.__stdout__, flush=True)
    assert passed, f"criterion {num} ({name}): {detail}"


def unit_mode(n, k=0):
    e = np.zeros(n)
    e[k] = 1.0
    return e


def test_criterion_01_cross_solver_consistency():
    # PIDE, lattice table and weak Galerkin values agree pairwise
    # within 3e-2 max-abs on the interior; runtime < 5 min.
    t0 = time.time()
    prob = build_problem("smooth1d")
    co, meas, U = prob.coeffs, prob.measure, prob.control_set
    T = prob.horizon

    space = SpatialGrid([-3.0], [3.0], (241,))
    pide = solve_pide_deterministic(co, space, TimeGrid.uniform(T, 320), U, meas)
    table = compute_value_table(co, U, Lattice([-3.0], [3.0], (240,)),
                                TimeGrid.uniform(T, 100), meas)
    weak = solve_hjb_weak(co, assemble_triple(6.0, 1, 48), U, meas,
                          TimeGrid.uniform(T, 100))
    elapsed = time.time() - t0

    interior = SpatialGrid([-1.5], [1.5], (61,))
    xs = interior.nodes()[:, 0]
    v_pide = np.array([pide.triplet.value_at(0, [x]) for x in xs])
    v_table = np.array([table.value_at(0, [x]) for x in xs])
    v_weak = weak.reconstruct_triplet(interior).V[0].ravel()
    gaps = {
        "pide-table": float(np.max(np.abs(v_pide - v_table))),
        "pide-weak": float(np.max(np.abs(v_pide - v_weak))),
        "table-weak": float(np.max(np.abs(v_table - v_weak))),
    }
    ok = all(g <= 3e-2 for g in gaps.values()) and elapsed < 300
    announce(1, "cross-solver consistency", ok,
             f"max pairwise gaps {gaps}, runtime {elapsed:.0f}s")


def test_criterion_02_dpp_residual_refinement():
    # Residual at (t=0, x=0) drops by >= 1.3x per joint halving of dt
    # and cell width over 3 refinements.
    prob = build_problem("smooth1d")
    residuals = []
    for lvl in range(4):
        k = 2 ** lvl
        lat = Lattice([-3.0], [3.0], (40 * k,))
        grid = TimeGrid.uniform(prob.horizon, 8 * k)
        table = compute_value_table(prob.coeffs, prob.control_set, lat, grid,
                                    prob.measure)
        residuals.append(dpp_residual(prob.coeffs, prob.control_set, table,
                                      prob.measure, 0, prob.x0, 1, 40000, 11))
    ratios = [residuals[i] / residuals[i + 1] for i in range(3)]
    ok = all(r >= 1.3 for r in ratios)
    announce(2, "DPP residual refinement", ok,
             f"residuals {['%.2e' % r for r in residuals]}, "
             f"ratios {['%.2f' % r for r in ratios]}")


def test_criterion_02_dpp_residual_refinement_seeds():
    # Multi-seed companion of criterion 02, which stays pinned at seed 11.
    # The four tables do not depend on the seed, so they are built once.
    # Gate, fixed before the first run: at every seed 1..10, each of the
    # three ratios of successive residuals is >= 1.3.
    prob = build_problem("smooth1d")
    tables = [compute_value_table(prob.coeffs, prob.control_set,
                                  Lattice([-3.0], [3.0], (40 * 2 ** lvl,)),
                                  TimeGrid.uniform(prob.horizon, 8 * 2 ** lvl), prob.measure)
              for lvl in range(4)]
    for seed in range(1, 11):
        residuals = [dpp_residual(prob.coeffs, prob.control_set, table, prob.measure,
                                  0, prob.x0, 1, 40000, seed) for table in tables]
        ratios = [residuals[i] / residuals[i + 1] for i in range(3)]
        assert all(r >= 1.3 for r in ratios), (seed, residuals, ratios)


def test_criterion_03_comparison_principle():
    meas = MarkMeasure.from_atoms([((1.0,), 1.0)])
    co_f0 = make_coeffs(
        sigma=lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)),
        g=lambda t, e, x, u, nz: 0.1 * np.ones_like(x),
        rho=np.array([0.0]))
    co_gen = make_coeffs(
        sigma=lambda t, x, u, nz: 0.3 * np.ones(x.shape + (1,)),
        g=lambda t, e, x, u, nz: 0.1 * np.ones_like(x),
        f=lambda t, x, u, y, z, k, nz: 0.3 * y + 0.05 * k,
        rho=np.array([0.0]))
    grid = TimeGrid.uniform(1.0, 12)
    h1 = lambda x: np.sin(x[:, 0])
    h2 = lambda x: np.sin(x[:, 0]) + 0.5
    exact_ok = 0
    general_ok = 0
    for s in range(100):
        batch = simulate_batch(co_f0, ConstantControl([0.0]), [0.2], grid,
                               meas, 120, s)
        if comparison_check(co_f0, ConstantControl([0.0]), batch, h1, h2).margin > 0:
            exact_ok += 1
        if comparison_check(co_gen, ConstantControl([0.0]), batch, h1, h2).margin > 0:
            general_ok += 1
    ok = exact_ok == 100 and general_ok == 100
    announce(3, "comparison principle", ok,
             f"f=0 ordered {exact_ok}/100, general driver {general_ok}/100")


def test_criterion_04_bsde_closed_form():
    prob = build_problem("exp_decay", {"rate": 0.1})
    grid = TimeGrid.uniform(1.0, 1000)
    batch = simulate_batch(prob.coeffs, ConstantControl([0.0]), prob.x0, grid,
                           prob.measure, 100000, 42)
    sol = solve_bsde(prob.coeffs, ConstantControl([0.0]), batch,
                     keep_paths=False)
    rel = abs(sol.y0 - np.exp(-0.1)) / np.exp(-0.1)
    ok = rel <= 5e-3
    announce(4, "BSDE closed form", ok,
             f"Y(0) = {sol.y0:.6f} vs e^-0.1 = {np.exp(-0.1):.6f}, "
             f"rel err {rel:.2e} (M=1e5, dt=1e-3)")


def test_criterion_04_bsde_closed_form_seeds():
    # Multi-seed companion of criterion 04, which stays pinned at seed 42,
    # sized by pathwise standard errors as TestJumpClosedFormSeeds is.
    # exp_decay has f = -r y and h = 1 with no diffusion and no jumps, so
    # the pathwise estimator exp(-r T) h(X_T) of Y(0) has standard error
    # 0, and what is left is the explicit scheme's own error: Y(0) =
    # (1 - r dt)^N, not exp(-r T).  Gate, fixed before the first run: at
    # every seed 1..10, |Y(0) - exp(-r T)| <= 3 SE + |(1 - r dt)^N -
    # exp(-r T)| + 1e-12, and the mean error over the seeds within
    # 3 std / sqrt(10) of the same bias, with the same 1e-12 allowance.
    r, n_steps = 0.1, 200
    prob = build_problem("exp_decay", {"rate": r})
    grid = TimeGrid.uniform(1.0, n_steps)
    exact = np.exp(-r)
    bias = abs((1.0 - r / n_steps) ** n_steps - exact)
    errs, ses = [], []
    for seed in range(1, 11):
        batch = simulate_batch(prob.coeffs, ConstantControl([0.0]), prob.x0, grid,
                               prob.measure, 4000, seed)
        sol = solve_bsde(prob.coeffs, ConstantControl([0.0]), batch, keep_paths=False)
        weighted = exact * sol.terminal
        errs.append(sol.y0 - exact)
        ses.append(weighted.std(ddof=1) / np.sqrt(weighted.size))
    errs, ses = np.array(errs), np.array(ses)
    assert np.all(np.abs(errs) <= 3.0 * ses + bias + 1e-12), (errs, ses, bias)
    assert abs(errs.mean()) <= 3.0 * errs.std(ddof=1) / np.sqrt(10) + bias + 1e-12, errs


def test_criterion_05_flow_gradient_bump_oracle():
    meas = MarkMeasure.from_atoms([((1.0,), 1.0)])
    co = make_coeffs(
        b=lambda t, x, u, nz: 0.5 * np.sin(x),
        sigma=lambda t, x, u, nz: (0.2 + 0.1 * np.cos(x))[..., None],
        g=lambda t, e, x, u, nz: 0.1 * np.tanh(x),
        rho=np.array([0.1]))
    path = sample_driver_path(TimeGrid.uniform(1.0, 10000), 1, meas, 31)
    _, grads = simulate_flow_gradient(co, ConstantControl([0.0]), [0.4], path)
    eps = 1e-4
    up = simulate(co, ConstantControl([0.0]), [0.4 + eps], path).terminal_state
    dn = simulate(co, ConstantControl([0.0]), [0.4 - eps], path).terminal_state
    fd = (up - dn) / (2 * eps)
    gap = float(np.max(np.abs(grads[-1][:, 0] - fd)))
    ok = gap <= 1e-3
    announce(5, "flow gradient vs bump oracle", ok,
             f"max-abs gap {gap:.2e} at dt=1e-4")


def test_criterion_06_coercivity_validator():
    a = 0.3
    tr = assemble_triple(2.0, 1, 10)
    grid = TimeGrid.uniform(1.0, 3)
    co_good = make_coeffs(d=2, sigma=lambda t, x, u, nz: np.broadcast_to(
        np.array([np.sqrt(2 * a), 0.0]), x.shape + (2,)))
    pair_good = assemble_operators(co_good, tr, grid)
    rep_good = check_coercivity(pair_good, pair_good.alpha, pair_good.alpha)
    co_bad = make_coeffs(d=2, sigma=lambda t, x, u, nz: np.broadcast_to(
        np.array([0.0, 0.5]), x.shape + (2,)))
    pair_bad = assemble_operators(co_bad, tr, grid)
    rep_bad = check_coercivity(pair_bad, 0.1, 0.1)
    ok = rep_good.passed and rep_good.min_slack >= -1e-10 and not rep_bad.passed
    announce(6, "coercivity validator", ok,
             f"construction slack {rep_good.min_slack:.2e}, "
             f"degenerate slack {rep_bad.min_slack:.2e}")


def test_criterion_07_galerkin_heat_oracle():
    L = 2.0
    tr = assemble_triple(L, 1, 8)
    grid = TimeGrid.uniform(1.0, 1000)
    co = make_coeffs(sigma=lambda t, x, u, nz: np.ones(x.shape + (1,)))
    pair = assemble_operators(co, tr, grid)
    sol = solve_linear_bseej(pair, None, unit_mode(8), None)
    kappa = 0.5 * (np.pi / (2 * L)) ** 2
    rel = abs(sol.y[0][0][0] - np.exp(-kappa)) / np.exp(-kappa)
    ok = rel <= 1e-3
    announce(7, "Galerkin heat oracle", ok,
             f"y1(0) rel err {rel:.2e} vs exp(-kappa), kappa={kappa:.4f}")


def test_criterion_08_picard_contraction():
    tr = assemble_triple(2.0, 1, 8)
    grid = TimeGrid.uniform(1.0, 100)
    co = make_coeffs(sigma=lambda t, x, u, nz: np.ones(x.shape + (1,)))
    pair = assemble_operators(co, tr, grid)
    sol = solve_nonlinear_bseej(pair, lambda i, t, nz, y, z, r: 0.01 * y,
                                unit_mode(8), None, tol=1e-8)
    h = sol.history
    ratios = [h[i + 1] / h[i] for i in range(len(h) - 1) if h[i] > 0]
    ok = all(r <= 0.5 for r in ratios) and len(h) <= 10 and sol.converged
    announce(8, "Picard contraction", ok,
             f"{len(h)} iterations, ratios {['%.3f' % r for r in ratios]}")


def test_criterion_09_continuous_dependence_scaling():
    tr = assemble_triple(2.0, 1, 8)
    co = make_coeffs(sigma=lambda t, x, u, nz: np.ones(x.shape + (1,)))
    eps_list = (1e-1, 1e-2, 1e-3)
    ks = []
    slopes = []
    for n_steps in (50, 100):
        grid = TimeGrid.uniform(1.0, n_steps)
        pair = assemble_operators(co, tr, grid)
        base = solve_linear_bseej(pair, None, unit_mode(8), None)
        lhs = []
        for eps in eps_list:
            xi2 = unit_mode(8) * (1.0 + eps)
            pert = solve_linear_bseej(pair, None, xi2, None)
            rep = continuous_dependence_check(base, pert, None, None,
                                              unit_mode(8), xi2)
            lhs.append(rep.lhs)
        slopes.append(float(np.polyfit(np.log10(eps_list), np.log10(lhs), 1)[0]))
        ks.append(lhs[0] / (eps_list[0] ** 2))
    k_ratio = max(ks) / min(ks)
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes) and k_ratio <= 2.0
    announce(9, "continuous dependence", ok,
             f"log-log slopes {['%.3f' % s for s in slopes]}, "
             f"K stability ratio {k_ratio:.2f} under dt halving")


def test_criterion_10_energy_identity_decay():
    tr = assemble_triple(2.0, 1, 8)
    co = make_coeffs(sigma=lambda t, x, u, nz: np.ones(x.shape + (1,)))
    residuals = []
    dts = []
    for lvl in range(4):
        n = 50 * 2 ** lvl
        grid = TimeGrid.uniform(1.0, n)
        pair = assemble_operators(co, tr, grid)
        sol = solve_linear_bseej(pair, None, unit_mode(8), None)
        residuals.append(abs(energy_identity_residual(sol, None).residual))
        dts.append(1.0 / n)
    slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    ok = slope >= 0.8
    announce(10, "energy identity decay", ok,
             f"residuals {['%.2e' % r for r in residuals]}, slope {slope:.3f}")


def test_criterion_11_verification_theorem():
    prob = build_problem("smooth1d")
    space = SpatialGrid([-3.0], [3.0], (241,))
    sol = solve_pide_deterministic(prob.coeffs, space,
                                   TimeGrid.uniform(prob.horizon, 160),
                                   prob.control_set, prob.measure)
    rep = verification_run(sol.triplet, prob.coeffs, prob.control_set,
                           prob.measure, prob.x0, 4000, 17,
                           n_alternatives=20)
    gap_ok = abs(rep.gap) <= 2e-2 + rep.ci
    alts_ok = all(a["j"] >= rep.v0 - rep.ci - a["ci"] for a in rep.alternatives)
    ok = gap_ok and alts_ok and len(rep.alternatives) == 20
    worst_alt = min(a["j"] for a in rep.alternatives)
    announce(11, "verification theorem", ok,
             f"|gap| {abs(rep.gap):.4f} <= 2e-2 + CI {rep.ci:.4f}; "
             f"20 alternatives, worst J {worst_alt:.4f} vs V0 {rep.v0:.4f}")


def test_criterion_11_verification_theorem_seeds():
    # Multi-seed companion of criterion 11, which stays pinned at seed 17:
    # the criterion's sizes (4000 paths, 20 alternatives) and its own
    # gates, fixed before the first run, at every seed 1..10, on one PIDE
    # triplet.
    prob = build_problem("smooth1d")
    space = SpatialGrid([-3.0], [3.0], (241,))
    sol = solve_pide_deterministic(prob.coeffs, space,
                                   TimeGrid.uniform(prob.horizon, 160),
                                   prob.control_set, prob.measure)
    failed = []
    for seed in range(1, 11):
        rep = verification_run(sol.triplet, prob.coeffs, prob.control_set,
                               prob.measure, prob.x0, 4000, seed,
                               n_alternatives=20)
        gap_ok = abs(rep.gap) <= 2e-2 + rep.ci
        alts_ok = all(a["j"] >= rep.v0 - rep.ci - a["ci"] for a in rep.alternatives)
        if not (gap_ok and alts_ok and len(rep.alternatives) == 20):
            failed.append(f"seed {seed}: gap {rep.gap:+.4f}, CI {rep.ci:.4f}, "
                          f"worst J {min(a['j'] for a in rep.alternatives):.4f} "
                          f"vs V0 {rep.v0:.4f}")
    assert not failed, "; ".join(failed)


def test_criterion_12_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 9,
        "problem": {"name": "smooth1d"},
        "simulate": {"n_steps": 40, "n_paths": 2},
        "value": {"cells": 40, "n_steps": 20},
        "bseej": {"kind": "heat", "length": 2.0, "modes": 6, "n_steps": 100},
    }))
    runs = []
    for r in range(3):
        out = tmp_path / f"run{r}"
        for sub in ("simulate", "value", "bseej"):
            code = cli_main([sub, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    ok = runs[0] == runs[1] == runs[2] and len(runs[0]) >= 4
    announce(12, "CLI determinism", ok,
             f"3 consecutive runs, {len(runs[0])} CSVs byte-identical: "
             f"{sorted(runs[0])}")
