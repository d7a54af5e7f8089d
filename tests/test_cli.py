import importlib.metadata
import json
import subprocess
import sys

import pytest

from jumphjb import cli
from jumphjb.bsde import PolynomialBasis, solve_bsde
from jumphjb.cli import main
from jumphjb.drivers import TimeGrid
from jumphjb.forward import ConstantControl, simulate_batch
from jumphjb.problems import build_problem


def run_cli(args):
    return main(args)


def write_cfg(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


BASE = {
    "seed": 7,
    "problem": {"name": "zero", "params": {"h_const": 2.0}},
    "simulate": {"n_steps": 8, "n_paths": 2},
}


class TestRuns:
    def test_simulate_zero_dynamics_constant_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", BASE)
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "trajectory_000.csv").read_text().splitlines()
        assert lines[0] == "t,X_1,u_1,event"
        states = {line.split(",")[1] for line in lines[1:]}
        assert states == {"0.0"}

    def test_value_and_manifest(self, tmp_path):
        payload = dict(BASE)
        payload["value"] = {"cells": 11, "n_steps": 5}
        cfg = write_cfg(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert run_cli(["value", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "value"
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"value_report.json", "value_table.csv"}
        assert "jumphjb" in manifest["versions"]
        report = json.loads((out / "value_report.json").read_text())
        assert report["V0"] == pytest.approx(2.0, abs=1e-9)

    def test_run_without_scipy_writes_its_manifest(self, tmp_path, monkeypatch):
        # scipy is a test dependency only: with it uninstalled, neither
        # importable nor in the package metadata, a run still exits 0
        # and its manifest records what the library imports.
        real = importlib.metadata.version

        def version(name):
            if name == "scipy":
                raise importlib.metadata.PackageNotFoundError(name)
            return real(name)

        monkeypatch.setattr(importlib.metadata, "version", version)
        monkeypatch.setattr(cli, "version", version, raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)
        payload = dict(BASE, value={"cells": 11, "n_steps": 5})
        cfg = write_cfg(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert run_cli(["value", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["versions"]) == ["jumphjb", "numpy"]

    def test_bseej_heat(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 3,
            "bseej": {"kind": "heat", "length": 2.0, "modes": 6, "n_steps": 400},
        })
        out = tmp_path / "o"
        assert run_cli(["bseej", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "bseej_report.json").read_text())
        assert rep["y0"][0] == pytest.approx(rep["first_mode_decay_target"],
                                             rel=2e-3)
        assert abs(rep["weak_residual"]) < 1e-12

    def test_validate_assumptions(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 5,
            "problem": {"name": "linear1d"},
            "validate_assumptions": {"n_samples": 80},
        })
        out = tmp_path / "o"
        assert run_cli(["validate-assumptions", "--config", cfg,
                        "--out", str(out)]) == 0
        rep = json.loads((out / "validation_report.json").read_text())
        assert rep["all_passed"]

    def test_bsde_table_matches_per_node_loop(self, tmp_path):
        # The CLI averages over the samples with axis reductions; the
        # per-node loop below is the reference, bit for bit.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 4, "problem": {"name": "smooth1d"},
            "bsde": {"n_steps": 6, "n_samples": 300, "basis_degree": 2}})
        assert run_cli(["bsde", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        prob = build_problem("smooth1d")
        grid = TimeGrid.uniform(prob.horizon, 6)
        control = ConstantControl([0.0])
        batch = simulate_batch(prob.coeffs, control, prob.x0, grid, prob.measure, 300, 4)
        sol = solve_bsde(prob.coeffs, control, batch, PolynomialBasis(degree=2))
        lines = (tmp_path / "o" / "bsde_solution.csv").read_text().splitlines()
        assert lines[0] == "t,Y_mean,Y_std,Z1_mean,Z2_mean,K1_mean"
        for i, line in enumerate(lines[1:]):
            want = [grid.nodes[i], sol.Y[i].mean(), sol.Y[i].std()]
            if i < 6:
                want += list(sol.Z[i].mean(axis=0)) + list(sol.K[i].mean(axis=0))
            else:
                want += [0.0] * 3
            assert line.split(",") == [repr(float(v)) for v in want], i

    def test_convergence_forward(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 2,
            "problem": {"name": "smooth1d"},
            "convergence": {"study": "forward_strong", "halvings": 2,
                            "base_steps": 8, "n_paths": 15},
        })
        out = tmp_path / "o"
        assert run_cli(["convergence", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "convergence_report.json").read_text())
        assert rep["fitted_slope"] >= 0.4


class TestReproducibility:
    def test_byte_identical_csvs(self, tmp_path):
        payload = dict(BASE)
        payload["value"] = {"cells": 11, "n_steps": 5}
        cfg = write_cfg(tmp_path / "c.json", payload)
        blobs = []
        for r in range(2):
            out = tmp_path / f"o{r}"
            assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
            assert run_cli(["value", "--config", cfg, "--out", str(out)]) == 0
            blobs.append({
                p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            })
        assert blobs[0] == blobs[1]

    def test_manifest_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", BASE)
        outs = []
        for r in range(2):
            out = tmp_path / f"m{r}"
            assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "manifest.json").read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_missing_seed_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {"problem": {"name": "zero"}})
        assert run_cli(["simulate", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 2

    def test_unknown_problem_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json",
                        {"seed": 1, "problem": {"name": "nope"}})
        assert run_cli(["simulate", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 2

    def test_unknown_param_path_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "problem": {"name": "zero", "params": {"bogus": 1}},
        })
        assert run_cli(["simulate", "--config", cfg,
                        "--out", str(tmp_path / "o")]) == 2
        assert "problem.params" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, section, bad", [
        ("value", "value", {"cells": 0}),
        ("pide", "pide", {"nodes": 1}),
        ("value", "value", {"box": [1.0, -1.0]}),
        ("value", "value", {"box": [1.0]}),
        ("dpp-check", "dpp_check", {"box": [0.5, 0.5]}),
        ("hjb-weak", "hjb_weak", {"out_nodes": 1}),
        ("convergence", "convergence", {"study": "dpp_residual", "base_cells": 0}),
        ("value", "value", {"cells": 12.7}),
        ("pide", "pide", {"nodes": 41.5}),
        ("value", "value", {"box": [float("nan"), 1.0]}),
        ("value", "value", {"box": [float("-inf"), 1.0]}),
        ("dpp-check", "dpp_check", {"box": [-1e308, 1e308]}),
        ("pide", "pide", {"box": [-3.0, float("nan")]}),
    ])
    def test_bad_grid_is_config_error(self, tmp_path, capsys, sub, section, bad):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"}, section: bad})
        assert run_cli([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, section, bad", [
        ("simulate", "simulate", {"n_paths": "3"}),
        ("simulate", "simulate", {"n_steps": 0}),
        ("bsde", "bsde", {"n_samples": 0}),
        ("validate-assumptions", "validate_assumptions", {"n_samples": 0}),
        ("verify", "verify", {"n_alternatives": -1}),
        ("hjb-weak", "hjb_weak", {"max_iter": True}),
        ("convergence", "convergence", {"halvings": 0}),
        ("bseej", "bseej", {"modes": 2.5}),
        ("bsde", "bsde", {"basis_degree": -1}),
        ("dpp-check", "dpp_check", {"t_node": 1.5}),
    ])
    def test_bad_count_is_config_error(self, tmp_path, capsys, sub, section, bad):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"}, section: bad})
        out = tmp_path / "o"
        assert run_cli([sub, "--config", cfg, "--out", str(out)]) == 2
        key, = bad
        assert f"config error: {section}.{key}: expected an integer" in capsys.readouterr().err
        assert not (out / "failure_diagnostic.json").exists()

    @pytest.mark.parametrize("bad", [True, None, {}], ids=["true", "null", "object"])
    def test_bad_base_cells_is_config_error(self, tmp_path, capsys, bad):
        # The count is checked before the ladder multiplies it.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"}, "convergence": {
                "study": "dpp_residual", "halvings": 1, "base_steps": 4,
                "base_cells": bad, "n_samples": 20}})
        out = tmp_path / "o"
        assert run_cli(["convergence", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: convergence.base_cells: expected an integer" in err
        assert "Traceback" not in err
        assert not (out / "failure_diagnostic.json").exists()

    @pytest.mark.parametrize("sub, section, bad", [
        ("hjb-weak", "hjb_weak", {"tol": "x"}),
        ("bseej", "bseej", {"length": "x"}),
        ("bseej", "bseej", {"sigma": "a"}),
        ("bseej", "bseej", {"forcing": "a"}),
        ("bsde", "bsde", {"ridge": "a"}),
        ("validate-assumptions", "validate_assumptions", {"box_half_width": "a"}),
        ("convergence", "convergence", {"study": "energy_identity", "length": "x"}),
        ("bseej", "bseej", {"horizon": 0}),
        ("bseej", "bseej", {"horizon": -1}),
        ("bseej", "bseej", {"length": True}),
        ("hjb-weak", "hjb_weak", {"length": -2.0}),
        ("hjb-weak", "hjb_weak", {"tol": float("nan")}),
        ("bseej", "bseej", {"sigma": float("inf")}),
        ("bsde", "bsde", {"ridge": -1e-8}),
    ])
    def test_bad_real_is_config_error(self, tmp_path, capsys, sub, section, bad):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"}, section: bad})
        out = tmp_path / "o"
        assert run_cli([sub, "--config", cfg, "--out", str(out)]) == 2
        key, = (k for k in bad if k != "study")
        err = capsys.readouterr().err
        assert f"config error: {section}.{key}: expected a finite real number" in err
        assert not (out / "failure_diagnostic.json").exists()

    @pytest.mark.parametrize("sub", ["simulate", "pide", "hjb-weak"])
    def test_bad_problem_horizon_is_config_error(self, tmp_path, capsys, sub):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d", "params": {"horizon": -1}}})
        out = tmp_path / "o"
        assert run_cli([sub, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: need horizon > 0" in capsys.readouterr().err
        assert not (out / "failure_diagnostic.json").exists()

    def test_count_above_a_byte_is_config_error(self, tmp_path, capsys):
        # One step at w*dt = 1000 draws far more than 255 events.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d", "params": {"jump_weight": 1000.0,
                                                                  "horizon": 1.0}},
            "simulate": {"n_steps": 1}})
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: step 0 drew" in capsys.readouterr().err
        assert not (out / "failure_diagnostic.json").exists()

    @pytest.mark.parametrize("key, bad", [
        ("horizon", "x"), ("x0", "a"), ("sigma", "a"), ("n_controls", 0),
        ("jump_weight", -1), ("n_controls", 2.7), ("n_controls", "2"), ("horizon", True),
    ])
    def test_bad_problem_param_is_config_error(self, tmp_path, capsys, key, bad):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d", "params": {key: bad}}})
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: problem.params (smooth1d): " in capsys.readouterr().err
        assert not (out / "failure_diagnostic.json").exists()

    @pytest.mark.parametrize("sub, section, bad, field", [
        ("dpp-check", "dpp_check", {"x": "a"}, "dpp_check.x"),
        ("hjb-weak", "hjb_weak", {"dump_operators": "no", "modes": 4, "n_steps": 10,
                                  "out_nodes": 21}, "hjb_weak.dump_operators"),
        ("simulate", "simulate", {"control": "zero"}, "simulate.control"),
        ("simulate", "simulate", {"control": {"type": "openloop"}}, "simulate.control.values"),
        ("simulate", "simulate", {"control": {"type": "constant", "value": "a"}},
         "simulate.control.value"),
        ("simulate", "simulate", {"control": {"type": "constant", "value": [0.1, 0.2]}},
         "simulate.control.value"),
        ("bsde", "bsde", {"n_steps": 4, "n_samples": 50, "control": {
            "type": "openloop", "values": [0.1, 0.2, 0.3, 0.4]}}, "bsde.control.values"),
    ])
    def test_bad_section_value_is_config_error(self, tmp_path, capsys, sub, section, bad,
                                               field):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"}, section: bad})
        out = tmp_path / "o"
        assert run_cli([sub, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: expected" in capsys.readouterr().err
        assert not (out / "failure_diagnostic.json").exists()
        assert not (out / "operators.csv").exists()

    def test_well_formed_controls_run(self, tmp_path):
        # One row of m = 1 reals per step, as the CLI documents.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"},
            "simulate": {"n_steps": 4, "control": {"type": "constant", "value": [0.3]}},
            "bsde": {"n_steps": 4, "n_samples": 50, "control": {
                "type": "openloop", "values": [[0.1], [0.2], [0.3], [0.4]]}}})
        for sub in ("simulate", "bsde"):
            assert run_cli([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        lines = (tmp_path / "simulate" / "trajectory_000.csv").read_text().splitlines()
        assert {line.split(",")[2] for line in lines[1:]} == {"0.3"}

    def test_real_bounds_admit_their_edge(self, tmp_path):
        # A zero ridge is plain least squares; integers are real numbers.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "zero"},
            "bsde": {"ridge": 0, "n_steps": 4, "n_samples": 50},
            "bseej": {"length": 2, "horizon": 1, "sigma": 1, "modes": 2,
                      "n_steps": 4}})
        for sub in ("bsde", "bseej"):
            assert run_cli([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0

    def test_cfl_violation_is_numeric_failure(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "problem": {"name": "smooth1d"},
            "pide": {"nodes": 241, "n_steps": 10},
        })
        out = tmp_path / "o"
        assert run_cli(["pide", "--config", cfg, "--out", str(out)]) == 3
        diag = json.loads((out / "failure_diagnostic.json").read_text())
        assert diag["error"] == "CflViolationError"

    def test_pide_without_dynamics_runs(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "problem": {"name": "exp_decay"},
            "pide": {"nodes": 41, "n_steps": 40},
        })
        out = tmp_path / "o"
        assert run_cli(["pide", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "pide_report.json").read_text())
        assert rep["V0"] == pytest.approx(0.9975 ** 40, rel=1e-12)

    def test_verify_single_control_dominates_itself(self, tmp_path):
        # One control: every alternative is the feedback's own atom, priced
        # on the feedback's banks, so its paired difference is exactly 0.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 11,
            "problem": {"name": "exp_decay"},
            "pide": {"nodes": 41, "n_steps": 40},
        })
        out = tmp_path / "o"
        assert run_cli(["verify", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert rep["all_alternatives_dominated"] is True
        assert [a["diff"] for a in rep["alternatives"]] == [0.0] * 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["noise_scheme"] == 3
        # The ridge leaves the intercept alone, so the BSDE cost of the
        # only control is the closed form (1 - r dt)^40 of exp_decay.
        assert rep["J_feedback"] == pytest.approx(0.9975 ** 40, rel=1e-12)

    def test_diagnostic_goes_to_config_out_dir(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "from_config"
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "out_dir": str(out),
            "problem": {"name": "smooth1d"},
            "pide": {"nodes": 241, "n_steps": 10},
        })
        assert run_cli(["pide", "--config", cfg]) == 3
        assert (out / "failure_diagnostic.json").exists()
        assert not (cwd / "failure_diagnostic.json").exists()

    def test_oversized_batch_is_numeric_failure(self, tmp_path):
        # The size guard refuses the batch before allocating anything.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "problem": {"name": "zero"},
            "bsde": {"n_samples": 10 ** 12},
        })
        out = tmp_path / "o"
        assert run_cli(["bsde", "--config", cfg, "--out", str(out)]) == 3
        diag = json.loads((out / "failure_diagnostic.json").read_text())
        assert diag["error"] == "MemoryError"

    @pytest.mark.parametrize("sub, key", [
        ("simulate", "n_steps"), ("bsde", "n_steps"), ("value", "n_steps"),
        ("pide", "n_steps"), ("hjb-weak", "n_steps"), ("bseej", "n_steps"),
        ("hjb-weak", "modes"), ("bseej", "modes"), ("value", "cells"), ("pide", "nodes"),
        ("hjb-weak", "out_nodes"), ("bsde", "basis_degree"), ("verify", "n_alternatives")])
    def test_count_too_large_to_allocate_is_numeric_failure(self, tmp_path, sub, key):
        # 2**62 passes the count reader; the time grid, the space grid,
        # the Galerkin basis, the regression features or the alternative
        # controls refuse it by its size before numpy sees it.
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"},
            sub.replace("-", "_"): {key: 2 ** 62}})
        out = tmp_path / "o"
        assert run_cli([sub, "--config", cfg, "--out", str(out)]) == 3
        diag = json.loads((out / "failure_diagnostic.json").read_text())
        assert diag["error"] == "MemoryError"

    @pytest.mark.parametrize("study, settings, first_solve", [
        ("energy_identity", {"base_steps": 10, "halvings": 58}, "solve_linear_bseej"),
        ("dpp_residual", {"base_steps": 8, "base_cells": 40, "halvings": 50},
         "compute_value_table"),
    ])
    def test_ladder_too_large_is_refused_before_level_0(self, tmp_path, monkeypatch,
                                                        study, settings, first_solve):
        def refuse(*args, **kwargs):
            raise AssertionError("level 0 ran before the finest level was sized")

        monkeypatch.setattr(cli, first_solve, refuse)
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1, "problem": {"name": "smooth1d"},
            "convergence": {"study": study, **settings}})
        out = tmp_path / "o"
        assert run_cli(["convergence", "--config", cfg, "--out", str(out)]) == 3
        diag = json.loads((out / "failure_diagnostic.json").read_text())
        assert diag["error"] == "MemoryError"

    def test_threads_option_removed(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", BASE)
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2

    def test_nonconvergence_exit(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "problem": {"name": "smooth1d"},
            "hjb_weak": {"modes": 16, "n_steps": 10, "max_iter": 1,
                         "tol": 1e-12},
        })
        out = tmp_path / "o"
        assert run_cli(["hjb-weak", "--config", cfg, "--out", str(out)]) == 4
        diag = json.loads((out / "failure_diagnostic.json").read_text())
        assert diag["error"] == "NotConverged"
        assert len(diag["history"]) == 1


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "jumphjb.cli", "simulate",
             "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0
