"""The CLI's config reader, swept over every key that each subcommand reads.

``SHARED`` is one small config holding every section, and each section
names every key that its subcommand reads; ``test_shared_names_every_key_read``
keeps it complete.  A bad value exits 0 or 2, never with a traceback, and
a name that no run reads exits 2 naming ``path.key``.
"""

import copy
import json

import pytest

from jumphjb.cli import RUNNERS, main

SHARED = {
    "seed": 11,
    "out_dir": ".",
    "problem": {"name": "smooth1d", "params": {
        "drift_scale": 0.4, "sigma": [0.4, 0.1], "jump_size": 0.25, "jump_weight": 0.3,
        "cost_x": 0.5, "cost_xu": 0.3, "cost_k": 0.05, "control_max": 0.6,
        "n_controls": 2, "horizon": 0.5, "x0": 0.0}},
    "simulate": {"n_steps": 8, "n_paths": 2,
                 "control": {"type": "constant", "value": [0.1]}},
    "bsde": {"n_steps": 4, "n_samples": 100, "basis_degree": 2, "ridge": 1e-8,
             "control": {"type": "openloop", "values": [[0.1], [0.2], [0.3], [0.4]]}},
    "value": {"cells": 21, "box": [-3.0, 3.0], "n_steps": 8},
    "dpp_check": {"cells": 21, "box": [-3.0, 3.0], "n_steps": 8, "delta_nodes": 1,
                  "n_samples": 100, "t_node": 0, "x": [0.0]},
    "pide": {"nodes": 41, "box": [-3.0, 3.0], "n_steps": 40},
    "verify": {"n_samples": 100, "n_alternatives": 2},
    "bseej": {"kind": "integration", "length": 2.0, "modes": 4, "n_steps": 20,
              "horizon": 1.0, "sigma": 1.0, "forcing": 0.3},
    "hjb_weak": {"modes": 6, "length": 6.0, "n_steps": 10, "out_nodes": 21,
                 "out_box": [-3.0, 3.0], "dump_operators": False, "tol": 1e-8,
                 "max_iter": 50},
    "convergence": {"study": "forward_strong", "halvings": 1, "base_steps": 4,
                    "n_paths": 3},
    "validate_assumptions": {"n_samples": 20, "box_half_width": 2.0},
}

# The other two studies, each with every key it reads.
STUDIES = {
    "energy_identity": {"study": "energy_identity", "halvings": 1, "length": 2.0,
                        "modes": 4, "base_steps": 10},
    "dpp_residual": {"study": "dpp_residual", "halvings": 1, "base_steps": 4,
                     "base_cells": 10, "box": [-3.0, 3.0], "n_samples": 100},
}

BAD = ["x", -1, 0, 2.7, True, None, [], {}, 1e9, 10 ** 21, float("nan")]
BAD_IDS = ["str", "-1", "0", "2.7", "true", "null", "list", "object", "1e9", "1e21",
           "nan"]


def configs():
    """(subcommand, config) for every subcommand and study."""
    for sub in RUNNERS:
        yield sub, SHARED
    for study in STUDIES.values():
        yield "convergence", {**SHARED, "convergence": study}


def key_paths(sub, cfg):
    """Every key path that ``sub`` reads in ``cfg``: its own section (and
    ``pide`` for verify), their control objects, and on ``simulate`` the
    top level, ``problem`` and ``problem.params``."""
    names = [sub.replace("-", "_")] + (["pide"] if sub == "verify" else [])
    for name in names:
        for key, val in cfg[name].items():
            yield (name, key)
            if key == "control":
                yield from ((name, key, k) for k in val)
    if sub == "simulate":
        yield from ((key,) for key in ("seed", "out_dir", "problem"))
        yield from (("problem", key) for key in cfg["problem"])
        yield from (("problem", "params", key) for key in cfg["problem"]["params"])


def with_value(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    obj = cfg
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return cfg


def run(tmp_path, sub, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return main([sub, "--config", str(path), "--out", str(tmp_path / "o")])


SWEEP = [(sub, cfg, path) for sub, cfg in configs() for path in key_paths(sub, cfg)]


def test_shared_config_runs_every_subcommand(tmp_path):
    # Every subcommand ignores the sections of the others.
    for sub, cfg in configs():
        assert run(tmp_path, sub, cfg) == 0, (sub, cfg.get("convergence"))


def test_shared_names_every_key_read(tmp_path, monkeypatch):
    from jumphjb.problems import Section

    seen = {}
    done = Section.done

    def record(self, *known):
        seen.setdefault(self.path, set()).update(self.read)
        return done(self, *known)

    monkeypatch.setattr(Section, "done", record)
    for sub, cfg in configs():
        assert run(tmp_path, sub, cfg) == 0
    named = {}
    for sub, cfg in configs():
        for path in key_paths(sub, cfg):
            if len(path) > 1:
                named.setdefault(".".join(path[:-1]), set()).add(path[-1])
    del seen["config"]
    assert seen == named


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_bad_values_exit_0_or_2(tmp_path, capsys, value):
    for sub, cfg, path in SWEEP:
        code = run(tmp_path, sub, with_value(cfg, path, value))
        # A coefficient param that drives the state out of range, such as
        # a drift scale of 1e9, is a numeric failure, not a config error.
        allowed = (0, 2, 3) if path[:2] == ("problem", "params") else (0, 2)
        assert code in allowed, (sub, path, value, code, capsys.readouterr().err)


# Each object that a run reads, as (subcommand, config, path to a new key).
UNKNOWN = [(sub, cfg, path + ("bogus",)) for sub, cfg in configs()
           for path in sorted({p[:-1] for p in key_paths(sub, cfg)})]


@pytest.mark.parametrize("sub, cfg, path", UNKNOWN, ids=[
    ".".join(path[:-1]) or "config" for sub, cfg, path in UNKNOWN])
def test_unknown_key_is_config_error(tmp_path, capsys, sub, cfg, path):
    assert run(tmp_path, sub, with_value(cfg, path, 1)) == 2
    field = ".".join(path) if len(path) > 1 else "config.bogus"
    assert f"{field}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["valu", "pide_check", "n_steps"])
def test_unknown_top_level_name_is_config_error(tmp_path, capsys, name):
    assert run(tmp_path, "simulate", {**SHARED, name: {}}) == 2
    assert f"config error: config.{name}: unknown key" in capsys.readouterr().err


def test_key_of_another_study_is_config_error(tmp_path, capsys):
    cfg = {**SHARED, "convergence": {**STUDIES["energy_identity"], "n_paths": 3}}
    assert run(tmp_path, "convergence", cfg) == 2
    assert "config error: convergence.n_paths: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [5, None, []], ids=["int", "null", "list"])
def test_bad_out_dir_is_config_error(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**SHARED, "out_dir": bad}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "config error: config.out_dir: expected a string" in capsys.readouterr().err
    assert not (tmp_path / "failure_diagnostic.json").exists()


@pytest.mark.parametrize("sub, path, value", [
    ("simulate", ("simulate", "n_steps"), 10 ** 21),
    ("simulate", ("simulate", "n_paths"), 2 ** 63),
    ("convergence", ("convergence", "halvings"), 100),
    ("convergence", ("convergence", "halvings"), 60),
])
def test_count_reaching_2_63_is_config_error(tmp_path, capsys, sub, path, value):
    # The forward_strong study's finest level has 4 * 4 * 2**halvings steps.
    assert run(tmp_path, sub, with_value(SHARED, path, value)) == 2
    assert f"config error: {'.'.join(path)}: expected an integer" in capsys.readouterr().err
    assert not (tmp_path / "o" / "failure_diagnostic.json").exists()


@pytest.mark.parametrize("study, halvings", [("energy_identity", 60), ("dpp_residual", 60)])
def test_ladder_reaching_2_63_is_config_error(tmp_path, capsys, study, halvings):
    cfg = {**SHARED, "convergence": {**STUDIES[study], "halvings": halvings}}
    assert run(tmp_path, "convergence", cfg) == 2
    assert "config error: convergence.halvings: expected an integer" in capsys.readouterr().err
