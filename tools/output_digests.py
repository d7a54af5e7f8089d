"""Print a SHA-256 digest of every CLI output on small fixed configs.

A refactor that claims unchanged behaviour is checked by running this
script before and after it and diffing the two listings:

    python3 tools/output_digests.py > before.txt
    ... apply the change ...
    python3 tools/output_digests.py > after.txt
    diff before.txt after.txt

Each subcommand runs on every problem family with small inline configs
in a temporary directory, and ``hjb-weak`` runs twice more: on
``random_terminal`` at the CLI's default sizes, and on ``smooth1d``
with ``dump_operators``, which also writes the assembled matrices.  Pairs the CLI refuses
with a config error (a lattice solver on random coefficients, a weak
solve on a degenerate diffusion) write nothing and show up only as
their exit line; a run that raises shows the exception's type in place
of the exit code.  Each run prints ``<subcommand>/<problem> exit
<code>`` and then ``<subcommand>/<problem>/<file> <sha256>`` for every
file it wrote except ``manifest.json``, whose config echo and library
versions are not results.  Takes a few seconds.

``--keep DIR`` also copies every hashed file to
``DIR/<subcommand>__<problem>/<file>``, so that two kept trees can be
compared number by number with ``tools/output_diffs.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jumphjb.cli import main  # noqa: E402

SEED = 11
PROBLEMS = ("exp_decay", "linear1d", "random_terminal", "smooth1d", "zero")
PIDE = {"nodes": 41, "n_steps": 40}

# (subcommand, label, config sections); problem runs get a "problem" section.
PROBLEM_RUNS = [
    ("simulate", "simulate", {"simulate": {"n_steps": 8, "n_paths": 2}}),
    ("bsde", "bsde", {"bsde": {"n_steps": 10, "n_samples": 300, "basis_degree": 2}}),
    ("value", "value", {"value": {"cells": 21, "n_steps": 8}}),
    ("dpp-check", "dpp-check", {"dpp_check": {"cells": 21, "n_steps": 8,
                                              "n_samples": 300}}),
    ("pide", "pide", {"pide": PIDE}),
    ("verify", "verify", {"pide": PIDE,
                          "verify": {"n_samples": 200, "n_alternatives": 2}}),
    ("hjb-weak", "hjb-weak", {"hjb_weak": {"modes": 8, "n_steps": 10,
                                           "out_nodes": 21}}),
    ("convergence", "convergence[forward_strong]", {"convergence": {
        "study": "forward_strong", "halvings": 1, "base_steps": 4, "n_paths": 3}}),
    ("convergence", "convergence[dpp_residual]", {"convergence": {
        "study": "dpp_residual", "halvings": 1, "base_steps": 4, "base_cells": 10,
        "n_samples": 200}}),
    ("validate-assumptions", "validate-assumptions",
     {"validate_assumptions": {"n_samples": 20}}),
]

PLAIN_RUNS = [
    ("bseej", "bseej", "heat", {"bseej": {"kind": "heat", "modes": 4, "n_steps": 20}}),
    ("bseej", "bseej", "integration", {"bseej": {"kind": "integration", "modes": 4,
                                                 "n_steps": 20}}),
    ("convergence", "convergence[energy_identity]", "none", {"convergence": {
        "study": "energy_identity", "halvings": 1, "modes": 4, "base_steps": 10}}),
    # CLI defaults (15 steps, 24 modes): a long Picard run on the
    # full-size scenario lattice.
    ("hjb-weak", "hjb-weak[defaults]", "random_terminal",
     {"problem": {"name": "random_terminal"}}),
    ("hjb-weak", "hjb-weak[dump_operators]", "smooth1d",
     {"problem": {"name": "smooth1d"}, "hjb_weak": {
         "modes": 8, "n_steps": 10, "out_nodes": 21, "dump_operators": True}}),
]


def _runs():
    for sub, label, sections in PROBLEM_RUNS:
        for name in PROBLEMS:
            yield sub, f"{label}/{name}", dict(sections, problem={"name": name})
    for sub, label, tag, sections in PLAIN_RUNS:
        yield sub, f"{label}/{tag}", sections


def _run(workdir: Path, sub: str, label: str, sections: dict,
         keep: Path | None = None) -> list:
    run_dir = workdir / label.replace("/", "__")
    out = run_dir / "out"
    run_dir.mkdir(parents=True)
    cfg = run_dir / "config.json"
    cfg.write_text(json.dumps(dict(sections, seed=SEED), sort_keys=True))
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([sub, "--config", str(cfg), "--out", str(out)])
    except Exception as exc:  # a crash is a result to compare, not an abort
        code = type(exc).__name__
    lines = [f"{label} exit {code}"]
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{label}/{path.name} {digest}")
                if keep is not None:
                    dest = keep / run_dir.name
                    dest.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, dest / path.name)
    return lines


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", type=Path, metavar="DIR",
                    help="copy every hashed output into DIR")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for sub, label, sections in _runs():
            print("\n".join(_run(Path(tmp), sub, label, sections, args.keep)),
                  flush=True)
