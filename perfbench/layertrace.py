"""Per-layer timers and counters for the traced run.

Wrappers are installed from the benchmark's files around the public
functions of each layer; the library itself is not changed.  Each
wrapper goes on the name its caller actually looks up: a function that
another module imported by name is replaced in that module's namespace
(and in its home module, for the benchmark's own calls), and methods
are replaced on their class.  One wrapper object serves all the names
of one function, so no call is timed twice.

A span's self time is its duration minus the time covered by the spans
it directly contains.  Spans are summed per name in memory; counts come
from call arguments and results.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (metric, span, field): field says whether the metric is the span's
# total time or its self time, both in seconds per round.
TIME_METRICS = [
    ("drivers.sample_path_s", "drivers.sample_path", "total"),
    ("forward.simulate_self_s", "forward.simulate", "self"),
    ("bsde.solve_s", "bsde.solve", "total"),
    ("bsde.semigroup_self_s", "bsde.semigroup", "self"),
    ("dpp.table_self_s", "dpp.table", "self"),
    ("dpp.residual_self_s", "dpp.residual", "self"),
    ("dpp.interpolate_s", "dpp.interpolate", "total"),
    ("pide.solve_s", "pide.solve", "total"),
    ("pide.verification_self_s", "pide.verification", "self"),
    ("galerkin.assemble_s", "galerkin.assemble", "total"),
    ("galerkin.coercivity_s", "galerkin.coercivity", "total"),
    ("galerkin.linear_solve_self_s", "galerkin.linear_solve", "self"),
    ("galerkin.picard_self_s", "galerkin.picard", "self"),
    ("galerkin.eval_basis_s", "galerkin.eval_basis", "total"),
    ("galerkin.branches_s", "galerkin.branches", "total"),
]

COUNT_METRICS = [
    "drivers.paths",
    "drivers.steps_drawn",
    "forward.batches",
    "forward.path_steps",
    "forward.event_steps",
    "bsde.regressions",
    "bsde.regression_rows",
    "bsde.ridge_fallbacks",
    "dpp.table_cell_steps",
    "dpp.interpolate_calls",
    "dpp.interpolate_points",
    "galerkin.linear_solves",
    "galerkin.picard_iterations",
    "galerkin.eval_basis_points",
    "galerkin.branches_calls",
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_paths(c, args, kwargs, path):
    c["drivers.paths"] += 1
    c["drivers.steps_drawn"] += path.brownian_increments.shape[0]


def _count_batch(c, args, kwargs, batch):
    steps, paths = batch.dw.shape[:2]
    c["forward.batches"] += 1
    c["forward.path_steps"] += steps * paths
    c["forward.event_steps"] += int(np.count_nonzero(batch.jump_counts.sum(axis=2)))


def _count_bsde(c, args, kwargs, sol):
    nodes = len(sol.diagnostics)
    c["bsde.regressions"] += nodes
    c["bsde.regression_rows"] += nodes * _arg(args, kwargs, 2, "batch").n_samples
    c["bsde.ridge_fallbacks"] += sum(bool(d["ridge_fallback"]) for d in sol.diagnostics)


def _count_table(c, args, kwargs, table):
    c["dpp.table_cell_steps"] += table.values[0].size * table.grid.n_steps


def _count_interpolate(c, args, kwargs, result):
    c["dpp.interpolate_calls"] += 1
    c["dpp.interpolate_points"] += np.atleast_2d(_arg(args, kwargs, 2, "points")).shape[0]


def _count_linear(c, args, kwargs, sol):
    c["galerkin.linear_solves"] += 1


def _count_picard(c, args, kwargs, sol):
    c["galerkin.picard_iterations"] += len(sol.history)


def _count_eval_basis(c, args, kwargs, result):
    c["galerkin.eval_basis_points"] += np.size(_arg(args, kwargs, 1, "x"))


def _count_branches(c, args, kwargs, result):
    c["galerkin.branches_calls"] += 1


# (span, home owner, attribute, other modules that imported it by name,
# counter).  Owners are dotted paths inside the package.
TARGETS = [
    ("drivers.sample_path", "drivers", "sample_driver_path", ["forward"], _count_paths),
    ("forward.simulate", "forward", "simulate_batch", ["bsde", "dpp", "pide"],
     _count_batch),
    ("bsde.solve", "bsde", "solve_bsde", ["dpp", "pide"], _count_bsde),
    ("bsde.semigroup", "bsde", "backward_semigroup", ["dpp"], None),
    ("dpp.table", "dpp", "compute_value_table", [], _count_table),
    ("dpp.residual", "dpp", "dpp_residual", [], None),
    ("dpp.interpolate", "dpp.Lattice", "interpolate", [], _count_interpolate),
    ("pide.solve", "pide", "solve_pide_deterministic", [], None),
    ("pide.verification", "pide", "verification_run", [], None),
    ("galerkin.assemble", "galerkin", "assemble_operators", [], None),
    ("galerkin.coercivity", "galerkin", "check_coercivity", [], None),
    ("galerkin.linear_solve", "galerkin", "solve_linear_bseej", [], _count_linear),
    ("galerkin.picard", "galerkin", "solve_nonlinear_bseej", [], _count_picard),
    ("galerkin.eval_basis", "galerkin.GelfandTriple", "eval_basis", [],
     _count_eval_basis),
    ("galerkin.branches", "galerkin.BinomialJumpTree", "branches", [],
     _count_branches),
]


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"jumphjb.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


class Tracer:
    """Span timers and counters around the TARGETS, per round.

    ``missing`` lists the names that could not be wrapped because the
    library no longer has them, or binds them to another object; their
    calls are not traced.
    """

    def __init__(self):
        self._open = []          # time covered by children, per open span
        self._saved = []         # (owner, attribute, original) to restore
        self.missing = []
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, span, fn, counter):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.total[span] += elapsed
                self.self_time[span] += elapsed - inner
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for span, home, attr, importers, counter in TARGETS:
            owner = _resolve(home)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self._wrap(span, original, counter)
            for name in [home] + importers:
                ns = _resolve(name)
                if getattr(ns, attr, None) is not original:
                    self.missing.append(f"{name}.{attr}")
                    continue
                self._saved.append((ns, attr, original))
                setattr(ns, attr, traced)

    def uninstall(self):
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def metrics(self) -> dict:
        out = {}
        for name, span, field in TIME_METRICS:
            out[name] = (self.total if field == "total" else self.self_time)[span]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        return out
