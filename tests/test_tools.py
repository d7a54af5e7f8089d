"""The comparison tools under ``tools/``."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_diffs = load_tool("output_diffs")

HEADER = "t,Y_mean,Y_std,residual\n"


def write_csv(path, rows):
    path.write_text(HEADER + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    return path


def solution_rows(y_std0=1.1e-16, y_mean1=1.2, residual1=2e-16):
    """A BSDE summary: Y_std is O(1) but for the deviation of equal
    values at t = 0; the residual column is all of rounding size."""
    return [(0.0, 1.05, y_std0, 1e-16),
            (0.5, y_mean1, 0.31, residual1),
            (1.0, 1.3, 0.62, 1e-16)]


def rel(line):
    """The printed largest relative difference, to its 4 digits."""
    return float(line.split("max rel ")[1].split(";")[0])


class TestOutputDiffs:
    def test_rounding_noise_cell_is_not_a_relative_difference(self, tmp_path):
        before = write_csv(tmp_path / "a.csv", solution_rows())
        after = write_csv(tmp_path / "b.csv", solution_rows(y_std0=2.2e-16))
        line = output_diffs.compare(before, after)
        assert rel(line) == 0.0
        assert "1 cells below the floor differ" in line
        assert line.startswith("max abs 1.100e-16")

    def test_real_change_is_still_reported(self, tmp_path):
        before = write_csv(tmp_path / "a.csv", solution_rows())
        after = write_csv(tmp_path / "b.csv",
                          solution_rows(y_std0=2.2e-16, y_mean1=1.2 * (1 + 1e-3)))
        assert rel(output_diffs.compare(before, after)) == pytest.approx(1e-3, rel=2e-3)

    def test_floor_follows_the_column_scale(self, tmp_path):
        # In a column whose every cell is of rounding size, a change is
        # measured against that column, so it is reported.
        before = write_csv(tmp_path / "a.csv", solution_rows())
        after = write_csv(tmp_path / "b.csv", solution_rows(residual1=3e-16))
        line = output_diffs.compare(before, after)
        assert rel(line) == pytest.approx(1 / 3, rel=1e-3)
        assert "below the floor" not in line

    def test_json_floor_follows_the_document_scale(self, tmp_path):
        docs = [{"y0": 1.05, "std": s, "ok": True} for s in (1.1e-16, 2.2e-16)]
        for name, doc in zip("ab", docs):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        line = output_diffs.compare(tmp_path / "a.json", tmp_path / "b.json")
        assert rel(line) == 0.0 and "1 cells below the floor differ" in line

    def test_main_lists_only_changed_files(self, tmp_path, capsys):
        for side, y_mean in (("before", 1.2), ("after", 1.2 * (1 + 1e-3))):
            (tmp_path / side / "run").mkdir(parents=True)
            write_csv(tmp_path / side / "run" / "same.csv", solution_rows())
            write_csv(tmp_path / side / "run" / "moved.csv", solution_rows(y_mean1=y_mean))
        assert output_diffs.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("run/moved.csv max abs")


bench_pairs = load_tool("bench_pairs")

WALL = {"wall_s": ("lower", 0.25)}


def runs(parent, change):
    """Pairs of bench results holding only ``wall_s``."""
    def result(v):
        return {"metrics": {"wall_s": {"value": v}}}
    return [(result(p), result(c)) for p, c in zip(parent, change)]


def wall_verdict(parent, change):
    return bench_pairs.metric_summary(runs(parent, change), WALL)["wall_s"]["verdict"]


class TestBenchPairsVerdict:
    """The no-regression verdict against BENCHMARK.json's bound."""

    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]

    def test_small_move_is_within_bound(self):
        assert wall_verdict(self.PARENT, [v * 1.1 for v in self.PARENT]) == "within bound"

    def test_large_move_is_worse_by_its_ratio(self):
        line = wall_verdict(self.PARENT, [v * 1.4 for v in self.PARENT])
        assert line.startswith("worse by 0.400") and line.endswith("(bound 0.25)")

    def test_wide_parent_spread_is_unresolved(self):
        wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
        assert wall_verdict(wide, [v * 0.95 for v in wide]).startswith("unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        wide = [1.5, 2.5, 1.6, 2.4, 1.7, 2.3, 1.8, 2.2, 2.0, 2.0]
        assert wall_verdict(wide, [1.0 + 0.01 * k for k in range(10)]) == "within bound"

    def test_higher_is_better_reads_a_fall_as_worse(self):
        rate = {"wall_s": ("higher", 0.25)}
        pairs = runs(self.PARENT, [v * 0.6 for v in self.PARENT])
        assert bench_pairs.metric_summary(pairs, rate)["wall_s"]["verdict"].startswith(
            "worse by 0.400")

    def test_bounds_come_from_the_benchmark(self):
        metrics = bench_pairs.end_to_end_metrics(str(TOOLS.parent))
        assert metrics["wall_s"] == ("lower", 0.25)
        assert metrics["peak_rss_mb"] == ("lower", 0.1)


def test_output_digests_runs_every_pair(tmp_path):
    # A smoke test of the refactor gate: every run it digests ends in an
    # exit code, not an exception, and exactly the pairs the CLI refuses
    # by their config (a lattice solver on random coefficients, a weak
    # solve on a degenerate diffusion) exit 2.
    digests = load_tool("output_digests")
    codes = {label: digests._run(tmp_path, sub, label, sections)[0].split(" exit ")[1]
             for sub, label, sections in digests._runs()}
    refused = {f"{sub}/random_terminal" for sub in (
        "value", "dpp-check", "pide", "verify", "convergence[dpp_residual]")}
    refused |= {f"hjb-weak/{name}" for name in ("exp_decay", "linear1d", "zero")}
    assert {label: code for label, code in codes.items() if code != "0"} == dict.fromkeys(
        refused, "2")
    assert len(codes) == 55
