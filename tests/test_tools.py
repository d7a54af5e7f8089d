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
