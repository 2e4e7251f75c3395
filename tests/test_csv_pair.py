"""The CSV identity script's comparison, on small trees (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "csv_pair.py"
_spec = importlib.util.spec_from_file_location("csv_pair", _path)
csv_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_pair)

RUN = "run,generation,best_fitness\n0,0,4.0\n0,1,2.5\n"


def tree(root: Path, run: str = RUN, timing: str = "wall_seconds=1.0\n") -> Path:
    exp = root / "suite" / "ga-diff-ackley-d10"
    exp.mkdir(parents=True)
    (exp / "run_000.csv").write_text(run)
    (exp / "summary.csv").write_text("mean,min\n3.25,2.5\n")
    (exp / "timing.log").write_text(timing)
    return root


def test_identical_trees_report_identical(tmp_path, capsys):
    res = csv_pair.compare(tree(tmp_path / "a"), tree(tmp_path / "b"))
    assert res == {"identical": ["suite/ga-diff-ackley-d10/run_000.csv",
                                 "suite/ga-diff-ackley-d10/summary.csv"],
                   "differing": {}, "only_parent": [], "only_change": []}
    assert csv_pair.report(res)
    assert "identical: 2 files (2 CSVs)" in capsys.readouterr().out


def test_one_changed_value_reports_its_relative_change(tmp_path, capsys):
    a = tree(tmp_path / "a")
    b = tree(tmp_path / "b", run=RUN.replace("2.5", "2.4"))
    res = csv_pair.compare(a, b)
    rel = "suite/ga-diff-ackley-d10/run_000.csv"
    assert list(res["differing"]) == [rel]
    assert res["differing"][rel] == pytest.approx(0.1 / 2.5)
    assert res["identical"] == ["suite/ga-diff-ackley-d10/summary.csv"]
    assert not csv_pair.report(res)
    assert f"differs: {rel} max relative change 0.04" in capsys.readouterr().out


def test_a_difference_only_in_timing_log_is_ignored(tmp_path):
    a = tree(tmp_path / "a")
    b = tree(tmp_path / "b", timing="wall_seconds=7.5\n")
    res = csv_pair.compare(a, b)
    assert not res["differing"] and len(res["identical"]) == 2
    assert csv_pair.report(res)


def test_shape_changes_and_missing_files_count_as_differences(tmp_path):
    a = tree(tmp_path / "a")
    b = tree(tmp_path / "b", run=RUN + "0,2,1.0\n")
    (b / "suite" / "ga-diff-ackley-d10" / "summary.csv").unlink()
    res = csv_pair.compare(a, b)
    assert res["differing"] == {"suite/ga-diff-ackley-d10/run_000.csv":
                                float("inf")}
    assert res["only_parent"] == ["suite/ga-diff-ackley-d10/summary.csv"]
    assert not csv_pair.report(res)
