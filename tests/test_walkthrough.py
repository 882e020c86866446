"""tools/walkthrough.py's tree comparison: byte for byte by default, and
with an rtol, CSV numbers within that relative tolerance."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("walkthrough", ROOT / "tools" / "walkthrough.py")
walkthrough = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walkthrough)

TABLE = "# comment\neta,mse,rule\n0.5,1.25,min\n0.25,2.5,one_se\n"


def make_tree(root: Path, table: str, spec: str = "counter_indices = 2,3\n") -> Path:
    (root / "seed-1").mkdir(parents=True)
    (root / "seed-1" / "path.csv").write_text(table, encoding="utf-8")
    (root / "seed-1" / "features.spec").write_text(spec, encoding="utf-8")
    return root


def not_same(lines):
    return [line for line, same in lines if not same]


def test_cell_moved_within_rtol_is_the_same_only_with_rtol(tmp_path):
    before = make_tree(tmp_path / "before", TABLE)
    moved = repr(1.25 * (1 + 1e-12))
    after = make_tree(tmp_path / "after", TABLE.replace("1.25", moved))
    assert not_same(walkthrough.compare_trees(after, before)) == ["differs: seed-1/path.csv"]
    lines = walkthrough.compare_trees(after, before, rtol=1e-9)
    assert not_same(lines) == []
    assert len(lines) == 1 and lines[0][0].startswith("within: seed-1/path.csv: ")
    assert lines[0][0].endswith(", 0 cells over 1e-09")
    assert walkthrough.compare_trees(before, before, rtol=1e-9) == []


def test_rtol_counts_cells_over_it_and_keeps_other_files_bytewise(tmp_path):
    before = make_tree(tmp_path / "before", TABLE)
    after = make_tree(tmp_path / "after", TABLE.replace("1.25", "1.2500001"),
                      spec="counter_indices = 2, 3\n")
    lines = walkthrough.compare_trees(after, before, rtol=1e-9)
    assert not_same(lines) == [
        "differs: seed-1/features.spec",
        "differs: seed-1/path.csv: largest relative deviation 8e-08, 1 cells over 1e-09"]


def test_rtol_compares_text_cells_and_row_counts_bytewise(tmp_path):
    before = make_tree(tmp_path / "before", TABLE)
    for name, table in [("word", TABLE.replace("one_se", "one-se")),
                        ("row", TABLE + "0.125,5.0,min\n"),
                        ("comment", TABLE.replace("# comment", "# Comment"))]:
        after = make_tree(tmp_path / name, table)
        [(line, same)] = walkthrough.compare_trees(after, before, rtol=1.0)
        assert not same and line.endswith("and other cells or lines differ"), name


def test_relative_deviation():
    inf, nan = float("inf"), float("nan")
    assert walkthrough.relative_deviation(2.0, 2.0) == 0.0
    assert walkthrough.relative_deviation(nan, nan) == 0.0
    assert walkthrough.relative_deviation(inf, inf) == 0.0
    assert walkthrough.relative_deviation(inf, 1.0) == inf
    assert walkthrough.relative_deviation(nan, 1.0) == inf
    assert walkthrough.relative_deviation(-1.0, 1.0) == 2.0
    assert walkthrough.relative_deviation(0.0, 1e-300) == 1.0


def test_stdout_numbers_compare_within_rtol_past_a_percent(tmp_path):
    line = "rows=2399 mape={}% median_ape=3.412% convergence_ms=inf excluded=0\n"
    trees = {}
    for name, mape in [("before", "4.699"), ("after", repr(4.699 * (1 + 1e-12))),
                       ("far", "4.7"), ("unit", "4.699")]:
        trees[name] = make_tree(tmp_path / name, TABLE)
        text = line.format(mape)
        if name == "unit":
            text = text.replace("4.699%", "4.699 %")
        (trees[name] / "seed-1" / "06-replay-rls.stdout").write_text(text, encoding="utf-8")
    before, after = trees["before"], trees["after"]
    assert not_same(walkthrough.compare_trees(after, before)) == [
        "differs: seed-1/06-replay-rls.stdout"]
    [(within, same)] = walkthrough.compare_trees(after, before, rtol=1e-9)
    assert same and within.startswith("within: seed-1/06-replay-rls.stdout: ")
    assert not_same(walkthrough.compare_trees(trees["far"], before, rtol=1e-9)) == [
        "differs: seed-1/06-replay-rls.stdout: largest relative deviation 0.000213, "
        "1 cells over 1e-09"]
    [(line, same)] = walkthrough.compare_trees(trees["unit"], before, rtol=1.0)
    assert not same and line.endswith("and other cells or lines differ")
