"""tools/same_answers.py on a tiny spec: the working tree against itself
is identical, its two one-ulp floors (rho and Re F) are reported, and a
changed rate is reported, row by row and per cell, as is a changed
converged value; so are each side's residual measurements and drift
repairs; its net line count of src/unisym is +0 against itself."""

import csv
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_answers", ROOT / "tools" / "same_answers.py")
same_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_answers)

TINY = {"tiny": {"nt": 2, "nr": 2, "sweep": [4], "trials": 2, "seed0": 7, "max_iters": 20}}


def test_working_tree_against_itself_then_a_changed_rate(tmp_path):
    same, lines = same_answers.compare(ROOT / "src", ROOT / "src", TINY, tmp_path)
    # results.csv, summary.json and two traces for each iterative method
    assert same, lines
    assert lines[-1] == "6 of 6 files identical"
    # the base's one-ulp floor: rho one ulp up moves this fast-converging
    # spec's rates by roundoff only, at most a few ulps of ~10 bits
    floor = [line for line in lines if line.startswith("  base's one-ulp floor: ")]
    assert len(floor) == 1 and lines.index(floor[0]) == 1
    assert float(floor[0].rsplit(" ", 1)[1]) <= 1e-13
    # the second floor, every Re F one ulp up, which low_cost reads too:
    # reported after the first, at the same roundoff level, and from a run
    # whose channels were nudged: on this spec the nudge may leave every
    # rate as it was and move only a trace, so some output file differs
    floor_f = [line for line in lines if line.startswith("  base's one-ulp floor (Re F): ")]
    assert len(floor_f) == 1 and lines.index(floor_f[0]) > 1
    assert float(floor_f[0].rsplit(" ", 1)[1]) <= 1e-13
    outputs = sorted(p.name for p in (tmp_path / "base" / "tiny").iterdir())
    assert outputs == sorted(p.name for p in (tmp_path / "floor_f" / "tiny").iterdir())
    assert any(same_answers._comparable(tmp_path / "base" / "tiny" / name)
               != same_answers._comparable(tmp_path / "floor_f" / "tiny" / name)
               for name in outputs)
    # per side: the start point of each iterative trial and the Takagi
    # factor of each mo_u_proj and low_cost trial, 4 x 2 trials, and every
    # point of each mo_u_proj trial's ascent on U(k), its start I_k and 40
    # settled candidates over both trials, are measured, 50 in all; no
    # factor is repaired
    assert "  residual measurements: base 50, new 50; drift repairs: base 0, new 0" in lines
    # floor runs identical to the base read 0, with no cell lines
    _, lines = same_answers.compare_outputs(tmp_path / "base", tmp_path / "new", TINY,
                                            tmp_path / "base", tmp_path / "base")
    assert lines[1] == "  base's one-ulp floor: max |d rate_bits| 0"
    assert lines[2] == "  base's one-ulp floor (Re F): max |d rate_bits| 0"
    assert not any(line.startswith(("  base's one-ulp floor, cell",
                                    "  base's one-ulp floor (Re F), cell")) for line in lines)

    path = tmp_path / "new" / "tiny" / "results.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][4] = repr(float(rows[1][4]) + 1e-9)
    assert rows[2][-1] == "true"
    rows[2][-1] = "false"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    (tmp_path / "new" / "counts.json").unlink()    # as from a source without the names
    same, lines = same_answers.compare_outputs(tmp_path / "base", tmp_path / "new", TINY)
    assert not same
    assert "  residual measurements: base 50, new n/a; drift repairs: base 0, new n/a" in lines
    assert "  differs: results.csv" in lines
    method, M, trial = rows[1][:3]
    assert f"  rate differs: {method}/{M}/{trial}: |d| 1e-09" in lines
    assert f"  max |d rate_bits| {method}: 1e-09" in lines
    assert sum(line.startswith("  rate differs:") for line in lines) == 1
    # a flipped converged cell is named with both values
    assert f"  converged differs: {'/'.join(rows[2][:3])}: true -> false" in lines
    assert sum(line.startswith("  converged differs:") for line in lines) == 1
    # the moved row's cell: its other trial is unchanged
    assert f"  cell {method}/{M}: mean d rate_bits +5e-10, range +0 to +1e-09 over 2 trials" in lines
    assert sum(line.startswith("  cell ") for line in lines) == 1
    assert lines[-1] == "5 of 6 files identical"
    assert lines[0].endswith("max |d rate_bits| 1e-09")


def test_src_line_count(tmp_path):
    n = same_answers.src_lines(ROOT / "src")
    assert n > 1000
    # a copy of the package is +0 against it, and one more line is +1
    (tmp_path / "unisym").mkdir()
    for f in (ROOT / "src" / "unisym").glob("*.py"):
        (tmp_path / "unisym" / f.name).write_text(f.read_text())
    assert same_answers.src_lines(tmp_path) - n == 0
    with open(tmp_path / "unisym" / "linalg.py", "a") as fh:
        fh.write("# one more line\n")
    assert same_answers.src_lines(tmp_path) - n == 1
