"""tools/gate8_ratio.py: one bench run per side and call, interleaved, on
a small spec, the thread settings a run is given, the per-run line with
each run's cells, the per-side summary line with each cell's median, min
and max timing, and exit status 2 for a ref that git cannot read."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))    # gate8_ratio imports same_answers

import gate8_ratio  # noqa: E402


def test_interleaved_runs_give_a_ratio_per_side_and_run(monkeypatch, tmp_path):
    # side b is a copy of the package, so the order of the runs shows
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "unisym", copy / "unisym")
    calls = []
    timings = gate8_ratio.timings

    def recording(src, values, pin):
        calls.append(src)
        return timings(src, values, pin)

    monkeypatch.setattr(gate8_ratio, "timings", recording)
    src = ROOT / "src"
    tiny = {"sweep": [2, 4], "trials": 1, "methods": ["mo_us"], "max_iters": 3}
    out = gate8_ratio.interleaved({"a": src, "b": copy}, 2, tiny)
    assert list(out) == ["a", "b"]
    assert all(len(runs) == 2 and all(math.isfinite(t) and t > 0 for run in runs for t in run)
               and all(math.isfinite(r) and r > 0 for r in gate8_ratio.ratios(runs))
               for runs in out.values())
    assert calls == [src, copy, copy, src]


def test_runs_pin_one_thread_unless_told_to_keep_the_callers(monkeypatch):
    envs = []

    def run(cmd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, stdout="[0.25, 1.0]\n", stderr="")

    monkeypatch.setattr(gate8_ratio.subprocess, "run", run)
    for v in gate8_ratio._THREADS:
        monkeypatch.delenv(v, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    src = ROOT / "src"
    assert gate8_ratio.timings(src, {}) == (0.25, 1.0)
    assert gate8_ratio.timings(src, {}, pin=False) == (0.25, 1.0)
    pinned, caller = envs
    assert all(pinned[v] == "1" for v in gate8_ratio._THREADS)
    assert caller["OPENBLAS_NUM_THREADS"] == "2"
    assert not any(v in caller for v in gate8_ratio._THREADS if v != "OPENBLAS_NUM_THREADS")
    assert pinned["PYTHONPATH"] == caller["PYTHONPATH"] == str(src.resolve())


def test_summary_line():
    runs = [(0.5, 1.0), (0.25, 0.75), (0.25, 1.0), (0.2, 1.0), (0.125, 0.75)]
    line = gate8_ratio.summary("parent", runs)
    assert line == ("parent: 5 runs, min 2.00, quartiles 3.00-5.00, median 4.00, "
                    "max 6.00; 1 below 3.0; median_iter_ms median 0.250 ms "
                    "(min 0.125, max 0.500) at M = 64, 1.000 ms (min 0.750, max 1.000) "
                    "at M = 128")
    assert "; 0 below 3.0; " in gate8_ratio.summary("x", [(0.2, 0.7)])


def test_run_line_puts_each_runs_cells_beside_its_ratio():
    # a cold M = 64 cell shows as the low ratio's large first cell
    line = gate8_ratio.run_line("parent", [(0.29, 0.87), (3.5, 0.28)])
    assert line == "parent: 3.00 (0.290/0.870) 0.08 (3.500/0.280)"


def test_unreadable_ref_exits_2(capsys):
    assert gate8_ratio.main(["no-such-ref-for-gate8", "--runs", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
