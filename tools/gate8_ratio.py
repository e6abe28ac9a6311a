#!/usr/bin/env python3
"""Gate 8's 128/64 time ratio on a git ref and on the working tree.

    python3 tools/gate8_ratio.py <git-ref> [--runs N] [--caller-threads]

Gate 8 (`tests/test_acceptance.py`, criterion 8) times `mo_us` through
`unisym.harness.bench` with sweep [64, 128] and 5 trials, and asks that
the ratio of the two cells' `median_iter_ms` lie between 3 and 16. This
script runs that same `bench` call N times (16 by default) on each of two
sides: on the `src/` of a `git archive` copy of <git-ref>, and on the
working tree's `src/`. Each run is a fresh interpreter with one BLAS
thread, as CI runs the tests; with --caller-threads it inherits the
caller's thread settings instead, as the tier-1 command does, which on
a multi-core host leaves OpenBLAS free to thread. The runs interleave,
the side that goes first alternating from run to run. Per side it prints
the ratios in run order, each with its two cells' `median_iter_ms` beside
it, so that an outlier names its slow cell. Then per side one summary
line: the ratios' min, quartiles, median and max, how many fell below
3.0, and the median, min and max over the runs of each cell's
`median_iter_ms`, at M = 64 and at M = 128. The two medians tell a move
of fixed per-call overhead, which shows at M = 64 as much as at M = 128,
from one of the work that grows with m. The gate itself is not run. Exit
status: 0, or 2 when the ref cannot be read or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from same_answers import _THREADS, ROOT, archive_src

# the run-spec values of gate 8's bench call; output_dir is set per run
GATE8 = {"sweep": [64, 128], "trials": 5, "methods": ["mo_us"]}
FLOOR = 3.0     # gate 8's lower bound on the ratio

# run in a fresh interpreter with PYTHONPATH=<src>: argv = src, spec values;
# prints the first and the last cell's median_iter_ms as a JSON pair
_RUNNER = """
import json, sys, tempfile
from pathlib import Path
import unisym
from unisym.harness import bench, build_run_spec
src = Path(sys.argv[1])
if Path(unisym.__file__).resolve().parent != src / "unisym":
    sys.exit(f"imported unisym from {unisym.__file__}, not from {src}")
with tempfile.TemporaryDirectory() as out:
    rows, _ = bench(build_run_spec({**json.loads(sys.argv[2]), "output_dir": out}))
print(json.dumps([rows[0].median_iter_ms, rows[-1].median_iter_ms]))
"""


def timings(src: Path, values: dict, pin: bool = True) -> tuple[float, float]:
    """One `bench` run of the spec values on the package under src: the
    first and the last cell's median_iter_ms, in ms. pin runs it on one
    BLAS thread, else under the caller's thread settings. RuntimeError if
    it fails."""
    src = src.resolve()
    env = {**os.environ, **({v: "1" for v in _THREADS} if pin else {}), "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", _RUNNER, str(src), json.dumps(values)],
                              cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench on {src} failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout))


def interleaved(sides: dict, runs: int, values: dict, pin: bool = True) -> dict:
    """name -> the timings of `runs` runs of each side's src, in run order;
    the first side goes first in even runs, last in odd ones."""
    out = {name: [] for name in sides}
    order = list(sides)
    for i in range(runs):
        for name in order if i % 2 == 0 else order[::-1]:
            out[name].append(timings(sides[name], values, pin))
    return out


def ratios(runs: list[tuple[float, float]]) -> np.ndarray:
    """The last cell's median_iter_ms over the first's, per run."""
    first, last = np.array(runs).T
    return last / first


def run_line(name: str, runs: list[tuple[float, float]]) -> str:
    """One line: each run's ratio, in run order, with its first and last
    cell's median_iter_ms in ms beside it."""
    return f"{name}: " + " ".join(f"{r:.2f} ({first:.3f}/{last:.3f})"
                                  for r, (first, last) in zip(ratios(runs), runs))


def summary(name: str, runs: list[tuple[float, float]]) -> str:
    """One line: the min, quartiles, median and max of the runs' ratios, how
    many fell below FLOOR, and the median, min and max over the runs of
    each cell's median_iter_ms."""
    rs = ratios(runs)
    lo, q1, med, q3, hi = np.percentile(rs, [0, 25, 50, 75, 100])
    below = sum(r < FLOOR for r in rs)
    cells = [f"{np.median(t):.3f} ms (min {min(t):.3f}, max {max(t):.3f}) at M = {M}"
             for M, t in zip(GATE8["sweep"], zip(*runs))]
    return (f"{name}: {len(rs)} runs, min {lo:.2f}, quartiles {q1:.2f}-{q3:.2f}, "
            f"median {med:.2f}, max {hi:.2f}; {below} below {FLOOR}; median_iter_ms "
            "median " + ", ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    parser.add_argument("--runs", type=int, default=16, help="runs per side (default 16)")
    parser.add_argument("--caller-threads", action="store_true",
                        help="run under the caller's BLAS thread settings, not one thread")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            sides = {args.ref: archive_src(args.ref, Path(tmp)), "working tree": ROOT / "src"}
            runs = interleaved(sides, args.runs, GATE8, not args.caller_threads)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for name, side in runs.items():
        print(run_line(name, side))
    for name, side in runs.items():
        print(summary(name, side))
    return 0


if __name__ == "__main__":
    sys.exit(main())
