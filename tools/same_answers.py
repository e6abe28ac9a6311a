#!/usr/bin/env python3
"""Check that the working tree gives the same answers as a git ref.

    python3 tools/same_answers.py <git-ref>

Runs seven fixed run specs through `unisym.harness.run_experiment` on two
sides, each in its own interpreter: once on the `src/` of a `git archive`
copy of <git-ref>, once on the working tree's `src/`. Each output file is
compared byte for byte once its `wall_ms` column is dropped. The report
names, per spec, the files that differ, the largest |delta rate_bits|,
each (method, M, trial) row whose rate_bits differ with its |delta|, the
largest |delta| per method, for each (method, M) cell with a moved row
the mean and the range of the per-trial differences (new minus base),
the rows whose iteration counts or `converged` values differ, the error
rows on either side, and on each side the count of exact unitarity
residual measurements (`linalg._unitarity_residual` calls) and of drift
repairs (`linalg._restore_unitary` calls), "n/a" where the source lacks
the name.
Beside each spec's figures it prints the base's two one-ulp floors: a
third run, of the base with each spec's rho nudged one ulp up, and a
fourth, with the real part of every entry of F nudged one ulp up, give
the largest |delta rate_bits| and the per-cell range that so small a
change of input already causes. Only the second reaches the low_cost
design, which never reads rho. It also prints the net change in lines
of `src/unisym/*.py`, new minus base. Exit status: 0 when every file is
identical, 1 when any differs, 2 when the ref cannot be read or a side
fails to run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# spec name -> run-spec values; output_dir is set per side
SPECS = {
    "desk": {"sweep": [16, 32, 64], "trials": 4, "seed0": 3},
    "blocked": {"sweep": [16, 32], "trials": 3, "seed0": 5, "direct_blocked": True},
    "link_8x2": {"nr": 8, "nt": 2, "sweep": [16, 32], "trials": 4, "seed0": 7},
    "link_2x8": {"nr": 2, "nt": 8, "sweep": [16, 32], "trials": 4, "seed0": 7},
    "large": {"sweep": [128, 256], "trials": 3, "seed0": 11, "methods": ["mo_us"]},
    "edge_m": {"nr": 8, "nt": 2, "sweep": [1, 2, 3], "trials": 6, "seed0": 0},
    "large_closed": {"sweep": [128, 256], "trials": 3, "seed0": 13,
                     "methods": ["low_cost", "mo_u_proj"]},
}

# the linalg calls counted per spec and side, by their names in the report
COUNTED = {"_unitarity_residual": "residual measurements", "_restore_unitary": "drift repairs"}

# run in a fresh interpreter with PYTHONPATH=<src>: argv = src, out root,
# specs, and "ulp" to run each spec with its rho one ulp up or "ulp_f" with
# every Re F one ulp up; COUNTED's calls are counted in every unisym module
# that binds them, into <out>/counts.json
_RUNNER = """
import json, math, sys
from dataclasses import replace
from pathlib import Path
import numpy as np
import unisym
from unisym.harness import build_run_spec, run_experiment
src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
if Path(unisym.__file__).resolve().parent != src / "unisym":
    sys.exit(f"imported unisym from {unisym.__file__}, not from {src}")
def in_unisym(name, real, wrapper):
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "unisym"]:
        if getattr(mod, name, None) is real:
            setattr(mod, name, wrapper)
if sys.argv[4] == "ulp_f":
    def nudged(*args, real=unisym.bdris.gen_channels, **kwargs):
        ch = real(*args, **kwargs)
        return replace(ch, F=np.nextafter(ch.F.real, math.inf) + 1j * ch.F.imag)
    in_unisym("gen_channels", unisym.bdris.gen_channels, nudged)
tally = {}
for fn in json.loads(sys.argv[5]):
    real = getattr(unisym.linalg, fn, None)
    if real is None:
        continue
    def counted(*args, fn=fn, real=real, **kwargs):
        tally[fn] += 1
        return real(*args, **kwargs)
    in_unisym(fn, real, counted)
    tally[fn] = 0
counts = {}
for name, values in json.loads(sys.argv[3]).items():
    spec = build_run_spec({**values, "output_dir": str(out / name)})
    if sys.argv[4] == "ulp":
        sc = spec.scenario
        spec = replace(spec, scenario=replace(sc, rho=float(np.nextafter(sc.rho, math.inf))))
    tally.update(dict.fromkeys(tally, 0))
    run_experiment(spec)
    counts[name] = dict(tally)
(out / "counts.json").write_text(json.dumps(counts))
"""

# one BLAS thread on both sides, as in the benchmark's own runs
_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_sides(base_src: Path, new_src: Path, specs: dict, workdir: Path) -> None:
    """Run every spec on both sources at once, into workdir/base and
    workdir/new, and on the base source with rho one ulp up, into
    workdir/floor, and with every Re F one ulp up, into workdir/floor_f."""
    env = {**os.environ, **{v: "1" for v in _THREADS}}
    workdir = workdir.resolve()
    procs = []
    for side, src, nudge in (("base", base_src.resolve(), "-"), ("new", new_src.resolve(), "-"),
                             ("floor", base_src.resolve(), "ulp"),
                             ("floor_f", base_src.resolve(), "ulp_f")):
        cmd = [sys.executable, "-c", _RUNNER, str(src), str(workdir / side), json.dumps(specs),
               nudge, json.dumps(list(COUNTED))]
        procs.append((side, subprocess.Popen(cmd, cwd=workdir, env={**env, "PYTHONPATH": str(src)},
                                             stderr=subprocess.PIPE, text=True)))
    failures = []
    for side, proc in procs:    # wait for all before reporting any
        _, err = proc.communicate()
        if proc.returncode != 0:
            failures.append(f"the {side} side failed:\n{err}")
    if failures:
        raise RuntimeError("\n".join(failures))


def _csv_bytes(rows: list[list[str]]) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def _comparable(path: Path) -> bytes:
    """The file's bytes, minus the wall_ms column of a CSV that the csv
    module wrote (any other file is compared whole)."""
    raw = path.read_bytes()
    if path.suffix != ".csv":
        return raw
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    if not rows or "wall_ms" not in rows[0] or _csv_bytes(rows) != raw:
        return raw
    i = rows[0].index("wall_ms")
    return _csv_bytes([r[:i] + r[i + 1:] for r in rows])


def _results(out: Path) -> dict:
    """(method, M, trial) -> results.csv row, as a dict; empty if absent."""
    path = out / "results.csv"
    if not path.exists():
        return {}
    with open(path, newline="", encoding="utf-8") as fh:
        return {(r["method"], r["M"], r["trial"]): r for r in csv.DictReader(fh)}


def _cell_deltas(rows_a: dict, rows_b: dict) -> dict:
    """(method, M) -> new - base rate_bits per trial with a rate on both sides."""
    cells = {}
    for key in [k for k in rows_a if k in rows_b]:
        d = float(rows_b[key]["rate_bits"]) - float(rows_a[key]["rate_bits"])
        if not math.isnan(d):
            cells.setdefault(key[:2], []).append(d)
    return cells


def _max_abs(cells: dict) -> float:
    return max((abs(d) for ds in cells.values() for d in ds), default=0.0)


def _counts(out: Path) -> dict:
    """spec name -> {linalg name: calls} of a side's counts.json; empty if absent."""
    path = out / "counts.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def compare_outputs(base: Path, new: Path, names, floor: Path | None = None,
                    floor_f: Path | None = None) -> tuple[bool, list[str]]:
    """Compare the output directories base/<name> and new/<name> per spec
    name: (every file identical, report lines). floor and floor_f, when
    given, hold the outputs of the base source run with rho, and with
    every Re F, one ulp up; each spec then also reports how far each nudge
    moves the base's rates, the noise floors of its figures. Each spec
    reports the COUNTED calls of each side from its counts.json, "n/a"
    where a side has no count."""
    counts = {"base": _counts(base), "new": _counts(new)}
    lines = []
    n_same = n_all = 0
    for name in names:
        files = sorted({p.name for p in (base / name).iterdir()}
                       | {p.name for p in (new / name).iterdir()})
        differ = []
        for f in files:
            a, b = base / name / f, new / name / f
            if not (a.exists() and b.exists()):
                differ.append(f"{f} (only in {'base' if a.exists() else 'new'})")
            elif _comparable(a) != _comparable(b):
                differ.append(f)
        n_all += len(files)
        n_same += len(files) - len(differ)

        rows_a, rows_b = _results(base / name), _results(new / name)
        cells = _cell_deltas(rows_a, rows_b)
        moved, iters, status = [], [], []
        for key in [k for k in rows_a if k in rows_b]:
            ra, rb = rows_a[key], rows_b[key]
            if ra["rate_bits"] != rb["rate_bits"]:
                d = float(rb["rate_bits"]) - float(ra["rate_bits"])
                moved.append(f"{'/'.join(key)}: |d| {abs(d):.3g}")
            if ra["iterations"] != rb["iterations"]:
                iters.append(f"{'/'.join(key)}: {ra['iterations']} -> {rb['iterations']}")
            if ra["converged"] != rb["converged"]:
                status.append(f"{'/'.join(key)}: {ra['converged']} -> {rb['converged']}")
        per_method = {}     # method -> max |d rate_bits| over its moved rows
        for (m, _), ds in cells.items():
            if any(ds):
                per_method[m] = max(per_method.get(m, 0.0), max(map(abs, ds)))
        lines.append(f"{name}: {len(files) - len(differ)} of {len(files)} files identical, "
                     f"max |d rate_bits| {_max_abs(cells):.3g}")
        for label, nudge in (("", floor), (" (Re F)", floor_f)):
            if nudge is None:
                continue
            nudged = _cell_deltas(rows_a, _results(nudge / name))
            lines.append(f"  base's one-ulp floor{label}: max |d rate_bits| "
                         f"{_max_abs(nudged):.3g}")
            lines += [f"  base's one-ulp floor{label}, cell {m}/{M}: range {min(ds):+.3g} to "
                      f"{max(ds):+.3g} over {len(ds)} trials"
                      for (m, M), ds in nudged.items() if any(ds)]
        lines += [f"  differs: {f}" for f in differ]
        lines += [f"  rate differs: {s}" for s in moved]
        lines += [f"  max |d rate_bits| {m}: {d:.3g}" for m, d in per_method.items()]
        lines += [f"  cell {m}/{M}: mean d rate_bits {sum(ds) / len(ds):+.3g}, "
                  f"range {min(ds):+.3g} to {max(ds):+.3g} over {len(ds)} trials"
                  for (m, M), ds in cells.items() if any(ds)]
        lines += [f"  iterations differ: {s}" for s in iters]
        lines += [f"  converged differs: {s}" for s in status]
        for side, rows in (("base", rows_a), ("new", rows_b)):
            lines += [f"  error row ({side}): {'/'.join(k)}"
                      for k, r in rows.items() if r["converged"] == "error"]
        lines.append("  " + "; ".join(
            f"{label}: " + ", ".join(f"{side} {c.get(name, {}).get(fn, 'n/a')}"
                                     for side, c in counts.items())
            for fn, label in COUNTED.items()))
    lines.append(f"{n_same} of {n_all} files identical")
    return n_same == n_all, lines


def src_lines(src: Path) -> int:
    """Lines in the Python files of src/unisym."""
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in (src / "unisym").glob("*.py"))


def compare(base_src: Path, new_src: Path, specs: dict, workdir: Path) -> tuple[bool, list[str]]:
    """Run specs on both sources under workdir and compare their outputs."""
    run_sides(base_src, new_src, specs, workdir)
    return compare_outputs(workdir / "base", workdir / "new", specs, workdir / "floor",
                           workdir / "floor_f")


def archive_src(ref: str, dest: Path) -> Path:
    """Extract the src/ tree of the git ref under dest, by `git archive`,
    and return its path; RuntimeError with git's message when the ref
    cannot be read."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(archive.stderr.decode().strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        try:
            base_src = archive_src(args.ref, workdir / "ref")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        new_src = ROOT / "src"
        try:
            same, lines = compare(base_src, new_src, SPECS, workdir)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        n_base, n_new = src_lines(base_src), src_lines(new_src)
    print(f"base: {args.ref}; new: the working tree")
    print("\n".join(lines))
    print(f"src/unisym lines: {n_base} -> {n_new}, net {n_new - n_base:+d}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
