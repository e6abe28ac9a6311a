"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs every workload for one round at small element counts, plain and
traced, and checks that the outputs pass, that only the edge_link fault
slice fails, and that the bypass self-checks hold. Then shows that the
output checks catch a corrupted surface, a rate off by 1e-6 bits, a
decreasing trace and a summary.json that disagrees with results.csv.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from unisym import bdris, harness, manifold, optimizer  # noqa: E402

WORKDIR = ROOT / ".bench_runs" / "selftest"


def _workload_problems(wl: workloads.Workload) -> list[str]:
    plain, traced, tracer = workloads.run(wl, seed=7, seconds=0, workdir=WORKDIR, traced=True)
    out = []
    for run in (plain, traced):
        out += run.problems
        fault_ops = len(wl.sweep) * len(wl.methods) if wl.fault_slice else 0
        if run.failed != fault_ops:
            out.append(f"{wl.name}: {run.failed} failed, expected {fault_ops}: {dict(run.failures)}")
        bad = [k for k in run.failures if k[0] != "NumericalError" or k[2] != "bdris.rate"]
        if bad:
            out.append(f"{wl.name}: unexpected failures {bad}")
        if len(run.cells) != run.attempted - fault_ops:
            out.append(f"{wl.name}: {len(run.cells)} cells of {run.attempted} attempted")
    metrics, problems = workloads.traced_metrics(wl, plain, traced, tracer)
    out += problems
    workloads.end_to_end(plain)
    entry = "optimizer.optimize_us" if "mo_us" in wl.methods else "bdris.mo_u_proj_baseline"
    if not metrics[f"{entry}.calls"][0]:
        out.append(f"{wl.name}: traced run recorded no {entry} call")
    return out


def _corruption_problems() -> list[str]:
    """Each corrupted output must be reported; the intact one must not."""
    out = []
    sc = bdris.Scenario(m=6)
    ch = bdris.gen_channels(sc, seed=3)
    P, trace = optimizer.optimize_us(bdris.RateObjective(ch, sc.rho), manifold.us_random(6, seed=3))
    rb = bdris.rate_bits(ch, P, sc.rho)
    spectral = checks.spectral_rate_bits(ch.Hd, ch.F, ch.G, P.U, sc.rho)
    if checks.surface_problems(P.U) or checks.rate_problems(rb, spectral):
        out.append("an intact surface or rate was reported as wrong")
    if not checks.surface_problems(P.U + 1e-6 * P.U.T):
        out.append("surface Theta + 1e-6 Theta^T was not caught")
    if not checks.rate_problems(rb + 1e-6, spectral):
        out.append("a rate off by 1e-6 bits was not caught")
    if checks.trace_problems(trace.values, "intact") or not checks.trace_problems(
            [1.0, 2.0, 2.0 - 1e-12], "decreasing"):
        out.append("the trace check misjudged a trace")

    out_dir = WORKDIR / "desk-files"
    spec = harness.build_run_spec({"sweep": [4, 6], "trials": 2, "output_dir": str(out_dir)})
    harness.run_experiment(spec)
    args = (out_dir, spec.methods, spec.sweep, spec.trials)
    if checks.harness_files_problems(*args)[0]:
        out.append("intact harness files were reported as wrong")
    summary = json.loads((out_dir / "summary.json").read_text())
    summary["mo_us"]["6"]["mean_rate_bits"] += 1e-6
    (out_dir / "summary.json").write_text(json.dumps(summary))
    if not checks.harness_files_problems(*args)[0]:
        out.append("a summary.json mean off by 1e-6 was not caught")
    return out


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    problems = []
    for wl in workloads.WORKLOADS.values():
        problems += _workload_problems(wl.tiny())
    problems += _corruption_problems()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
