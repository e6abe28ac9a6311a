"""Run one workload of the unisym benchmark and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: unisym is imported from ./src,
never from an installed copy. --trace 0 prints the end-to-end metrics;
--trace 1 runs every round twice, plain and traced, and prints the
per-layer metrics with the tracing overhead. The last stdout line is one
JSON object {correct, attempted, failed, metrics}. The run's numbers, its
failures and an environment record go to .bench_runs/. A failed output
check exits 1; a checkout without src/unisym exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("desk", "large_surface", "projection", "edge_link")
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _setup_sample(workload: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter: (seconds, reference kernel ms)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(RUNS_DIR)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    seconds, ref_ms = proc.stdout.split()[-2:]
    return float(seconds), float(ref_ms)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "load": "one benchmark process, one BLAS thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "unisym" / "__init__.py").is_file():
        print(f"error: no unisym sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    caller_threads = {k: os.environ.get(k) for k in THREAD_VARS}
    # One BLAS thread, in this process and the set-up probes. On a shared
    # 2-CPU host the projection trials ran ~15% faster with one than with two.
    os.environ.update({k: "1" for k in THREAD_VARS})

    RUNS_DIR.mkdir(exist_ok=True)
    setup = [_setup_sample(args.workload) for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    import unisym
    import workloads

    if SRC not in Path(unisym.__file__).resolve().parents:
        print(f"error: unisym imported from {unisym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workloads.warm_up(wl, RUNS_DIR)
    plain, traced, tracer = workloads.run(wl, args.seed, args.seconds, RUNS_DIR,
                                          traced=bool(args.trace))
    runs = [plain] + ([traced] if traced else [])
    problems = [p for r in runs for p in r.problems]
    if not all(r.cells for r in runs):
        problems.append("no operation completed")

    if problems:
        metrics = {}
    elif args.trace:
        metrics, problems = workloads.traced_metrics(wl, plain, traced, tracer)
    else:
        # set-up time at the reference host speed, like step_ms_norm
        metrics = {"setup_s": (statistics.median(t * workloads.REF_MS / ref for t, ref in setup),
                               "s"),
                   **workloads.end_to_end(plain),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB")}

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    failures = [{"type": t, "message": m, "where": w, "count": n}
                for (t, m, w), n in sum((r.failures for r in runs), Counter()).items()]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": plain.rounds, "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in (
            {"setup_s_raw": (statistics.median(t for t, _ in setup), "s"),
             **(workloads.figures(plain) if plain.cells else {})}).items()},
        "attempted": attempted, "failed": failed, "failures": failures,
        "problems": problems[:50],
        "environment": {**environment(), "thread_env_caller": caller_threads},
        "cells": [[c.method, c.M, c.link, c.ms, c.iters, c.rate_bits, c.r] for c in plain.cells],
        "ref_ms": plain.ref_ms,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload}: {plain.rounds} rounds, {len(plain.cells)} cells; record {path}")
    for k, e in record["figures"].items():
        print(f"  {k:32s} {e['value']:.6g} {e['unit']}")
    for f in failures:
        print(f"  failed {f['count']}x {f['type']} in {f['where']}: {f['message']}")
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
