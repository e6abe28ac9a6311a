"""The four workloads of the unisym benchmark and the timed loop that runs them.

A run repeats whole rounds until its time is up. A round draws fresh
inputs from (seed, round) and runs every (method, M, link) cell of the
workload once, so every run attempts the same mix of operations. The
program is called through module attributes (`bdris.rate_bits`, not a
name bound at import), so the traced run's wrappers are reached.

Every output is checked by `checks` as it is produced, outside the timed
spans. A failing operation is caught and counted per cell; the round
goes on.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from unisym import bdris, harness, manifold, optimizer

import checks
import tracing

RHO_DB = 130.0
# rho_db of the edge_link slice on which bdris.rate fails today (its
# Cholesky factor of I + rho H H^H loses positive definiteness).
FAULT_RHO_DB = 300.0
# Seed entropy of that slice: its inputs do not depend on --seed, so the
# share of failed operations is the same in every run.
FAULT_SEED = 300
# Channel seeds of consecutive rounds of one desk run are seed * stride + r.
DESK_SEED_STRIDE = 100_000
ITERATIVE = ("mo_us", "mo_u_proj")


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: tuple[int, ...]
    methods: tuple[str, ...]
    links: tuple[str, ...] = ("live",)   # direct-link states: live, blocked
    nr: int = 4
    nt: int = 4
    via_harness: bool = False            # rounds go through harness.run_experiment
    fault_slice: bool = False            # also attempt the FAULT_RHO_DB slice
    # traced layers the workload must never reach: the traced run checks
    # zero calls, so a change there can be shown to leave it alone
    bypasses: tuple[str, ...] = ()

    def tiny(self) -> "Workload":
        """The same workload at small element counts, for the self-test
        and the set-up warm-up."""
        return replace(self, sweep=tuple(4 * (i + 1) for i in range(len(self.sweep))))


WORKLOADS = {
    "desk": Workload("desk", (16, 32, 64, 128), ("mo_us", "mo_u_proj", "low_cost"),
                     via_harness=True),
    "large_surface": Workload("large_surface", (256,), ("mo_us",), links=("blocked", "live"),
                              bypasses=("linalg.takagi", "optimizer.optimize_u_armijo")),
    "projection": Workload("projection", (128, 256), ("mo_u_proj", "low_cost"),
                           bypasses=("bdris.phase_maximizer",)),
    "edge_link": Workload("edge_link", (16, 32), ("mo_us", "mo_u_proj", "low_cost"),
                          nr=8, nt=2, fault_slice=True),
}


@dataclass
class Cell:
    """One completed (method, M, link) trial: trial time, iterations and
    the rate the program reported for its surface."""

    method: str
    M: int
    link: str
    ms: float
    iters: int
    rate_bits: float
    r: int                        # round index, to pair the cell with its reference timings


@dataclass
class Run:
    cells: list[Cell] = field(default_factory=list)
    program_s: float = 0.0        # time spent in program calls for the cells
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)   # (type, message, where) -> n
    problems: list[str] = field(default_factory=list)    # failed output checks
    bytes_written: int = 0
    rounds: int = 0
    ref_ms: list[float] = field(default_factory=list)    # before round 0, then after each

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, exc: BaseException, n: int = 1) -> None:
        last = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(last.filename).stem}.{last.name}"
        self.failures[(type(exc).__name__, str(exc)[:200], where)] += n

    def check(self, problems: list[str], what: str) -> None:
        self.problems.extend(f"{what}: {p}" for p in problems)


def _scenario(wl: Workload, M: int, link: str, rho_db: float = RHO_DB) -> bdris.Scenario:
    return bdris.Scenario(nr=wl.nr, nt=wl.nt, m=M, rho=10.0 ** (rho_db / 10.0),
                          direct_blocked=(link == "blocked"))


def _cell(run: Run, method: str, sc, ch, entropy: tuple, link: str, record: bool) -> None:
    """Attempt one method on one channel draw, check its output, and
    record it when it counts toward the metrics."""
    cfg = optimizer.OptimizerConfig()
    M = sc.m
    run.attempted += 1
    start = trace = None
    try:
        t0 = time.perf_counter()
        if method == "mo_us":
            start = manifold.us_random(M, seed=np.random.SeedSequence(entropy + (0,)))
            P, trace = optimizer.optimize_us(bdris.RateObjective(ch, sc.rho), start, cfg)
        elif method == "mo_u_proj":
            U0 = manifold.u_random(M, seed=np.random.SeedSequence(entropy + (1,)))
            P, trace = bdris.mo_u_proj_baseline(ch, sc.rho, U0, cfg)
        else:
            P = bdris.low_cost_bdris(ch)
        t1 = time.perf_counter()
        rb = bdris.rate_bits(ch, P, sc.rho)
        t2 = time.perf_counter()
    except Exception as exc:  # a failing trial is counted, the round goes on
        run.fail(exc)
        return
    what = f"{method} M={M} {link}"
    run.check(checks.surface_problems(P.U), what)
    run.check(checks.rate_problems(rb, checks.spectral_rate_bits(ch.Hd, ch.F, ch.G, P.U, sc.rho)),
              what)
    if trace is not None:
        run.check(checks.trace_problems(trace.values, what), what)
    if method == "mo_us":
        start_bits = checks.spectral_rate_bits(ch.Hd, ch.F, ch.G, start.U, sc.rho)
        if not rb >= start_bits - checks.RATE_ABS_TOL:
            run.problems.append(f"{what}: final rate {rb!r} below the start's {start_bits!r}")
        run.check(checks.rate_problems(trace.final_value / math.log(2.0), rb,
                                       "last trace value"), what)
    if record:
        iters = trace.iterations if trace is not None else 0
        run.cells.append(Cell(method, M, link, (t1 - t0) * 1e3, iters, rb, run.rounds))
        run.program_s += t2 - t0


def _direct_round(wl: Workload, seed: int, r: int, run: Run) -> None:
    for M in wl.sweep:
        for link in wl.links:
            sc = _scenario(wl, M, link)
            t0 = time.perf_counter()
            ch = bdris.gen_channels(sc, seed=np.random.SeedSequence((seed, r, M)))
            run.program_s += time.perf_counter() - t0
            for method in wl.methods:
                _cell(run, method, sc, ch, (seed, r, M), link, record=True)


def _fault_round(wl: Workload, run: Run) -> None:
    """The FAULT_RHO_DB slice: attempted and checked, never in the metrics."""
    for M in wl.sweep:
        sc = _scenario(wl, M, "live", FAULT_RHO_DB)
        ch = bdris.gen_channels(sc, seed=np.random.SeedSequence((FAULT_SEED, M)))
        for method in wl.methods:
            _cell(run, method, sc, ch, (FAULT_SEED, M), "fault", record=False)


@contextmanager
def _captured_rates():
    """Capture (channels, surface, rho) of every rate the harness reports,
    so the desk surfaces can be checked; run_experiment returns rows only."""
    seen = []
    orig = harness.rate_bits

    def capture(ch, P, rho):
        value = orig(ch, P, rho)
        seen.append((ch, P, rho, value))
        return value

    harness.rate_bits = capture
    try:
        yield seen
    finally:
        harness.rate_bits = orig


def _desk_round(wl: Workload, seed: int, r: int, run: Run, out_dir: Path) -> None:
    """One run_experiment call of one trial per (method, M), in out_dir."""
    shutil.rmtree(out_dir, ignore_errors=True)
    n = len(wl.methods) * len(wl.sweep)
    run.attempted += n
    spec = harness.build_run_spec({
        "nr": wl.nr, "nt": wl.nt, "rho_db": RHO_DB, "sweep": list(wl.sweep), "trials": 1,
        "seed0": seed * DESK_SEED_STRIDE + r, "methods": list(wl.methods),
        "output_dir": str(out_dir)})
    with _captured_rates() as seen:
        try:
            t0 = time.perf_counter()
            harness.run_experiment(spec)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # run_experiment has no per-trial isolation
            run.fail(exc, n)
            return
    run.program_s += elapsed
    run.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
    problems, rows = checks.harness_files_problems(out_dir, wl.methods, wl.sweep, 1)
    run.check(problems, "desk files")
    applicable = [row for row in rows if row["converged"] != "inapplicable"]
    if len(applicable) != len(seen):
        run.problems.append(f"desk: {len(seen)} rates reported for {len(applicable)} rows")
        return
    for row, (ch, P, rho, value) in zip(applicable, seen):
        what = f"desk {row['method']} M={row['M']}"
        run.check(checks.surface_problems(P.U), what)
        run.check(checks.rate_problems(row["rate_bits"], value, "results.csv rate"), what)
        run.check(checks.rate_problems(
            row["rate_bits"], checks.spectral_rate_bits(ch.Hd, ch.F, ch.G, P.U, rho)), what)
        if row["method"] in ITERATIVE:
            values = checks.trace_file_values(
                out_dir / f"trace_{row['method']}_{row['M']}_{row['trial']}.csv")
            run.check(checks.trace_problems(values, what), what)
            if row["method"] == "mo_us":
                run.check(checks.rate_problems(values[-1], row["rate_bits"],
                                               "last trace value"), what)
        run.cells.append(Cell(row["method"], row["M"], "live", row["wall_ms"],
                              row["iterations"], row["rate_bits"], run.rounds))
    shutil.rmtree(out_dir, ignore_errors=True)


def run_round(wl: Workload, seed: int, r: int, run: Run, workdir: Path,
              tracer: tracing.Tracer | None = None) -> None:
    """One round; with a tracer, its cells (not the fault slice) are traced."""
    with tracing.installed(tracer) if tracer else nullcontext():
        if wl.via_harness:
            _desk_round(wl, seed, r, run, workdir / f"{wl.name}-out")
        else:
            _direct_round(wl, seed, r, run)
    if wl.fault_slice:
        _fault_round(wl, run)
    run.rounds += 1


def warm_up(wl: Workload, workdir: Path) -> None:
    """Build the workload's config and call every method once at small size."""
    run_round(replace(wl.tiny(), fault_slice=False), 0, 0, Run(), workdir)


def run(wl: Workload, seed: int, seconds: float, workdir: Path,
        traced: bool = False) -> tuple[Run, Run | None, tracing.Tracer | None]:
    """Whole rounds until `seconds` of wall time have passed (at least one).

    Untraced: returns (run, None, None). Traced: each round runs twice on
    the same inputs, first plain, then with the tracer installed; returns
    (plain run, traced run, tracer).
    """
    plain = Run()
    traced_run = Run() if traced else None
    tracer = tracing.Tracer() if traced else None
    t_end = time.perf_counter() + seconds
    plain.ref_ms.append(reference_ms())
    r = 0
    while True:
        run_round(wl, seed, r, plain, workdir)
        plain.ref_ms.append(reference_ms())
        if traced:
            run_round(wl, seed, r, traced_run, workdir, tracer)
        r += 1
        if time.perf_counter() >= t_end:
            return plain, traced_run, tracer


_REF_RNG = np.random.default_rng(2026)
_REF_SMALL = _REF_RNG.standard_normal((8, 8)) + 1j * _REF_RNG.standard_normal((8, 8))
_REF_SMALL = _REF_SMALL @ _REF_SMALL.conj().T + np.eye(8)
_REF_LARGE = _REF_RNG.standard_normal((96, 96)) + 1j * _REF_RNG.standard_normal((96, 96))


def _reference_kernel() -> None:
    for _ in range(40):
        np.linalg.cholesky(_REF_SMALL)
        np.linalg.solve(_REF_SMALL, _REF_SMALL[:, 0])
        np.linalg.eigvalsh(_REF_SMALL)
        sum(i * 1.5 for i in range(50))
    C = _REF_LARGE @ _REF_LARGE
    np.linalg.eigh(C + C.conj().T)


# Nominal time of the reference kernel, about its time on the 2-CPU host
# the benchmark was built on; step_ms_norm is expressed at this speed.
REF_MS = 3.5


def reference_ms(reps: int = 3) -> float:
    """Fastest of `reps` runs of a fixed numpy kernel that calls no unisym
    code: a gauge of how fast the shared host runs at this moment."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _geomean(xs) -> float:
    xs = list(xs)
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def _classes(cells: list[Cell]) -> dict:
    out: dict = {}
    for c in cells:
        out.setdefault((c.method, c.M, c.link), []).append(c)
    return out


def trial_ms_p50(cells: list[Cell]) -> float:
    """Median trial time of each (method, M, link) class, geometric mean
    over the classes, so each class weighs the same."""
    return _geomean(statistics.median(c.ms for c in cls) for cls in _classes(cells).values())


def _steps(c: Cell) -> int:
    """Ascent iterations of mo_us / mo_u_proj; the whole design for low_cost."""
    return max(c.iters, 1)


def step_ms_norm(run: Run) -> float:
    """Time of one step at the reference host speed, REF_MS per reference
    kernel: each cell's time is scaled by REF_MS over the reference time
    measured around its round; per (method, M, link) class, scaled time
    over steps; geometric mean over the classes.

    Per step, so that the iteration counts of the seed's draws barely
    enter; scaled, so that the slow spells of a shared host do not."""
    ref = run.ref_ms
    return _geomean(
        math.fsum(c.ms * REF_MS / math.sqrt(ref[c.r] * ref[c.r + 1]) for c in cls)
        / sum(_steps(c) for c in cls)
        for cls in _classes(run.cells).values())


def end_to_end(run: Run) -> dict:
    """Gated workload-level metrics over the recorded cells: name -> (value, unit)."""
    return {
        "step_ms_norm": (step_ms_norm(run), "ms"),
        "rate_bits_mean": (math.fsum(c.rate_bits for c in run.cells) / len(run.cells), "bits"),
    }


def traced_metrics(wl: Workload, plain: Run, traced: Run,
                   tracer: tracing.Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, with the tracing overhead (traced
    minus plain trial_ms_p50 over the same inputs), and the problems found
    by the bypass self-check."""
    metrics = tracer.layer_metrics()
    metrics["harness.bytes_written"] = (traced.bytes_written, "bytes")
    plain_p50 = trial_ms_p50(plain.cells)
    metrics["trace.overhead_pct"] = (100.0 * (trial_ms_p50(traced.cells) - plain_p50) / plain_p50,
                                     "%")
    problems = [f"{wl.name} called {name} {tracer.calls[name]} times"
                for name in wl.bypasses if tracer.calls[name]]
    return metrics, problems


def tail(values: list[float]) -> tuple[int, float] | None:
    """(p, value) of the highest whole percentile with at least ten samples
    above it; None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    k = n - 10
    return 100 * k // n, sorted(values)[k - 1]


def figures(run: Run) -> dict:
    """Ungated figures printed next to the metrics: throughput, and per
    method the trial-time median and tail, time per iteration, iterations
    and rate. Each moves with the iteration counts of the seed's draws."""
    out = {"trials_per_s": (len(run.cells) / run.program_s, "1/s"),
           "trial_ms_p50": (trial_ms_p50(run.cells), "ms"),
           "step_ms_p10": (_geomean(float(np.percentile([c.ms / _steps(c) for c in cls], 10))
                                    for cls in _classes(run.cells).values()), "ms"),
           "reference_ms_p50": (statistics.median(run.ref_ms), "ms")}
    for method in dict.fromkeys(c.method for c in run.cells):
        cells = [c for c in run.cells if c.method == method]
        ms = [c.ms for c in cells]
        out[f"{method}_trials"] = (len(cells), "count")
        out[f"{method}_trial_ms_p50"] = (statistics.median(ms), "ms")
        t = tail(ms)
        if t is not None:
            out[f"{method}_trial_ms_tail"] = (t[1], f"ms@p{t[0]}")
        if method in ITERATIVE:
            iters = sum(c.iters for c in cells)
            out[f"{method}_iter_ms"] = (math.fsum(ms) / iters, "ms")
            out[f"{method}_iters_mean"] = (iters / len(cells), "iterations")
        out[f"{method}_rate_bits_mean"] = (math.fsum(c.rate_bits for c in cells) / len(cells),
                                           "bits")
    return out
