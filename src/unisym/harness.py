"""Experiment runner: config files, seeded Monte-Carlo method comparisons,
convergence traces, timing benchmarks, CSV/JSON outputs.

A run spec is a flat key-value YAML file; every key has a desk-scale
default, unknown keys are rejected, and CLI flags override file values.
Outputs per run: results.csv (one row per method/element-count/trial),
trace_<method>_<M>_<trial>.csv per iterative run, summary.json with
per-method mean/std rates, and errors.csv naming each trial that failed
with a NumericalError. The bench command writes bench.csv with median
per-iteration core and whole-iteration times.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .bdris import (
    LN2,
    InapplicableMethodError,
    RateObjective,
    Scenario,
    _dist,
    gen_channels,
    low_cost_bdris,
    mo_u_proj_baseline,
    path_loss,
    rate_bits,
)
from .linalg import NumericalError
from .manifold import u_random, us_random
from .optimizer import OptimizerConfig, optimize_us

TRACE_HEADER = ["k", "F_bits", "wall_ms"]
ERRORS_HEADER = ["method", "M", "trial", "seed", "error"]

CONFIG_DEFAULTS: dict = {
    "nt": 4,
    "nr": 4,
    "tx_pos": [0.0, 0.0, 1.5],
    "rx_pos": [50.0, 0.0, 1.5],
    "ris_pos": [50.0, 3.0, 3.0],
    "k_rician": 3.0,
    "alpha_ris": 2.0,
    "alpha_direct": 3.75,
    "rho_db": 130.0,
    "pl0_db": 50.0,
    "direct_blocked": False,
    "sweep": [16, 32, 64, 128],
    "trials": 50,
    "seed0": 0,
    "methods": ["mo_us", "mo_u_proj", "low_cost"],
    "epsilon": 1e-3,
    "max_iters": 100,
    "output_dir": "results",
}


@dataclass(frozen=True)
class RunSpec:
    """Validated description of one experiment: scenario, element-count
    sweep, trial count, base seed, method list, optimizer settings, and
    the output directory."""

    scenario: Scenario
    sweep: tuple[int, ...]
    trials: int
    seed0: int
    methods: tuple[str, ...]
    optimizer: OptimizerConfig
    output_dir: str

    def __post_init__(self):
        if not self.sweep:
            raise ValueError("sweep must list at least one element count")
        if any((not isinstance(m, int)) or m < 1 for m in self.sweep):
            raise ValueError("sweep entries must be integers >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed0 < 0:
            raise ValueError("seed0 must be >= 0")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {list(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")


def _expect_int(raw: dict, key: str) -> int:
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"config key {key!r} must be an integer, got {v!r}")
    return v


def _number(key: str, v) -> float:
    # the bound also rejects NaN and integers too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"config key {key!r} must be a finite number, got {v!r}")
    return float(v)


def _expect_position(raw: dict, key: str) -> tuple[float, float, float]:
    v = raw[key]
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ValueError(f"config key {key!r} must be a 3-entry coordinate list")
    return tuple(_number(key, x) for x in v)


def build_run_spec(values: dict) -> RunSpec:
    """RunSpec from a flat key-value mapping; every key optional, unknown
    keys rejected, every number finite, positions distinct, each link's
    power gain at most 1. rho is given in dB (rho_db) and converted to
    linear. A bad value raises ValueError naming its key, before anything
    is run or written."""
    unknown = sorted(set(values) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown config keys {unknown}; allowed keys: {sorted(CONFIG_DEFAULTS)}")
    raw = {**CONFIG_DEFAULTS, **values}

    sweep = raw["sweep"]
    if isinstance(sweep, int) and not isinstance(sweep, bool):
        sweep = [sweep]
    if not isinstance(sweep, (list, tuple)):
        raise ValueError("config key 'sweep' must be a list of element counts")
    methods = raw["methods"]
    if isinstance(methods, str):
        methods = [s.strip() for s in methods.split(",") if s.strip()]
    if not isinstance(methods, (list, tuple)) or not all(isinstance(m, str) for m in methods):
        raise ValueError(f"config key 'methods' must be a list of method names, got {methods!r}")
    if not isinstance(raw["direct_blocked"], bool):
        raise ValueError("config key 'direct_blocked' must be a boolean")
    if not isinstance(raw["output_dir"], str):
        raise ValueError("config key 'output_dir' must be a string")

    if any(isinstance(m, bool) or not isinstance(m, int) for m in sweep):
        raise ValueError(f"config key 'sweep' must list integer element counts, got {sweep!r}")
    sweep = tuple(sweep)
    rho_db = _number("rho_db", raw["rho_db"])
    try:
        rho = 10.0 ** (rho_db / 10.0)
    except OverflowError:
        rho = math.inf
    if not 0.0 < rho < math.inf:
        raise ValueError(f"config key 'rho_db' must give a finite SNR > 0, got {rho_db!r}")
    scenario = Scenario(
        nt=_expect_int(raw, "nt"),
        nr=_expect_int(raw, "nr"),
        m=sweep[0] if sweep else 1,
        tx_pos=_expect_position(raw, "tx_pos"),
        rx_pos=_expect_position(raw, "rx_pos"),
        ris_pos=_expect_position(raw, "ris_pos"),
        k_rician=_number("k_rician", raw["k_rician"]),
        alpha_ris=_number("alpha_ris", raw["alpha_ris"]),
        alpha_direct=_number("alpha_direct", raw["alpha_direct"]),
        rho=rho,
        pl0_db=_number("pl0_db", raw["pl0_db"]),
        direct_blocked=raw["direct_blocked"],
    )
    # each link joins distinct positions and, being passive, has a power
    # gain of at most 1, so its channels are finite and their products too
    for a, b, alpha in (("tx_pos", "ris_pos", "alpha_ris"), ("ris_pos", "rx_pos", "alpha_ris"),
                        ("tx_pos", "rx_pos", "alpha_direct")):
        try:
            pl = path_loss(_dist(getattr(scenario, a), getattr(scenario, b)),
                           getattr(scenario, alpha), scenario.pl0_db)
        except ValueError:
            raise ValueError(f"config keys {a!r} and {b!r} must be distinct positions") from None
        except OverflowError:
            pl = math.inf
        if not pl <= 1.0:
            raise ValueError(f"config keys 'pl0_db', {alpha!r}, {a!r} and {b!r} give a link "
                             f"power gain of {pl:.3g}, above 1")
    optimizer = OptimizerConfig(
        epsilon=_number("epsilon", raw["epsilon"]),
        max_iters=_expect_int(raw, "max_iters"),
    )
    return RunSpec(
        scenario=scenario,
        sweep=sweep,
        trials=_expect_int(raw, "trials"),
        seed0=_expect_int(raw, "seed0"),
        methods=tuple(methods),
        optimizer=optimizer,
        output_dir=raw["output_dir"],
    )


def load_run_spec(path, overrides: dict | None = None) -> RunSpec:
    """RunSpec from a YAML file, with overrides (e.g. CLI flags) applied
    on top of the file values."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a key-value mapping")
    return build_run_spec({**data, **(overrides or {})})


@dataclass(frozen=True)
class ResultRow:
    """One (method, element count, trial) outcome. converged is "true",
    "false", "inapplicable" or "error"; the last two carry a nan rate."""

    method: str
    M: int
    trial: int
    seed: int
    rate_bits: float
    iterations: int
    wall_ms: float
    converged: str


RESULTS_HEADER = [f.name for f in fields(ResultRow)]


@dataclass
class ExperimentResult:
    rows: list[ResultRow]
    summary: dict
    results_csv: Path
    summary_json: Path
    output_dir: Path


def _init_seed(seed0: int, trial: int, M: int, stream: int) -> np.random.SeedSequence:
    # independent of the channel seed so starts and channels never collide
    return np.random.SeedSequence((seed0, trial, M, stream))


# Method name -> runner (channels, rho, seed0, trial, optimizer config) ->
# (surface, trace or None). Each iterative method draws its start point
# from its own _init_seed stream; a runner raises InapplicableMethodError
# when the method cannot run on the scenario.
METHODS = {
    "mo_us": lambda ch, rho, seed0, trial, cfg: optimize_us(
        RateObjective(ch, rho), us_random(ch.m, seed=_init_seed(seed0, trial, ch.m, 0)), cfg),
    "mo_u_proj": lambda ch, rho, seed0, trial, cfg: mo_u_proj_baseline(
        ch, rho, u_random(ch.m, seed=_init_seed(seed0, trial, ch.m, 1)), cfg),
    "low_cost": lambda ch, rho, seed0, trial, cfg: (low_cost_bdris(ch), None),
}
ITERATIVE_METHODS = ("mo_us", "mo_u_proj")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # csv writes a float as its repr, so every value round-trips exactly
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _run_trial(spec: RunSpec, method: str, M: int, trial: int):
    """One trial of one method on the channels of seed seed0 + trial, as
    (result row, trace or None, error message or None). Only the method
    call is timed; an inapplicable method or a NumericalError, in the method
    or in valuing its surface, gives a row with nan rate and no trace."""
    sc = spec.scenario.with_elements(M)
    seed = spec.seed0 + trial
    ch = gen_channels(sc, seed=seed)
    try:
        t0 = time.perf_counter()
        P, trace = METHODS[method](ch, sc.rho, spec.seed0, trial, spec.optimizer)
        wall = (time.perf_counter() - t0) * 1e3
        rb = rate_bits(ch, P, sc.rho)
    except InapplicableMethodError:
        return ResultRow(method, M, trial, seed, math.nan, 0, 0.0, "inapplicable"), None, None
    except NumericalError as exc:
        return ResultRow(method, M, trial, seed, math.nan, 0, 0.0, "error"), None, str(exc)
    iters = 0 if trace is None else trace.iterations
    ok = "true" if trace is None or trace.status == "converged" else "false"
    return ResultRow(method, M, trial, seed, rb, iters, wall, ok), trace, None


def _summarize(rows: list[ResultRow], methods, sweep) -> dict:
    """Per method, per element count: mean/std rate in bits and mean
    iteration count over rows with a result; null when there are none."""
    out: dict = {}
    for method in methods:
        per_m: dict = {}
        for M in sweep:
            got = [r for r in rows
                   if r.method == method and r.M == M
                   and r.converged not in ("inapplicable", "error")]
            if not got:
                per_m[str(M)] = None
                continue
            rates = np.array([r.rate_bits for r in got])
            iters = np.array([r.iterations for r in got], dtype=float)
            per_m[str(M)] = {
                "mean_rate_bits": float(np.mean(rates)),
                "std_rate_bits": float(np.std(rates)),
                "mean_iters": float(np.mean(iters)),
            }
        out[method] = per_m
    return out


def run_experiment(spec: RunSpec) -> ExperimentResult:
    """Run the full method-by-sweep-by-trial grid and write result files.

    For a fixed (element count, trial) every method sees the identical
    channel realization (seed seed0 + trial), so comparisons are paired.
    Rows are produced in (method, element count, trial) order and the
    whole run is deterministic apart from the timing columns. A trial
    that raises NumericalError becomes an error row and a line of
    errors.csv; the run goes on.
    """
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[ResultRow] = []
    errors: list[tuple] = []
    for method in spec.methods:
        for M in spec.sweep:
            for trial in range(spec.trials):
                row, trace, error = _run_trial(spec, method, M, trial)
                rows.append(row)
                if error is not None:
                    errors.append((method, M, trial, row.seed, error))
                if trace is not None:
                    _write_csv(out_dir / f"trace_{method}_{M}_{trial}.csv", TRACE_HEADER,
                               [(r.k, r.value / LN2, r.wall_ms) for r in trace.records])
    results_csv = out_dir / "results.csv"
    _write_csv(results_csv, RESULTS_HEADER, [astuple(r) for r in rows])
    if errors:
        _write_csv(out_dir / "errors.csv", ERRORS_HEADER, errors)
    summary = _summarize(rows, spec.methods, spec.sweep)
    summary_json = out_dir / "summary.json"
    summary_json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    return ExperimentResult(rows=rows, summary=summary, results_csv=results_csv,
                            summary_json=summary_json, output_dir=out_dir)


@dataclass
class BenchRow:
    method: str
    M: int
    median_iter_ms: float    # median IterationRecord.core_ms
    median_wall_ms: float    # median IterationRecord.wall_ms, sweeps included
    total_ms: float          # summed wall_ms of the trials that did not fail
    failed: int              # trials that raised NumericalError


BENCH_HEADER = [f.name for f in fields(BenchRow)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def bench(spec: RunSpec) -> tuple[list[BenchRow], Path]:
    """Time the iterative methods per element count and write bench.csv.

    For each (method, M), over at least 5 trials run sequentially: the
    median per-iteration core time (gradient, tangent projection,
    eigendecomposition-and-frame, point update), the median whole-iteration
    wall time, and the summed trial time. A trial that fails (an error row
    of _run_trial) is counted in `failed` and left out of the timings; a
    cell whose trials all failed has nan timings. Non-iterative methods
    have no per-iteration cost and are skipped.
    """
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[BenchRow] = []
    for method in spec.methods:
        if method not in ITERATIVE_METHODS:
            continue
        for M in spec.sweep:
            records: list = []
            total = 0.0
            failed = 0
            for trial in range(max(5, spec.trials)):
                row, trace, error = _run_trial(spec, method, M, trial)
                if error is not None:
                    failed += 1
                    continue
                total += row.wall_ms
                records.extend(r for r in trace.records if r.k >= 1)
            rows.append(BenchRow(method=method, M=M,
                                 median_iter_ms=_median([r.core_ms for r in records]),
                                 median_wall_ms=_median([r.wall_ms for r in records]),
                                 total_ms=total if records else math.nan,
                                 failed=failed))
    bench_csv = out_dir / "bench.csv"
    _write_csv(bench_csv, BENCH_HEADER, [astuple(r) for r in rows])
    return rows, bench_csv
