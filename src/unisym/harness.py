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
    gen_channels,
    low_cost_bdris,
    mo_u_proj_baseline,
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
    the output directory. Every trial sets the scenario's element count."""

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
        if any(m < 1 for m in self.sweep):
            raise ValueError("sweep entries must be >= 1")
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


# type of a default -> what a value of its key must be
_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _typed(key: str, value, default):
    """value checked against the type of its default: a bool, an int, a
    finite number (an int becomes a float), a str, or a list or tuple whose
    entries are checked against the default's first entry, returned as a
    tuple. Anything else raises ValueError naming key."""
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
        return tuple(_typed(f"{key}[{i}]", v, default[0]) for i, v in enumerate(value))
    if isinstance(default, bool) or isinstance(value, bool):
        ok = isinstance(default, bool) and isinstance(value, bool)
    elif isinstance(default, float):
        # the bound also rejects NaN and integers too large for a float
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ValueError(f"config key {key!r} must be {_KINDS[type(default)]}, got {value!r}")
    return type(default)(value)


def build_run_spec(values: dict) -> RunSpec:
    """RunSpec from a flat key-value mapping; every key optional, unknown
    keys rejected, every value of its default's type. rho is given in dB
    (rho_db) and converted to linear. Ranges are checked by Scenario,
    OptimizerConfig and RunSpec. A bad value raises ValueError naming its
    key, before anything is run or written."""
    unknown = sorted(set(values) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown config keys {unknown}; allowed keys: {sorted(CONFIG_DEFAULTS)}")
    raw = {**CONFIG_DEFAULTS, **values}
    if isinstance(raw["sweep"], int) and not isinstance(raw["sweep"], bool):
        raw["sweep"] = [raw["sweep"]]
    if isinstance(raw["methods"], str):
        raw["methods"] = [s.strip() for s in raw["methods"].split(",") if s.strip()]
    v = {key: _typed(key, raw[key], default) for key, default in CONFIG_DEFAULTS.items()}

    try:
        rho = 10.0 ** (v["rho_db"] / 10.0)
    except OverflowError:
        rho = math.inf
    if not 0.0 < rho < math.inf:
        raise ValueError(f"config key 'rho_db' must give a finite SNR > 0, got {v['rho_db']!r}")
    scenario = Scenario(
        nt=v["nt"], nr=v["nr"], tx_pos=v["tx_pos"], rx_pos=v["rx_pos"], ris_pos=v["ris_pos"],
        k_rician=v["k_rician"], alpha_ris=v["alpha_ris"], alpha_direct=v["alpha_direct"],
        rho=rho, pl0_db=v["pl0_db"], direct_blocked=v["direct_blocked"])
    return RunSpec(
        scenario=scenario,
        sweep=v["sweep"],
        trials=v["trials"],
        seed0=v["seed0"],
        methods=v["methods"],
        optimizer=OptimizerConfig(epsilon=v["epsilon"], max_iters=v["max_iters"]),
        output_dir=v["output_dir"],
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
