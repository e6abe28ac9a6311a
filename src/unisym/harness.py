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
import re
import statistics
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
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
from .linalg import NumericalError, _check_count
from .manifold import u_random, us_random
from .optimizer import OptimizerConfig, optimize_us

TRACE_HEADER = ["k", "F_bits", "wall_ms"]
ERRORS_HEADER = ["method", "M", "trial", "seed", "error"]


@dataclass(frozen=True)
class RunSpec:
    """Validated description of one experiment: scenario, element-count
    sweep, trial count, base seed, method list, optimizer settings, and
    the output directory. Every trial sets the scenario's element count."""

    scenario: Scenario = Scenario()
    sweep: tuple[int, ...] = (16, 32, 64, 128)
    trials: int = 50
    seed0: int = 0
    methods: tuple[str, ...] = ("mo_us", "mo_u_proj", "low_cost")
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output_dir: str = "results"

    def __post_init__(self):
        if not self.sweep:
            raise ValueError("sweep must list at least one element count")
        for i, M in enumerate(self.sweep):
            _check_count(M, f"each of the sweep entries (sweep[{i}])")
        if len(set(self.sweep)) != len(self.sweep):
            raise ValueError("sweep entries must not repeat")
        _check_count(self.trials, "trials")
        _check_count(self.seed0, "seed0", least=0)
        if not self.methods:
            raise ValueError("methods must be non-empty")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {list(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")


def _field_defaults(cls, skip: tuple[str, ...] = ()) -> dict:
    # tuples as lists, so that the defaults written as YAML load back equal
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


# every config key with its default: the fields of Scenario (m is set per
# trial, rho is given in dB), of RunSpec and of OptimizerConfig
CONFIG_DEFAULTS: dict = {
    **_field_defaults(Scenario, ("m", "rho")),
    "rho_db": 10.0 * math.log10(Scenario.rho),
    **_field_defaults(RunSpec, ("scenario", "optimizer")),
    **_field_defaults(OptimizerConfig),
}


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


def _from_keys(cls, v: dict, **given):
    """cls built from the config values of its fields, plus the given ones."""
    return cls(**{f.name: v[f.name] for f in fields(cls) if f.name in v}, **given)


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
    return _from_keys(RunSpec, v, scenario=_from_keys(Scenario, v, rho=rho),
                      optimizer=_from_keys(OptimizerConfig, v))


class _SpecLoader(yaml.SafeLoader):
    """SafeLoader that also reads a YAML 1.2 float with an exponent, such as
    1e-3 or 1E+2, as a float: YAML 1.1 needs a dot and a signed exponent,
    and reads the rest as strings."""


_SpecLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_run_spec(path, overrides: dict | None = None) -> RunSpec:
    """RunSpec from a YAML file, with overrides (e.g. CLI flags) applied
    on top of the file values."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_SpecLoader)
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
    sc = replace(spec.scenario, m=M)
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


def _cells(spec: RunSpec, methods, trials: int):
    """The grid's one walk: (method, M, outcomes) per cell in (method,
    element count) order, where outcomes lists _run_trial's (row, trace,
    error) for trials 0 .. trials - 1."""
    for method in methods:
        for M in spec.sweep:
            yield method, M, [_run_trial(spec, method, M, t) for t in range(trials)]


def _cell_summary(rows: list[ResultRow]) -> dict | None:
    """Mean/std rate in bits and mean iteration count over one cell's rows
    with a result; None when there are none."""
    got = [r for r in rows if r.converged not in ("inapplicable", "error")]
    if not got:
        return None
    rates = np.array([r.rate_bits for r in got])
    iters = np.array([r.iterations for r in got], dtype=float)
    return {
        "mean_rate_bits": float(np.mean(rates)),
        "std_rate_bits": float(np.std(rates)),
        "mean_iters": float(np.mean(iters)),
    }


def run_experiment(spec: RunSpec) -> ExperimentResult:
    """Run the full method-by-sweep-by-trial grid and write result files.

    For a fixed (element count, trial) every method sees the identical
    channel realization (seed seed0 + trial), so comparisons are paired.
    Rows are produced in (method, element count, trial) order and the
    whole run is deterministic apart from the timing columns. A trial
    that raises NumericalError becomes an error row and a line of
    errors.csv; the run goes on. A run without one removes errors.csv, and
    every run removes the trace_*.csv files it did not write.
    """
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[ResultRow] = []
    errors: list[tuple] = []
    traces: set[Path] = set()
    summary: dict = {}
    for method, M, outcomes in _cells(spec, spec.methods, spec.trials):
        for row, trace, error in outcomes:
            rows.append(row)
            if error is not None:
                errors.append((method, M, row.trial, row.seed, error))
            if trace is not None:
                path = out_dir / f"trace_{method}_{M}_{row.trial}.csv"
                _write_csv(path, TRACE_HEADER,
                           [(r.k, r.value / LN2, r.wall_ms) for r in trace.records])
                traces.add(path)
        summary.setdefault(method, {})[str(M)] = _cell_summary([row for row, _, _ in outcomes])
    results_csv = out_dir / "results.csv"
    _write_csv(results_csv, RESULTS_HEADER, [astuple(r) for r in rows])
    # an earlier run's errors.csv or trace files would misreport this one
    for path in set(out_dir.glob("trace_*.csv")) - traces:
        path.unlink()
    (out_dir / "errors.csv").unlink(missing_ok=True)
    if errors:
        _write_csv(out_dir / "errors.csv", ERRORS_HEADER, errors)
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
    median per-iteration core time, the median whole-iteration wall time,
    and the summed trial time. The core of mo_us is the gradient, tangent
    projection, eigendecomposition-and-frame and point update, without the
    sweeps; the core of mo_u_proj is its whole Armijo step on the k x k
    problem (gradient, projection, each candidate's exponential and
    evaluation, drift check). A trial that fails (an error row
    of _run_trial) is counted in `failed` and left out of the timings; a
    cell whose trials all failed has nan timings. Non-iterative methods
    have no per-iteration cost and are skipped.
    """
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[BenchRow] = []
    iterative = [m for m in spec.methods if m in ITERATIVE_METHODS]
    for method, M, outcomes in _cells(spec, iterative, max(5, spec.trials)):
        done = [(row, trace) for row, trace, error in outcomes if error is None]
        records = [r for _, trace in done for r in trace.records if r.k >= 1]
        rows.append(BenchRow(method=method, M=M,
                             median_iter_ms=_median([r.core_ms for r in records]),
                             median_wall_ms=_median([r.wall_ms for r in records]),
                             total_ms=sum(row.wall_ms for row, _ in done) if records else math.nan,
                             failed=len(outcomes) - len(done)))
    bench_csv = out_dir / "bench.csv"
    _write_csv(bench_csv, BENCH_HEADER, [astuple(r) for r in rows])
    return rows, bench_csv
