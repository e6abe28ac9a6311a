"""Harness tests: config parsing, result-file schemas, pairing,
determinism, and the CLI entry point."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from unisym.bdris import Scenario
from unisym.cli import main
from unisym.harness import (
    BENCH_HEADER,
    CONFIG_DEFAULTS,
    ERRORS_HEADER,
    METHODS,
    RESULTS_HEADER,
    TRACE_HEADER,
    RunSpec,
    bench,
    build_run_spec,
    load_run_spec,
    run_experiment,
)
from unisym.optimizer import OptimizerConfig


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# rho H H^H overflows: 3080 dB on 1 m links without path loss
EXTREME_SNR = {"rho_db": 3080.0, "pl0_db": 0.0, "tx_pos": [0.0, 0.0, 0.0],
               "ris_pos": [1.0, 0.0, 0.0], "rx_pos": [1.0, 1.0, 0.0], "sweep": [64]}


# the mo_us phase sweep's bound 2 rho b^2 overflows below the Gram check's
# reach: 3060 dB on the same links
SWEEP_OVERFLOW = {**EXTREME_SNR, "rho_db": 3060.0, "sweep": [4, 16, 64], "trials": 2,
                  "max_iters": 30, "methods": ["mo_us"]}

# rho above half the float range, 2 rho alone past it, on links whose
# path loss keeps rho H H^H near 1e9: no overflow to report
HUGE_RHO = {"rho_db": 3080.0, "pl0_db": 1480.0, "direct_blocked": True, "sweep": [16],
            "trials": 2}


def tiny_spec(out_dir, **over):
    values = {
        "nt": 2, "nr": 2,
        "sweep": [4], "trials": 2, "seed0": 7,
        "methods": ["mo_us", "mo_u_proj", "low_cost"],
        "max_iters": 40,
        "output_dir": str(out_dir),
    }
    values.update(over)
    return build_run_spec(values)


class TestConfig:
    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("trials: 3\n")
        spec = load_run_spec(cfg)
        assert spec.trials == 3
        assert spec.sweep == tuple(CONFIG_DEFAULTS["sweep"])
        assert spec.scenario.nt == 4 and spec.scenario.nr == 4
        assert spec.scenario.rho == pytest.approx(1e13)
        assert spec.optimizer.epsilon == 1e-3

    def test_empty_file_means_all_defaults(self, tmp_path):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("")
        spec = load_run_spec(cfg)
        assert spec.methods == ("mo_us", "mo_u_proj", "low_cost")
        assert spec.trials == 50

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("trails: 3\n")
        with pytest.raises(ValueError, match="trails"):
            load_run_spec(cfg)

    def test_overrides_beat_file_values(self, tmp_path):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("trials: 3\nseed0: 1\n")
        spec = load_run_spec(cfg, {"trials": 9, "output_dir": "elsewhere"})
        assert spec.trials == 9
        assert spec.seed0 == 1
        assert spec.output_dir == "elsewhere"

    def test_snr_given_in_db(self):
        spec = tiny_spec("o", rho_db=20.0)
        assert spec.scenario.rho == pytest.approx(100.0)

    def test_methods_accept_comma_string(self):
        spec = tiny_spec("o", methods="mo_us, low_cost")
        assert spec.methods == ("mo_us", "low_cost")

    def test_scalar_sweep_promoted(self):
        spec = tiny_spec("o", sweep=8)
        assert spec.sweep == (8,)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec("o", trials=0)
        with pytest.raises(ValueError):
            tiny_spec("o", sweep=[])
        with pytest.raises(ValueError, match="sweep entries"):
            tiny_spec("o", sweep=[0])
        with pytest.raises(ValueError):
            tiny_spec("o", methods=[])
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_spec("o", methods=["mo_us", "sgd"])
        with pytest.raises(ValueError):
            tiny_spec("o", methods=["mo_us", "mo_us"])
        with pytest.raises(ValueError):
            tiny_spec("o", direct_blocked="yes please")
        with pytest.raises(ValueError):
            tiny_spec("o", trials="many")
        with pytest.raises(ValueError):
            tiny_spec("o", seed0=-1)

    def test_fractional_counts_rejected_before_any_output(self, tmp_path):
        out = tmp_path / "r"
        for over in ({"trials": 1.5}, {"sweep": (4.5,)}):
            with pytest.raises(ValueError, match="must be an integer"):
                run_experiment(RunSpec(output_dir=str(out), **over))
        assert not out.exists()
        assert RunSpec(sweep=(np.int64(4),)).sweep == (4,)

    def test_repeated_sweep_entry_rejected_before_any_output(self, tmp_path):
        # a repeated element count would run its cells twice, duplicate
        # their rows and overwrite their trace files
        out = tmp_path / "r"
        for sweep in ((8, 8), (4, 8, np.int64(4))):
            with pytest.raises(ValueError, match="sweep"):
                run_experiment(RunSpec(output_dir=str(out), sweep=sweep, trials=1))
        with pytest.raises(ValueError, match="sweep"):
            tiny_spec(out, sweep=[8, 8])
        assert not out.exists()

    def test_no_values_give_the_class_defaults(self):
        spec = build_run_spec({})
        assert spec.scenario == Scenario()
        assert spec.optimizer == OptimizerConfig()
        assert spec == RunSpec()

    def test_blocked_flag_reaches_scenario(self):
        spec = tiny_spec("o", direct_blocked=True)
        assert spec.scenario.direct_blocked

    def test_readme_config_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        assert yaml.safe_load(blocks[0]) == CONFIG_DEFAULTS


class TestRunExperiment:
    def test_blocked_low_cost_gives_one_inapplicable_row(self, tmp_path):
        spec = tiny_spec(tmp_path / "r", sweep=[2], trials=1,
                         methods=["low_cost"], direct_blocked=True)
        result = run_experiment(spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.converged == "inapplicable"
        assert math.isnan(row.rate_bits)
        assert row.iterations == 0
        assert result.summary["low_cost"]["2"] is None
        table = read_csv(result.results_csv)
        assert table[0] == RESULTS_HEADER
        assert len(table) == 2
        assert table[1][-1] == "inapplicable"
        assert table[1][4] == "nan"

    def test_row_grid_and_paired_seeds(self, tmp_path):
        spec = tiny_spec(tmp_path / "r", sweep=[2, 4], trials=2)
        result = run_experiment(spec)
        assert len(result.rows) == 3 * 2 * 2
        # per (M, trial), every method carries the identical channel seed
        seeds = {}
        for row in result.rows:
            seeds.setdefault((row.M, row.trial), set()).add(row.seed)
        assert all(len(s) == 1 for s in seeds.values())
        assert {r.seed for r in result.rows} == {7, 8}
        # order is method-major, then sweep order, then trial
        keys = [(r.method, r.M, r.trial) for r in result.rows]
        expected = [(m, M, t) for m in spec.methods for M in (2, 4) for t in (0, 1)]
        assert keys == expected

    def test_output_schemas_and_invariants(self, tmp_path):
        spec = tiny_spec(tmp_path / "r", sweep=[4], trials=2)
        result = run_experiment(spec)
        table = read_csv(result.results_csv)
        assert table[0] == RESULTS_HEADER
        assert len(table) == 1 + 3 * 2

        for row in result.rows:
            if row.converged == "inapplicable":
                continue
            assert row.rate_bits >= 0.0
            if row.method == "low_cost":
                assert row.iterations == 0
            else:
                assert row.iterations >= 1

        for method in ("mo_us", "mo_u_proj"):
            for trial in (0, 1):
                trace = read_csv(result.output_dir / f"trace_{method}_4_{trial}.csv")
                assert trace[0] == TRACE_HEADER
                ks = [int(r[0]) for r in trace[1:]]
                assert ks == list(range(len(ks)))
                if method == "mo_us":
                    vals = [float(r[1]) for r in trace[1:]]
                    assert np.all(np.diff(vals) >= -1e-12)
        assert not list(result.output_dir.glob("trace_low_cost_*"))
        assert not (result.output_dir / "errors.csv").exists()

        summary = json.loads(result.summary_json.read_text())
        assert set(summary) == {"mo_us", "mo_u_proj", "low_cost"}
        cell = summary["mo_us"]["4"]
        assert set(cell) == {"mean_rate_bits", "std_rate_bits", "mean_iters"}
        assert cell["mean_iters"] >= 1.0

    def test_deterministic_modulo_timing(self, tmp_path):
        wall_col = RESULTS_HEADER.index("wall_ms")
        runs = []
        for name in ("a", "b"):
            spec = tiny_spec(tmp_path / name, sweep=[4], trials=2)
            result = run_experiment(spec)
            table = read_csv(result.results_csv)
            runs.append([r[:wall_col] + r[wall_col + 1:] for r in table])
        assert runs[0] == runs[1]
        # traces agree too, timing column aside
        for trial in (0, 1):
            a = read_csv(tmp_path / "a" / f"trace_mo_us_4_{trial}.csv")
            b = read_csv(tmp_path / "b" / f"trace_mo_us_4_{trial}.csv")
            assert [r[:2] for r in a] == [r[:2] for r in b]
        assert (tmp_path / "a" / "summary.json").read_text() == \
               (tmp_path / "b" / "summary.json").read_text()

    def test_numerical_failure_becomes_error_row(self, tmp_path):
        # at 300 dB on an 8x2 link the rate's Cholesky factor fails for
        # every method; each trial must fail alone, not end the run
        spec = tiny_spec(tmp_path / "r", nr=8, nt=2, rho_db=300.0, sweep=[16], trials=2)
        result = run_experiment(spec)
        assert [(r.method, r.trial) for r in result.rows] == \
            [(m, t) for m in spec.methods for t in (0, 1)]
        for row in result.rows:
            assert row.converged == "error"
            assert math.isnan(row.rate_bits)
            assert row.iterations == 0
        assert all(result.summary[m]["16"] is None for m in spec.methods)
        table = read_csv(result.results_csv)
        assert len(table) == 1 + 6
        assert all(r[-1] == "error" and r[4] == "nan" for r in table[1:])
        errors = read_csv(result.output_dir / "errors.csv")
        assert errors[0] == ERRORS_HEADER
        assert [r[:4] for r in errors[1:]] == \
            [[m, "16", str(t), str(7 + t)] for m in spec.methods for t in (0, 1)]
        assert all("positive definiteness" in r[4] for r in errors[1:])
        assert not list(result.output_dir.glob("trace_*"))

    def test_per_phase_margin_failure_becomes_error_row(self, tmp_path, monkeypatch):
        # a corrupted per-phase solve trips the sweep's margin guard
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, B: 1e8 * solve(A, B))
        spec = tiny_spec(tmp_path / "r", methods=["mo_us"], trials=1)
        result = run_experiment(spec)
        assert [r.converged for r in result.rows] == ["error"]
        assert math.isnan(result.rows[0].rate_bits)
        errors = read_csv(result.output_dir / "errors.csv")
        assert errors[1][:4] == ["mo_us", "4", "0", "7"]
        assert "per-phase determinant term lost positivity" in errors[1][4]

    def test_overflow_at_extreme_snr_becomes_error_row(self, tmp_path):
        spec = build_run_spec({**EXTREME_SNR, "trials": 1, "output_dir": str(tmp_path / "r")})
        result = run_experiment(spec)
        assert [(r.method, r.converged) for r in result.rows] == \
            [(m, "error") for m in spec.methods]
        assert all(math.isnan(r.rate_bits) for r in result.rows)
        assert all(result.summary[m]["64"] is None for m in spec.methods)
        errors = read_csv(result.output_dir / "errors.csv")
        assert [r[0] for r in errors[1:]] == list(spec.methods)
        assert all("argument overflowed" in r[4] for r in errors[1:])

    def test_rho_past_half_the_float_range_gives_finite_rates(self, tmp_path):
        # warnings are errors here; measured: mo_us 121.0-122.4 bits and
        # mo_u_proj 118.1-119.1 bits
        result = run_experiment(build_run_spec({**HUGE_RHO, "output_dir": str(tmp_path / "r")}))
        assert [(r.method, r.converged) for r in result.rows] == \
            [("mo_us", "true")] * 2 + [("mo_u_proj", "true")] * 2 + [("low_cost", "inapplicable")] * 2
        assert all(110.0 < r.rate_bits < 130.0 for r in result.rows[:4])
        assert not (result.output_dir / "errors.csv").exists()

    def test_sweep_overflow_becomes_error_rows(self, tmp_path):
        # warnings are errors here, so an overflow inside the sweep would
        # raise instead of reaching a row
        spec = build_run_spec({**SWEEP_OVERFLOW, "output_dir": str(tmp_path / "r")})
        result = run_experiment(spec)
        assert len(result.rows) == 3 * 2
        failed = [r for r in result.rows if r.converged == "error"]
        assert all(math.isfinite(r.rate_bits) for r in result.rows if r not in failed)
        errors = read_csv(result.output_dir / "errors.csv")
        assert [r[:4] for r in errors[1:]] == \
            [[r.method, str(r.M), str(r.trial), str(r.seed)] for r in failed]
        assert any("phase sweep overflowed" in r[4] for r in errors[1:])

    def test_unmendable_drift_becomes_error_rows(self, tmp_path, monkeypatch):
        # every candidate either iterative method forms drifts by a relative
        # 1e-2, which one polar step cannot mend: each trial is an error row
        # with its errors.csv line, not a quietly replaced point
        import unisym.optimizer as opt
        from unisym.manifold import UPoint, UsPoint
        us_exact, u_exact = opt.us_point_at, opt.u_geodesic
        monkeypatch.setattr(opt, "us_point_at",
                            lambda Fr, phases: UsPoint(Q=us_exact(Fr, phases).Q * (1 + 1e-2)))
        monkeypatch.setattr(opt, "u_geodesic",
                            lambda P, S, t: UPoint(U=u_exact(P, S, t).U * (1 + 1e-2)))
        result = run_experiment(tiny_spec(tmp_path / "r", methods=["mo_us", "mo_u_proj"]))
        assert [r.converged for r in result.rows] == ["error"] * 4
        errors = read_csv(result.output_dir / "errors.csv")
        assert [r[:4] for r in errors[1:]] == \
            [[r.method, str(r.M), str(r.trial), str(r.seed)] for r in result.rows]
        assert all("candidate point lost unitarity" in r[4] for r in errors[1:])

    def test_rerun_removes_stale_trace_files(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "r", sweep=[4, 16], trials=2))
        result = run_experiment(tiny_spec(tmp_path / "r", sweep=[4], trials=1))
        named = {f"trace_{r.method}_{r.M}_{r.trial}.csv" for r in result.rows
                 if r.method != "low_cost" and r.converged != "error"}
        assert len(named) == 2
        assert {p.name for p in (tmp_path / "r").glob("trace_*")} == named

    def test_clean_rerun_removes_stale_errors_file(self, tmp_path):
        failing = tiny_spec(tmp_path / "r", nr=8, nt=2, rho_db=300.0, sweep=[16], trials=1)
        assert run_experiment(failing).rows[0].converged == "error"
        assert (tmp_path / "r" / "errors.csv").exists()
        result = run_experiment(tiny_spec(tmp_path / "r", trials=1))
        assert not any(r.converged == "error" for r in result.rows)
        assert not (tmp_path / "r" / "errors.csv").exists()

    def test_blocked_run_keeps_iterative_methods(self, tmp_path):
        spec = tiny_spec(tmp_path / "r", sweep=[4], trials=1, direct_blocked=True)
        result = run_experiment(spec)
        by_method = {r.method: r for r in result.rows}
        assert by_method["low_cost"].converged == "inapplicable"
        assert by_method["mo_us"].rate_bits > 0
        assert by_method["mo_u_proj"].rate_bits > 0

    def test_single_element_runs_converge_at_their_optimum(self, tmp_path):
        # on an 8 x 2 link at M = 1, trials 1 and 5 refuse their last
        # candidate, 7.1e-15 and 8.9e-15 nats below F: roundoff at the
        # optimum, so the point is kept and the run converged
        spec = build_run_spec({"nr": 8, "nt": 2, "sweep": [1], "trials": 6,
                               "methods": ["mo_us"], "output_dir": str(tmp_path / "r")})
        result = run_experiment(spec)
        assert [r.converged for r in result.rows] == ["true"] * 6
        for trial in (1, 5):
            trace = read_csv(tmp_path / "r" / f"trace_mo_us_1_{trial}.csv")
            assert [row[0] for row in trace[1:]] == ["0", "1", "2"]
            assert trace[-1][1] == trace[-2][1]


class TestBench:
    def test_rows_for_iterative_methods_only(self, tmp_path):
        spec = tiny_spec(tmp_path / "b", sweep=[4], trials=1)
        rows, path = bench(spec)
        assert [(r.method, r.M) for r in rows] == [("mo_us", 4), ("mo_u_proj", 4)]
        assert all(r.median_iter_ms > 0 and r.total_ms > 0 for r in rows)
        # core time is part of each iteration's wall time
        assert all(r.median_wall_ms >= r.median_iter_ms for r in rows)
        assert all(r.failed == 0 for r in rows)
        table = read_csv(path)
        assert table[0] == BENCH_HEADER
        assert len(table) == 3

    def test_numerical_failure_is_counted_not_raised(self, tmp_path):
        # at 300 dB on an 8x2 link every trial fails in the rate's Cholesky
        spec = tiny_spec(tmp_path / "b", nr=8, nt=2, rho_db=300.0, sweep=[16],
                         methods=["mo_us"])
        rows, path = bench(spec)
        assert [(r.method, r.M, r.failed) for r in rows] == [("mo_us", 16, 5)]
        assert math.isnan(rows[0].median_iter_ms)
        assert math.isnan(rows[0].median_wall_ms)
        assert math.isnan(rows[0].total_ms)
        assert read_csv(path)[1] == ["mo_us", "16", "nan", "nan", "nan", "5"]

    def test_single_element_surface_runs(self, tmp_path):
        spec = tiny_spec(tmp_path / "b", sweep=[1], trials=1, methods=["mo_us"])
        rows, path = bench(spec)
        assert len(rows) == 1
        assert rows[0].M == 1
        assert path.exists()


class TestCli:
    def write_cfg(self, tmp_path, **over):
        values = {"nt": 2, "nr": 2, "sweep": [4], "trials": 1,
                  "methods": ["mo_us"], "max_iters": 30,
                  "output_dir": str(tmp_path / "out")}
        values.update(over)
        cfg = tmp_path / "spec.yaml"
        cfg.write_text(yaml.safe_dump(values))
        return cfg

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "mo_us" in out and "results.csv" in str(out)
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, trials=5)
        assert main(["bench", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "median iter" in out and "ms wall" in out
        assert (tmp_path / "out" / "bench.csv").exists()

    def test_bench_failed_trials_exit_one(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, nr=8, nt=2, rho_db=300.0, sweep=[16])
        assert main(["bench", str(cfg)]) == 1
        assert "5 trial(s) failed" in capsys.readouterr().err
        assert (tmp_path / "out" / "bench.csv").exists()

    def test_flag_overrides(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        alt = tmp_path / "alt"
        assert main(["run", str(cfg), "--out", str(alt), "--trials", "2",
                     "--seed", "5", "--methods", "mo_us,low_cost"]) == 0
        table = read_csv(alt / "results.csv")
        rows = table[1:]
        assert len(rows) == 2 * 2
        assert {r[0] for r in rows} == {"mo_us", "low_cost"}
        assert {r[3] for r in rows} == {"5", "6"}

    def test_failed_trials_exit_one(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, nr=8, nt=2, rho_db=300.0, sweep=[16],
                             methods=["mo_us", "low_cost"])
        assert main(["run", str(cfg)]) == 1
        assert "2 trial(s) failed" in capsys.readouterr().err
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "errors.csv").exists()

    def test_bench_without_iterative_methods_exits_zero(self, tmp_path, capsys):
        # an empty method list for the grid walk: a header-only bench.csv
        cfg = self.write_cfg(tmp_path, methods=["low_cost"])
        assert main(["bench", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert read_csv(tmp_path / "out" / "bench.csv") == [BENCH_HEADER]

    def test_overflow_at_extreme_snr_exits_one(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, **EXTREME_SNR, methods=list(METHODS))
        assert main(["run", str(cfg)]) == 1
        assert "3 trial(s) failed" in capsys.readouterr().err
        assert "inf" not in (tmp_path / "out" / "results.csv").read_text()
        assert (tmp_path / "out" / "errors.csv").exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "spec.yaml"
        for text, message in (("no_such_key: 1\n", "no_such_key"),
                              ("- 4\n- 8\n", "key-value mapping")):
            cfg.write_text(text)
            assert main(["run", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and message in err

    @pytest.mark.parametrize("key,value", [
        ("rho_db", 4000.0), ("rho_db", -4000.0), ("rho_db", math.nan),
        ("k_rician", math.nan), ("epsilon", math.nan),
        ("sweep", [16.7]), ("sweep", [True]), ("sweep", ["16"]),
        ("methods", [[1]]), ("pl0_db", -4000.0), ("ris_pos", [50.0, 0.0, 1.5]),
        ("pl0_db", -3000.0), ("tx_pos", 1.0), ("tx_pos", [1.0e200, 1.0e200, 1.5])])
    def test_bad_value_rejected_before_any_work(self, tmp_path, capsys, key, value):
        cfg = self.write_cfg(tmp_path, **{key: value})
        assert main(["run", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,loaded", [
        ("epsilon: 1e-3", lambda spec: spec.optimizer.epsilon == 1e-3),
        ("rho_db: 1E+2", lambda spec: spec.scenario.rho == 1e10),
        ("k_rician: 1.0e200", lambda spec: spec.scenario.k_rician == 1e200)])
    def test_exponent_floats_accepted(self, tmp_path, line, loaded):
        # YAML 1.1 reads these as strings
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert loaded(load_run_spec(cfg))
        assert main(["run", str(cfg)]) == 0

    @pytest.mark.parametrize("line", ['epsilon: "1e-3"', "trials: 1e3"])
    def test_quoted_float_and_float_count_rejected(self, tmp_path, capsys, line):
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main(["run", str(cfg)]) == 2
        assert line.split(":")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_yaml_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text(f"sweep: [4, 8\noutput_dir: {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "error:" in capsys.readouterr().err
