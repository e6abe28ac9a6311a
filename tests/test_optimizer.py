"""Optimizer behavior on analytic toy objectives.

The rate objective gets its own tests; here the expected optima are known
in closed form (constant, 1-D circle, linear trace), and so is each
toy objective's phase sweep, so convergence targets need no numerical
oracle.
"""

import ast
import importlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from unisym.linalg import DRIFT_TOL, NumericalError, _unitarity_residual
from unisym.manifold import (
    GeodesicFrame,
    TangentDirection,
    UPoint,
    UsPoint,
    u_random,
    us_geodesic_frame,
    us_point_at,
    us_random,
)
from unisym.optimizer import (
    IterationTrace,
    Objective,
    OptimizerConfig,
    _settle,
    optimize_u_armijo,
    optimize_us,
    phase_sweep,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class ConstantObjective(Objective):
    def eval(self, point):
        return 3.0

    def grad_factors(self, point):
        n = point.U.shape[0]
        return np.zeros((n, 1), dtype=complex), np.zeros((n, 1), dtype=complex)

    def sweep(self, Fr, theta):
        return theta


class LinearTrace(Objective):
    """f(U) = Re tr(A^H U) for a fixed A; its gradient is A, as (A, I).

    On a geodesic frame, U = sum_m e^{j phi_m} q_m q_m^T with q_m column m
    of Fr.QR, so f = sum_m Re(e^{j phi_m} q_m^T conj(A) q_m) is separable:
    the sweep sets phi_m = -arg(q_m^T conj(A) q_m), and keeps theta_m
    where that value is 0.
    """

    def __init__(self, A):
        self.A = np.asarray(A, dtype=complex)

    def eval(self, point):
        return float(np.real(np.trace(self.A.conj().T @ point.U)))

    def grad_factors(self, point):
        return self.A, np.eye(self.A.shape[0])

    def sweep(self, Fr, theta):
        c = np.einsum("im,ij,jm->m", Fr.QR, self.A.conj(), Fr.QR)
        return np.where(c == 0, theta, -np.angle(c))


def CircleObjective():
    """f(U) = Re(U) on the 1x1 manifold (the unit circle); max at U = 1."""
    return LinearTrace([[1.0]])


class DownhillKeepSeed(LinearTrace):
    """A linear trace whose gradient points downhill and whose sweep keeps
    the phases it is given, so the gradient-step candidate loses value."""

    def __init__(self, A):
        super().__init__(A)
        self.swept = []   # (frame, phases) per sweep call

    def grad_factors(self, point):
        return -1e-3 * self.A, np.eye(self.A.shape[0])

    def sweep(self, Fr, theta):
        self.swept.append((Fr, theta.copy()))
        return theta


class Sinking(LinearTrace):
    """Lower at every evaluation, so any candidate ends below the start."""

    def __init__(self, A):
        super().__init__(A)
        self.evals = 0

    def eval(self, point):
        self.evals += 1
        return -float(self.evals)

    def sweep(self, Fr, theta):
        return theta


class ShortBy(LinearTrace):
    """Values its first point at 0 and every other point at -delta, and its
    sweep always moves, so every candidate falls delta short."""

    def __init__(self, A, delta):
        super().__init__(A)
        self.delta = delta
        self.start = None

    def eval(self, point):
        if self.start is None:
            self.start = point
        return 0.0 if point is self.start else -self.delta

    def sweep(self, Fr, theta):
        return theta + 0.1


class SlowSweep(LinearTrace):
    """A linear trace whose sweep keeps its phases after sleeping 20 ms."""

    SLEEP_S = 0.02

    def __init__(self, A):
        super().__init__(A)
        self.sweeps = 0

    def sweep(self, Fr, theta):
        self.sweeps += 1
        time.sleep(self.SLEEP_S)
        return theta


def sym_matrix(seed, n=4):
    rng = np.random.default_rng(seed)
    B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return B + B.T


class TestOptimizeUs:
    def test_constant_objective_single_iteration(self):
        P0 = us_random(4, seed=0)
        P, tr = optimize_us(ConstantObjective(), P0)
        assert tr.status == "converged"
        assert tr.iterations == 1
        assert np.array_equal(P.U, P0.U)

    def test_circle_converges_to_one(self):
        for seed in range(5):
            P0 = us_random(1, seed=seed)
            P, tr = optimize_us(CircleObjective(), P0)
            assert tr.status == "converged"
            assert abs(P.U[0, 0] - 1.0) < 1e-3
            assert tr.is_monotone()
            assert tr.records[-1].grad_norm < 1e-4

    def test_linear_trace_ascends(self):
        rng = np.random.default_rng(23)
        B = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        A = B + B.T
        obj = LinearTrace(A)
        P0 = us_random(4, seed=7)
        P, tr = optimize_us(obj, P0, OptimizerConfig(epsilon=1e-6, max_iters=50))
        assert tr.is_monotone()
        assert tr.status == "converged"
        assert tr.final_value > tr.values[0]
        assert all(r.residual <= 1e-8 for r in tr.records)

    def test_max_iters_status(self):
        P0 = us_random(1, seed=3)
        P, tr = optimize_us(CircleObjective(), P0, OptimizerConfig(max_iters=1))
        assert tr.status in ("max_iters", "converged")
        assert tr.iterations == 1

    def test_drift_refresh_restores_the_manifold(self, monkeypatch):
        # every factor update drifts by a relative 1e-7, far above DRIFT_TOL,
        # so each accepted move must go through the re-factorization
        import unisym.optimizer as opt
        exact = opt.us_point_at
        monkeypatch.setattr(opt, "us_point_at",
                            lambda Fr, phases: UsPoint(Q=exact(Fr, phases).Q * (1 + 1e-7)))
        rng = np.random.default_rng(23)
        B = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        P, tr = optimize_us(LinearTrace(B + B.T), us_random(4, seed=7),
                            OptimizerConfig(epsilon=1e-6, max_iters=50))
        assert tr.iterations >= 2
        assert all(r.residual <= 1e-12 for r in tr.records)
        assert tr.is_monotone()
        assert np.linalg.norm(P.U @ P.U.conj().T - np.eye(4)) <= 1e-12
        assert np.linalg.norm(P.U - P.U.T) <= 1e-12

    def test_zero_seed_pass_runs_when_the_gradient_step_loses(self):
        obj = DownhillKeepSeed(sym_matrix(31))
        P0 = us_random(4, seed=7)
        P, tr = optimize_us(obj, P0)
        (Fr, seeded), (_, zeros) = obj.swept
        assert obj.eval(us_point_at(Fr, seeded)) < tr.values[0]
        assert not np.any(zeros)
        # the zero-phase pass reproduces the start, so the move is accepted
        assert tr.status == "converged" and tr.iterations == 1
        assert tr.values.tolist() == [tr.values[0]] * 2
        assert tr.is_monotone()
        assert P is P0

    def test_refused_move_stalls_at_the_start_point(self):
        obj = Sinking(sym_matrix(37))
        P0 = us_random(4, seed=7)
        P, tr = optimize_us(obj, P0)
        assert tr.status == "stalled"
        assert tr.iterations == 1
        assert tr.values.tolist() == [-1.0, -1.0]
        assert tr.records[1].residual == tr.records[0].residual
        assert P is P0

    @pytest.mark.parametrize("delta, status", [(3e-14, "converged"), (5e-4, "converged"),
                                               (1e-3, "stalled")])
    def test_refused_move_short_by_less_than_epsilon_converges(self, delta, status):
        # a candidate below F is refused either way, and the trace repeats
        # the start; a shortfall under epsilon is roundoff at the optimum
        obj = ShortBy(sym_matrix(37), delta)
        P0 = us_random(4, seed=7)
        P, tr = optimize_us(obj, P0, OptimizerConfig(epsilon=1e-3))
        assert tr.status == status
        assert tr.iterations == 1
        assert tr.values.tolist() == [0.0, 0.0]
        assert tr.records[1].residual == tr.records[0].residual
        assert P is P0

    def test_core_time_leaves_out_the_sweep(self):
        # core_ms times the gradient, projection, frame and factor update;
        # the sweeps run inside each iteration's wall time, outside its core
        obj = SlowSweep(0.3 * sym_matrix(41))
        _, tr = optimize_us(obj, us_random(4, seed=7),
                            OptimizerConfig(epsilon=1e-9, max_iters=3))
        assert tr.iterations == 3 and obj.sweeps >= 3
        sleep_ms = obj.SLEEP_S * 1e3
        for r in tr.records[1:]:
            assert 0.0 < r.core_ms < sleep_ms
            assert r.wall_ms >= r.core_ms + sleep_ms
        assert sum(r.wall_ms for r in tr.records) >= obj.sweeps * sleep_ms

    def test_off_manifold_start_rejected(self):
        bad = UsPoint(Q=2 * np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="manifold"):
            optimize_us(ConstantObjective(), bad)
        # a NaN residual is not within DRIFT_TOL either, and an infinite or
        # huge factor is named as off the manifold, with no warning on the way
        for bad in (np.nan, np.inf, 1e200):
            with pytest.raises(ValueError, match="off the manifold"):
                optimize_us(ConstantObjective(), UsPoint(Q=np.full((3, 3), bad, dtype=complex)))

    def test_drift_one_step_cannot_mend_raises(self, monkeypatch):
        # a relative 1e-2 drift leaves ~1e-4 after one polar step, far
        # above DRIFT_TOL: a named error, never a quietly replaced point
        import unisym.optimizer as opt
        exact = opt.us_point_at
        monkeypatch.setattr(opt, "us_point_at",
                            lambda Fr, phases: UsPoint(Q=exact(Fr, phases).Q * (1 + 1e-2)))
        with pytest.raises(NumericalError, match="candidate point lost unitarity"):
            optimize_us(LinearTrace(sym_matrix(23)), us_random(4, seed=7))


class EvalOnly(Objective):
    def eval(self, point):
        return 0.0


class TestContract:
    def test_an_objective_without_gradient_or_sweep_is_refused(self):
        # the contract has no default bodies: no grid search stands in for
        # a missing sweep, and no gradient is guessed
        with pytest.raises(NotImplementedError):
            optimize_us(EvalOnly(), us_random(3, seed=1))
        with pytest.raises(NotImplementedError):
            optimize_u_armijo(EvalOnly(), u_random(3, seed=1))
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        with pytest.raises(NotImplementedError):
            phase_sweep(EvalOnly(), Fr, np.zeros(3))


class TestPhaseSweep:
    def test_constant_returns_theta0(self):
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        theta0 = np.array([0.3, -0.7, 0.1])
        out = phase_sweep(ConstantObjective(), Fr, theta0)
        assert np.array_equal(out, theta0)

    def test_linear_trace_sweep_reaches_the_frame_maximum(self):
        # on the frame f = sum_m Re(e^{j phi_m} c_m), c_m = q_m^T conj(A) q_m,
        # so the top of f over all phases is sum_m |c_m|
        obj = LinearTrace(sym_matrix(43))
        Fr = GeodesicFrame(QR=us_random(4, seed=3).Q, theta=np.zeros(4))
        c = np.einsum("im,ij,jm->m", Fr.QR, obj.A.conj(), Fr.QR)
        top = obj.eval(us_point_at(Fr, phase_sweep(obj, Fr, np.zeros(4))))
        assert abs(top - np.sum(np.abs(c))) <= 1e-12 * np.sum(np.abs(c))

    def test_length_mismatch(self):
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        with pytest.raises(ValueError):
            phase_sweep(ConstantObjective(), Fr, np.zeros(2))
        with pytest.raises(ValueError, match="theta0 must be a finite real vector"):
            phase_sweep(ConstantObjective(), Fr, np.array([0.0, np.nan, 0.0]))


class TestOptimizeUArmijo:
    def test_zero_gradient_single_iteration(self):
        P0 = u_random(4, seed=11)
        P, tr = optimize_u_armijo(ConstantObjective(), P0)
        assert tr.status == "converged"
        assert tr.iterations == 1
        np.testing.assert_allclose(P.U, P0.U, atol=1e-14)

    def test_circle_converges_to_one(self):
        for seed in range(4):
            P0 = u_random(1, seed=seed)
            P, tr = optimize_u_armijo(CircleObjective(), P0,
                                      OptimizerConfig(epsilon=1e-8, max_iters=200))
            assert tr.is_monotone()
            assert abs(P.U[0, 0] - 1.0) < 1e-3
            assert all(r.residual <= 1e-8 for r in tr.records)

    def test_drift_refresh_records_the_refreshed_value(self, monkeypatch):
        # every candidate the line search forms drifts by a relative 1e-7,
        # far above DRIFT_TOL; the trace must hold the value of the
        # refreshed point, never the value of the drifted candidate
        import unisym.optimizer as opt
        from unisym.manifold import UPoint
        exact = opt.u_geodesic
        monkeypatch.setattr(opt, "u_geodesic",
                            lambda P, S, t: UPoint(U=exact(P, S, t).U * (1 + 1e-7)))
        rng = np.random.default_rng(29)
        B = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        obj = LinearTrace(B + B.T)
        P, tr = optimize_u_armijo(obj, u_random(4, seed=13),
                                  OptimizerConfig(epsilon=1e-9, max_iters=20))
        assert tr.iterations >= 2
        assert tr.final_value == obj.eval(P)
        assert tr.is_monotone()
        assert all(r.residual <= 1e-12 for r in tr.records)

    def test_failed_line_search_stalls_at_the_start_point(self):
        # every valuation is lower than the last, so no backtrack meets
        # the sufficient-increase condition and the move is refused
        obj = Sinking(sym_matrix(37))
        P0 = u_random(4, seed=13)
        P, tr = optimize_u_armijo(obj, P0)
        assert tr.status == "stalled"
        assert tr.iterations == 1
        assert tr.values.tolist() == [-1.0, -1.0]
        assert tr.records[1].residual == tr.records[0].residual
        assert P is P0

    def test_non_unitary_start_rejected(self):
        from unisym.manifold import UPoint
        with pytest.raises(ValueError, match="unitary"):
            optimize_u_armijo(ConstantObjective(), UPoint(U=2 * np.eye(2, dtype=complex)))
        # a NaN residual is not within DRIFT_TOL either, and an infinite or
        # huge factor is named as off the manifold, with no warning on the way
        for bad in (np.nan, np.inf, 1e200):
            with pytest.raises(ValueError, match="off the manifold"):
                optimize_u_armijo(ConstantObjective(), UPoint(U=np.full((2, 2), bad, dtype=complex)))

    def test_drift_one_step_cannot_mend_raises(self, monkeypatch):
        import unisym.optimizer as opt
        exact = opt.u_geodesic
        monkeypatch.setattr(opt, "u_geodesic",
                            lambda P, S, t: UPoint(U=exact(P, S, t).U * (1 + 1e-2)))
        with pytest.raises(NumericalError, match="candidate point lost unitarity"):
            optimize_u_armijo(LinearTrace(sym_matrix(29)), u_random(4, seed=13))


def near_tolerance(A):
    """A unitary A scaled by 1 + delta, so that its residual
    sqrt(n) ((1 + delta)^2 - 1) is 1e-13 under DRIFT_TOL: far above the
    roundoff of measuring it, and below what one step's bound adds."""
    delta = math.sqrt(1.0 + (DRIFT_TOL - 1e-13) / math.sqrt(A.shape[0])) - 1.0
    return A * (1.0 + delta)


def counted(monkeypatch, module, name):
    """The list of argument tuples of every call to module.name from here on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestCarriedResidual:
    """A frame step's point carries a bound on its residual; the drift rule
    measures the residual only where that bound is not within DRIFT_TOL.
    Points of U(n) carry no bound and are always measured."""

    def test_a_bound_past_the_tolerance_falls_back_to_the_measurement(self, monkeypatch):
        # the start measures 1e-13 under DRIFT_TOL; one step's bound goes
        # over, so the candidate is measured, and since the measurement is
        # within DRIFT_TOL no repair fires
        import unisym.optimizer as opt
        repairs = counted(monkeypatch, opt, "_restore_unitary")
        obj = LinearTrace(sym_matrix(47, n=64))
        P0 = UsPoint(Q=near_tolerance(us_random(64, seed=7).Q))
        assert P0.max_residual() <= DRIFT_TOL
        P, tr = optimize_us(obj, P0, OptimizerConfig(epsilon=1e-9, max_iters=1))
        assert P is not P0 and tr.final_value > tr.values[0]
        measured = _unitarity_residual(P.Q)
        assert P.bound > DRIFT_TOL
        assert P.max_residual() == measured <= DRIFT_TOL
        assert tr.records[1].residual == measured
        assert repairs == []

    def test_a_hand_built_frame_gives_measured_points(self, monkeypatch):
        import unisym.manifold as manifold
        calls = counted(monkeypatch, manifold, "_unitarity_residual")
        Q = us_random(4, seed=3).Q
        P = us_point_at(GeodesicFrame(QR=Q, theta=np.zeros(4)), np.full(4, 0.3))
        assert math.isnan(P.bound)
        assert P.max_residual() == P.max_residual() == _unitarity_residual(P.Q)
        # one measurement, cached
        assert len(calls) == 1 and calls[0][0] is P.Q

    def test_a_non_finite_factor_is_measured_and_lost(self):
        # a NaN in the parent's factor makes the frame's bound NaN, which
        # is not within DRIFT_TOL: the candidate is measured, and the drift
        # rule names it
        Q = us_random(4, seed=3).Q.copy()
        Q[0, 0] = np.nan
        Fr = us_geodesic_frame(UsPoint(Q=Q), TangentDirection(R=sym_matrix(5).real))
        assert math.isnan(Fr.residual)
        cand = us_point_at(Fr, np.full(4, 0.3))
        assert not cand.bound <= DRIFT_TOL
        assert not cand.max_residual() <= DRIFT_TOL
        with pytest.raises(NumericalError, match="candidate point lost unitarity"):
            _settle(ConstantObjective(), cand)


def fresh_interpreter_lines(code):
    """stdout lines of code run in a fresh interpreter (this test session
    imports scipy), followed by the list of scipy modules it loaded."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout.splitlines()


class TestImport:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # the library loads no part of scipy
        assert fresh_interpreter_lines("import unisym") == ["[]"]

    def test_runs_with_scipy_blocked(self, tmp_path):
        # all three methods at 8x2, M=16: low_cost's 10x10 Takagi target has
        # rank at most 4, so its zero group is reached too
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from unisym.harness import build_run_spec, run_experiment\n"
                "res = run_experiment(build_run_spec({'nr': 8, 'nt': 2, 'sweep': [16], "
                f"'trials': 2, 'output_dir': {str(tmp_path)!r}}}))\n"
                "print(sorted({r.method for r in res.rows if r.converged in ('true', 'false')}),"
                " sum(r.converged == 'error' for r in res.rows))\n"
                "del sys.modules['scipy']")
        assert fresh_interpreter_lines(code) == ["['low_cost', 'mo_u_proj', 'mo_us'] 0", "[]"]
        assert (tmp_path / "results.csv").is_file()


    def test_benchmark_traced_names_resolve(self):
        # the benchmark traces these functions by name; its table is read
        # from the file, not imported, so nothing under perfbench/ runs
        src = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
        node = next(n for n in ast.parse(src).body if isinstance(n, ast.Assign)
                    and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["TARGETS"])
        targets = ast.literal_eval(node.value)
        assert targets
        for mod, quals in targets.items():
            owner = importlib.import_module(f"unisym.{mod}")
            for qual in quals:
                obj = owner
                for part in qual.split("."):
                    obj = getattr(obj, part, None)
                assert callable(obj), f"perfbench traces {mod}.{qual}, which unisym lacks"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon=float("nan"))
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        for bad in (float("nan"), 2.5):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                OptimizerConfig(max_iters=bad)

    def test_trace_monotone_helper(self):
        tr = IterationTrace()
        from unisym.optimizer import IterationRecord
        for k, v in enumerate([1.0, 2.0, 2.0, 3.0]):
            tr.records.append(IterationRecord(k, v, 0.0, 0.0, 0.0, 0.0))
        assert tr.is_monotone()
        tr.records.append(IterationRecord(4, 2.5, 0.0, 0.0, 0.0, 0.0))
        assert not tr.is_monotone()
