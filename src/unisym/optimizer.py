"""Parameter-free Riemannian ascent on the unitary-symmetric manifold,
plus an Armijo line-search ascent on the plain unitary manifold used by
the projection baseline. That ascent steps along the dense geodesic
U exp(tS), one n x n Hermitian eigendecomposition per line-search
candidate, and measures the residual of the candidate it accepts; the
baseline runs it on U(k), k = min(m, nr + nt), so n is at most nr + nt.

The main loop per iteration: project the Euclidean gradient J = A B^H
to the real symmetric direction R = Im(a b^H + conj(b) a^T) / 2, built
from the objective's factors as a = Q^H A and b = Q^T B at O(n^2 r)
without forming J; eigendecompose R to open a geodesic frame, seed the
frame phases with the gradient-step values, let the objective's sweep
maximize over each phase one coordinate at a time, then move with the
multiplicative factor update. No step size is ever chosen. R lies in the
real span of a and b, so the frame takes a k x k eigh on that span,
k = min(n, 4 r) for factors of width r, not an n x n one, and the frame
holds the k phases of that span's axes; its step carries the other
n - k columns of the frame unchanged.

Each gradient is taken at the very point object last valued, so an
objective that memoizes per point (RateObjective) factors it once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import DRIFT_TOL, _check_count, _restore_unitary
from .manifold import (
    GeodesicFrame,
    TangentDirection,
    UPoint,
    UsPoint,
    u_geodesic,
    u_tangent_project,
    us_geodesic_frame,
    us_point_at,
)

ARMIJO_CONTRACTION = 0.5
ARMIJO_SUFFICIENT_INCREASE = 1e-4
ARMIJO_MAX_BACKTRACKS = 30


class Objective:
    """Contract the two optimizers expect: three methods, all required.

    eval(point) returns the objective value in nats.

    grad_factors(point) returns the ambient gradient J under the real trace
    inner product (the directional derivative along a tangent B is
    Re tr(J^H B)) as a pair (A, B) of n x r matrices with J = A B^H.
    optimize_u_armijo forms J = A B^H and projects it; optimize_us projects
    from the factors without forming J, and builds its frame on their span.

    sweep(Fr, theta) is one coordinate-ascent pass over the frame's Fr.k
    phases in ascending index order, each update holding the others at their
    already-updated values. It may overwrite theta and returns the swept
    phases, and it may never decrease the objective. There is no numerical
    fallback: an objective brings its own per-phase maximizer.

    Points are frozen and no optimizer changes one, so an objective may
    memoize what eval and grad_factors share, per point, by identity.
    """

    def eval(self, point) -> float:
        raise NotImplementedError

    def grad_factors(self, point) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def sweep(self, Fr: GeodesicFrame, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class OptimizerConfig:
    epsilon: float = 1e-3        # stop when |F_k - F_{k-1}| < epsilon
    max_iters: int = 100

    def __post_init__(self):
        if not self.epsilon > 0:    # NaN fails too
            raise ValueError("epsilon must be > 0")
        _check_count(self.max_iters, "max_iters")


@dataclass
class IterationRecord:
    k: int
    value: float        # objective, nats
    grad_norm: float    # ||R||_F (or ||S||_F on U(n)); nan for the k=0 row
    wall_ms: float      # whole-iteration wall time
    # optimize_us: gradient + projection from its factors + frame (span QR,
    # k x k eigendecomposition, Q V, the real Gram V^T V) + update;
    # optimize_u_armijo: the whole step (gradient, projection, one
    # exponential and valuation per line-search candidate, drift check).
    # The gradient reuses the factorization made in valuing the point
    core_ms: float
    # optimize_us: certified upper bound on the iterate's ||Q Q^H - I||_F,
    # carried from its parent; measured where that bound is not within
    # DRIFT_TOL, and for the start point or a repaired one.
    # optimize_u_armijo: the measured ||U U^H - I||_F
    residual: float


@dataclass
class IterationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iters"    # converged | max_iters | stalled

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    @property
    def final_value(self) -> float:
        return self.records[-1].value

    @property
    def iterations(self) -> int:
        return self.records[-1].k

    def is_monotone(self) -> bool:
        v = self.values
        return bool(np.all(np.diff(v) >= 0))


def phase_sweep(obj: Objective, Fr: GeodesicFrame, theta0: np.ndarray) -> np.ndarray:
    """One coordinate-ascent pass over the frame phases, run by obj.sweep on
    a copy of theta0.

    Coordinates are updated in ascending index order, each maximization
    holding the others at their already-updated values. Each update starts
    from (and can keep) the current value, so the objective never
    decreases along the pass.
    """
    return obj.sweep(Fr, Fr.phases(theta0, "theta0"))


def _ascend(obj: Objective, P0, cfg: OptimizerConfig, step):
    """The ascent loop both optimizers share; it alone decides on a move.

    step(obj, P, F) runs one iteration from the point P of value F and
    returns (found, grad_norm, core_s). found is the candidate it proposes,
    a (point, value, residual) triple from _settle, or None when it found
    none. A missing candidate, or one valued below F, is refused: the trace
    repeats the current point and the run ends: "converged" when the
    candidate fell short of F by less than epsilon (roundoff at the
    optimum), "stalled" otherwise. Otherwise the run moves and stops when
    |F_new - F| < epsilon or at max_iters.
    """
    residual = P0.max_residual()
    if not residual <= DRIFT_TOL:    # negated, so that NaN fails too
        raise ValueError(f"U0 is off the manifold: not unitary, residual {residual:.3e}")
    P, F = P0, float(obj.eval(P0))
    trace = IterationTrace([IterationRecord(
        k=0, value=F, grad_norm=math.nan, wall_ms=0.0, core_ms=0.0, residual=residual)])
    for k in range(1, cfg.max_iters + 1):
        t_start = time.perf_counter()
        found, grad_norm, core_s = step(obj, P, F)
        wall_ms = (time.perf_counter() - t_start) * 1e3
        refused = found is None or not found[1] >= F
        stalled = found is None or not F - found[1] < cfg.epsilon    # negated: NaN stalls
        # P is the point of the last record, so its residual is known
        P_new, F_new, res = (P, F, trace.records[-1].residual) if refused else found
        trace.records.append(IterationRecord(
            k=k, value=F_new, grad_norm=grad_norm, wall_ms=wall_ms,
            core_ms=core_s * 1e3, residual=res))
        if stalled or abs(F_new - F) < cfg.epsilon:
            trace.status = "stalled" if stalled else "converged"
            return P_new, trace
        P, F = P_new, F_new
    return P, trace


def _settle(obj: Objective, cand, value: float | None = None):
    """(cand, value, residual) for a candidate point, valued here unless its
    value is given. A candidate whose residual is not within DRIFT_TOL (NaN
    never is) has its unitary factor mended by the drift rule of linalg,
    one polar step, and is valued again; a factor that step cannot mend
    raises NumericalError."""
    res = cand.max_residual()
    if not res <= DRIFT_TOL:
        A, res = _restore_unitary(cand.Q if isinstance(cand, UsPoint) else cand.U,
                                  "candidate point")
        cand, value = type(cand)(A), None
    return cand, float(obj.eval(cand)) if value is None else value, res


def _us_step(obj: Objective, P: UsPoint, F: float):
    """One iteration of optimize_us; core_s times the gradient, projection,
    frame and factor update, not the sweep, checks or evaluations."""
    t_start = time.perf_counter()
    A, B = obj.grad_factors(P)
    # J = A B^H projects to R, the symmetric part of Im(a) Re(b)^T -
    # Re(a) Im(b)^T with a = Q^H A, b = Q^T B: O(n^2 r), J never formed.
    # range(R) lies in the real span of a and b: 4 r columns
    a, b = P.Q.conj().T @ A, P.Q.T @ B
    D = TangentDirection(a.imag @ b.real.T - a.real @ b.imag.T)
    grad_norm = D.norm()
    Fr = us_geodesic_frame(P, D, span=np.hstack((a.real, a.imag, b.real, b.imag)))
    core_s = time.perf_counter() - t_start
    # the gradient-step seed first; if it overshoots, redo from the current point
    for theta in (np.mod(Fr.theta + np.pi, 2.0 * np.pi) - np.pi, np.zeros(Fr.k)):
        theta = phase_sweep(obj, Fr, theta)
        t_update = time.perf_counter()
        cand = us_point_at(Fr, theta) if np.any(theta) else P
        core_s += time.perf_counter() - t_update
        found = _settle(obj, cand)
        if found[1] >= F:
            break
    return found, grad_norm, core_s


def optimize_us(obj: Objective, U0: UsPoint,
                cfg: OptimizerConfig | None = None) -> tuple[UsPoint, IterationTrace]:
    """Ascent on the unitary-symmetric manifold without step-size tuning.

    Per iteration: the gradient J = A B^H from obj.grad_factors, projected
    to R from its factors without forming J; the geodesic frame of R,
    built on the gradient's span; one obj.sweep seeded with the frame's
    own gradient-step phases; and the new point with its multiplicatively
    updated factor. The seeded pass can in principle end below the
    current value; when that happens the sweep is redone from the
    all-zeros phase vector, which reproduces the current point and
    therefore cannot lose ground. Stops when |F_k - F_{k-1}| < epsilon or
    at max_iters. A move that the redone pass still ends below (roundoff)
    is refused, and the run ends "converged" when it fell short by less
    than epsilon, "stalled" otherwise.

    Returns the final point and a per-iteration trace with monotone values.
    """
    return _ascend(obj, U0, cfg or OptimizerConfig(), _us_step)


def _armijo_step(obj: Objective, P: UPoint, F: float):
    """One backtracking iteration of optimize_u_armijo; core_s is the whole
    step: gradient, projection S, each candidate U exp(tS) and its
    valuation, and the drift check of _settle."""
    t_start = time.perf_counter()
    A, B = obj.grad_factors(P)
    S = u_tangent_project(P, A @ B.conj().T)
    norm = float(np.linalg.norm(S))
    slope = norm ** 2  # <J, U S>_Re for the projected direction
    t = 1.0
    for _ in range(ARMIJO_MAX_BACKTRACKS + 1):
        cand = u_geodesic(P, S, t)
        F_new = float(obj.eval(cand))
        if F_new >= F + ARMIJO_SUFFICIENT_INCREASE * t * slope:
            return _settle(obj, cand, F_new), norm, time.perf_counter() - t_start
        t *= ARMIJO_CONTRACTION
    return None, norm, time.perf_counter() - t_start


def optimize_u_armijo(obj: Objective, U0: UPoint,
                      cfg: OptimizerConfig | None = None) -> tuple[UPoint, IterationTrace]:
    """Riemannian gradient ascent on U(n) with Armijo backtracking.

    The baseline this supports deliberately needs what the symmetric-
    manifold method does not: an initial step (1), a contraction factor
    (0.5), a sufficient-increase coefficient (1e-4), and a backtrack cap
    (30). Stops on |F_k - F_{k-1}| < epsilon, max_iters, or line-search
    failure (status "stalled").

    Each line-search candidate U exp(tS) costs one n x n Hermitian
    eigendecomposition, and the accepted one an n x n residual
    measurement. mo_u_proj_baseline calls this on U(k),
    k = min(m, nr + nt), where both are small; no harness method, CLI
    path or benchmark workload calls it on a large U(n), where each
    candidate would cost O(n^3).
    """
    return _ascend(obj, U0, cfg or OptimizerConfig(), _armijo_step)
