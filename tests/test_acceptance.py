"""Acceptance gates: nine end-to-end checks of the geometry kernels, the
ascent algorithm, and the experiment harness, each sized and toleranced
as the release gate for this package. Every gate prints one pass/fail
line in the terminal summary (see conftest.py).

Oracles are independent of the code under test: explicit least-squares
solves, dense matrix exponentials, spectral rate evaluation, dense phase
grids with bounded refinement, and finite differences.
"""

import csv
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

from unisym.bdris import ChannelSet, Scenario, RateObjective, euclid_grad, gen_channels
from unisym.harness import bench, build_run_spec, run_experiment
from unisym.manifold import (
    TangentDirection,
    us_geodesic_frame,
    us_point_at,
    us_random,
    us_retract,
    us_tangent_project,
)
from unisym.optimizer import OptimizerConfig, optimize_us

DESK_TRIALS = 50
DESK_SWEEP = [16, 32, 64]


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def sym_basis(n):
    out = []
    for k in range(n):
        for l in range(k, n):
            E = np.zeros((n, n))
            E[k, l] = 1.0
            E[l, k] = 1.0
            out.append(E)
    return out


def embedded_basis_matrix(Q):
    """Real matrix whose columns are the embedded symmetric basis vectors."""
    cols = []
    for E in sym_basis(Q.shape[0]):
        B = 1j * Q @ E @ Q.T
        cols.append(np.concatenate([B.real.ravel(), B.imag.ravel()]))
    return np.stack(cols, axis=1)


def project_lstsq(Q, J):
    A = embedded_basis_matrix(Q)
    b = np.concatenate([np.asarray(J).real.ravel(), np.asarray(J).imag.ravel()])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    R = np.zeros(Q.shape)
    for c, E in zip(coef, sym_basis(Q.shape[0])):
        R += c * E
    return R


def rate_spectral(ch, U, rho):
    H = ch.Hd + ch.F @ np.asarray(U) @ ch.G.conj().T
    lam = np.linalg.eigvalsh(H @ H.conj().T)
    return float(np.sum(np.log1p(rho * np.clip(lam, 0.0, None))))


def rate_at_phases(ch, Fr, theta, rho):
    Q = Fr.QR * np.exp(0.5j * np.asarray(theta, float))
    return rate_spectral(ch, Q @ Q.T, rho)


def refined_grid_best(ch, Fr, theta, m, rho, points=3601):
    """Independent single-phase oracle: dense grid of the objective with a
    bounded refinement on the best bracket. Returns the best value found
    and whether the rate determinant stayed positive on the whole grid."""
    grid = np.linspace(-np.pi, np.pi, points)
    phases = np.repeat(np.asarray(theta, float)[np.newaxis, :], points, axis=0)
    phases[:, m] = grid
    ph = np.exp(1j * phases)
    U_b = np.einsum("ka,ba,ca->kbc", ph, Fr.QR, Fr.QR)
    H_b = ch.Hd[np.newaxis] + np.einsum("ra,kab,tb->krt", ch.F, U_b, ch.G.conj())
    E_b = np.eye(ch.Hd.shape[0])[np.newaxis] + rho * H_b @ np.conj(np.transpose(H_b, (0, 2, 1)))
    sign, logdet = np.linalg.slogdet(E_b)
    positive = bool(np.all(sign.real > 0))
    k = int(np.argmax(logdet))

    def value(phi):
        t = np.asarray(theta, float).copy()
        t[m] = phi
        return rate_at_phases(ch, Fr, t, rho)

    step = grid[1] - grid[0]
    res = minimize_scalar(lambda p: -value(p),
                          bounds=(grid[k] - step, grid[k] + step),
                          method="bounded", options={"xatol": 1e-12})
    return max(float(logdet[k]), float(-res.fun)), positive


@pytest.fixture(scope="module")
def desk_ordering_run(tmp_path_factory):
    """Paired three-method comparison at desk scale, shared by gate 6."""
    spec = build_run_spec({
        "sweep": DESK_SWEEP, "trials": DESK_TRIALS,
        "output_dir": str(tmp_path_factory.mktemp("ordering")),
    })
    return run_experiment(spec)


def test_criterion_1_manifold_geometry_suite():
    t0 = time.perf_counter()
    sizes = [n for n in range(1, 9) for _ in range(24)] + [16] * 4 + [64] * 4
    assert len(sizes) == 200
    ranked = set()
    sampled = 0
    for i, n in enumerate(sizes):
        P = us_random(n, seed=1000 + i)
        assert P.max_residual() <= 1e-9
        assert np.linalg.norm(P.U @ P.U.conj().T - np.eye(n)) <= 1e-9
        assert np.linalg.norm(P.U - P.U.T) <= 1e-9

        rng = np.random.default_rng(2000 + i)
        R0 = rng.standard_normal((n, n))
        B = TangentDirection(R=R0).embed(P)
        # tangent characterization: symmetric, and U^H B skew-Hermitian
        assert np.linalg.norm(B - B.T) <= 1e-10
        assert np.linalg.norm(P.U.conj().T @ B + B.conj().T @ P.U) <= 1e-10

        if n <= 8:
            J = crandn(rng, n, n)
            D = us_tangent_project(P, J)
            R_star = project_lstsq(P.Q, J)
            assert np.linalg.norm(D.R - R_star) <= 1e-9 * max(1.0, np.linalg.norm(J))
        if n <= 6 and n not in ranked:
            ranked.add(n)
            rank = np.linalg.matrix_rank(embedded_basis_matrix(P.Q))
            assert rank == n * (n + 1) // 2

        # retraction leaves manifold points where they are
        assert np.linalg.norm(us_retract(P.U).U - P.U) <= 1e-9

        if n == 4 and sampled < 3:
            sampled += 1
            A0 = crandn(rng, 4, 4)
            A = A0 + A0.T
            P_star = us_retract(A)
            d_star = np.linalg.norm(A - P_star.U)
            for k in range(3000):
                X = us_random(4, seed=100_000 + 3000 * sampled + k)
                assert d_star <= np.linalg.norm(A - X.U) + 1e-12
    assert ranked == {1, 2, 3, 4, 5, 6} and sampled == 3
    assert time.perf_counter() - t0 < 30.0


def test_criterion_2_geodesic_identity():
    sizes = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16)
    for i in range(100):
        n = sizes[i % len(sizes)]
        P = us_random(n, seed=3000 + i)
        rng = np.random.default_rng(4000 + i)
        D = TangentDirection(R=rng.standard_normal((n, n)))
        Fr = us_geodesic_frame(P, D)
        for mu in (0.1, 0.5, 1.0):
            lhs = us_point_at(Fr, Fr.theta * mu).U
            rhs = P.U @ scipy.linalg.expm(1j * mu * P.Q.conj() @ D.R @ P.Q.T)
            assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_criterion_3_gradient_certification():
    shapes = ((2, 2, 4), (4, 4, 8), (2, 3, 6), (3, 2, 8), (4, 4, 16))
    for i in range(100):
        nr, nt, m = shapes[i % len(shapes)]
        rng = np.random.default_rng(6000 + i)
        ch = ChannelSet(Hd=crandn(rng, nr, nt), F=crandn(rng, nr, m),
                        G=crandn(rng, nt, m))
        rho = float(rng.uniform(0.5, 50.0))
        P = us_random(m, seed=5000 + i)
        J = euclid_grad(ch, P, rho)
        R = rng.standard_normal((m, m))
        B = 1j * (P.Q @ ((R + R.T) / 2.0) @ P.Q.T)
        h = 1e-6 * np.linalg.norm(P.U) / np.linalg.norm(B)
        f_p = rate_spectral(ch, us_retract(P.U + h * B).U, rho)
        f_m = rate_spectral(ch, us_retract(P.U - h * B).U, rho)
        fd = (f_p - f_m) / (2.0 * h)
        ip = float(np.real(np.sum(np.conj(J) * B)))
        assert abs(fd - ip) / max(abs(fd), abs(ip)) < 1e-5


def test_criterion_4_per_phase_closed_form():
    shapes = ((2, 2, 3), (2, 2, 4), (3, 2, 4), (4, 4, 6), (3, 3, 8))
    rhos = (1.0, 30.0, 1000.0)
    for i in range(1000):
        nr, nt, m_dim = shapes[i % len(shapes)]
        rho = rhos[i % len(rhos)]
        rng = np.random.default_rng(7000 + i)
        ch = ChannelSet(Hd=crandn(rng, nr, nt), F=crandn(rng, nr, m_dim),
                        G=crandn(rng, nt, m_dim))
        P = us_random(m_dim, seed=8000 + i)
        D = us_tangent_project(P, euclid_grad(ch, P, rho))
        Fr = us_geodesic_frame(P, D)
        theta = rng.uniform(-np.pi, np.pi, size=m_dim)
        m = i % m_dim
        phi = RateObjective(ch, rho).phase_maximizer(Fr, theta, m)
        t = theta.copy()
        t[m] = phi
        achieved = rate_at_phases(ch, Fr, t, rho)
        best, positive = refined_grid_best(ch, Fr, theta, m, rho)
        assert positive
        assert best - achieved <= 1e-8


def test_criterion_5_fixed_channel_convergence_profile():
    t0 = time.perf_counter()
    sc = Scenario()
    assert (sc.nt, sc.nr, sc.m) == (4, 4, 64)
    ch = gen_channels(sc, seed=1)
    obj = RateObjective(ch, sc.rho)
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=100)
    counts = []
    for s in range(50):
        P0 = us_random(64, seed=np.random.SeedSequence((1, s, 64)))
        _, trace = optimize_us(obj, P0, cfg)
        assert trace.is_monotone()
        assert trace.status == "converged"
        counts.append(trace.iterations)
    counts = np.array(counts)
    assert counts.max() <= 30
    assert np.mean(counts <= 15) >= 0.8
    assert time.perf_counter() - t0 < 300.0


def test_criterion_6_method_ordering(desk_ordering_run, tmp_path):
    summary = desk_ordering_run.summary
    for M in DESK_SWEEP:
        mo = summary["mo_us"][str(M)]["mean_rate_bits"]
        proj = summary["mo_u_proj"][str(M)]["mean_rate_bits"]
        lc = summary["low_cost"][str(M)]["mean_rate_bits"]
        assert mo >= proj
        assert mo >= lc * 0.99

    blocked = build_run_spec({
        "sweep": [8], "trials": 2, "methods": ["low_cost"],
        "direct_blocked": True, "output_dir": str(tmp_path / "blocked"),
    })
    res = run_experiment(blocked)
    assert all(row.converged == "inapplicable" for row in res.rows)
    assert all(np.isnan(row.rate_bits) for row in res.rows)


def test_criterion_7_rate_trend_across_element_counts(tmp_path):
    sweep = [16, 32, 64, 128]
    for blocked in (False, True):
        spec = build_run_spec({
            "sweep": sweep, "trials": DESK_TRIALS, "methods": ["mo_us"],
            "direct_blocked": blocked,
            "output_dir": str(tmp_path / f"trend_{blocked}"),
        })
        res = run_experiment(spec)
        means = [res.summary["mo_us"][str(M)]["mean_rate_bits"] for M in sweep]
        assert all(b >= a for a, b in zip(means, means[1:]))


def test_criterion_8_per_iteration_time_scaling(tmp_path):
    spec = build_run_spec({
        "sweep": [64, 128], "trials": 5, "methods": ["mo_us"],
        "output_dir": str(tmp_path / "bench"),
    })
    rows, _ = bench(spec)
    med = {row.M: row.median_iter_ms for row in rows}
    ratio = med[128] / med[64]
    assert 3.0 <= ratio <= 16.0


def test_criterion_9_harness_determinism(tmp_path):
    def one_run(tag):
        spec = build_run_spec({
            "nt": 2, "nr": 2, "sweep": [4, 6], "trials": 2, "seed0": 11,
            "output_dir": str(tmp_path / tag),
        })
        res = run_experiment(spec)
        with open(res.results_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        drop = header.index("wall_ms")
        return [[c for j, c in enumerate(row) if j != drop] for row in rows]

    assert one_run("a") == one_run("b")
