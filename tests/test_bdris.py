"""Channel model and achievable-rate objective tests.

Expected values come from independent evaluation paths: entrywise loops
for the equivalent channel, eigenvalue sums for the rate, central finite
differences through the retraction for the gradient, and grid search
with bracketed refinement for the per-phase closed form.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import minimize_scalar

from unisym.bdris import (
    ChannelSet,
    InapplicableMethodError,
    RateObjective,
    Scenario,
    euclid_grad,
    gen_channels,
    h_eq,
    link_distances,
    los_components,
    low_cost_bdris,
    mo_u_proj_baseline,
    path_loss,
    per_phase_opt,
    rate,
    rate_bits,
)
from unisym.harness import METHODS
from unisym.linalg import NumericalError
from unisym.manifold import (
    GeodesicFrame,
    u_random,
    us_geodesic_frame,
    us_random,
    us_retract,
    us_tangent_project,
)
from unisym.optimizer import OptimizerConfig, optimize_us, phase_sweep


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def make_channels(rng, nr, nt, m, direct_scale=1.0):
    return ChannelSet(Hd=direct_scale * crandn(rng, nr, nt),
                      F=crandn(rng, nr, m),
                      G=crandn(rng, nt, m))


def h_eq_loops(Hd, F, G, U):
    """Entrywise sum Hd[i,j] + sum_ab F[i,a] U[a,b] conj(G[j,b])."""
    nr, nt = Hd.shape
    m = F.shape[1]
    out = np.array(Hd, dtype=complex)
    for i in range(nr):
        for j in range(nt):
            acc = 0.0 + 0.0j
            for a in range(m):
                for b in range(m):
                    acc += F[i, a] * U[a, b] * np.conj(G[j, b])
            out[i, j] += acc
    return out


def rate_spectral(ch, U, rho):
    """Rate through the eigenvalues of H H^H: sum ln(1 + rho lam_i)."""
    H = ch.Hd + ch.F @ U @ ch.G.conj().T
    lam = np.linalg.eigvalsh(H @ H.conj().T)
    return float(np.sum(np.log1p(rho * np.clip(lam, 0.0, None))))


def rate_at_phases(ch, Fr, theta, rho):
    """Independent rate evaluation at frame phases: rebuild the full
    surface response, then the eigenvalue-based rate."""
    U = (Fr.QR * np.exp(1j * np.asarray(theta, float))[np.newaxis, :]) @ Fr.QR.T
    return rate_spectral(ch, U, rho)


def random_frame(rng, ch, rho, m):
    P = us_random(m, seed=rng.integers(2**32))
    D = us_tangent_project(P, euclid_grad(ch, P, rho))
    return us_geodesic_frame(P, D)


class TestScenario:
    def test_defaults_are_valid(self):
        sc = Scenario()
        assert sc.nt == 4 and sc.nr == 4 and sc.m == 64
        assert sc.rho > 0 and not sc.direct_blocked

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            Scenario(m=0)
        with pytest.raises(ValueError):
            Scenario(nt=0)

    def test_invalid_budget_rejected(self):
        for field, value in (("rho", 0.0), ("alpha_ris", -1.0), ("k_rician", -0.5),
                             ("rho", math.nan), ("alpha_ris", math.nan),
                             ("alpha_direct", math.nan), ("k_rician", math.nan),
                             ("pl0_db", -3000.0), ("ris_pos", (50.0, 0.0, 1.5))):
            with pytest.raises(ValueError):
                Scenario(**{field: value})

    def test_with_elements(self):
        sc = Scenario()
        sc2 = sc.with_elements(128)
        assert sc2.m == 128 and sc.m == 64
        assert sc2.nt == sc.nt and sc2.rho == sc.rho

    def test_link_distances_default_geometry(self):
        # hand-computed Euclidean distances for the default node placement
        d_tr, d_rr, d_td = link_distances(Scenario())
        assert d_tr == pytest.approx(math.sqrt(50.0**2 + 3.0**2 + 1.5**2), abs=1e-12)
        assert d_rr == pytest.approx(math.sqrt(3.0**2 + 1.5**2), abs=1e-12)
        assert d_td == pytest.approx(50.0, abs=1e-12)
        assert d_tr == pytest.approx(50.112, abs=1e-3)
        assert d_rr == pytest.approx(3.354, abs=1e-3)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            Scenario(tx_pos=(1.0, 2.0, 3.0), ris_pos=(1.0, 2.0, 3.0))

    def test_path_loss_formula(self):
        assert path_loss(1.0, 2.0, 30.0) == pytest.approx(1e-3, rel=1e-12)
        assert path_loss(10.0, 2.0, 30.0) == pytest.approx(1e-5, rel=1e-12)


class TestGenChannels:
    def test_shapes_and_finiteness(self):
        sc = Scenario(nt=3, nr=2, m=8)
        ch = gen_channels(sc, seed=5)
        assert ch.Hd.shape == (2, 3)
        assert ch.F.shape == (2, 8)
        assert ch.G.shape == (3, 8)
        assert ch.m == 8
        for A in (ch.Hd, ch.F, ch.G):
            assert np.all(np.isfinite(A))

    def test_deterministic_per_seed(self):
        sc = Scenario(m=16)
        a = gen_channels(sc, seed=11)
        b = gen_channels(sc, seed=11)
        c = gen_channels(sc, seed=12)
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.Hd, b.Hd)
        assert not np.array_equal(a.F, c.F)

    def test_blocked_direct_link_is_exactly_zero(self):
        ch = gen_channels(Scenario(m=8, direct_blocked=True), seed=3)
        assert np.all(ch.Hd == 0)

    def test_blocked_flag_leaves_ris_links_unchanged(self):
        # the direct draw still happens, so F and G match across the flag
        a = gen_channels(Scenario(m=8, direct_blocked=False), seed=3)
        b = gen_channels(Scenario(m=8, direct_blocked=True), seed=3)
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.G, b.G)

    def test_large_rician_factor_recovers_los(self):
        sc = Scenario(m=16, k_rician=1e12)
        ch = gen_channels(sc, seed=9)
        F_los, G_los = los_components(sc)
        assert np.linalg.norm(ch.F - F_los) / np.linalg.norm(F_los) < 1e-5
        assert np.linalg.norm(ch.G - G_los) / np.linalg.norm(G_los) < 1e-5

    def test_los_power_matches_link_budget(self):
        sc = Scenario(m=16)
        F_los, G_los = los_components(sc)
        d_tr, d_rr, _ = link_distances(sc)
        # unit-modulus steering outer products carry sqrt(nr*m) Frobenius mass
        expected_f = math.sqrt(path_loss(d_rr, sc.alpha_ris, sc.pl0_db) * sc.nr * sc.m)
        expected_g = math.sqrt(path_loss(d_tr, sc.alpha_ris, sc.pl0_db) * sc.nt * sc.m)
        assert np.linalg.norm(F_los) == pytest.approx(expected_f, rel=1e-12)
        assert np.linalg.norm(G_los) == pytest.approx(expected_g, rel=1e-12)

    def test_inconsistent_dimensions_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ChannelSet(Hd=crandn(rng, 2, 3), F=crandn(rng, 2, 8), G=crandn(rng, 3, 7))
        with pytest.raises(ValueError):
            ChannelSet(Hd=crandn(rng, 2, 3), F=crandn(rng, 4, 8), G=crandn(rng, 3, 8))

    def test_non_finite_entries_rejected(self):
        rng = np.random.default_rng(0)
        Hd = crandn(rng, 2, 2)
        Hd[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ChannelSet(Hd=Hd, F=crandn(rng, 2, 4), G=crandn(rng, 2, 4))


class TestHEq:
    def test_zero_ris_link_leaves_direct(self):
        rng = np.random.default_rng(1)
        ch = ChannelSet(Hd=crandn(rng, 2, 3), F=np.zeros((2, 4), complex),
                        G=crandn(rng, 3, 4))
        np.testing.assert_array_equal(h_eq(ch, np.eye(4)), ch.Hd)
        np.testing.assert_array_equal(h_eq(ch, us_random(4, seed=0)), ch.Hd)

    def test_scalar_pass_through(self):
        for theta in (0.0, 0.7, -2.1):
            ch = ChannelSet(Hd=np.zeros((1, 1), complex),
                            F=np.ones((1, 1), complex),
                            G=np.ones((1, 1), complex))
            U = np.array([[np.exp(1j * theta)]])
            assert h_eq(ch, U)[0, 0] == pytest.approx(np.exp(1j * theta), abs=1e-15)

    def test_matches_entrywise_loops(self):
        rng = np.random.default_rng(2)
        ch = make_channels(rng, 2, 2, 3)
        U = crandn(rng, 3, 3)
        expected = h_eq_loops(ch.Hd, ch.F, ch.G, U)
        np.testing.assert_allclose(h_eq(ch, U), expected, atol=1e-12)

    def test_point_and_matrix_agree(self):
        # a point enters through its factor, (F Q)(G^* Q)^T, never forming U
        rng = np.random.default_rng(3)
        for nr, nt, m in ((2, 2, 4), (1, 3, 1), (4, 4, 64), (8, 2, 17)):
            ch = make_channels(rng, nr, nt, m)
            P = us_random(m, seed=rng.integers(2**32))
            expected = ch.Hd + ch.F @ P.U @ ch.G.conj().T
            got = h_eq(ch, P)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
            np.testing.assert_array_equal(h_eq(ch, P.U), expected)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        ch = make_channels(rng, 2, 2, 4)
        with pytest.raises(ValueError, match="shape"):
            h_eq(ch, np.eye(3))


class TestRate:
    def test_zero_channel_gives_zero(self):
        ch = ChannelSet(Hd=np.zeros((2, 2), complex), F=np.zeros((2, 4), complex),
                        G=np.zeros((2, 4), complex))
        assert rate(ch, np.eye(4), rho=10.0) == 0.0

    def test_scalar_unit_channel(self):
        ch = ChannelSet(Hd=np.ones((1, 1), complex), F=np.zeros((1, 1), complex),
                        G=np.zeros((1, 1), complex))
        assert rate(ch, np.eye(1), rho=1.0) == pytest.approx(math.log(2.0), abs=1e-12)
        assert rate_bits(ch, np.eye(1), rho=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_spectral_evaluation(self):
        rng = np.random.default_rng(5)
        for rho in (0.5, 5.0, 200.0):
            ch = make_channels(rng, 4, 4, 8)
            P = us_random(8, seed=int(rng.integers(2**32)))
            assert rate(ch, P, rho) == pytest.approx(rate_spectral(ch, P.U, rho), abs=1e-10)

    def test_nonpositive_snr_rejected(self):
        rng = np.random.default_rng(6)
        ch = make_channels(rng, 2, 2, 4)
        with pytest.raises(ValueError):
            rate(ch, np.eye(4), rho=0.0)

    def test_invariant_under_factor_refresh(self):
        # the rate depends on the point's matrix only, not on which Takagi
        # factor the point carries
        rng = np.random.default_rng(7)
        ch = make_channels(rng, 4, 4, 8)
        P = us_random(8, seed=21)
        refreshed = us_retract((P.U + P.U.T) / 2.0)
        assert abs(rate(ch, P, 3.0) - rate(ch, refreshed, 3.0)) <= 1e-9

    def test_invariant_under_factor_refresh_desk_scale(self):
        sc = Scenario(m=16)
        ch = gen_channels(sc, seed=2)
        P = us_random(16, seed=2)
        refreshed = us_retract((P.U + P.U.T) / 2.0)
        assert abs(rate(ch, P, sc.rho) - rate(ch, refreshed, sc.rho)) <= 1e-9


class TestEuclidGrad:
    def test_zero_ris_link_gives_zero_gradient(self):
        rng = np.random.default_rng(8)
        ch = ChannelSet(Hd=crandn(rng, 2, 2), F=np.zeros((2, 4), complex),
                        G=crandn(rng, 2, 4))
        np.testing.assert_array_equal(euclid_grad(ch, np.eye(4), rho=2.0),
                                      np.zeros((4, 4)))

    def test_scalar_gradient_value(self):
        # matched scalar link at rho = 1: the conjugate-Wirtinger derivative
        # is e^{j theta}/2; the gradient contract uses the real trace metric
        # (directional derivative = Re tr(J^H B)), which carries a factor 2
        ch = ChannelSet(Hd=np.zeros((1, 1), complex), F=np.ones((1, 1), complex),
                        G=np.ones((1, 1), complex))
        for theta in (0.0, 1.1, -2.4):
            U = np.array([[np.exp(1j * theta)]])
            J = euclid_grad(ch, U, rho=1.0)
            assert J[0, 0] == pytest.approx(np.exp(1j * theta), abs=1e-12)

    def test_matches_finite_differences_through_retraction(self):
        rng = np.random.default_rng(9)
        for nr in (2, 4):
            for m in (4, 8, 16):
                ch = make_channels(rng, nr, nr, m)
                rho = float(rng.uniform(0.5, 5.0))
                P = us_random(m, seed=int(rng.integers(2**32)))
                J = euclid_grad(ch, P, rho)
                for _ in range(3):
                    R = rng.standard_normal((m, m))
                    B = 1j * (P.Q @ ((R + R.T) / 2.0) @ P.Q.T)
                    h = 1e-6 * np.linalg.norm(P.U) / np.linalg.norm(B)
                    f_p = rate(ch, us_retract(P.U + h * B), rho)
                    f_m = rate(ch, us_retract(P.U - h * B), rho)
                    fd = (f_p - f_m) / (2.0 * h)
                    ip = float(np.real(np.sum(np.conj(J) * B)))
                    assert abs(fd - ip) / max(abs(fd), abs(ip)) < 1e-5

    def test_lost_definiteness_is_a_numerical_error(self):
        # at rho = 1e30 on an 8x2 link, I + rho H H^H is numerically
        # singular; the gradient must fail the way rate does
        ch = gen_channels(Scenario(nr=8, nt=2, m=16, rho=1e30),
                          seed=np.random.SeedSequence((300, 16)))
        with pytest.raises(NumericalError, match="positive definiteness"):
            euclid_grad(ch, us_random(16, seed=1), 1e30)

    def test_twenty_directions_at_reference_size(self):
        rng = np.random.default_rng(10)
        ch = make_channels(rng, 4, 4, 8)
        rho = 2.0
        P = us_random(8, seed=33)
        J = euclid_grad(ch, P, rho)
        for _ in range(20):
            R = rng.standard_normal((8, 8))
            B = 1j * (P.Q @ ((R + R.T) / 2.0) @ P.Q.T)
            h = 1e-6 * np.linalg.norm(P.U) / np.linalg.norm(B)
            fd = (rate(ch, us_retract(P.U + h * B), rho)
                  - rate(ch, us_retract(P.U - h * B), rho)) / (2.0 * h)
            ip = float(np.real(np.sum(np.conj(J) * B)))
            assert abs(fd - ip) / max(abs(fd), abs(ip)) < 1e-5


def grid_argmax(ch, Fr, theta, m, rho, points=3601):
    """Independent per-phase oracle: evaluate the rate on a uniform phase
    grid by rebuilding the full response matrix per grid point, then refine
    the best bracket with a bounded scalar search on the same evaluator."""
    grid = np.linspace(-np.pi, np.pi, points)
    phases = np.repeat(np.asarray(theta, float)[np.newaxis, :], points, axis=0)
    phases[:, m] = grid
    ph = np.exp(1j * phases)
    U_b = np.einsum("ka,ba,ca->kbc", ph, Fr.QR, Fr.QR)
    H_b = ch.Hd[np.newaxis] + np.einsum("ra,kab,tb->krt", ch.F, U_b, ch.G.conj())
    E_b = np.eye(ch.Hd.shape[0])[np.newaxis] + rho * H_b @ np.conj(np.transpose(H_b, (0, 2, 1)))
    sign, logdet = np.linalg.slogdet(E_b)
    assert np.all(sign.real > 0)
    k = int(np.argmax(logdet))

    def value(phi):
        t = np.asarray(theta, float).copy()
        t[m] = phi
        return rate_at_phases(ch, Fr, t, rho)

    step = grid[1] - grid[0]
    res = minimize_scalar(lambda p: -value(p), bounds=(grid[k] - step, grid[k] + step),
                          method="bounded", options={"xatol": 1e-12})
    return float(grid[k]), float(res.x), float(value(res.x))


def wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


class TestPerPhaseOpt:
    def test_annihilated_column_keeps_current_phase(self):
        rng = np.random.default_rng(11)
        F = crandn(rng, 2, 3)
        F[:, 0] = 0.0
        ch = ChannelSet(Hd=crandn(rng, 2, 2), F=F, G=crandn(rng, 2, 3))
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        theta = np.array([0.7, -1.2, 2.0])
        assert per_phase_opt(ch, Fr, theta, 0, rho=2.0) == 0.7

    def test_scalar_without_direct_link_is_flat(self):
        rng = np.random.default_rng(12)
        ch = ChannelSet(Hd=np.zeros((1, 1), complex), F=crandn(rng, 1, 1),
                        G=crandn(rng, 1, 1))
        Fr = GeodesicFrame(QR=np.eye(1, dtype=complex), theta=np.zeros(1))
        vals = [rate_at_phases(ch, Fr, [p], 2.0) for p in (0.0, 1.0, -2.0)]
        assert max(vals) - min(vals) < 1e-12
        assert per_phase_opt(ch, Fr, np.array([0.0]), 0, rho=2.0) == 0.0

    def test_scalar_with_real_positive_link_aligns_at_zero(self):
        ch = ChannelSet(Hd=np.array([[0.8 + 0j]]), F=np.array([[1.3 + 0j]]),
                        G=np.array([[0.6 + 0j]]))
        Fr = GeodesicFrame(QR=np.eye(1, dtype=complex), theta=np.zeros(1))
        phi = per_phase_opt(ch, Fr, np.array([2.0]), 0, rho=2.0)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_index_out_of_range_rejected(self):
        rng = np.random.default_rng(13)
        ch = make_channels(rng, 2, 2, 3)
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        with pytest.raises(ValueError):
            per_phase_opt(ch, Fr, np.zeros(3), 3, rho=1.0)

    def test_matches_refined_grid_search(self):
        rng = np.random.default_rng(14)
        ch = make_channels(rng, 4, 4, 8)
        rho = 1.0
        Fr = random_frame(rng, ch, rho, 8)
        theta = rng.uniform(-np.pi, np.pi, size=8)
        for m in range(8):
            phi = per_phase_opt(ch, Fr, theta, m, rho)
            coarse, _, f_best = grid_argmax(ch, Fr, theta, m, rho)
            t = theta.copy()
            t[m] = phi
            f_closed = rate_at_phases(ch, Fr, t, rho)
            assert abs(wrap_angle(phi - coarse)) <= 2e-3
            assert abs(f_closed - f_best) <= 1e-8

    def test_never_below_current_value(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            ch = make_channels(rng, 3, 2, 6)
            rho = float(rng.uniform(0.5, 10.0))
            Fr = random_frame(rng, ch, rho, 6)
            theta = rng.uniform(-np.pi, np.pi, size=6)
            f0 = rate_at_phases(ch, Fr, theta, rho)
            for m in range(6):
                t = theta.copy()
                t[m] = per_phase_opt(ch, Fr, theta, m, rho)
                assert rate_at_phases(ch, Fr, t, rho) >= f0 - 1e-12


class TestRateObjective:
    def test_eval_and_grad_delegate(self):
        rng = np.random.default_rng(16)
        ch = make_channels(rng, 2, 2, 4)
        obj = RateObjective(ch, rho=3.0)
        P = us_random(4, seed=4)
        assert obj.eval(P) == rate(ch, P, 3.0)
        np.testing.assert_array_equal(obj.euclid_grad(P), euclid_grad(ch, P, 3.0))

    def test_phase_maximizer_matches_per_phase_opt(self):
        rng = np.random.default_rng(17)
        ch = make_channels(rng, 2, 2, 5)
        obj = RateObjective(ch, rho=2.0)
        Fr = random_frame(rng, ch, 2.0, 5)
        theta = rng.uniform(-np.pi, np.pi, size=5)
        for m in range(5):
            assert obj.phase_maximizer(Fr, theta, m) == pytest.approx(
                per_phase_opt(ch, Fr, theta, m, 2.0), abs=1e-13)

    def test_phase_index_out_of_range_rejected(self):
        rng = np.random.default_rng(17)
        ch = make_channels(rng, 2, 2, 5)
        obj = RateObjective(ch, rho=2.0)
        Fr = random_frame(rng, ch, 2.0, 5)
        theta = rng.uniform(-np.pi, np.pi, size=5)
        for m in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                obj.phase_maximizer(Fr, theta, m)

    def test_sweep_updates_beat_per_coordinate_grid(self):
        # full ascent on an 8-element response: accepted iterates never lose
        # ground, and each coordinate update is at least as good as a
        # 361-point grid search at that coordinate
        rng = np.random.default_rng(18)
        ch = make_channels(rng, 2, 2, 8)
        rho = 1.5
        obj = RateObjective(ch, rho)
        P0 = us_random(8, seed=88)
        P, trace = optimize_us(obj, P0, OptimizerConfig(epsilon=1e-6, max_iters=40))
        assert np.all(np.diff(trace.values) >= -1e-12)
        assert trace.final_value >= rate(ch, P0, rho)

        D = us_tangent_project(P0, obj.euclid_grad(P0))
        Fr = us_geodesic_frame(P0, D)
        theta = np.zeros(8)
        grid = np.linspace(-np.pi, np.pi, 361)
        for m in range(8):
            theta[m] = obj.phase_maximizer(Fr, theta, m)
            f_chosen = rate_at_phases(ch, Fr, theta, rho)
            best = -np.inf
            for phi in grid:
                t = theta.copy()
                t[m] = phi
                best = max(best, rate_at_phases(ch, Fr, t, rho))
            assert f_chosen >= best - 1e-9


def cholesky_phase_argmax(Hd, Uc, Wc, theta, m, rho):
    """Oracle: the per-phase closed form with the channel C rebuilt from
    all phases and I + rho (C C^H + ||w||^2 u u^H) factored by Cholesky."""
    u = Uc[:, m]
    w = Wc[:, m]
    ph = np.exp(1j * theta)
    ph[m] = 0.0
    C = Hd + (Uc * ph[np.newaxis, :]) @ Wc.T
    nr = Hd.shape[0]
    Mmat = np.eye(nr) + rho * (C @ C.conj().T
                               + float(np.real(w.conj() @ w)) * np.outer(u, u.conj()))
    cho = cho_factor((Mmat + Mmat.conj().T) / 2.0, lower=True)
    ctil = rho * (C @ w.conj())
    x_u = cho_solve(cho, u)
    x_c = cho_solve(cho, ctil)
    alpha = complex(ctil.conj() @ x_u)
    kappa = float(np.real(ctil.conj() @ x_c)) * float(np.real(u.conj() @ x_u))
    margin = (1.0 - abs(alpha)) ** 2 - kappa
    if margin <= 0.0:
        raise NumericalError(f"margin {margin:.3e}")
    if abs(alpha) < 1e-14:
        return float(theta[m])
    return float(-np.angle(alpha))


def oracle_sweep(ch, Fr, theta, rho):
    Uc, Wc = ch.F @ Fr.QR, ch.G.conj() @ Fr.QR
    theta = np.array(theta, dtype=float)
    for m in range(Fr.n):
        theta[m] = cholesky_phase_argmax(ch.Hd, Uc, Wc, theta, m, rho)
    return theta


def seeded_sweep_case(nr, nt, M, rho_db, blocked, seed):
    """Channels of a scenario, the frame of the gradient at a random point,
    and the gradient-step phases that seed the optimizer's first sweep."""
    sc = Scenario(nr=nr, nt=nt, m=M, rho=10.0 ** (rho_db / 10.0), direct_blocked=blocked)
    ch = gen_channels(sc, seed=seed)
    P = us_random(M, seed=seed + 1)
    Fr = us_geodesic_frame(P, us_tangent_project(P, euclid_grad(ch, P, sc.rho)))
    return ch, sc.rho, Fr, np.mod(Fr.theta + np.pi, 2.0 * np.pi) - np.pi


class TestSweepKernel:
    def test_matches_cholesky_oracle(self):
        # the incremental kernel against one fresh Cholesky solve per phase
        seed = 500
        for nr, nt in ((1, 1), (4, 4), (8, 2), (2, 8)):
            for M in (1, 2, 3, 17, 64):
                for rho_db in (0.0, 60.0, 130.0, 160.0, 200.0):
                    for blocked in (False, True):
                        seed += 2
                        ch, rho, Fr, theta0 = seeded_sweep_case(nr, nt, M, rho_db, blocked, seed)
                        case = (nr, nt, M, rho_db, blocked)
                        try:
                            expected = oracle_sweep(ch, Fr, theta0, rho)
                        except (NumericalError, LinAlgError):
                            expected = None
                        try:
                            got = RateObjective(ch, rho).sweep(Fr, theta0.copy())
                        except (NumericalError, LinAlgError) as exc:
                            assert expected is None, f"{case}: kernel raised {exc!r}"
                            continue
                        if expected is None:
                            continue
                        if rho_db <= 160.0:
                            assert np.max(np.abs(wrap_angle(got - expected))) <= 1e-9, case
                        f_got = rate_at_phases(ch, Fr, got, rho)
                        f_expected = rate_at_phases(ch, Fr, expected, rho)
                        assert f_got >= f_expected - 1e-6, case

    def test_phase_sweep_runs_the_kernel(self, monkeypatch):
        ch, rho, Fr, theta0 = seeded_sweep_case(4, 4, 8, 130.0, False, 41)
        obj = RateObjective(ch, rho)
        monkeypatch.setattr(RateObjective, "phase_maximizer",
                            lambda *a: pytest.fail("sweep went through phase_maximizer"))
        given = theta0.copy()
        theta = phase_sweep(obj, Fr, theta0)
        np.testing.assert_array_equal(theta0, given)
        assert rate_at_phases(ch, Fr, theta, rho) >= rate_at_phases(ch, Fr, theta0, rho)

    def test_margin_guard_raises(self, monkeypatch):
        # a solution scaled far off makes |1 + alpha e^{j phi}|^2 - kappa negative,
        # since |alpha|^2 <= kappa (Cauchy-Schwarz in the A^-1 inner product)
        ch, rho, Fr, theta0 = seeded_sweep_case(4, 4, 8, 130.0, False, 43)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, B: 1e8 * solve(A, B))
        with pytest.raises(NumericalError, match="lost positivity"):
            RateObjective(ch, rho).sweep(Fr, theta0)
        with pytest.raises(NumericalError, match="lost positivity"):
            per_phase_opt(ch, Fr, theta0, 0, rho)


class TestLowCost:
    def test_scalar_phase_alignment(self):
        rng = np.random.default_rng(19)
        f, h, g = crandn(rng, 3)
        ch = ChannelSet(Hd=np.array([[h]]), F=np.array([[f]]), G=np.array([[g]]))
        P = low_cost_bdris(ch)
        expected = np.exp(1j * np.angle(np.conj(f) * h * g))
        assert P.U[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_blocked_direct_link_inapplicable(self):
        ch = gen_channels(Scenario(m=8, direct_blocked=True), seed=1)
        with pytest.raises(InapplicableMethodError):
            low_cost_bdris(ch)

    def test_output_on_manifold_without_warnings(self):
        # the construction is rank-deficient for m > nt + nr, so the
        # nearest point is not unique; the retraction must still land on
        # the manifold without a warning
        ch = gen_channels(Scenario(m=16), seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = low_cost_bdris(ch)
        assert P.max_residual() <= 1e-8


class TestMoUProjBaseline:
    def test_zero_ris_link_keeps_direct_rate(self):
        rng = np.random.default_rng(20)
        ch = ChannelSet(Hd=crandn(rng, 2, 2), F=np.zeros((2, 4), complex),
                        G=crandn(rng, 2, 4))
        P, trace = mo_u_proj_baseline(ch, 5.0, u_random(4, seed=0))
        direct = rate(ch, np.eye(4), 5.0)
        assert rate(ch, P, 5.0) == pytest.approx(direct, abs=1e-12)
        assert trace.status == "converged"

    def test_scalar_case_matches_symmetric_ascent_and_analytic(self):
        rng = np.random.default_rng(21)
        h, f, g = crandn(rng, 3)
        ch = ChannelSet(Hd=np.array([[h]]), F=np.array([[f]]), G=np.array([[g]]))
        rho = 3.0
        best = math.log(1.0 + rho * (abs(h) + abs(f * np.conj(g))) ** 2)
        cfg = OptimizerConfig(epsilon=1e-10, max_iters=200)
        P_s, _ = optimize_us(RateObjective(ch, rho), us_random(1, seed=0), cfg)
        P_u, _ = mo_u_proj_baseline(ch, rho, u_random(1, seed=1), cfg)
        assert rate(ch, P_s, rho) == pytest.approx(best, abs=1e-7)
        assert rate(ch, P_u, rho) == pytest.approx(best, abs=1e-7)

    def test_projection_lands_on_manifold(self):
        rng = np.random.default_rng(22)
        ch = make_channels(rng, 2, 2, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, trace = mo_u_proj_baseline(ch, 2.0, u_random(6, seed=5),
                                          OptimizerConfig(max_iters=20))
        assert P.max_residual() <= 1e-8
        assert trace.iterations >= 1


class TestStationarity:
    def test_live_desk_link_reaches_a_stationary_point(self):
        # the paper's convergence claim: run to a tight epsilon and the
        # Riemannian gradient norm falls by five orders of magnitude
        sc = Scenario(m=64)
        cfg = OptimizerConfig(epsilon=1e-13, max_iters=400)
        for s in range(4):
            ch = gen_channels(sc, seed=s)
            start = us_random(64, seed=np.random.SeedSequence((s, 0, 64)))
            _, trace = optimize_us(RateObjective(ch, sc.rho), start, cfg)
            assert trace.status == "converged", s
            assert trace.records[-1].grad_norm <= 1e-5 * trace.records[1].grad_norm, s


class TestFuzz:
    def test_every_draw_ends_in_a_named_outcome(self):
        # a finite rate with a monotone trace, an inapplicable method or a
        # NumericalError; anything else raised fails the test
        rng = np.random.default_rng(0)
        outcomes = Counter()
        for draw in range(120):
            sc = Scenario(nr=int(rng.integers(1, 9)), nt=int(rng.integers(1, 9)),
                          m=int(rng.choice([1, 2, 3, 17])),
                          k_rician=float(rng.choice([0.0, 3.0, 1e6])),
                          rho=10.0 ** (rng.uniform(0.0, 340.0) / 10.0),
                          direct_blocked=bool(rng.integers(2)))
            ch = gen_channels(sc, seed=draw)
            for method, run in METHODS.items():
                try:
                    P, trace = run(ch, sc.rho, 0, draw, OptimizerConfig())
                    rb = rate_bits(ch, P, sc.rho)
                except InapplicableMethodError:
                    outcomes["inapplicable"] += 1
                    continue
                except NumericalError:
                    outcomes["numerical"] += 1
                    continue
                assert math.isfinite(rb), (draw, method)
                assert trace is None or trace.is_monotone(), (draw, method)
                outcomes["finite"] += 1
        assert set(outcomes) == {"finite", "inapplicable", "numerical"}, outcomes
