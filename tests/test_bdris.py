"""Channel model and achievable-rate objective tests.

Expected values come from independent evaluation paths: entrywise loops
for the equivalent channel, eigenvalue sums for the rate, central finite
differences through the retraction for the gradient, and grid search
with bracketed refinement for the per-phase closed form.
"""

import cmath
import math
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve, expm
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
    _phase_step,
    rate,
    rate_bits,
)
from unisym.harness import METHODS
import unisym.bdris
import unisym.linalg
import unisym.manifold
import unisym.optimizer
from unisym.linalg import DRIFT_TOL, NumericalError
from unisym.manifold import (
    GeodesicFrame,
    TangentDirection,
    UPoint,
    UsPoint,
    u_geodesic,
    u_random,
    u_tangent_project,
    us_geodesic_frame,
    us_point_at,
    us_random,
    us_retract,
    us_tangent_project,
)
from unisym.optimizer import OptimizerConfig, optimize_u_armijo, optimize_us, phase_sweep


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
    """Rate through the eigenvalues of the smaller Gram matrix, H H^H or
    H^H H: sum ln(1 + rho lam_i). The larger one adds only zero
    eigenvalues, whose roundoff rho would scale into spurious nats."""
    H = ch.Hd + ch.F @ U @ ch.G.conj().T
    if H.shape[1] < H.shape[0]:
        H = H.conj().T
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
        with pytest.raises(ValueError, match="m must be an integer"):
            Scenario(m=2.5)
        with pytest.raises(ValueError, match="nr must be an integer"):
            Scenario(nr=True)
        assert Scenario(m=np.int64(8)).m == 8

    def test_invalid_budget_rejected(self):
        for field, value in (("rho", 0.0), ("alpha_ris", -1.0), ("k_rician", -0.5),
                             ("rho", math.nan), ("rho", math.inf), ("alpha_ris", math.nan),
                             ("alpha_direct", math.nan), ("k_rician", math.nan),
                             ("k_rician", math.inf),
                             ("pl0_db", -3000.0), ("ris_pos", (50.0, 0.0, 1.5)),
                             ("tx_pos", (0.0, 1.5)), ("tx_pos", (1e200, 1e200, 1.5)),
                             ("tx_pos", (math.inf, 0.0, 1.5))):
            with pytest.raises(ValueError):
                Scenario(**{field: value})

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
        for rho in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rho"):
                rate(ch, np.eye(4), rho=rho)
            with pytest.raises(ValueError, match="rho"):
                euclid_grad(ch, np.eye(4), rho=rho)

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

    def test_overflowed_gram_matrix_is_a_numerical_error(self):
        # at rho = 1e308 on a 1 m link without path loss, rho H H^H
        # overflows; each Gram user must name it, with no RuntimeWarning
        sc = Scenario(m=64, rho=1e308, pl0_db=0.0, tx_pos=(0.0, 0.0, 0.0),
                      ris_pos=(1.0, 0.0, 0.0), rx_pos=(1.0, 1.0, 0.0))
        ch = gen_channels(sc, seed=0)
        P = us_random(64, seed=1)
        for call in (lambda: rate(ch, P, sc.rho), lambda: euclid_grad(ch, P, sc.rho),
                     lambda: RateObjective(ch, sc.rho).grad_factors(P)):
            with pytest.raises(NumericalError, match="argument overflowed"):
                call()

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
    def test_annihilated_column_is_solved_without_loss(self, monkeypatch):
        # a flat axis is solved like any other; any phase is optimal there
        rng = np.random.default_rng(11)
        F = crandn(rng, 2, 3)
        F[:, 0] = 0.0
        ch = ChannelSet(Hd=crandn(rng, 2, 2), F=F, G=crandn(rng, 2, 3))
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        theta = np.array([0.7, -1.2, 2.0])
        visited = visited_axes(monkeypatch, ch, Fr)
        t = theta.copy()
        t[0] = RateObjective(ch, 2.0).phase_maximizer(Fr, theta, 0)
        assert visited == [0]
        assert rate_at_phases(ch, Fr, t, 2.0) >= rate_at_phases(ch, Fr, theta, 2.0) - 1e-12

    def test_scalar_without_direct_link_is_flat(self):
        rng = np.random.default_rng(12)
        ch = ChannelSet(Hd=np.zeros((1, 1), complex), F=crandn(rng, 1, 1),
                        G=crandn(rng, 1, 1))
        Fr = GeodesicFrame(QR=np.eye(1, dtype=complex), theta=np.zeros(1))
        vals = [rate_at_phases(ch, Fr, [p], 2.0) for p in (0.0, 1.0, -2.0)]
        assert max(vals) - min(vals) < 1e-12
        assert RateObjective(ch, 2.0).phase_maximizer(Fr, np.array([0.0]), 0) == 0.0

    def test_scalar_with_real_positive_link_aligns_at_zero(self):
        ch = ChannelSet(Hd=np.array([[0.8 + 0j]]), F=np.array([[1.3 + 0j]]),
                        G=np.array([[0.6 + 0j]]))
        Fr = GeodesicFrame(QR=np.eye(1, dtype=complex), theta=np.zeros(1))
        phi = RateObjective(ch, 2.0).phase_maximizer(Fr, np.array([2.0]), 0)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_index_out_of_range_rejected(self):
        rng = np.random.default_rng(13)
        ch = make_channels(rng, 2, 2, 3)
        Fr = GeodesicFrame(QR=np.eye(3, dtype=complex), theta=np.zeros(3))
        with pytest.raises(ValueError):
            RateObjective(ch, 1.0).phase_maximizer(Fr, np.zeros(3), 3)

    def test_matches_refined_grid_search(self):
        rng = np.random.default_rng(14)
        ch = make_channels(rng, 4, 4, 8)
        rho = 1.0
        Fr = random_frame(rng, ch, rho, 8)
        theta = rng.uniform(-np.pi, np.pi, size=8)
        for m in range(8):
            phi = RateObjective(ch, rho).phase_maximizer(Fr, theta, m)
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
                t[m] = RateObjective(ch, rho).phase_maximizer(Fr, theta, m)
                assert rate_at_phases(ch, Fr, t, rho) >= f0 - 1e-12


class TestRateObjective:
    @pytest.mark.parametrize("nr,nt", [(2, 2), (8, 2), (2, 8)])
    def test_eval_and_grad_delegate(self, nr, nt):
        # one rate gradient: the public m x m form is the product of the
        # objective's factors, which are as wide as the smaller side
        rng = np.random.default_rng(16)
        ch = make_channels(rng, nr, nt, 4)
        obj = RateObjective(ch, rho=3.0)
        P = us_random(4, seed=4)
        assert obj.eval(P) == rate(ch, P, 3.0)
        A, B = obj.grad_factors(P)
        assert A.shape == B.shape == (4, min(nr, nt))
        np.testing.assert_array_equal(euclid_grad(ch, P, 3.0), A @ B.conj().T)

    def test_phase_index_out_of_range_rejected(self):
        rng = np.random.default_rng(17)
        ch = make_channels(rng, 2, 2, 5)
        obj = RateObjective(ch, rho=2.0)
        Fr = random_frame(rng, ch, 2.0, 5)
        theta = rng.uniform(-np.pi, np.pi, size=5)
        for m in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                obj.phase_maximizer(Fr, theta, m)
        # a bool, a float or None is no index either
        for m in (True, 1.0, None):
            with pytest.raises(ValueError, match="m must be an integer"):
                obj.phase_maximizer(Fr, theta, m)

    def test_theta_of_another_length_rejected(self):
        # a shorter theta would broadcast over every axis of the frame
        rng = np.random.default_rng(17)
        ch = make_channels(rng, 2, 2, 5)
        obj = RateObjective(ch, rho=2.0)
        Fr = random_frame(rng, ch, 2.0, 5)
        for n in (1, 4):
            with pytest.raises(ValueError, match=rf"theta must be .* \(5,\), .* shape \({n},\)"):
                obj.phase_maximizer(Fr, np.zeros(n), 0)

    def test_non_finite_phases_rejected(self):
        # a NaN phase would reach the per-phase margin check as "margin nan"
        rng = np.random.default_rng(17)
        ch = make_channels(rng, 2, 2, 5)
        obj = RateObjective(ch, rho=2.0)
        Fr = random_frame(rng, ch, 2.0, 5)
        for bad in (np.nan, np.inf):
            theta = np.zeros(5)
            theta[2] = bad
            with pytest.raises(ValueError, match="theta0 must be a finite real vector"):
                phase_sweep(obj, Fr, theta)
            with pytest.raises(ValueError, match="theta must be a finite real vector"):
                obj.phase_maximizer(Fr, theta, 0)

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

        D = us_tangent_project(P0, euclid_grad(ch, P0, rho))
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


def counted_choleskies(monkeypatch):
    """Wrap bdris._gram_cholesky so the returned list collects the `what`
    of each call from here on."""
    import unisym.bdris
    calls, real = [], unisym.bdris._gram_cholesky

    def counted(ch, Theta, rho, what):
        calls.append(what)
        return real(ch, Theta, rho, what)

    monkeypatch.setattr(unisym.bdris, "_gram_cholesky", counted)
    return calls


def memo_case(nr, nt, kind):
    """Channels, rho and a random point of the given kind on 6 elements."""
    ch = make_channels(np.random.default_rng(30 + nr), nr, nt, 6)
    P = us_random(6, seed=nt) if kind == "us" else u_random(6, seed=nt)
    return ch, 5.0, P


def copy_point(P, scale=1.0):
    """A new point object with P's factor times scale."""
    if isinstance(P, UsPoint):
        return UsPoint(Q=scale * P.Q)
    return UPoint(U=scale * P.U)


class TestPointMemo:
    """eval and grad_factors of one point share one factorization of
    I + rho H H^H, keyed by the point object."""

    @pytest.mark.parametrize("nr, nt", [(4, 4), (8, 2), (2, 8)])
    @pytest.mark.parametrize("kind", ["us", "u"])
    def test_one_factorization_per_point(self, monkeypatch, nr, nt, kind):
        ch, rho, P = memo_case(nr, nt, kind)
        value, (A, B) = rate(ch, P, rho), RateObjective(ch, rho).grad_factors(P)
        calls = counted_choleskies(monkeypatch)
        obj = RateObjective(ch, rho)
        assert obj.eval(P) == value
        got = obj.grad_factors(P)
        assert calls == ["rate"]
        # bit for bit the module functions, in both gradient-factor branches
        np.testing.assert_array_equal(got[0], A)
        np.testing.assert_array_equal(got[1], B)
        # another object is factored again, even with the same matrix
        Q = copy_point(P)
        assert obj.eval(Q) == value
        np.testing.assert_array_equal(obj.grad_factors(Q)[0], A)
        assert calls == ["rate", "rate"]
        # and P, no longer the memo's, is factored again for its gradient
        np.testing.assert_array_equal(obj.grad_factors(P)[0], A)
        assert obj.eval(P) == value
        assert calls == ["rate", "rate", "gradient"]

    def test_a_plain_matrix_is_never_memoized(self, monkeypatch):
        ch, rho, P = memo_case(4, 4, "us")
        calls = counted_choleskies(monkeypatch)
        obj = RateObjective(ch, rho)
        assert obj.eval(P.U) == obj.eval(P.U) == rate(ch, P.U, rho)
        assert calls == ["rate", "rate", "rate"]

    def test_channels_and_rho_are_read_only(self):
        ch, rho, P = memo_case(4, 4, "us")
        obj = RateObjective(ch, rho)
        value = obj.eval(P)
        with pytest.raises(AttributeError):
            obj.rho = 2.0 * rho
        with pytest.raises(AttributeError):
            obj.channels = make_channels(np.random.default_rng(1), 4, 4, 6)
        assert obj.rho == rho and obj.eval(P) == value
        # another rho is another objective, which values P afresh
        assert RateObjective(ch, 2.0 * rho).eval(P) == rate(ch, P, 2.0 * rho) != value

    @pytest.mark.parametrize("kind", ["us", "u"])
    def test_a_raising_point_leaves_no_memo(self, monkeypatch, kind):
        ch, rho, P = memo_case(8, 2, kind)
        obj = RateObjective(ch, rho)
        value = obj.eval(P)
        bad = copy_point(P, scale=math.nan)
        calls = counted_choleskies(monkeypatch)
        with pytest.raises(NumericalError, match="rate argument overflowed"):
            obj.eval(bad)
        with pytest.raises(NumericalError, match="gradient argument overflowed"):
            obj.grad_factors(bad)
        # nor is P's kept past the raise
        assert obj.eval(P) == value
        assert calls == ["rate", "gradient", "rate"]

    @pytest.mark.parametrize("nr, nt", [(4, 4), (8, 2), (2, 8)])
    def test_every_step_takes_its_gradient_from_the_memo(self, monkeypatch, nr, nt):
        # both optimizers value a point before they take its gradient, so
        # no whole run factors for a gradient
        calls = counted_choleskies(monkeypatch)
        sc = Scenario(nr=nr, nt=nt, m=16)
        obj = RateObjective(gen_channels(sc, seed=nr), sc.rho)
        for run, P0 in ((optimize_us, us_random(16, seed=5)), (optimize_u_armijo, u_random(16, seed=5))):
            calls.clear()
            _, trace = run(obj, P0)
            assert trace.iterations >= 3
            assert "gradient" not in calls and len(calls) >= trace.iterations + 1


def cholesky_phase_argmax(Hd, Uc, Wc, theta, m, rho):
    """Oracle: the per-phase closed form with the channel C rebuilt from
    all phases and I + rho (C C^H + ||w||^2 u u^H) factored by Cholesky;
    returns the phase -arg(alpha) and |alpha|."""
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
    return float(-np.angle(alpha)), abs(alpha)


def oracle_sweep(ch, Fr, theta, rho):
    """The swept phases and each axis's |alpha|, by cholesky_phase_argmax."""
    Uc, Wc = ch.F @ Fr.QR, ch.G.conj() @ Fr.QR
    theta = np.array(theta, dtype=float)
    alphas = np.zeros(Fr.k)
    for m in range(Fr.k):
        theta[m], alphas[m] = cholesky_phase_argmax(ch.Hd, Uc, Wc, theta, m, rho)
    return theta, alphas


def seeded_sweep_case(nr, nt, M, rho_db, blocked, seed):
    """Channels of a scenario, the frame of the gradient at a random point,
    and the gradient-step phases that seed the optimizer's first sweep."""
    sc = Scenario(nr=nr, nt=nt, m=M, rho=10.0 ** (rho_db / 10.0), direct_blocked=blocked)
    ch = gen_channels(sc, seed=seed)
    P = us_random(M, seed=seed + 1)
    Fr = us_geodesic_frame(P, us_tangent_project(P, euclid_grad(ch, P, sc.rho)))
    return ch, sc.rho, Fr, np.mod(Fr.theta + np.pi, 2.0 * np.pi) - np.pi


def every_axis_sweep(ch, Fr, theta, rho):
    """Oracle: the incremental sweep with _phase_step solved on every phase
    of the frame, from the same per-axis terms as RateObjective.sweep."""
    Ut = (ch.F @ Fr.QR).T.copy()
    Wt = (ch.G.conj() @ Fr.QR).T.copy()
    Wct = Wt.conj()
    UW = Ut[:, :, None] * Wt[:, None, :]
    ww = np.einsum("ij,ij->i", Wct, Wt).real
    base = np.eye(Ut.shape[1]) + (rho * ww)[:, None, None] * (
        Ut[:, :, None] * Ut.conj()[:, None, :])
    theta = np.array(theta, dtype=float)
    H = ch.Hd + (Ut.T * np.exp(1j * theta)) @ Wt
    for m in range(Fr.k):
        C = H - cmath.exp(1j * theta[m]) * UW[m]
        theta[m] = _phase_step(C, Ut[m], Wct[m], base[m], rho)
        H = C + cmath.exp(1j * theta[m]) * UW[m]
    return theta


def fuzz_scenarios():
    """TestFuzz's 120 (draw, Scenario) pairs."""
    rng = np.random.default_rng(0)
    for draw in range(120):
        yield draw, Scenario(nr=int(rng.integers(1, 9)), nt=int(rng.integers(1, 9)),
                             m=int(rng.choice([1, 2, 3, 17])),
                             k_rician=float(rng.choice([0.0, 3.0, 1e6])),
                             rho=10.0 ** (rng.uniform(0.0, 340.0) / 10.0),
                             direct_blocked=bool(rng.integers(2)))


def visited_axes(monkeypatch, ch, Fr):
    """Wrap _phase_step so the returned list collects the index of each axis
    of Fr it solves: the axis whose columns of F QR and G^* QR lie nearest
    to the u and w^* it is given."""
    import unisym.bdris
    visited = []
    Ut, Wct = (ch.F @ Fr.QR).T, (ch.G.conj() @ Fr.QR).T.conj()

    def recording(C, u, wc, base, rho):
        gap = np.abs(Ut - u).sum(axis=1) + np.abs(Wct - wc).sum(axis=1)
        visited.append(int(np.argmin(gap)))
        return _phase_step(C, u, wc, base, rho)

    monkeypatch.setattr(unisym.bdris, "_phase_step", recording)
    return visited


def annihilating(A, Q):
    """A with the orthonormal columns Q projected out of its row space."""
    return A - (A @ Q) @ Q.conj().T


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
                            expected, alphas = oracle_sweep(ch, Fr, theta0, rho)
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
                            # a phase error weighted by |alpha|, the rate's
                            # pull toward -arg(alpha), as on a flat axis
                            # (alpha = 0) any phase is optimal; 1.2e-14
                            # measured
                            gap = alphas * np.abs(wrap_angle(got - expected))
                            assert np.max(gap) <= 1e-12, case
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
            RateObjective(ch, rho).phase_maximizer(Fr, theta0, 0)


class TestFlatAxes:
    def test_skipping_matches_every_axis_solved(self):
        cases = [(4, 4, M, 130.0, blocked, 600 + M) for M in (16, 64, 128)
                 for blocked in (False, True)]
        cases += [(8, 2, M, 130.0, False, 700 + M) for M in (16, 32)]
        for case in cases:
            ch, rho, Fr, theta0 = seeded_sweep_case(*case)
            np.testing.assert_array_equal(RateObjective(ch, rho).sweep(Fr, theta0.copy()),
                                          every_axis_sweep(ch, Fr, theta0, rho), str(case))

    def test_skipping_matches_every_axis_solved_on_fuzz_draws(self):
        # TestFuzz's draws up to 340 dB: the same phases, or the same
        # NumericalError from a margin check on a solved axis
        outcomes = Counter()
        for draw, sc in fuzz_scenarios():
            ch = gen_channels(sc, seed=draw)
            P = us_random(sc.m, seed=draw + 1)
            try:
                D = us_tangent_project(P, euclid_grad(ch, P, sc.rho))
            except NumericalError:
                continue    # no frame to sweep
            Fr = us_geodesic_frame(P, D)
            theta0 = np.mod(Fr.theta + np.pi, 2.0 * np.pi) - np.pi
            try:
                expected = every_axis_sweep(ch, Fr, theta0, sc.rho)
            except NumericalError:
                with pytest.raises(NumericalError, match="lost positivity"):
                    RateObjective(ch, sc.rho).sweep(Fr, theta0.copy())
                outcomes["raised"] += 1
                continue
            np.testing.assert_array_equal(RateObjective(ch, sc.rho).sweep(Fr, theta0.copy()),
                                          expected, str(draw))
            outcomes["equal"] += 1
        assert outcomes["equal"] >= 80 and outcomes["raised"] >= 1, outcomes

    def test_annihilated_axes_are_solved_without_loss(self, monkeypatch):
        # F and G^* annihilate axes 1, 4 and 6 of a hand-built frame, up to
        # roundoff; those are solved like the rest
        rng = np.random.default_rng(21)
        M = 8
        QR = us_random(M, seed=22).Q
        F = annihilating(crandn(rng, 4, M), QR[:, [1, 4, 6]])
        Gc = annihilating(crandn(rng, 4, M), QR[:, [1, 4, 6]])
        ch = ChannelSet(Hd=crandn(rng, 4, 4), F=F, G=Gc.conj())
        Fr = GeodesicFrame(QR=QR, theta=np.zeros(M))
        theta0 = np.linspace(-3.0, 3.0, M)
        visited = visited_axes(monkeypatch, ch, Fr)
        theta = RateObjective(ch, 2.0).sweep(Fr, theta0.copy())
        assert visited == list(range(M))
        f = rate_at_phases(ch, Fr, theta, 2.0)
        assert f >= rate_at_phases(ch, Fr, theta0, 2.0) - 1e-12
        # the annihilated axes' new phases move the rate by roundoff only
        # (1.8e-15 nats measured)
        kept = theta.copy()
        kept[[1, 4, 6]] = theta0[[1, 4, 6]]
        assert abs(f - rate_at_phases(ch, Fr, kept, 2.0)) <= 1e-12
        np.testing.assert_array_equal(theta, every_axis_sweep(ch, Fr, theta0, 2.0))

    def test_a_4x4_sweep_solves_at_most_16_axes_at_any_size(self, monkeypatch):
        # the span-built frame of optimize_us holds at most 16 phases
        counts = []
        for M in (64, 128):
            ch, rho, Fr, theta0 = span_frame_case(4, 4, M, False, 800)
            visited = visited_axes(monkeypatch, ch, Fr)
            RateObjective(ch, rho).sweep(Fr, theta0.copy())
            counts.append(len(visited))
        assert counts[0] == counts[1] <= 2 * (4 + 4), counts

    @pytest.mark.parametrize("M", [32, 64])
    def test_no_sweep_of_a_whole_run_solves_a_null_axis(self, monkeypatch, M):
        # the frame of R has min(M, 4 min(nr, nt)) phases, and no sweep
        # solves more on any link shape, late sweeps included
        import unisym.bdris
        counts = []

        def counting(*args):
            counts[-1] += 1
            return _phase_step(*args)

        sweep = RateObjective._sweep

        def opening(self, *args):
            counts.append(0)
            return sweep(self, *args)

        monkeypatch.setattr(unisym.bdris, "_phase_step", counting)
        monkeypatch.setattr(RateObjective, "_sweep", opening)
        # blocked nr != nt runs converge slowly: fewer of them
        for nr, nt, runs in ((4, 4, 12), (8, 2, 2), (2, 8, 2)):
            sc = Scenario(nr=nr, nt=nt, m=M, direct_blocked=True)
            counts.clear()
            for s in range(runs):
                ch = gen_channels(sc, seed=s)
                optimize_us(RateObjective(ch, sc.rho), us_random(M, seed=100 + s))
            assert len(counts) > runs * 2
            assert max(counts) <= min(M, 4 * min(nr, nt)), ((nr, nt), Counter(counts))


def gradient_span(P, A, B):
    """The real span [Re a, Im a, Re b, Im b] of a = Q^H A and b = Q^T B,
    which holds the range of the projected gradient of J = A B^H at P."""
    a, b = P.Q.conj().T @ A, P.Q.T @ B
    return np.hstack((a.real, a.imag, b.real, b.imag))


class TestSpanFrame:
    @pytest.mark.parametrize("nr, nt", [(4, 4), (8, 2), (2, 8)])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_span_frame_is_the_full_frame(self, nr, nt, blocked):
        for m in (1, 3, 16, 64):
            sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
            ch = gen_channels(sc, seed=m + 10 * nr)
            P = us_random(m, seed=m + 1)
            A, B = RateObjective(ch, sc.rho).grad_factors(P)
            D = us_tangent_project(P, A @ B.conj().T)
            full = us_geodesic_frame(P, D)
            span = us_geodesic_frame(P, D, span=gradient_span(P, A, B))
            case = (nr, nt, m, blocked)
            k = min(m, 4 * min(nr, nt))
            assert span.theta.size == k, case
            assert np.all(np.diff(span.theta) <= 0.0), case
            # the span frame's carried columns are the full frame's zero phases
            np.testing.assert_allclose(np.sort(np.pad(span.theta, (0, m - k))),
                                       np.sort(full.theta),
                                       rtol=0.0, atol=1e-12 * D.norm(), err_msg=str(case))
            for mu in (0.1, 0.5, 1.0):
                np.testing.assert_allclose(us_point_at(span, mu * span.theta).U,
                                           us_point_at(full, mu * full.theta).U,
                                           rtol=0.0, atol=1e-12, err_msg=str((case, mu)))

    def test_span_of_the_wrong_shape_is_refused(self):
        P = us_random(5, seed=3)
        D = TangentDirection(R=np.eye(5))
        for span in (np.ones((4, 8)), np.ones(5), np.ones((5, 2), dtype=complex)):
            shown = f"span must be a real matrix with 5 rows, got {span.dtype} of shape {span.shape}"
            with pytest.raises(ValueError, match=re.escape(shown)):
                us_geodesic_frame(P, D, span=span)


FACTORED_CASES = [(nr, nt, blocked, m) for nr, nt in ((1, 1), (4, 4), (8, 2), (2, 8))
                  for blocked in (False, True) for m in (1, 3, 16, 64)]


class RecordingObjective(RateObjective):
    """A RateObjective that keeps the point and the factors of its last
    gradient."""

    def grad_factors(self, point):
        self.last = (point, *super().grad_factors(point))
        return self.last[1:]


def dense_run(obj, U0):
    """optimize_us with its direction taken as the dense projection
    us_tangent_project(P, A B^H) of each step's gradient factors: the
    oracle for the direction the loop builds from the factors."""

    def dense(R):
        P, A, B = obj.last
        return us_tangent_project(P, A @ B.conj().T)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unisym.optimizer, "TangentDirection", dense)
        return optimize_us(obj, U0)


class TestFactoredDirection:
    """optimize_us builds its direction from the gradient factors,
    R = sym(Im(a) Re(b)^T - Re(a) Im(b)^T) with a = Q^H A and b = Q^T B,
    never forming J = A B^H. It is the dense projection of J, up to
    roundoff, and its range lies in the span the frame is given.

    Bounds are relative to ||A||_F ||B||_F, which bounds ||J||_F and so
    ||R||_F: R itself can vanish, as on a blocked 1-element link, whose
    rate does not depend on the phase. Measured over 40 draws per case:
    at most 3.1e-16 for the direction, 7.5e-16 for the range."""

    def test_the_loop_direction_is_the_dense_projection(self, monkeypatch):
        seen, real = [], unisym.optimizer.us_geodesic_frame

        def recording(P, D, span=None):
            seen.append((D, span))
            return real(P, D, span)

        monkeypatch.setattr(unisym.optimizer, "us_geodesic_frame", recording)
        for nr, nt, blocked, m in FACTORED_CASES:
            sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
            for s in range(3):
                obj = RateObjective(gen_channels(sc, seed=3000 + s), sc.rho)
                P = us_random(m, seed=4000 + s)
                seen.clear()
                unisym.optimizer._us_step(obj, P, obj.eval(P))
                (D, span), = seen
                A, B = obj.grad_factors(P)
                scale = np.linalg.norm(A) * np.linalg.norm(B)
                case = (nr, nt, blocked, m, s)
                dense = us_tangent_project(P, A @ B.conj().T).R
                assert np.linalg.norm(D.R - dense) <= 1e-15 * scale, case
                Z = np.linalg.qr(span)[0]
                ZZ = Z @ Z.T
                assert np.linalg.norm(D.R - ZZ @ D.R @ ZZ) <= 4e-15 * scale, case

    @pytest.mark.parametrize("nr, nt", [(1, 1), (4, 4), (8, 2), (2, 8)])
    def test_runs_match_the_dense_projection(self, nr, nt):
        # live links: measured at most 4.3e-13 nats apart over 40 draws per
        # case. On blocked links the slow tail amplifies roundoff, so the
        # gap is held to the one-ulp floor of these draws: how far the
        # dense run moves with rho, or with every Re F, one ulp up (as
        # tools/same_answers.py nudges). Over 13 groups of 3 draws per
        # case the gap reached 4.6 times that floor. On 2 of the 80
        # blocked 4 x 4 draws at m = 16 and 64 the iteration count moved,
        # as it can under such a nudge; these draws keep every count
        for blocked in (False, True):
            for m in (1, 3, 16, 64):
                sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
                gaps, floor = [], 0.0
                for s in range(3):
                    ch = gen_channels(sc, seed=5000 + 10 * s + m)
                    U0 = us_random(m, seed=6000 + s)
                    _, trace = optimize_us(RateObjective(ch, sc.rho), U0)
                    _, oracle = dense_run(RecordingObjective(ch, sc.rho), U0)
                    case = (nr, nt, blocked, m, s)
                    assert trace.iterations == oracle.iterations, case
                    assert trace.status == oracle.status, case
                    gaps.append(abs(trace.final_value - oracle.final_value))
                    if blocked:
                        F_up = np.nextafter(ch.F.real, np.inf) + 1j * ch.F.imag
                        for c, rho in ((ch, np.nextafter(sc.rho, np.inf)),
                                       (ChannelSet(Hd=ch.Hd, F=F_up, G=ch.G), sc.rho)):
                            _, nudged = dense_run(RecordingObjective(c, rho), U0)
                            floor = max(floor, abs(nudged.final_value - oracle.final_value))
                assert max(gaps) <= max(2e-12, 8.0 * floor), (nr, nt, blocked, m, gaps, floor)

    def test_a_run_never_projects_an_ambient_gradient(self, monkeypatch):
        def refuse(P, J):
            raise AssertionError("optimize_us formed and projected J")

        monkeypatch.setattr(unisym.manifold, "us_tangent_project", refuse)
        monkeypatch.setattr(unisym.optimizer, "us_tangent_project", refuse, raising=False)
        for nr, nt, blocked, m in FACTORED_CASES:
            sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
            _, trace = optimize_us(RateObjective(gen_channels(sc, seed=m), sc.rho),
                                   us_random(m, seed=m))
            assert trace.iterations >= 1


def span_frame_case(nr, nt, M, blocked, seed):
    """Channels, rho, the span-built frame of optimize_us's first step from
    a random point, and its gradient-step seed phases."""
    sc = Scenario(nr=nr, nt=nt, m=M, direct_blocked=blocked)
    ch = gen_channels(sc, seed=seed)
    P = us_random(M, seed=seed + 1)
    A, B = RateObjective(ch, sc.rho).grad_factors(P)
    Fr = us_geodesic_frame(P, us_tangent_project(P, A @ B.conj().T),
                           span=gradient_span(P, A, B))
    return ch, sc.rho, Fr, np.mod(Fr.theta + np.pi, 2.0 * np.pi) - np.pi


CARRIED_CASES = [(nr, nt, M, blocked) for nr, nt in ((8, 2), (2, 8), (4, 4))
                 for M in (16, 64) for blocked in (False, True)]


class TestCarriedColumns:
    """A span-built frame holds the k = min(M, 4 min(nr, nt)) phases of the
    span's axes; a step carries the other M - k columns of its factor,
    which the channel cannot see, unchanged."""

    def test_a_point_carries_the_columns_outside_the_span(self):
        for nr, nt, M, blocked in CARRIED_CASES:
            _, _, Fr, theta0 = span_frame_case(nr, nt, M, blocked, 900 + M)
            k = min(M, 4 * min(nr, nt))
            case = (nr, nt, M, blocked)
            assert Fr.k == k and Fr.QR.shape == (M, M), case
            Q = us_point_at(Fr, theta0).Q
            np.testing.assert_array_equal(Q[:, k:], Fr.QR[:, k:], str(case))

    def test_sweep_solves_the_frame_phases_alone(self, monkeypatch):
        counts = []
        for nr, nt, M, blocked in CARRIED_CASES:
            ch, rho, Fr, theta0 = span_frame_case(nr, nt, M, blocked, 900 + M)
            case = (nr, nt, M, blocked)
            k = Fr.k
            # a hand-built frame with theta zero-padded to M solves all M
            # axes, its first k before any carried one moves
            padded = GeodesicFrame(QR=Fr.QR, theta=np.pad(Fr.theta, (0, M - k)))
            whole = RateObjective(ch, rho).sweep(padded, np.pad(theta0, (0, M - k)))
            visited = visited_axes(monkeypatch, ch, Fr)
            theta = RateObjective(ch, rho).sweep(Fr, theta0.copy())
            monkeypatch.undo()
            np.testing.assert_allclose(theta, whole[:k], rtol=1e-12, atol=0.0,
                                       err_msg=str(case))
            assert visited == list(range(k)), case
            counts.append(len(visited))
        assert max(counts) >= 8    # the 8 x 2 and 2 x 8 frames have axes to solve

    def test_phase_maximizer_refuses_an_axis_past_the_frame(self):
        for nr, nt in ((8, 2), (2, 8), (4, 4)):
            ch, rho, Fr, theta0 = span_frame_case(nr, nt, 64, False, 950)
            with pytest.raises(ValueError, match="out of range"):
                RateObjective(ch, rho).phase_maximizer(Fr, theta0, Fr.k)


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

    @pytest.mark.parametrize("k_rician", [0.0, 3.0, 1e6])
    @pytest.mark.parametrize("nr,nt", [(1, 1), (4, 4), (8, 2), (2, 8)])
    def test_as_near_as_the_full_retraction(self, nr, nt, k_rician):
        # the m x m oracle retracts T = A + A^T directly; the subspace
        # retraction may pick another nearest point (T is rank-deficient),
        # but it must be as near, and give the same channel
        for M in (1, 2, 3, 8, 17, 64):
            sc = Scenario(nr=nr, nt=nt, m=M, k_rician=k_rician)
            ch = gen_channels(sc, seed=M)
            A = ch.F.conj().T @ ch.Hd @ ch.G
            T = A + A.T
            U = low_cost_bdris(ch).U
            oracle = us_retract(T)
            assert np.linalg.norm(U @ U.conj().T - np.eye(M)) <= 1e-10
            assert np.linalg.norm(U - U.T) <= 1e-10
            assert np.linalg.norm(T - U) == pytest.approx(
                np.linalg.norm(T - oracle.U), abs=1e-12 * math.sqrt(M))
            assert rate(ch, U, sc.rho) == pytest.approx(rate(ch, oracle, sc.rho), rel=1e-10)

    @pytest.mark.parametrize("M", [128, 256])
    @pytest.mark.parametrize("nr,nt,tol", [(4, 4, 1e-12), (8, 2, 1e-11)])
    def test_matches_the_design_on_lapack_complete_factor(self, nr, nt, tol, M, monkeypatch):
        # from M = 128 on, the complete factor is built from its reflectors
        # by one product; the design on LAPACK's own factor is the oracle.
        # On an 8 x 2 link six of the ten Takagi columns are a zero group
        # inside the channel's span, which roundoff picks: a one-ulp nudge
        # of F alone moves these rates by up to 2.9e-12 bits (20 draws at
        # M = 256), against 2.8e-14 on a 4 x 4 link
        sc = Scenario(nr=nr, nt=nt, m=M)
        ch = gen_channels(sc, seed=M + nr)
        bits = rate_bits(ch, low_cost_bdris(ch), sc.rho)
        monkeypatch.setattr(unisym.bdris, "_complete_q",
                            lambda X: np.linalg.qr(X, mode="complete")[0])
        assert abs(bits - rate_bits(ch, low_cost_bdris(ch), sc.rho)) <= tol

    def test_takagi_sees_only_the_channel_subspace(self, monkeypatch):
        import unisym.bdris
        import unisym.manifold
        shapes = []

        def recording(A, real=unisym.bdris.takagi):
            shapes.append(np.shape(A))
            return real(A)

        monkeypatch.setattr(unisym.bdris, "takagi", recording)
        monkeypatch.setattr(unisym.manifold, "takagi", recording)
        for nr, nt in ((4, 4), (8, 2)):
            low_cost_bdris(gen_channels(Scenario(nr=nr, nt=nt, m=64), seed=3))
            assert shapes and all(s[0] <= nr + nt and s[1] <= nr + nt for s in shapes)
            shapes.clear()


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

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("nr,nt", [(1, 1), (4, 4), (8, 2), (2, 8)])
    def test_low_rank_step_matches_the_dense_exponential(self, nr, nt, m):
        # the baseline's step on the k x k problem, mapped back to U(m) as
        # the rank-k update U0 (I + Z (G_k - I) Z^H), against U0 exp(tS)
        # with S the projection of the full gradient, by scipy's expm; on
        # a desk channel and on one with F = 0, whose gradient is zero
        sc = Scenario(nr=nr, nt=nt, m=m)
        live = gen_channels(sc, seed=m)
        tol = 1e-12 * math.sqrt(m)
        for ch in (live, ChannelSet(Hd=live.Hd, F=np.zeros_like(live.F), G=live.G)):
            U0 = u_random(m, seed=nr + 10 * nt)
            Z = start_subspace(ch, U0)
            I = UPoint(U=np.eye(Z.shape[1], dtype=complex))
            A, B = RateObjective(ChannelSet(Hd=ch.Hd, F=ch.F @ U0.U @ Z, G=ch.G @ Z),
                                 sc.rho).grad_factors(I)
            Sk = u_tangent_project(I, A @ B.conj().T)
            S = u_tangent_project(U0, euclid_grad(ch, U0, sc.rho))
            assert abs(np.linalg.norm(Sk) - np.linalg.norm(S)) <= tol * max(1.0, np.linalg.norm(S))
            for t in (1.0, 0.5, 2.0 ** -10):
                Gk = u_geodesic(I, Sk, t).U
                step = U0.U + (U0.U @ Z) @ (Gk - I.U) @ Z.conj().T
                assert np.linalg.norm(step - U0.U @ expm(t * S)) <= tol, t

    def test_armijo_step_sees_only_the_gradient_rank(self, monkeypatch):
        # on a 4x4 link at M = 64 the baseline ascends on U(k), k = nr + nt
        # = 8: no exponential and no eigendecomposition larger than 8 x 8,
        # apart from the final retraction's one Takagi eigh of the
        # 2m x 2m real form
        import unisym.manifold
        expm_shapes, eigh_shapes = [], []

        def recording_expm(S, real=unisym.manifold.expm_skew_hermitian):
            expm_shapes.append(np.shape(S))
            return real(S)

        def recording_eigh(a, *args, real=np.linalg.eigh, **kwargs):
            eigh_shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(unisym.manifold, "expm_skew_hermitian", recording_expm)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        sc = Scenario(m=64)
        _, trace = mo_u_proj_baseline(gen_channels(sc, seed=3), sc.rho, u_random(64, seed=3))
        assert trace.iterations >= 2
        assert expm_shapes and all(max(s) <= 8 for s in expm_shapes)
        large = [s for s in eigh_shapes if max(s) > 8]
        assert large == [(128, 128)] and eigh_shapes[-1] == (128, 128)


def dense_baseline(ch, rho, U0, cfg=None):
    """The projection baseline as the Armijo ascent on all of U(m), then
    the retraction of U + U^T."""
    P, trace = optimize_u_armijo(RateObjective(ch, rho), U0, cfg)
    return us_retract(P.U + P.U.T), trace


def start_subspace(ch, U0):
    """Orthonormal Z with range [U0^H F^H, G^H], by an SVD (not the QR the
    baseline takes): the columns of its left factor over the numerical rank."""
    X = np.hstack(((ch.F @ U0.U).conj().T, ch.G.conj().T))
    W, s, _ = np.linalg.svd(X, full_matrices=False)
    return W[:, s > s[0] * 1e-12]


class TestReducedProjection:
    """mo_u_proj_baseline runs its ascent on the k x k problem,
    k = min(m, nr + nt), that the ascent on U(m) never leaves."""

    @pytest.mark.parametrize("m", [1, 3, 16, 64])
    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("nr,nt", [(4, 4), (8, 2), (2, 8), (1, 1)])
    def test_matches_the_ascent_on_the_whole_group(self, nr, nt, blocked, m):
        # measured over 10 draws per case: iteration counts and statuses
        # equal in all 320, rates apart by at most 1.9e-13 bits (8 x 2 live,
        # m = 64); traces by at most 5.6e-13 bits
        sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
        for s in range(2):
            ch = gen_channels(sc, seed=300 + s)
            U0 = u_random(m, seed=400 + s)
            P, trace = mo_u_proj_baseline(ch, sc.rho, U0)
            P_dense, trace_dense = dense_baseline(ch, sc.rho, U0)
            assert trace.iterations == trace_dense.iterations, s
            assert trace.status == trace_dense.status, s
            assert np.max(np.abs(trace.values - trace_dense.values)) / math.log(2) <= 5e-12, s
            assert abs(rate_bits(ch, P, sc.rho) - rate_bits(ch, P_dense, sc.rho)) <= 5e-12, s

    def test_the_ascent_runs_on_the_k_by_k_problem(self, monkeypatch):
        starts, real = [], unisym.bdris.optimize_u_armijo

        def recording(obj, U0, cfg=None):
            starts.append((U0.U.shape, obj.channels.F.shape, obj.channels.G.shape))
            return real(obj, U0, cfg)

        monkeypatch.setattr(unisym.bdris, "optimize_u_armijo", recording)
        for nr, nt, m in ((4, 4, 64), (8, 2, 16), (2, 8, 3), (1, 1, 1)):
            sc = Scenario(nr=nr, nt=nt, m=m)
            mo_u_proj_baseline(gen_channels(sc, seed=1), sc.rho, u_random(m, seed=2))
            k = min(m, nr + nt)
            assert starts.pop() == ((k, k), (nr, k), (nt, k))

    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("nr,nt", [(4, 4), (8, 2), (2, 8)])
    def test_the_dense_ascent_stays_in_the_start_subspace(self, monkeypatch, nr, nt, blocked):
        # every point the ascent on U(m) settles is U0 (I + Z (G_k - I) Z^H):
        # U0^H U - I vanishes on the orthogonal complement of Z, on both sides
        points = settled_points(monkeypatch)
        for m in (16, 64):
            sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
            ch = gen_channels(sc, seed=m)
            U0 = u_random(m, seed=m + 1)
            Z = start_subspace(ch, U0)
            assert Z.shape[1] <= nr + nt < m
            perp = np.eye(m) - Z @ Z.conj().T
            points.clear()
            optimize_u_armijo(RateObjective(ch, sc.rho), U0, OptimizerConfig(epsilon=1e-9))
            assert len(points) >= 2
            for P in points:
                D = U0.U.conj().T @ P.U - np.eye(m)
                assert np.linalg.norm(perp @ D) <= 1e-12 * m, m
                assert np.linalg.norm(D @ perp) <= 1e-12 * m, m

    def test_an_off_manifold_start_is_refused(self):
        sc = Scenario(m=4)
        ch = gen_channels(sc, seed=0)
        nan_entry = np.eye(4, dtype=complex)
        nan_entry[0, 1] = np.nan
        for U in (2.0 * np.eye(4, dtype=complex), nan_entry):
            with pytest.raises(ValueError, match="off the manifold"):
                mo_u_proj_baseline(ch, sc.rho, UPoint(U))


def settled_points(monkeypatch):
    """The list of every point that optimizer._settle returns from here on."""
    import unisym.optimizer as opt
    points, real = [], opt._settle

    def settle(obj, cand, value=None):
        found = real(obj, cand, value)
        points.append(found[0])
        return found

    monkeypatch.setattr(opt, "_settle", settle)
    return points


def check_carried_bounds(points):
    """The largest carried bound of the settled points that carry one,
    after checking that each is at least the point's measured residual
    and within DRIFT_TOL (so no point was measured)."""
    largest = 0.0
    for P in points:
        if math.isnan(P.bound):     # the start point, measured
            continue
        bound = P.bound
        measured = unisym.linalg._unitarity_residual(P.Q)
        assert measured <= bound <= DRIFT_TOL, (measured, bound)
        largest = max(largest, bound)
    return largest


class TestCarriedResidual:
    """Every point a frame step of optimize_us settles carries a bound on
    its residual ||Q Q^H - I||_F that is certified, so at least the
    measured residual, and on these runs within DRIFT_TOL, so that no step
    measures one."""

    @pytest.mark.parametrize("nr, nt", [(4, 4), (8, 2), (2, 8)])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_the_bound_holds_on_every_settled_point(self, monkeypatch, nr, nt, blocked):
        points = settled_points(monkeypatch)
        cfg = OptimizerConfig(epsilon=1e-9, max_iters=100)
        largest = 0.0
        for m in (1, 3, 16, 64):
            sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
            obj = RateObjective(gen_channels(sc, seed=m), sc.rho)
            points.clear()
            optimize_us(obj, us_random(m, seed=m), cfg)
            largest = max(largest, check_carried_bounds(points))
        # measured: at most 2.7e-10 (blocked 4 x 4, m = 64, mo_us after 100
        # iterations) over 2,920 points, each measuring at most 0.45 x its
        # bound; a much looser bound would send long runs back to measuring
        assert largest <= 1e-9

    def test_the_bound_holds_at_m_256(self, monkeypatch):
        points = settled_points(monkeypatch)
        sc = Scenario(m=256)
        obj = RateObjective(gen_channels(sc, seed=3), sc.rho)
        _, trace = optimize_us(obj, us_random(256, seed=4), OptimizerConfig(epsilon=1e-9))
        assert trace.iterations >= 20
        # measured: 1.7e-9 after 42 iterations, growing about 4e-11 per step
        assert check_carried_bounds(points) <= 4e-9

    def test_a_run_measures_its_start_point_only(self, monkeypatch):
        # a desk-size run of optimize_us makes one exact residual
        # measurement, of its start point; every later point passes the
        # drift rule on its carried bound. The projection baseline makes one
        # m x m measurement, of U0, before its ascent on U(k), k = 8, whose
        # points are all measured, and Takagi's of the final retraction
        calls, real = [], unisym.linalg._unitarity_residual

        def counted(A):
            calls.append(A)
            return real(A)

        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "unisym"]:
            if getattr(mod, "_unitarity_residual", None) is real:
                monkeypatch.setattr(mod, "_unitarity_residual", counted)
        sc = Scenario(m=64)
        ch = gen_channels(sc, seed=3)
        P0 = us_random(64, seed=3)
        _, trace = optimize_us(RateObjective(ch, sc.rho), P0)
        assert trace.iterations >= 3
        assert len(calls) == 1 and calls[0] is P0.Q

        calls.clear()
        U0 = u_random(64, seed=3)
        P, trace = mo_u_proj_baseline(ch, sc.rho, U0)
        assert trace.iterations >= 3
        assert calls[0] is U0.U and calls[-1] is P.Q
        # the start I_8 and at least one settled candidate per move
        assert len(calls) >= trace.iterations + 2
        assert all(A.shape == (8, 8) for A in calls[1:-1])


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


def rank_one_optimum_bits(ch, rho):
    """The global optimum in bits of a link with min(nr, nt) = 1 that has a
    closed form: a live 1 x 1 link, or a blocked one.

    For unit vectors a and b a unitary symmetric Theta with Theta a = b
    exists, so with nt = 1 Theta g^H reaches every vector of norm ||g||
    (and likewise with nr = 1). By Cauchy-Schwarz the optimum is then
    log2(1 + rho (|hd| + ||f|| ||g||)^2) on a 1 x 1 link and
    log2(1 + rho sigma_1(F)^2 sigma_1(G)^2) on a blocked one, m = 1 included.
    """
    if np.any(ch.Hd):
        assert ch.Hd.shape == (1, 1)
        a = abs(ch.Hd[0, 0]) + np.linalg.norm(ch.F) * np.linalg.norm(ch.G)
    else:
        assert min(ch.Hd.shape) == 1
        a = np.linalg.norm(ch.F, 2) * np.linalg.norm(ch.G, 2)
    return math.log2(1.0 + rho * a * a)


class TestRankOneOptimum:
    """The closed-form optimum of rank-one links bounds every method, and
    mo_us reaches it. Measured over these draws and the next 4 per case:
    no method above it by more than 2.7e-15 bits, mo_us at most 3.8e-11
    bits below it (live 1 x 1), mo_u_proj up to 1.68 bits below, and
    low_cost equal to it within 1.8e-15 bits on live 1 x 1 links."""

    @pytest.mark.parametrize("m", [1, 2, 16, 64])
    @pytest.mark.parametrize("nr,nt,blocked", [(1, 1, False), (1, 1, True),
                                               (4, 1, True), (1, 4, True)])
    def test_no_method_exceeds_it_and_mo_us_reaches_it(self, nr, nt, blocked, m):
        sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
        cfg = OptimizerConfig(epsilon=1e-10, max_iters=100)
        methods = [name for name in METHODS if not (blocked and name == "low_cost")]
        for s in range(4):
            ch = gen_channels(sc, seed=500 + s)
            best = rank_one_optimum_bits(ch, sc.rho)
            for method in methods:
                P, trace = METHODS[method](ch, sc.rho, 0, s, cfg)
                rb = rate_bits(ch, P, sc.rho)
                assert rb <= best + 1e-13, (method, s)
                if method == "mo_us":
                    assert trace.status == "converged", s
                    assert rb >= best - 2e-10, s
                if method == "low_cost":
                    assert rb == pytest.approx(best, abs=1e-13), s


class TestElementRelabelling:
    """The rate sees the surface only through F Theta G^H, and only through
    the singular values of H_eq, so two maps of the inputs carry every
    method's answer along. Relabelling the elements by a permutation P,
    (F, G) -> (F P^T, G P^T), maps Theta -> P Theta P^T, from the start
    U0 -> P U0 P^T of mo_u_proj and Q0 -> P Q0 of mo_us. Rotating the
    antennas by Haar unitaries A (nr x nr) and B (nt x nt),
    (Hd, F, G) -> (A Hd B^H, A F, B G), leaves Theta and the starts as
    they are.

    Relabelling, measured over these 4 draws per case and 36 more:
    iteration counts and statuses equal everywhere; rates apart by at
    most 4.8e-13 bits for mo_u_proj, 4.6e-13 for low_cost and 1.6e-12
    for mo_us on live links. On blocked links mo_us reached 6.6e-9 bits
    over these draws (4 x 4, M = 16), and up to 1.6e-3 over the others
    (4 x 4, M = 64): its slow blocked tail amplifies roundoff.

    Rotation, measured over the same 40 draws: rates apart by at most
    4.8e-13 bits for mo_u_proj, 5.3e-13 for low_cost and 3.4e-13 for
    mo_us on live links, and 6.8e-10 bits for mo_us on blocked links over
    these draws (4 x 4, M = 16). Over the others, the blocked 4 x 4,
    M = 64 tail reached 1.7e-3 bits, and on one draw (seed 631) its
    iteration count moved from 64 to 65; these 4 draws keep every count
    and status."""

    @pytest.mark.parametrize("m", [3, 16, 64])
    @pytest.mark.parametrize("nr,nt,blocked", [(4, 4, False), (4, 4, True),
                                               (8, 2, False), (2, 8, True)])
    def test_every_method_maps_along(self, nr, nt, blocked, m):
        sc = Scenario(nr=nr, nt=nt, m=m, direct_blocked=blocked)
        for s in range(4):
            ch = gen_channels(sc, seed=600 + s)
            p = np.random.default_rng(700 + s).permutation(m)
            A, B = u_random(nr, seed=1000 + s).U, u_random(nt, seed=1100 + s).U
            Q0, U0 = us_random(m, seed=800 + s).Q, u_random(m, seed=900 + s).U
            runs = {
                "mo_us": (lambda c, Q: optimize_us(RateObjective(c, sc.rho), UsPoint(Q=Q)), Q0),
                "mo_u_proj": (lambda c, U: mo_u_proj_baseline(c, sc.rho, UPoint(U=U)), U0),
            }
            if not blocked:
                runs["low_cost"] = (lambda c, _: (low_cost_bdris(c), None), None)
            # per map: the mapped channels, and the starts it maps
            maps = {
                "relabel": (ChannelSet(Hd=ch.Hd, F=ch.F[:, p], G=ch.G[:, p]),
                            {"mo_us": Q0[p], "mo_u_proj": U0[p][:, p]}),
                "rotate": (ChannelSet(Hd=A @ ch.Hd @ B.conj().T, F=A @ ch.F, G=B @ ch.G), {}),
            }
            for method, (run, start) in runs.items():
                P, trace = run(ch, start)
                for name, (mapped, starts) in maps.items():
                    P_m, trace_m = run(mapped, starts.get(method, start))
                    case = (name, method, s)
                    if trace is not None:
                        assert trace.iterations == trace_m.iterations, case
                        assert trace.status == trace_m.status, case
                    gap = abs(rate_bits(ch, P, sc.rho) - rate_bits(mapped, P_m, sc.rho))
                    bound = 1e-7 if blocked and method == "mo_us" else 5e-12
                    assert gap <= bound, (case, gap)


class TestFuzz:
    def test_every_draw_ends_in_a_named_outcome(self):
        # a finite rate with a monotone trace, an inapplicable method or a
        # NumericalError; anything else raised fails the test
        outcomes = Counter()
        for draw, sc in fuzz_scenarios():
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
