"""Geometry tests for the unitary-symmetric manifold and the U(n) helpers.

Oracles used here are independent of the code under test: an explicit
real least-squares solve for the tangent projection, scipy's dense Pade
expm for geodesics, random-sampling for the nearest-point property of
the retraction, and the residual ||Q Q^H - I||_F in extended precision.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from unisym.linalg import DRIFT_TOL, _unitarity_residual
import unisym.manifold
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
    _gram_bound,
    _gram_defect,
    _us_point_bound,
)
from unisym.optimizer import Objective, optimize_u_armijo, optimize_us

from oracles import crandn, embedded_basis_matrix, exact_residual, project_lstsq


class TestUsRandom:
    def test_scalar(self):
        P = us_random(1, seed=0)
        assert abs(abs(P.U[0, 0]) - 1.0) < 1e-12

    def test_invariants(self):
        P = us_random(16, seed=7)
        assert P.max_residual() < 1e-10
        assert np.linalg.norm(P.U @ P.U.conj().T - np.eye(16)) < 1e-10
        assert np.linalg.norm(P.U - P.U.T) < 1e-10

    def test_deterministic(self):
        a = us_random(8, seed=42)
        b = us_random(8, seed=42)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.Q, b.Q)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            us_random(0, seed=1)
        with pytest.raises(ValueError):
            u_random(0, seed=1)
        for f in (us_random, u_random):
            with pytest.raises(ValueError, match="n must be an integer"):
                f(2.5, seed=1)


class TestUsTangentProject:
    def test_zero_gradient(self):
        P = us_random(4, seed=1)
        D = us_tangent_project(P, np.zeros((4, 4), dtype=complex))
        np.testing.assert_allclose(D.R, np.zeros((4, 4)), atol=1e-14)

    def test_identity_frame_recovers_r(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((3, 3))
        R0 = (B + B.T) / 2
        P = UsPoint(Q=np.eye(3, dtype=complex))
        D = us_tangent_project(P, 1j * R0)
        np.testing.assert_allclose(D.R, R0, atol=1e-13)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(3)
        P = us_random(5, seed=30)
        J = crandn(rng, 5, 5)
        D = us_tangent_project(P, J)
        R_star = project_lstsq(P.Q, J)
        assert np.linalg.norm(D.R - R_star) < 1e-9 * max(1.0, np.linalg.norm(J))

    def test_direction_needs_a_real_square_r(self):
        # a complex R would lose its imaginary part, and a non-square one
        # fail inside R + R^T with numpy's broadcast error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for R in (1j * np.eye(3), np.eye(3, dtype=complex), np.zeros((2, 3)),
                      np.zeros(3), np.array(1.0), np.array([[None]]), np.eye(2, dtype=bool)):
                with pytest.raises(ValueError, match=r"R must be a real square matrix"):
                    TangentDirection(R=R)
        # integers are real; R is kept as its symmetric part, in float
        D = TangentDirection(R=[[0, 1], [2, 3]])
        assert D.R.dtype == float and np.array_equal(D.R, [[0.0, 1.5], [1.5, 3.0]])

    def test_dimension_mismatch(self):
        P = us_random(4, seed=4)
        with pytest.raises(ValueError):
            us_tangent_project(P, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            u_tangent_project(u_random(4, seed=4), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="dimension"):
            us_geodesic_frame(P, TangentDirection(R=np.zeros((3, 3))))
        # gradient factors that do not fit the point: J = A B^H of another
        # shape, or factors that do not multiply
        for A, B in ((np.zeros((3, 2)), np.zeros((3, 2))), (np.zeros((4, 2)), np.eye(4))):
            with pytest.raises(ValueError):
                optimize_u_armijo(FixedFactors(A, B), u_random(4, seed=4))
            with pytest.raises(ValueError):
                optimize_us(FixedFactors(A, B), P)

    def test_embedded_vector_properties(self):
        # tangent characterization: U^H B + B^H U = 0 and B symmetric
        rng = np.random.default_rng(5)
        P = us_random(6, seed=50)
        B0 = rng.standard_normal((6, 6))
        D = TangentDirection(R=B0)
        B = D.embed(P)
        assert np.linalg.norm(P.U.conj().T @ B + B.conj().T @ P.U) < 1e-10
        assert np.linalg.norm(B - B.T) < 1e-10
        # projecting the embedding recovers R
        D2 = us_tangent_project(P, B)
        assert np.linalg.norm(D2.R - D.R) < 1e-10

    def test_projection_idempotent(self):
        rng = np.random.default_rng(6)
        P = us_random(5, seed=60)
        D = us_tangent_project(P, crandn(rng, 5, 5))
        D2 = us_tangent_project(P, D.embed(P))
        assert np.linalg.norm(D2.R - D.R) < 1e-12

    def test_tangent_dimension(self):
        # real span of the embedded symmetric basis has dimension n(n+1)/2
        for n in (2, 3, 5, 6):
            P = us_random(n, seed=100 + n)
            rank = np.linalg.matrix_rank(embedded_basis_matrix(P.Q))
            assert rank == n * (n + 1) // 2


class TestGeodesic:
    def test_zero_direction(self):
        P = us_random(4, seed=8)
        Fr = us_geodesic_frame(P, TangentDirection(R=np.zeros((4, 4))))
        np.testing.assert_allclose(Fr.theta, np.zeros(4), atol=1e-14)
        for mu in (0.0, 0.3, 1.0):
            P2 = us_point_at(Fr, Fr.theta * mu)
            assert np.linalg.norm(P2.U - P.U) < 1e-12

    def test_scalar_geodesic(self):
        P = UsPoint(Q=np.ones((1, 1), dtype=complex))
        Fr = us_geodesic_frame(P, TangentDirection(R=np.array([[np.pi]])))
        for mu in (0.25, 0.5, 1.0):
            P2 = us_point_at(Fr, Fr.theta * mu)
            np.testing.assert_allclose(P2.U, np.exp(1j * np.pi * mu) * P.U, atol=1e-12)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(9)
        P = us_random(6, seed=90)
        B0 = rng.standard_normal((6, 6))
        D = TangentDirection(R=B0)
        Fr = us_geodesic_frame(P, D)
        for mu in (0.1, 0.5, 1.0):
            lhs = us_point_at(Fr, Fr.theta * mu).U
            rhs = P.U @ scipy.linalg.expm(1j * mu * P.Q.conj() @ D.R @ P.Q.T)
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_exponential_image_symmetric_unitary(self):
        # the image U exp(U^H B) of a tangent vector stays symmetric unitary
        rng = np.random.default_rng(10)
        P = us_random(5, seed=91)
        D = TangentDirection(R=rng.standard_normal((5, 5)))
        B = D.embed(P)
        phi = P.U @ scipy.linalg.expm(P.U.conj().T @ B)
        assert np.linalg.norm(phi - phi.T) < 1e-9
        assert np.linalg.norm(phi @ phi.conj().T - np.eye(5)) < 1e-9


class TestUsPointAt:
    def test_zero_phases(self):
        P = us_random(4, seed=11)
        Fr = us_geodesic_frame(P, TangentDirection(R=np.eye(4)))
        P2 = us_point_at(Fr, np.zeros(4))
        assert np.linalg.norm(P2.U - Fr.QR @ Fr.QR.T) < 1e-14

    def test_scalar(self):
        Fr_ = us_geodesic_frame(UsPoint(Q=np.ones((1, 1), dtype=complex)),
                                TangentDirection(R=np.zeros((1, 1))))
        P = us_point_at(Fr_, np.array([np.pi / 2]))
        np.testing.assert_allclose(P.U, [[1j]], atol=1e-14)
        np.testing.assert_allclose(P.Q, [[np.exp(0.25j * np.pi)]], atol=1e-14)

    def test_random_phases_stay_on_manifold(self):
        rng = np.random.default_rng(12)
        P = us_random(7, seed=120)
        Fr = us_geodesic_frame(P, TangentDirection(R=rng.standard_normal((7, 7))))
        phases = rng.uniform(-np.pi, np.pi, size=7)
        P2 = us_point_at(Fr, phases)
        assert P2.max_residual() < 1e-9
        assert np.linalg.norm(P2.U @ P2.U.conj().T - np.eye(7)) < 1e-9
        assert np.linalg.norm(P2.U - P2.U.T) < 1e-9
        # re-factorizing U reproduces it
        P3 = us_retract(P2.U)
        assert np.linalg.norm(P3.U - P2.U) < 1e-9

    def test_length_mismatch(self):
        P = us_random(4, seed=13)
        Fr = us_geodesic_frame(P, TangentDirection(R=np.eye(4)))
        with pytest.raises(ValueError):
            us_point_at(Fr, np.zeros(3))
        # a complex vector of the right length would lose its imaginary part
        with pytest.raises(ValueError, match="real vector"):
            us_point_at(Fr, np.full(4, 1j))
        # a non-finite phase would give a NaN factor
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"phases must be a finite real vector"):
                us_point_at(Fr, [bad, 0.0, 0.0, 0.0])
        # an object array is no real vector either: a named ValueError, not
        # numpy's TypeError from isfinite
        with pytest.raises(ValueError, match=r"phases must be a finite real vector"):
            us_point_at(Fr, np.array([None] * 4))


def drifted_point(n, eps, rng):
    """A point whose factor Q (I + eps H), H Hermitian with ||H||_F = 1,
    has the known residual ||2 eps H + eps^2 H^2||_F, about 2 eps."""
    X = crandn(rng, n, n)
    H = (X + X.conj().T) / np.linalg.norm(X + X.conj().T)
    known = np.linalg.norm(2.0 * eps * H + eps * eps * H @ H)
    return UsPoint(Q=us_random(n, seed=n).Q @ (np.eye(n) + eps * H)), known


def hidden_defect_factor(n, rng):
    """A real n x n factor V, n even, and its exact residual: a row and
    column permutation of 2 x 2 blocks [[c, -s], [s, c]], s = 2^-k and c
    the float64 nearest sqrt(1 - s^2) or next to it, so that c s is exact
    and V V^T - I = diag(eta_b I_2), eta_b = c^2 + s^2 - 1 of size 1e-17
    to 1e-16. Each c^2 + s^2 rounds to 1 in float64, so the float64 Gram,
    checked here, is exactly I: it misses a defect of sqrt(2 sum eta_b^2)."""
    blocks = []
    for k, up in ((1, 1), (2, 0), (3, 0), (5, 0), (6, 0), (13, 0)):
        s = 2.0 ** -k
        c = math.sqrt(1.0 - s * s)
        c = math.nextafter(c, 2.0) if up else c
        blocks.append((c, s, Fraction(c) ** 2 + Fraction(s) ** 2 - 1))
    V, etas = np.zeros((n, n)), []
    for b in range(n // 2):
        c, s, eta = blocks[b % len(blocks)]
        V[2 * b:2 * b + 2, 2 * b:2 * b + 2] = [[c, -s], [s, c]]
        etas.append(eta)
    V = V[rng.permutation(n)][:, rng.permutation(n)]
    assert np.array_equal(V @ V.T, np.eye(n)) and np.array_equal(V.T @ V, np.eye(n))
    return V, math.sqrt(2.0 * float(sum(eta * eta for eta in etas)))


class TestResidualBound:
    """The bound a frame step carries, on factors with a known defect up to
    about DRIFT_TOL: it is at least the measured and the exact residual,
    and stays close to them, where measured from the parent, the frame and
    each point. On factors whose defect near roundoff a float64 Gram
    misses, only the bound's roundoff terms keep it above the exact
    residual."""

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 4e-9])
    @pytest.mark.parametrize("spanned", [False, True])
    def test_frame_and_points_bound_their_measured_residual(self, n, eps, spanned):
        rng = np.random.default_rng(31 + n)
        P, known = drifted_point(n, eps, rng)
        parent = P.max_residual()    # no step history: measured
        assert math.isnan(P.bound)
        assert abs(parent - known) <= 1e-6 * known + 1e-14
        # a span of c columns holds range(R), as us_geodesic_frame asks
        c = min(n, 2) if spanned else n
        span = rng.standard_normal((n, c)) if spanned else np.eye(n)
        M = rng.standard_normal((c, c))
        R = span @ (M + M.T) @ span.T
        Fr = us_geodesic_frame(P, TangentDirection(R=R), span=span if spanned else None)
        # slack for the roundoff the bound certifies, at most 2.7e-12 seen at n = 64
        slack = 1e-14 + 2e-15 * n * n
        assert _unitarity_residual(Fr.QR) <= Fr.residual <= 1.01 * parent + slack
        assert exact_residual(Fr.QR) <= Fr.residual
        for _ in range(3):
            pt = us_point_at(Fr, rng.uniform(-np.pi, np.pi, Fr.k))
            measured = _unitarity_residual(pt.Q)
            assert max(measured, exact_residual(pt.Q)) <= pt.bound <= 1.01 * parent + 2.0 * slack
            # a bound within DRIFT_TOL passes the drift rule unmeasured
            assert pt.max_residual() == (pt.bound if pt.bound <= DRIFT_TOL else measured)

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    @pytest.mark.parametrize("eta", [0.0, 1e-12, 1e-10, 2e-9])
    def test_phases_off_the_unit_circle(self, n, eta):
        # z = e^{j phi / 2} (1 + eta_j), |eta_j| <= eta: the bound covers
        # || |z|^2 - 1 ||_2 on top of the frame's residual
        rng = np.random.default_rng(47 + n)
        P, _ = drifted_point(n, 1e-10, rng)
        Fr = us_geodesic_frame(P, TangentDirection(R=np.eye(n)))
        z = np.exp(0.5j * rng.uniform(-np.pi, np.pi, n)) * (1.0 + eta * rng.uniform(-1, 1, n))
        bound = _us_point_bound(Fr.residual, z)
        assert bound >= max(_unitarity_residual(Fr.QR * z), exact_residual(Fr.QR * z))
        assert bound >= np.linalg.norm(np.abs(z) ** 2 - 1.0)
        assert bound <= Fr.residual + 3.0 * eta * math.sqrt(n) + 1e-14 * n
        # a hand-built frame's NaN residual gives a NaN bound, so its points
        # are measured (test_optimizer's TestCarriedResidual)
        assert math.isnan(_us_point_bound(math.nan, z))

    def test_gram_defect_bounds_a_tall_factor(self):
        rng = np.random.default_rng(53)
        for eps in (0.0, 1e-12, 1e-10, 4e-9):
            P, _ = drifted_point(64, eps, rng)
            for X in (P.Q[:, :16], np.linalg.qr(rng.standard_normal((64, 16)))[0] * (1 + eps)):
                measured = np.linalg.norm(X.conj().T @ X - np.eye(16))
                assert measured <= _gram_defect(X) <= 1.01 * measured + 1e-12
                assert exact_residual(X.conj().T) <= _gram_defect(X)

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_gram_terms_bound_a_defect_the_gram_misses(self, n):
        V, known = hidden_defect_factor(n, np.random.default_rng(59 + n))
        exact = exact_residual(V)
        assert abs(exact - known) <= 1e-2 * known
        # the float64 measurement reads 0; the raise of _gram_bound and the
        # Gram roundoff term of _gram_defect each lift it above the defect
        assert _unitarity_residual(V) == 0.0
        assert _gram_defect(V) >= exact
        assert _gram_bound(_unitarity_residual(V), n, n) >= exact

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_frame_and_points_bound_a_defect_the_gram_misses(self, monkeypatch, n):
        # us_geodesic_frame's V is the defective factor: the eigenvectors
        # of D.R are replaced by it, and from Q = I the product Q V is exact
        rng = np.random.default_rng(61 + n)
        V, known = hidden_defect_factor(n, rng)
        theta = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
        monkeypatch.setattr(unisym.manifold, "eig_real_symmetric", lambda R: (V.copy(), theta))
        Fr = us_geodesic_frame(UsPoint(Q=np.eye(n, dtype=complex)), TangentDirection(R=np.eye(n)))
        assert np.array_equal(Fr.QR, V)
        assert exact_residual(Fr.QR) <= Fr.residual
        for phases in (np.zeros(n), theta, rng.uniform(-np.pi, np.pi, n)):
            pt = us_point_at(Fr, phases)
            assert exact_residual(pt.Q) <= pt.bound

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_points_bound_a_phase_defect_the_gram_misses(self, n):
        # on an exact frame, phases whose |e^{j phi / 2}| is 1 in float64
        # but not exactly: the point's only defect is || |z|^2 - 1 ||_2
        rng = np.random.default_rng(67 + n)
        phi = rng.uniform(-np.pi, np.pi, 8 * n)
        z = np.exp(0.5j * phi)
        phi = phi[np.abs(z) == 1.0][:n]
        Fr = GeodesicFrame(QR=np.eye(n, dtype=complex), theta=np.zeros(n), residual=0.0)
        pt = us_point_at(Fr, phi)
        exact = exact_residual(pt.Q)
        assert _unitarity_residual(pt.Q) < exact <= pt.bound


class TestUsRetract:
    def test_fixed_point(self):
        P = us_random(6, seed=14)
        P2 = us_retract(P.U)
        assert np.linalg.norm(P2.U - P.U) < 1e-9

    def test_scaling_removed(self):
        P = us_retract(2.0 * np.eye(3, dtype=complex))
        np.testing.assert_allclose(P.U, np.eye(3), atol=1e-12)

    def test_nearest_point_sampling(self):
        rng = np.random.default_rng(15)
        B = crandn(rng, 4, 4)
        A = B + B.T
        P = us_retract(A)
        d_star = np.linalg.norm(A - P.U)
        for k in range(10_000):
            X = us_random(4, seed=10_000 + k)
            assert d_star <= np.linalg.norm(A - X.U) + 1e-12

    def test_near_singular_lands_on_manifold(self):
        # the nearest point is not unique here; any valid choice must still
        # be unitary and symmetric
        P = us_retract(np.diag([1.0, 1e-15]).astype(complex))
        assert P.max_residual() <= 1e-12
        np.testing.assert_allclose(P.U, P.U.T, atol=1e-15)
        assert abs(P.U[0, 0] - 1.0) <= 1e-12


class FixedFactors(Objective):
    """A flat objective whose gradient factors are (A, B) at every point."""

    def __init__(self, A, B):
        self.factors = (A, B)

    def eval(self, point):
        return 0.0

    def grad_factors(self, point):
        return self.factors


class TestUnitaryHelpers:
    def test_zero_gradient(self):
        P = u_random(4, seed=17)
        S = u_tangent_project(P, np.zeros((4, 4)))
        np.testing.assert_allclose(S, np.zeros((4, 4)), atol=1e-14)

    def test_hermitian_annihilated_at_identity(self):
        rng = np.random.default_rng(18)
        B = crandn(rng, 4, 4)
        H = (B + B.conj().T) / 2
        S = u_tangent_project(UPoint(U=np.eye(4, dtype=complex)), H)
        assert np.linalg.norm(S) < 1e-12

    def test_projection_orthogonality(self):
        # residual J - U S is orthogonal to the tangent space at U
        rng = np.random.default_rng(19)
        P = u_random(4, seed=190)
        J = crandn(rng, 4, 4)
        S = u_tangent_project(P, J)
        resid = J - P.U @ S
        scale = np.linalg.norm(J)
        for _ in range(100):
            B = crandn(rng, 4, 4)
            Sp = (B - B.conj().T) / 2
            ip = np.real(np.trace(resid.conj().T @ (P.U @ Sp)))
            assert abs(ip) < 1e-10 * scale * np.linalg.norm(Sp)

    def test_geodesic_mu_zero(self):
        P = u_random(4, seed=20)
        S = np.zeros((4, 4))
        P2 = u_geodesic(P, S, 0.0)
        np.testing.assert_allclose(P2.U, P.U, atol=1e-14)

    def test_geodesic_scalar(self):
        P = u_geodesic(UPoint(U=np.eye(1, dtype=complex)), np.array([[1j]]), np.pi)
        np.testing.assert_allclose(P.U, [[-1.0]], atol=1e-12)

    def test_geodesic_unitary(self):
        rng = np.random.default_rng(21)
        P = u_random(4, seed=210)
        B = crandn(rng, 4, 4)
        S = (B - B.conj().T) / 2
        P2 = u_geodesic(P, S, 0.7)
        assert P2.max_residual() < 1e-10

    def test_residual_is_measured_once(self, monkeypatch):
        import unisym.manifold as manifold
        calls, real = [], manifold._unitarity_residual
        monkeypatch.setattr(manifold, "_unitarity_residual", lambda A: calls.append(A) or real(A))
        P = u_random(4, seed=22)
        assert P.max_residual() == P.max_residual() == real(P.U) <= 1e-13
        assert len(calls) == 1 and calls[0] is P.U
