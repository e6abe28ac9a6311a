"""Kernel-level tests: complete QR factor, symmetric eigendecomposition,
Takagi, expm.

Expected values come either from trivial closed forms or from independent
oracles (residual identities, a scaling-and-squaring Taylor evaluation of
the exponential) computed here, never from the code under test.
"""

import numpy as np
import pytest

from unisym.linalg import (
    NumericalError,
    _complete_q,
    eig_real_symmetric,
    expm_skew_hermitian,
    takagi,
)
from unisym.manifold import us_retract


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def haar_unitary(rng, n):
    Z, R = np.linalg.qr(crandn(rng, n, n))
    return Z * (np.diag(R) / np.abs(np.diag(R)))


def expm_taylor(S, squarings=20, terms=30):
    """Scaling-and-squaring Taylor oracle, independent of the eigh path."""
    X = S / (2.0 ** squarings)
    out = np.eye(S.shape[0], dtype=complex)
    term = np.eye(S.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ X / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestCompleteQ:
    """_complete_q against LAPACK's complete factor, on both sides of its
    switch at 128 rows: below it they are one call, from it on the factor
    is built from LAPACK's reflectors by one product."""

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("m", [1, 16, 127, 128, 256])
    @pytest.mark.parametrize("k", [0, 1, 8, 16, "m+3"])
    def test_matches_lapack(self, m, k, cplx):
        k = m + 3 if k == "m+3" else k
        rng = np.random.default_rng(m + k)
        X = crandn(rng, m, k) if cplx else rng.standard_normal((m, k))
        Y = _complete_q(X)
        assert Y.shape == (m, m) and Y.dtype == X.dtype
        if k == 0:
            np.testing.assert_array_equal(Y, np.eye(m))
        assert np.abs(Y - np.linalg.qr(X, mode="complete")[0]).max() <= 1e-12
        assert np.linalg.norm(Y @ Y.conj().T - np.eye(m)) <= 1e-12

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("m", [16, 128, 256])
    def test_zero_and_repeated_columns(self, m, cplx):
        # a zero column gives its reflector tau = 0; a repeated one leaves
        # X rank-deficient, its reflector made from roundoff
        rng = np.random.default_rng(m)
        X = crandn(rng, m, 8) if cplx else rng.standard_normal((m, 8))
        X[:, 3] = 0.0
        X[:, 5] = X[:, 2]
        assert np.count_nonzero(np.linalg.qr(X, mode="raw")[1] == 0.0) >= 1
        Y = _complete_q(X)
        assert np.abs(Y - np.linalg.qr(X, mode="complete")[0]).max() <= 1e-12
        assert np.linalg.norm(Y @ Y.conj().T - np.eye(m)) <= 1e-12
        R = Y.conj().T @ X
        assert np.linalg.norm(np.tril(R, -1)) <= 1e-12 * np.linalg.norm(X)

    def test_the_row_count_picks_the_path(self, monkeypatch):
        modes = []
        real_qr = np.linalg.qr

        def recording(X, mode):
            modes.append(mode)
            return real_qr(X, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        for m in (127, 128):
            _complete_q(np.ones((m, 2)))
        assert modes == ["complete", "raw"]


class TestEigRealSymmetric:
    def test_zero(self):
        V, lam = eig_real_symmetric(np.zeros((4, 4)))
        np.testing.assert_allclose(lam, np.zeros(4), atol=1e-14)
        np.testing.assert_allclose(V @ V.T, np.eye(4), atol=1e-14)

    def test_diagonal(self):
        V, lam = eig_real_symmetric(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(lam, [2.0, -1.0], atol=1e-14)
        # columns may flip sign; reconstruction is the invariant
        np.testing.assert_allclose(V @ np.diag(lam) @ V.T, np.diag([2.0, -1.0]), atol=1e-13)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((8, 8))
        R = (B + B.T) / 2
        V, lam = eig_real_symmetric(R)
        assert np.linalg.norm(R - V @ np.diag(lam) @ V.T) < 1e-11 * np.linalg.norm(R)
        assert np.linalg.norm(V @ V.T - np.eye(8)) < 1e-12
        assert np.all(np.diff(lam) <= 0)

    def test_asymmetric_rejected(self):
        R = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            eig_real_symmetric(R)

    def test_complex_rejected(self):
        # a complex array is rejected even when its imaginary part is zero
        with pytest.raises(ValueError, match="real"):
            eig_real_symmetric(np.eye(2, dtype=complex))


def takagi_residuals(A):
    Q, sigma = takagi(A)
    n = A.shape[0]
    rec = np.linalg.norm(A - Q @ np.diag(sigma) @ Q.T)
    unit = np.linalg.norm(Q @ Q.conj().T - np.eye(n))
    return rec, unit, sigma


class TestTakagi:
    def test_scalar_phase_halving(self):
        A = np.array([[1j]])
        Q, sigma = takagi(A)
        np.testing.assert_allclose(sigma, [1.0], atol=1e-14)
        np.testing.assert_allclose(Q, [[np.exp(0.25j * np.pi)]], atol=1e-12)
        np.testing.assert_allclose(Q @ np.diag(sigma) @ Q.T, A, atol=1e-12)

    @pytest.mark.parametrize("phase", [-0.99 * np.pi, -np.pi / 2, -0.3, 0.0, 2.0, 0.99 * np.pi])
    def test_scalar_principal_branch(self, phase):
        # the halved phase lies in (-pi/2, pi/2), whichever sign the
        # eigensolver gives the eigenvector
        Q, sigma = takagi(np.array([[2.0 * np.exp(1j * phase)]]))
        np.testing.assert_allclose(sigma, [2.0], rtol=1e-14)
        np.testing.assert_allclose(Q, [[np.exp(0.5j * phase)]], atol=1e-12)

    def test_identity(self):
        Q, sigma = takagi(np.eye(2, dtype=complex))
        np.testing.assert_allclose(sigma, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(Q @ Q.T, np.eye(2), atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        B = crandn(rng, 6, 6)
        A = B @ B.T
        rec, unit, sigma = takagi_residuals(A)
        assert rec < 1e-9 * np.linalg.norm(A)
        assert unit < 1e-10
        assert np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0)

    def test_repeated_singular_values(self):
        # diag(2, 2j) has a twofold singular value, forcing the block path
        A = np.diag([2.0, 2.0j])
        rec, unit, _ = takagi_residuals(A)
        assert rec < 1e-9 * np.linalg.norm(A)
        assert unit < 1e-10

    def test_scaled_identity_fully_degenerate(self):
        A = (1 + 2j) * np.eye(5)
        rec, unit, sigma = takagi_residuals(A)
        assert rec < 1e-9 * np.linalg.norm(A)
        assert unit < 1e-10
        np.testing.assert_allclose(sigma, np.full(5, abs(1 + 2j)), rtol=1e-12)

    def test_zero_matrix(self):
        Q, sigma = takagi(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(sigma, np.zeros(3), atol=1e-14)
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(3)) < 1e-10

    def test_rank_deficient_diagonal(self):
        A = np.diag([3.0, 0.0]).astype(complex)
        Q, sigma = takagi(A)
        np.testing.assert_allclose(sigma, [3.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(Q @ np.diag(sigma) @ Q.T, A, atol=1e-12)
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(2)) < 1e-10

    @pytest.mark.parametrize("n", [8, 160])
    def test_zero_group_is_an_orthonormal_completion(self, n):
        # rank 5: the n - 5 zero columns complete the rest, on both sides
        # of _complete_q's switch to the reflector product
        rng = np.random.default_rng(n)
        U = haar_unitary(rng, n)[:, :5]
        A = (U * np.array([5.0, 4.0, 3.0, 2.0, 1.0])) @ U.T
        rec, unit, sigma = takagi_residuals(A)
        assert np.all(sigma[5:] <= 1e-12)
        assert rec <= 1e-12 * np.linalg.norm(A)
        assert unit <= 1e-12

    def test_negative_identity_up_to_roundoff(self):
        # O diag(-2, -2) O^T is -2I up to 1e-15; a principal square root of
        # F^H G* meets eigenphases on both sides of its branch cut here
        O = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
        A = O @ np.diag([-2.0, -2.0]) @ O.T
        rec, unit, sigma = takagi_residuals(A)
        assert rec <= 1e-12
        assert unit < 1e-10
        np.testing.assert_allclose(sigma, [2.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(us_retract(A).U, -np.eye(2), atol=1e-12)

    def test_repeated_real_eigenvalues_fuzz(self):
        # real O diag(lam) O^T with lam from {-2, 2, 0, 1}: groups of equal
        # singular values whose F^H G* has eigenvalues -1 and +1, plus a zero group
        rng = np.random.default_rng(0)
        for _ in range(750):
            n = int(rng.integers(2, 12))
            O = np.linalg.qr(rng.standard_normal((n, n)))[0]
            lam = rng.choice([-2.0, 2.0, 0.0, 1.0], size=n)
            A = O @ np.diag(lam) @ O.T
            rec, unit, _ = takagi_residuals(A)
            assert rec <= 1e-9 * np.linalg.norm(A), lam
            assert unit <= 1e-10, lam

    def test_eigensolver_failure_raises(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match=r"eigensolver did not converge .*\(3, 3\)"):
            takagi(np.eye(3, dtype=complex))

    def test_non_unitary_factor_raises(self, monkeypatch):
        # the eigensolver hands back its leading eigenvector twice: no
        # completion or polar step can make that factor unitary
        def duplicated(a, *args, real=np.linalg.eigh, **kwargs):
            w, V = real(a, *args, **kwargs)
            V[:, -2] = V[:, -1]
            return w, V
        monkeypatch.setattr(np.linalg, "eigh", duplicated)
        with pytest.raises(NumericalError, match="lost unitarity"):
            takagi(np.eye(3, dtype=complex))

    @pytest.mark.parametrize("n", [64, 256])
    def test_every_singular_value_repeated(self, n):
        # A = U + U^T for a Haar unitary U: conj(U) U is similar to its
        # conjugate, so each singular value of A comes twice
        U = haar_unitary(np.random.default_rng(n), n)
        A = U + U.T
        rec, unit, sigma = takagi_residuals(A)
        assert np.allclose(sigma[0::2], sigma[1::2], rtol=1e-10)
        assert rec <= 1e-14 * np.linalg.norm(A)
        assert unit < 1e-10

    def test_singular_values_just_above_the_zero_bound(self):
        # three singular values at 1.1-1.4e-8 sigma_max count as nonzero;
        # their vectors lean toward j times each other by up to ~1e-8, and
        # the factor must still come back unitary, its product exact
        rng = np.random.default_rng(4)
        worst_rec = worst_unit = 0.0
        for _ in range(100):
            U = haar_unitary(rng, 8)
            s = np.concatenate((np.sort(rng.uniform(0.5, 1.0, 5))[::-1],
                                np.sort(rng.uniform(1.1e-8, 1.4e-8, 3))[::-1]))
            rec, unit, _ = takagi_residuals((U * s) @ U.T)
            worst_rec, worst_unit = max(worst_rec, rec), max(worst_unit, unit)
        assert worst_rec <= 1e-13
        assert worst_unit <= 1e-8

    def test_asymmetric_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            takagi(A)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            takagi(np.zeros((2, 3), dtype=complex))

    def test_non_finite_rejected(self):
        A = np.eye(2, dtype=complex)
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            takagi(A)

    def test_sigma_matches_svd(self):
        rng = np.random.default_rng(5)
        B = crandn(rng, 7, 7)
        A = B + B.T
        _, sigma_t = takagi(A)
        sigma_s = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(sigma_t, sigma_s, atol=1e-10 * sigma_s[0])


class TestExpmSkewHermitian:
    def test_zero(self):
        np.testing.assert_allclose(expm_skew_hermitian(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_scalar(self):
        np.testing.assert_allclose(expm_skew_hermitian(np.array([[0.5j * np.pi]])),
                                   [[1j]], atol=1e-14)

    def test_random_against_taylor(self):
        rng = np.random.default_rng(13)
        B = crandn(rng, 5, 5)
        S = (B - B.conj().T) / 2
        E = expm_skew_hermitian(S)
        np.testing.assert_allclose(E, expm_taylor(S), atol=1e-10)
        assert np.linalg.norm(E @ E.conj().T - np.eye(5)) < 1e-10

    def test_inverse_property(self):
        rng = np.random.default_rng(17)
        for n in (2, 16, 64):
            B = crandn(rng, n, n)
            S = (B - B.conj().T) / 2
            P = expm_skew_hermitian(S) @ expm_skew_hermitian(-S)
            assert np.linalg.norm(P - np.eye(n)) < 1e-10

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            expm_skew_hermitian(np.eye(2, dtype=complex))
