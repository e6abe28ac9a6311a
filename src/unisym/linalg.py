"""Dense complex linear-algebra kernels used by the geometry layer.

All routines are pure functions of their ndarray inputs and fix their
choices (eigenvector bases from one `eigh`, column signs) so downstream
code gets deterministic factors; `takagi` too is one `eigh`, of a real
form, with no SVD. Contracts are residual bounds, checked by the
callers' tests. The one drift rule for unitary factors, which `takagi`
and the optimizers apply, lives here too: a factor whose residual
||Q Q^H - I||_F is not within DRIFT_TOL (NaN never is) gets one polar
step, and one that step cannot mend raises NumericalError. How a frame
step bounds that residual instead of measuring it is the manifold's
business, not this module's. The complete QR factors of the low-cost
design and of Takagi's zero-group completion come from `_complete_q`:
LAPACK's factor below 128 rows, and one compact-WY level-3 product of
its Householder reflectors from 128 rows on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


# Unitarity residual within which a factor counts as on the manifold.
DRIFT_TOL = 1e-8

# Row count from which _complete_q builds its factor by one level-3
# product; measured on one BLAS thread, the crossover lies between 64 and
# 128 rows for 8 to 64 columns.
_WY_MIN_ROWS = 128


class NumericalError(RuntimeError):
    """A kernel could not certify its output to the required tolerance."""


class TakagiFactors(NamedTuple):
    Q: np.ndarray
    sigma: np.ndarray


class RealSymEig(NamedTuple):
    V: np.ndarray
    lam: np.ndarray


def _square(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _check_count(value, name: str, least: int = 1) -> None:
    """Raise ValueError naming name unless value is an int or a numpy
    integer, not a bool, of at least least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _unitarity_residual(Q: np.ndarray) -> float:
    """||Q Q^H - I||_F. A Q with a non-finite or huge entry gives NaN or
    inf, which no tolerance accepts, and no overflow or invalid-value
    warning on the way."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(Q @ Q.conj().T - np.eye(Q.shape[0])))


def _restore_unitary(Q: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """(Q', its residual) for a drifted factor Q: one Newton-Schulz polar
    step Q' = Q (3I - Q^H Q) / 2 squares a small drift (1e-7 becomes about
    1e-14). A Q' still not within DRIFT_TOL raises NumericalError naming
    what."""
    Q = Q @ (1.5 * np.eye(Q.shape[0]) - 0.5 * (Q.conj().T @ Q))
    res = _unitarity_residual(Q)
    if not res <= DRIFT_TOL:    # negated, so that NaN fails too
        raise NumericalError(f"{what} lost unitarity: residual {res:.3e} after one "
                             f"polar step (n={Q.shape[0]})")
    return Q, res


def _complete_q(X: np.ndarray) -> np.ndarray:
    """The complete m x m unitary factor Y of X = Y R, for an m x k X.

    From _WY_MIN_ROWS rows on, Y = H_1 ... H_p is built from the
    p = min(m, k) Householder reflectors H_i = I - tau_i v_i v_i^H of
    np.linalg.qr(X, mode="raw") in compact WY form, Y = I - V T V^H
    (Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989): V is
    unit lower trapezoidal and T upper triangular by LAPACK's larft
    recurrence, T[:i, i] = -tau_i T[:i, :i] V[:, :i]^H v_i, which gives a
    reflector with tau_i = 0 a zero column. Its m x m work is one level-3
    product, where LAPACK's complete factor applies the reflectors one at
    a time (level 2). Below _WY_MIN_ROWS rows the recurrence's fixed cost
    outweighs that saving, and Y is np.linalg.qr(X, mode="complete")[0].
    Both give the same factor up to roundoff.
    """
    m = X.shape[0]
    if m < _WY_MIN_ROWS:
        return np.linalg.qr(X, mode="complete")[0]
    h, tau = np.linalg.qr(X, mode="raw")     # h holds the reflectors transposed
    p = tau.size
    V = np.tril(h[:p].T, -1)
    np.fill_diagonal(V, 1.0)
    W = (V.conj().T @ V) * -tau
    T = np.diag(tau)
    for i in range(1, p):
        T[:i, i] = T[:i, :i] @ W[:i, i]
    Y = (V @ -T) @ V.conj().T
    Y.reshape(-1)[::m + 1] += 1.0
    return Y


def eig_real_symmetric(R: np.ndarray) -> RealSymEig:
    """Eigendecomposition R = V diag(lam) V^T of a real symmetric matrix.

    Eigenvalues are returned in descending order with V real orthogonal.
    The input is symmetrized as (R + R^T)/2 before factoring; a complex
    input or an asymmetry beyond 1e-10 (relative) is a contract violation.
    """
    R = _square(np.asarray(R), "R")
    if np.iscomplexobj(R):
        raise ValueError("R must be real")
    scale = max(1.0, np.linalg.norm(R))
    if np.linalg.norm(R - R.T) > 1e-10 * scale:
        raise ValueError("R is not symmetric within tolerance")
    w, V = np.linalg.eigh((R + R.T) / 2.0)
    return RealSymEig(V=V[:, ::-1].copy(), lam=w[::-1].copy())


def takagi(A: np.ndarray) -> TakagiFactors:
    """Takagi factorization A = Q diag(sigma) Q^T of a complex symmetric matrix.

    A column q = x + jy with A conj(q) = sigma q is an eigenvector (x; y)
    of the real symmetric M = [[Re A, Im A], [Im A, -Re A]], whose
    eigenvalues are +-sigma_i, and j maps each sigma eigenspace onto the
    -sigma one. So the n largest eigenpairs of one `eigh` of M give sigma
    and orthonormal columns, repeated singular values included. Repeats
    are the rule for U + U^T with U unitary, which `us_retract` gets from
    `mo_u_proj`: K = conj(U) U is similar to its conjugate, so its
    eigenvalues pair as e^{+-j theta}, and A^H A = 2I + K + K^H doubles
    every sigma.

    Columns with sigma <= 1e-8 sigma_max, where +-sigma meet, become an
    orthonormal completion of the rest (I when A = 0), which A does not
    see: the trailing columns of the rest's complete QR factor
    (_complete_q). Just above that bound a column can lean toward j times
    another; the drift rule (_restore_unitary) then mends Q by one polar
    step, which moves Q diag(sigma) Q^T by O(eps ||A||). Each column has
    Re q_1 >= 0, so a 1 x 1 A keeps the principal branch, its phase
    halved into [-pi/2, pi/2].

    Args:
        A: square complex symmetric matrix (symmetrized internally); a
            relative asymmetry above 1e-8 is rejected with ValueError.

    Returns:
        TakagiFactors(Q, sigma) with Q unitary within DRIFT_TOL and sigma
        descending. A factor that one polar step cannot bring within
        DRIFT_TOL, or an eigensolver that does not converge, raises
        NumericalError.
    """
    A = _square(A)
    if np.linalg.norm(A - A.T) > 1e-8 * max(1.0, np.linalg.norm(A)):
        raise ValueError("A is not symmetric within tolerance")
    A = (A + A.T) / 2.0
    n = A.shape[0]
    M = np.empty((2 * n, 2 * n))
    M[:n, :n], M[n:, n:], M[:n, n:], M[n:, :n] = A.real, -A.real, A.imag, A.imag
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge for the real form of "
                             f"shape {A.shape}: {exc}") from exc
    sigma = np.maximum(w[n:][::-1], 0.0)
    V = V[:, n:][:, ::-1]
    Q = (V[:n] + 1j * V[n:]) * np.where(V[:1] < 0.0, -1.0, 1.0)
    r = np.count_nonzero(sigma > 1e-8 * sigma.max(initial=0.0))
    if r < n:
        Q[:, r:] = _complete_q(Q[:, :r])[:, r:]
    if not _unitarity_residual(Q) <= DRIFT_TOL:
        Q = _restore_unitary(Q, "Takagi factor")[0]
    return TakagiFactors(Q=Q, sigma=sigma)


def expm_skew_hermitian(S: np.ndarray) -> np.ndarray:
    """exp(S) for skew-Hermitian S, via the Hermitian eigendecomposition of -jS.

    With -jS = W diag(d) W^H, returns W diag(e^{jd}) W^H, which is unitary
    by construction. A relative skew-Hermitian defect above 1e-10 is a
    contract violation.
    """
    S = _square(S, "S")
    scale = max(1.0, np.linalg.norm(S))
    if np.linalg.norm(S + S.conj().T) > 1e-10 * scale:
        raise ValueError("S is not skew-Hermitian within tolerance")
    H = -1j * S
    d, W = np.linalg.eigh((H + H.conj().T) / 2.0)
    return (W * np.exp(1j * d)) @ W.conj().T
