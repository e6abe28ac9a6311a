"""Dense complex linear-algebra kernels used by the geometry layer.

All routines are pure functions of their ndarray inputs and fix their
choices (eigenphase halving, eigenvector bases from one `eigh`) so
downstream code gets deterministic factors. Contracts are residual
bounds, checked by the callers' tests; only `takagi` re-verifies its
own, the unitarity of its factor, on every call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


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


def _group_root(W: np.ndarray) -> np.ndarray:
    """A unitary R with R R^T = W, for a unitary symmetric W.

    A 1 x 1 W keeps the principal branch: its phase is halved into
    (-pi/2, pi/2]. Otherwise R = X + jY, where (X; Y) is an orthonormal
    basis of the eigenvalue +1 eigenspace of the real symmetric involution
    [[Re W, Im W], [Im W, -Re W]], the real form of z -> W z*. Its
    eigenvalues are exactly +1 and -1, and multiplication by j swaps the
    two eigenspaces, so R is unitary and W conj(R) = R, i.e. W = R R^T.
    """
    k = W.shape[0]
    if k == 1:
        return np.array([[np.exp(0.5j * np.angle(W[0, 0]))]])
    M = np.block([[W.real, W.imag], [W.imag, -W.real]])
    _, V = np.linalg.eigh((M + M.T) / 2.0)
    return V[:k, k:] + 1j * V[k:, k:]


def _sigma_groups(sigma: np.ndarray, rel_gap: float) -> list[slice]:
    """Slices of consecutive singular values closer than rel_gap * sigma_max,
    less the group whose largest value is within that of zero."""
    tol = rel_gap * (sigma[0] if sigma.size and sigma[0] > 0 else 1.0)
    groups = []
    start = 0
    for i in range(1, sigma.size + 1):
        if i == sigma.size or sigma[i - 1] - sigma[i] > tol:
            if sigma[start] > tol:
                groups.append(slice(start, i))
            start = i
    return groups


def takagi(A: np.ndarray) -> TakagiFactors:
    """Takagi factorization A = Q diag(sigma) Q^T of a complex symmetric matrix.

    Built from the SVD A = F diag(sigma) G^H as Q = F R, where R is block
    diagonal with R R^T = F^H G* on each group of equal singular values.
    F^H G* is diagonal when the singular values are distinct; repeated or
    numerically close singular values are grouped (relative gap 1e-8),
    and on each group F^H G* is unitary and symmetric. A single value's
    phase is halved; a larger group takes its root from one real
    symmetric eigendecomposition. The group of zero singular values keeps
    the SVD's basis (R = I there), which A does not see.

    Args:
        A: square complex symmetric matrix (symmetrized internally); a
            relative asymmetry above 1e-8 is rejected with ValueError.

    Returns:
        TakagiFactors(Q, sigma) with Q unitary and sigma descending. A
        factor whose unitarity residual exceeds 1e-8 raises NumericalError.
    """
    A = _square(A)
    nrm = np.linalg.norm(A)
    if np.linalg.norm(A - A.T) > 1e-8 * max(1.0, nrm):
        raise ValueError("A is not symmetric within tolerance")
    A = (A + A.T) / 2.0
    try:
        F, sigma, Gh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {A.shape}: {exc}") from exc
    W = F.conj().T @ Gh.T
    n = A.shape[0]
    root = np.eye(n, dtype=complex)
    for ix in _sigma_groups(sigma, 1e-8):
        root[ix, ix] = _group_root(W[ix, ix])
    Q = F @ root
    unit_res = np.linalg.norm(Q @ Q.conj().T - np.eye(n))
    if unit_res > 1e-8:
        raise NumericalError(
            f"Takagi factor lost unitarity: residual {unit_res:.3e} (n={n}, "
            f"sigma range [{sigma[-1] if n else 0:.3e}, {sigma[0] if n else 0:.3e}])")
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
