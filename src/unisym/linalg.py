"""Dense complex linear-algebra kernels used by the geometry layer.

All routines are pure functions of their ndarray inputs and fix their
branch cuts (principal square roots, eigenphase halving) so downstream
code gets deterministic factors. Contracts are residual bounds, checked
by the callers' tests rather than re-verified on every call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg


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


def _block_principal_sqrt(Z: np.ndarray) -> np.ndarray:
    """Principal square root of a (numerically) unitary block.

    The block is first projected to the closest unitary matrix, then
    diagonalized by a complex Schur step (exact for normal matrices);
    eigenphases are halved into (-pi/2, pi/2].
    """
    if Z.shape[0] == 1:
        return np.array([[np.exp(0.5j * np.angle(Z[0, 0]))]])
    u, _, vh = np.linalg.svd(Z)
    T, V = scipy.linalg.schur(u @ vh, output="complex")
    half = np.exp(0.5j * np.angle(np.diag(T)))
    return (V * half) @ V.conj().T


def _sigma_groups(sigma: np.ndarray, rel_gap: float) -> list[slice]:
    """Slices of consecutive singular values closer than rel_gap * sigma_max."""
    n = sigma.size
    scale = sigma[0] if n and sigma[0] > 0 else 1.0
    groups = []
    start = 0
    for i in range(1, n):
        if sigma[i - 1] - sigma[i] > rel_gap * scale:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, n))
    return groups


def takagi(A: np.ndarray) -> TakagiFactors:
    """Takagi factorization A = Q diag(sigma) Q^T of a complex symmetric matrix.

    Built from the SVD A = F diag(sigma) G^H as Q = F (F^H G*)^(1/2).
    F^H G* is diagonal when the singular values are distinct; repeated or
    numerically close singular values are grouped (relative gap 1e-8)
    and the square root is taken blockwise on each group, where F^H G* is
    unitary, with the principal branch.

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
    root = np.zeros((n, n), dtype=complex)
    for ix in _sigma_groups(sigma, 1e-8):
        root[ix, ix] = _block_principal_sqrt(W[ix, ix])
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
