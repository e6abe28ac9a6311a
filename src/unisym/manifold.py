"""Geometry of the manifold of unitary symmetric matrices.

The feasible set is Us = {U : U U^H = I, U = U^T}. A point is stored by a
unitary factor Q (a Takagi factor of U) and its matrix is derived as
U = Q Q^T, so it is symmetric by construction and unitary exactly as far as
Q is. The factor makes tangent projection, geodesics, and the
multiplicative phase update cheap: iterative callers update Q instead of
re-factorizing U each step. Whether a factor is still unitary is decided
by the drift rule of `linalg` (DRIFT_TOL and one residual, re-exported
here), which the optimizers apply to every candidate point.

The few operations on the plain unitary manifold needed by the projection
baseline (tangent projection and geodesic steps on U(n)) live here too;
its ascent steps along geodesics of a low-rank frame (u_geodesic_frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (DRIFT_TOL, _check_count, _unitarity_residual, eig_real_symmetric,
                     expm_skew_hermitian, takagi)


@dataclass(frozen=True, eq=False)
class UsPoint:
    """A unitary symmetric matrix stored by its unitary factor Q, U = Q Q^T."""

    Q: np.ndarray

    @cached_property
    def U(self) -> np.ndarray:
        return self.Q @ self.Q.T

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def max_residual(self) -> float:
        """||Q Q^H - I||_F; U = Q Q^T is symmetric by construction and
        unitary whenever Q is."""
        return _unitarity_residual(self.Q)


@dataclass(frozen=True, eq=False)
class TangentDirection:
    """Tangent vector at a UsPoint, stored by its real symmetric parameter R.

    The embedded ambient vector is B = j Q R Q^T.
    """

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        object.__setattr__(self, "R", (R + R.T) / 2.0)

    @property
    def n(self) -> int:
        return self.R.shape[0]

    def embed(self, P: "UsPoint") -> np.ndarray:
        """Ambient-space tangent matrix j Q R Q^T at the point P."""
        return 1j * (P.Q @ self.R @ P.Q.T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.R))


@dataclass(frozen=True, eq=False)
class GeodesicFrame:
    """Frame for the geodesic through a point along a tangent direction.

    With R = V diag(theta) V^T, the frame stores QR = Q V and theta; the
    geodesic is U(mu) = QR diag(e^{j theta mu}) QR^T, reached through
    us_point_at. A frame keeps all n axes: one built on a span of k
    columns (us_geodesic_frame) has theta = 0 on its n - k null axes.
    """

    QR: np.ndarray
    theta: np.ndarray

    @property
    def n(self) -> int:
        return self.QR.shape[0]

    def phases(self, theta, name: str = "phases") -> np.ndarray:
        """theta as a float copy, if it is a finite real vector of length n;
        otherwise ValueError naming name and the shape."""
        theta = np.asarray(theta)
        if (theta.dtype.kind not in "iuf" or theta.shape != (self.n,)
                or not np.all(np.isfinite(theta))):
            raise ValueError(f"{name} must be a finite real vector of shape ({self.n},), "
                             f"got {theta.dtype} of shape {theta.shape}")
        return theta.astype(float)


@dataclass(frozen=True, eq=False)
class UPoint:
    """A point of the plain unitary manifold U(n)."""

    U: np.ndarray

    def max_residual(self) -> float:
        """||U U^H - I||_F."""
        return _unitarity_residual(self.U)


@dataclass(frozen=True, eq=False)
class UGeodesicFrame:
    """Frame for the geodesic t -> U exp(tS) on U(n) along a tangent U S
    whose S lives in the span of k orthonormal columns Z.

    With S = Z S_k Z^H and
    -j S_k = W diag(d) W^H, the frame stores U, V = Z W, UV = U V and d;
    the geodesic is U + UV diag(e^{j t d} - 1) V^H, reached through
    u_point_at. norm is ||S||_F.
    """

    U: np.ndarray
    UV: np.ndarray
    V: np.ndarray
    d: np.ndarray
    norm: float


def as_matrix(point) -> np.ndarray:
    """The ambient matrix of a UsPoint/UPoint, or a plain ndarray unchanged."""
    if isinstance(point, (UsPoint, UPoint)):
        return point.U
    return np.asarray(point)


def _crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard circularly symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix with
    phase normalization of the triangular factor's diagonal."""
    Q, R = np.linalg.qr(_crandn(rng, n, n))
    d = np.diag(R).copy()
    d[np.abs(d) == 0] = 1.0
    return Q * (d / np.abs(d))[np.newaxis, :]


def us_random(n: int, seed) -> UsPoint:
    """Random point of Us, distributed as Q0 Q0^T with Q0 Haar unitary.

    Deterministic for a given seed.
    """
    _check_count(n, "n")
    return UsPoint(Q=_haar_unitary(n, np.random.default_rng(seed)))


def u_random(n: int, seed) -> UPoint:
    """Haar-random point of the plain unitary manifold. Deterministic per seed."""
    _check_count(n, "n")
    return UPoint(U=_haar_unitary(n, np.random.default_rng(seed)))


def us_tangent_project(P: UsPoint, J: np.ndarray) -> TangentDirection:
    """Orthogonal projection of an ambient matrix J onto the tangent space at P.

    Under the real trace inner product the projection has parameter
    R = Imag(Q^H (J + J^T) Q^*) / 2, the least-squares-closest tangent
    vector to J.
    """
    J = np.asarray(J)
    if J.shape != P.Q.shape:
        raise ValueError(f"J has shape {J.shape}, expected {P.Q.shape}")
    M = P.Q.conj().T @ (J + J.T) @ P.Q.conj()
    return TangentDirection(R=M.imag / 2.0)


def us_geodesic_frame(P: UsPoint, D: TangentDirection,
                      span: np.ndarray | None = None) -> GeodesicFrame:
    """Eigendecompose the direction and return the frame of its geodesic.

    With D.R = V diag(theta) V^T, the geodesic from P along D is
    U(mu) = (Q V) diag(e^{j theta mu}) (Q V)^T.

    span, when given, is a real n x c matrix whose columns span a space
    that holds range(D.R), the caller's contract. With one complete real
    QR [Z, Z_perp] of span, Z its first k = min(n, c) columns,
    D.R = Z (Z^T D.R Z) Z^T, so only the k x k middle factor
    W diag(lam) W^T is eigendecomposed: V = [Z W+, Z_perp, Z W-] and
    theta = [lam+, 0, lam-], still descending (lam+ >= 0 > lam-). The frame
    keeps all n axes. Without span this is the k = n case, Z = I, V = W.
    """
    if D.n != P.n:
        raise ValueError(f"direction dimension {D.n} != point dimension {P.n}")
    R = D.R
    if span is not None:
        span = np.asarray(span)
        if span.ndim != 2 or span.shape[0] != P.n or np.iscomplexobj(span):
            raise ValueError(f"span must be a real matrix with {P.n} rows, got "
                             f"{span.dtype} of shape {span.shape}")
        Y = np.linalg.qr(span, mode="complete")[0]
        k = min(P.n, span.shape[1])
        Z = Y[:, :k]
        R = Z.T @ R @ Z
    V, theta = eig_real_symmetric(R)
    if span is not None:
        p = np.count_nonzero(theta >= 0.0)
        V = np.hstack((Z @ V[:, :p], Y[:, k:], Z @ V[:, p:]))
        theta = np.concatenate((theta[:p], np.zeros(P.n - k), theta[p:]))
    return GeodesicFrame(QR=P.Q @ V, theta=theta)


def us_point_at(Fr: GeodesicFrame, phases: np.ndarray) -> UsPoint:
    """Point of Us at the given per-axis phases in a geodesic frame.

    U = QR diag(e^{j phi}) QR^T, with the cached factor updated
    multiplicatively as Q = QR diag(e^{j phi / 2}).
    """
    return UsPoint(Q=Fr.QR * np.exp(0.5j * Fr.phases(phases))[np.newaxis, :])


def us_retract(A: np.ndarray) -> UsPoint:
    """Closest point of Us to a complex symmetric matrix A (Frobenius norm).

    Computed as Q Q^T from the Takagi factorization A = Q diag(sigma) Q^T.
    When A is rank-deficient the nearest point is not unique; one valid
    choice is returned.
    """
    return UsPoint(Q=takagi(A).Q)


def u_tangent_project(P: UPoint, J: np.ndarray) -> np.ndarray:
    """Skew-Hermitian S with U S the tangent projection of J at U on U(n)."""
    J = np.asarray(J)
    if J.shape != P.U.shape:
        raise ValueError(f"J has shape {J.shape}, expected {P.U.shape}")
    return (P.U.conj().T @ J - J.conj().T @ P.U) / 2.0


def u_geodesic(P: UPoint, S: np.ndarray, mu: float) -> UPoint:
    """Geodesic step U exp(mu S) on U(n) along skew-Hermitian S."""
    return UPoint(U=P.U @ expm_skew_hermitian(mu * np.asarray(S)))


def u_geodesic_frame(P: UPoint, A: np.ndarray, B: np.ndarray) -> UGeodesicFrame:
    """Frame of the geodesic from P along the tangent projection of J = A B^H.

    The projection is U S with S = (U^H J - J^H U)/2 = (C B^H - B C^H)/2,
    C = U^H A, so S lives in the range of [C, B], of dimension at most
    twice the width of the factors. A thin QR [C, B] = Z [R1, R2] gives
    S = Z S_k Z^H with S_k = (R1 R2^H - R2 R1^H)/2, whose one Hermitian
    eigendecomposition serves every step length; since
    exp(tS) = I + Z (exp(t S_k) - I) Z^H, a step costs O(n^2 k), not an
    n x n exponential. Neither J nor S is formed.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != P.U.shape[0]:
        raise ValueError(f"gradient factors of shapes {A.shape} and {B.shape} "
                         f"do not fit a point of U({P.U.shape[0]})")
    r = A.shape[1]
    Z, R = np.linalg.qr(np.hstack((P.U.conj().T @ A, B)))
    X = R[:, :r] @ R[:, r:].conj().T
    Sk = (X - X.conj().T) / 2.0
    d, W = np.linalg.eigh(-1j * Sk)
    V = Z @ W
    return UGeodesicFrame(U=P.U, UV=P.U @ V, V=V, d=d, norm=float(np.linalg.norm(Sk)))


def u_point_at(Fr: UGeodesicFrame, t: float) -> UPoint:
    """The point U exp(tS) of the frame's geodesic at step length t."""
    return UPoint(U=Fr.U + (Fr.UV * (np.exp(1j * t * Fr.d) - 1.0)) @ Fr.V.conj().T)
