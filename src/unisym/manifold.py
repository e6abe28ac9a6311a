"""Geometry of the manifold of unitary symmetric matrices.

The feasible set is Us = {U : U U^H = I, U = U^T}. A point is stored by a
unitary factor Q (a Takagi factor of U) and its matrix is derived as
U = Q Q^T, so it is symmetric by construction and unitary exactly as far as
Q is. The factor makes tangent projection, geodesics, and the
multiplicative phase update cheap: iterative callers update Q instead of
re-factorizing U each step. Whether a factor is still unitary is decided
by the drift rule of `linalg` (DRIFT_TOL and one residual, re-exported
here), which the optimizers apply to every candidate point. A point made
by a frame step carries an upper bound on that residual as a number,
certified from its parent's residual and the frame's small factors by
the roundoff bounds defined here (Higham, Accuracy and Stability of
Numerical Algorithms, sections 3.5-3.6), so that it needs no m x m Gram
to pass the rule; a point with no step history (NaN bound) is measured.

The few operations on the plain unitary manifold needed by the projection
baseline live here too: tangent projection and the geodesic step
U exp(mu S) on U(n), whose points are measured. That baseline runs its
ascent on U(k), k = min(m, nr + nt), where a k x k Gram is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (DRIFT_TOL, _check_count, _unitarity_residual, eig_real_symmetric,
                     expm_skew_hermitian, takagi)


@dataclass(frozen=True, eq=False)
class UsPoint:
    """A unitary symmetric matrix stored by its unitary factor Q, U = Q Q^T.

    bound is the upper bound on ||Q Q^H - I||_F that the frame step which
    made the point (us_point_at) certified; NaN for a point with no step
    history.
    """

    Q: np.ndarray
    bound: float = math.nan

    @cached_property
    def U(self) -> np.ndarray:
        return self.Q @ self.Q.T

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @cached_property
    def _residual(self) -> float:
        # the carried bound when it is within DRIFT_TOL (NaN never is)
        return self.bound if self.bound <= DRIFT_TOL else _unitarity_residual(self.Q)

    def max_residual(self) -> float:
        """An upper bound on ||Q Q^H - I||_F, worked out once: the carried
        bound when it is within DRIFT_TOL, else the measured residual (always
        for a point with no step history). U = Q Q^T is symmetric by
        construction and unitary whenever Q is."""
        return self._residual


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

    With R = V diag(theta) V^T, the frame stores the n x n QR = Q V and the
    k <= n phases theta of its first k columns; the geodesic is
    U(mu) = QR diag(e^{j theta mu}, 1) QR^T, reached through us_point_at,
    which carries the other n - k columns unchanged. residual is an upper
    bound on ||QR QR^H - I||_F; NaN, as for a frame built by hand, leaves
    every point of the frame to be measured.
    """

    QR: np.ndarray
    theta: np.ndarray
    residual: float = math.nan

    @property
    def k(self) -> int:
        """The number of phases, the axes a step moves."""
        return self.theta.size

    def phases(self, theta, name: str = "phases") -> np.ndarray:
        """theta as a float copy, if it is a finite real vector of length k;
        otherwise ValueError naming name and the shape."""
        theta = np.asarray(theta)
        if (theta.dtype.kind not in "iuf" or theta.shape != (self.k,)
                or not np.all(np.isfinite(theta))):
            raise ValueError(f"{name} must be a finite real vector of shape ({self.k},), "
                             f"got {theta.dtype} of shape {theta.shape}")
        return theta.astype(float)


@dataclass(frozen=True, eq=False)
class UPoint:
    """A point of the plain unitary manifold U(n)."""

    U: np.ndarray

    @cached_property
    def _residual(self) -> float:
        return _unitarity_residual(self.U)

    def max_residual(self) -> float:
        """The measured ||U U^H - I||_F, worked out once."""
        return self._residual


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
    vector to J. For J = A B^H it is the symmetric part of
    Im(a) Re(b)^T - Re(a) Im(b)^T, a = Q^H A and b = Q^T B, which is how
    optimize_us builds it, at O(n^2 r) and without forming J.
    """
    J = np.asarray(J)
    if J.shape != P.Q.shape:
        raise ValueError(f"J has shape {J.shape}, expected {P.Q.shape}")
    M = P.Q.conj().T @ (J + J.T) @ P.Q.conj()
    return TangentDirection(R=M.imag / 2.0)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k: int) -> float:
    """sqrt(2) gamma_{k+2}, with gamma_j = j u / (1 - j u): a relative bound
    on the roundoff of a complex or real inner product of length k, and of
    one complex product for k = 0 (Higham, sections 3.5-3.6)."""
    g = (k + 2) * _UNIT_ROUNDOFF
    return math.sqrt(2.0) * g / (1.0 - g)


# relative roundoff of the few flops per entry of an elementwise complex
# product or squared modulus: sqrt(2) gamma_4
_GAMMA_ENTRY = _gamma(2)


def _gram_bound(r: float, n: int, k: int) -> float:
    """Upper bound on ||X^H X - I||_F for an n x k X, given r, the computed
    norm of fl(X^H X) - I: the Gram's roundoff is at most
    _gamma(n) ||X||_F^2, with ||X||_F^2 <= k + sqrt(k) ||X^H X - I||_F, and
    the norm's own is a relative _gamma(k^2). For k = n it raises a
    measured ||X X^H - I||_F to a bound alike."""
    c = _gamma(n)
    return (r * (1.0 + _gamma(k * k)) + c * k) / (1.0 - c * math.sqrt(k))


def _gram_defect(X: np.ndarray) -> float:
    """Upper bound on ||X^H X - I||_F for an n x k X with entries of size
    at most about 1, from one k x k Gram (a real one for a real X). NaN
    for an X with a NaN."""
    n, k = X.shape
    G = X.conj().T @ X
    G.reshape(-1)[::k + 1] -= 1.0
    return _gram_bound(math.sqrt(np.vdot(G, G).real), n, k)


def _step_bound(r: float, r_g: float, delta: float, n: int) -> float:
    """Upper bound on r(X G + Delta), r(Y) = ||Y Y^H - I||_F, for n x n
    factors with r(X) <= r, r(G) <= r_g and ||Delta||_F <= delta, by
        r(X G) <= r(X) + (1 + r(X)) r(G),
        r(Z + Delta) <= r(Z) + 2 ||Z||_2 ||Delta||_F + ||Delta||_F^2,
    with ||Z||_2^2 <= 1 + r(Z). A final relative _gamma(n^2) covers the
    rounding of these flops and of the norms that fed them. NaN in, NaN out."""
    r += (1.0 + r) * r_g
    return (r + delta * (2.0 * math.sqrt(1.0 + r) + delta)) * (1.0 + _gamma(n * n))


def _us_point_bound(r: float, z: np.ndarray) -> float:
    """Upper bound on the residual of QR diag(z, 1), its first k = z.size
    columns computed as fl(QR_j z_j), for a frame factor QR with residual
    at most r: r(diag(z, 1)) = || |z|^2 - 1 ||_2, whose computed entries
    are off by at most 3 _GAMMA_ENTRY, and each product QR_ij z_j is off
    by a relative _GAMMA_ENTRY, on k columns of squared norm at most 1 + r."""
    k = z.size
    d = np.abs(z)
    d *= d
    d -= 1.0
    r_z = math.sqrt(d.dot(d)) + 3.0 * _GAMMA_ENTRY * math.sqrt(k)
    delta = _GAMMA_ENTRY * math.sqrt(k * (1.0 + r) * (1.0 + r_z))
    return _step_bound(r, r_z, delta, k)


def us_geodesic_frame(P: UsPoint, D: TangentDirection,
                      span: np.ndarray | None = None) -> GeodesicFrame:
    """Eigendecompose the direction and return the frame of its geodesic.

    With D.R = V diag(theta) V^T, the geodesic from P along D is
    U(mu) = (Q V) diag(e^{j theta mu}) (Q V)^T.

    span, when given, is a real n x c matrix whose columns span a space
    that holds range(D.R), the caller's contract; a missing span is the
    identity. With one complete real QR [Z, Z_perp] of span, Z its first
    k = min(n, c) columns, D.R = Z (Z^T D.R Z) Z^T, so only the k x k
    middle factor W diag(theta) W^T is eigendecomposed: V = [Z W, Z_perp],
    theta descending, and the frame's k phases move the columns Z W alone.
    The complete QR of the identity is exactly the identity, so without a
    span V = W and the frame has all n phases.
    """
    if D.n != P.n:
        raise ValueError(f"direction dimension {D.n} != point dimension {P.n}")
    n = P.n
    span = np.eye(n) if span is None else np.asarray(span)
    if span.ndim != 2 or span.shape[0] != n or np.iscomplexobj(span):
        raise ValueError(f"span must be a real matrix with {n} rows, got "
                         f"{span.dtype} of shape {span.shape}")
    V = np.linalg.qr(span, mode="complete")[0]
    Z = V[:, :min(n, span.shape[1])]
    W, theta = eig_real_symmetric(Z.T @ D.R @ Z)
    Z[:] = Z @ W    # V = [Z W, Z_perp]
    # QR = fl(Q V) = Q V + E, ||E||_F <= _gamma(n) ||Q||_F ||V||_F, with
    # ||Q||_F^2 <= n (1 + r(Q)); r(V) from the real Gram V^T V
    r_q, r_v = _gram_bound(P.max_residual(), n, n), _gram_defect(V)
    delta = _gamma(n) * n * math.sqrt((1.0 + r_q) * (1.0 + r_v))
    return GeodesicFrame(QR=P.Q @ V, theta=theta, residual=_step_bound(r_q, r_v, delta, n))


def us_point_at(Fr: GeodesicFrame, phases: np.ndarray) -> UsPoint:
    """Point of Us at the given phases of a geodesic frame's k axes.

    U = QR diag(e^{j phi}, 1) QR^T, with the cached factor updated
    multiplicatively as Q = QR diag(e^{j phi / 2}, 1): the first k
    columns are scaled, the other n - k carried unchanged. The point
    carries the bound on its residual that follows from the frame's and
    from z (_us_point_bound).
    """
    z = np.exp(0.5j * Fr.phases(phases))
    Q = Fr.QR.copy()
    np.multiply(Fr.QR[:, :z.size], z[np.newaxis, :], out=Q[:, :z.size])
    return UsPoint(Q=Q, bound=_us_point_bound(Fr.residual, z))


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
