"""BD-RIS-assisted MIMO link: channel model, achievable-rate objective,
closed-form per-phase updates, and the two reference baselines.

The reconfigurable surface response is a unitary symmetric matrix Theta;
the equivalent channel is H_eq = Hd + F Theta G^H and the objective is
the achievable rate ln det(I + rho H_eq H_eq^H) in nats (bits exposed as
nats / ln 2).

The surface reaches the channel only through F Theta G^H, so both
baselines work in the at most (nr + nt)-dimensional subspace that F and G
see: the low-cost design takes its Takagi factor there, and the
projection baseline runs its ascent on U(m) as the same ascent on a
k x k problem, k = min(m, nr + nt), since its iterates never leave one
such subspace.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DRIFT_TOL, NumericalError, _check_count, _complete_q, takagi
from .manifold import (
    GeodesicFrame,
    UPoint,
    UsPoint,
    _crandn,
    us_retract,
)
from .optimizer import IterationTrace, Objective, OptimizerConfig, optimize_u_armijo

LN2 = math.log(2.0)


class InapplicableMethodError(RuntimeError):
    """The requested method cannot run on this scenario (e.g. it needs a
    direct link that is blocked)."""


@dataclass(frozen=True)
class Scenario:
    """Geometry and link budget of one simulated deployment.

    rho is the transmit SNR P/sigma^2 as a linear factor; pl0_db the
    reference path loss at 1 m. The Rician factor applies to both
    RIS-side links; the direct link is Rayleigh and can be zeroed out
    entirely with direct_blocked. Construction rejects coincident
    positions and a link power gain outside (0, 1].
    """

    nt: int = 4
    nr: int = 4
    m: int = 64
    tx_pos: tuple[float, float, float] = (0.0, 0.0, 1.5)
    rx_pos: tuple[float, float, float] = (50.0, 0.0, 1.5)
    ris_pos: tuple[float, float, float] = (50.0, 3.0, 3.0)
    k_rician: float = 3.0
    alpha_ris: float = 2.0
    alpha_direct: float = 3.75
    rho: float = 1e13
    pl0_db: float = 50.0
    direct_blocked: bool = False

    def __post_init__(self):
        for name in ("nt", "nr", "m"):
            _check_count(getattr(self, name), name)
        _check_rho(self.rho)
        # negated comparisons, so that NaN fails too
        if not (self.alpha_ris > 0 and self.alpha_direct > 0):
            raise ValueError("alpha_ris and alpha_direct must be > 0")
        if not 0 <= self.k_rician < math.inf:
            raise ValueError("k_rician must be finite and >= 0")
        for name in ("tx_pos", "rx_pos", "ris_pos"):
            p = getattr(self, name)
            if len(p) != 3:
                raise ValueError(f"{name} must have 3 coordinates")
        # each link joins distinct positions and, being passive, has a power
        # gain of at most 1, so its channels are finite; a gain that
        # underflows to 0 would silence the link. rho times their Gram
        # matrix can still overflow, which _gram_cholesky reports
        for a, b, alpha in (("tx_pos", "ris_pos", "alpha_ris"), ("ris_pos", "rx_pos", "alpha_ris"),
                            ("tx_pos", "rx_pos", "alpha_direct")):
            d = math.dist(getattr(self, a), getattr(self, b))
            if d == 0.0:
                raise ValueError(f"{a} and {b} are coincident positions")
            try:
                gain = path_loss(d, getattr(self, alpha), self.pl0_db)
            except OverflowError:
                gain = math.inf
            if not 0.0 < gain <= 1.0:
                raise ValueError(f"pl0_db, {alpha}, {a} and {b} give a link power gain "
                                 f"of {gain:.3g}, outside (0, 1]")


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization: direct link Hd (nr x nt), RIS-to-Rx link
    F (nr x m), Tx-to-RIS link G (nt x m, enters the model as G^H)."""

    Hd: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        for name in ("Hd", "F", "G"):
            A = getattr(self, name)
            if not np.all(np.isfinite(A)):
                raise ValueError(f"channel matrix {name} has non-finite entries")
        if self.Hd.shape[0] != self.F.shape[0] or self.Hd.shape[1] != self.G.shape[0]:
            raise ValueError("inconsistent channel dimensions")
        if self.F.shape[1] != self.G.shape[1]:
            raise ValueError("F and G disagree on the element count")

    @property
    def m(self) -> int:
        return self.F.shape[1]


def link_distances(sc: Scenario) -> tuple[float, float, float]:
    """(Tx-RIS, RIS-Rx, Tx-Rx) distances in meters."""
    return (math.dist(sc.tx_pos, sc.ris_pos),
            math.dist(sc.ris_pos, sc.rx_pos),
            math.dist(sc.tx_pos, sc.rx_pos))


def path_loss(d: float, alpha: float, pl0_db: float) -> float:
    """Linear power path loss 10^(-pl0_db/10) * d^(-alpha)."""
    return 10.0 ** (-pl0_db / 10.0) * d ** (-alpha)


def ula_steering(n: int, azimuth: float) -> np.ndarray:
    """Steering vector of an n-element half-wavelength ULA at the given
    azimuth: entries e^{j pi sin(az) k}, k = 0..n-1."""
    return np.exp(1j * np.pi * np.sin(azimuth) * np.arange(n))


def _azimuth(p_from, p_to) -> float:
    d = np.asarray(p_to, float) - np.asarray(p_from, float)
    return float(np.arctan2(d[1], d[0]))


def los_components(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (infinite-Rician-factor) limits of F and G, including
    the path-loss scaling: rank-one products of ULA steering vectors along
    the connecting rays."""
    d_tr, d_rr, _ = link_distances(sc)
    a_rx = ula_steering(sc.nr, _azimuth(sc.rx_pos, sc.ris_pos))
    a_ris_rx = ula_steering(sc.m, _azimuth(sc.ris_pos, sc.rx_pos))
    F_los = math.sqrt(path_loss(d_rr, sc.alpha_ris, sc.pl0_db)) * np.outer(a_rx, a_ris_rx.conj())
    a_tx = ula_steering(sc.nt, _azimuth(sc.tx_pos, sc.ris_pos))
    a_ris_tx = ula_steering(sc.m, _azimuth(sc.ris_pos, sc.tx_pos))
    G_los = math.sqrt(path_loss(d_tr, sc.alpha_ris, sc.pl0_db)) * np.outer(a_tx, a_ris_tx.conj())
    return F_los, G_los


def gen_channels(sc: Scenario, seed) -> ChannelSet:
    """Draw one channel realization, deterministic per seed.

    RIS links are Rician with factor k_rician around the steering-vector
    LOS components; the direct link is Rayleigh with its own path-loss
    exponent and is zeroed exactly when blocked (the draw still happens
    so the stream stays aligned between blocked and unblocked runs).
    """
    rng = np.random.default_rng(seed)
    d_tr, d_rr, d_td = link_distances(sc)
    F_los, G_los = los_components(sc)
    c_los = math.sqrt(sc.k_rician / (sc.k_rician + 1.0))
    c_nlos = math.sqrt(1.0 / (sc.k_rician + 1.0))
    sqrt_pl_f = math.sqrt(path_loss(d_rr, sc.alpha_ris, sc.pl0_db))
    sqrt_pl_g = math.sqrt(path_loss(d_tr, sc.alpha_ris, sc.pl0_db))
    F = c_los * F_los + c_nlos * sqrt_pl_f * _crandn(rng, sc.nr, sc.m)
    G = c_los * G_los + c_nlos * sqrt_pl_g * _crandn(rng, sc.nt, sc.m)
    Hd = math.sqrt(path_loss(d_td, sc.alpha_direct, sc.pl0_db)) * _crandn(rng, sc.nr, sc.nt)
    if sc.direct_blocked:
        Hd = np.zeros((sc.nr, sc.nt), dtype=complex)
    return ChannelSet(Hd=Hd, F=F, G=G)


def h_eq(ch: ChannelSet, Theta) -> np.ndarray:
    """Equivalent end-to-end channel Hd + F Theta G^H.

    A UsPoint enters through its factor, as Hd + (F Q)(G^* Q)^T, so the
    m x m matrix U = Q Q^T is never formed; a UPoint enters through U, and
    a plain array as it is.
    """
    factor = isinstance(Theta, UsPoint)
    A = Theta.Q if factor else Theta.U if isinstance(Theta, UPoint) else np.asarray(Theta)
    if A.shape != (ch.m, ch.m):
        raise ValueError(f"Theta has shape {A.shape}, expected ({ch.m}, {ch.m})")
    if factor:
        return ch.Hd + (ch.F @ A) @ (ch.G.conj() @ A).T
    return ch.Hd + ch.F @ A @ ch.G.conj().T


def _check_rho(rho: float) -> None:
    # a negated comparison, so that NaN fails too
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and > 0, got {rho}")


def _gram_cholesky(ch: ChannelSet, Theta, rho: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """H_eq at Theta and the lower Cholesky factor L of E = I + rho H_eq H_eq^H.

    what names the caller's quantity in the NumericalError raised when E
    would overflow or loses positive definiteness in floating point. Since
    |(H H^H)_ij| <= max_i (H H^H)_ii, a finite 2 rho max_i (H H^H)_ii keeps
    every entry of E and of E + E^H finite.
    """
    _check_rho(rho)
    H = h_eq(ch, Theta)
    HH = H @ H.conj().T
    peak = max(HH.diagonal().real.tolist())
    # rho first: 2 rho alone overflows for rho above half the float range
    if not 2.0 * (rho * peak) < math.inf:     # negated, so that NaN fails too
        raise NumericalError(f"{what} argument overflowed: rho = {rho:.3g} times "
                             f"max diag(H H^H) = {peak:.3g} leaves the float range")
    E = np.eye(H.shape[0]) + rho * HH
    try:
        L = np.linalg.cholesky((E + E.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} argument lost positive definiteness: {exc}") from exc
    return H, L


def rate(ch: ChannelSet, Theta, rho: float) -> float:
    """Achievable rate ln det(I + rho H_eq H_eq^H) in nats, via Cholesky:
    RateObjective(ch, rho).eval(Theta)."""
    return RateObjective(ch, rho).eval(Theta)


def rate_bits(ch: ChannelSet, Theta, rho: float) -> float:
    return rate(ch, Theta, rho) / LN2


def euclid_grad(ch: ChannelSet, Theta, rho: float) -> np.ndarray:
    """Ambient gradient J = A B^H of the rate at Theta under the real trace
    metric, formed from RateObjective(ch, rho).grad_factors(Theta)."""
    A, B = RateObjective(ch, rho).grad_factors(Theta)
    return A @ B.conj().T


def _phase_step(C: np.ndarray, u: np.ndarray, wc: np.ndarray, base: np.ndarray,
                rho: float) -> float:
    """Optimal phase of one frame axis with the others held fixed.

    With u, w the axis's columns of F QR and G^* QR, the varying part of
    the channel is e^{j phi} u w^T on top of C (direct link plus the other
    axes at their current phases). The determinant reduces to
    const + ln(|1 + alpha e^{j phi}|^2 - kappa), maximized at -arg(alpha).
    alpha and kappa come from one solve of the nr x nr matrix
    I + rho (C C^H + ||w||^2 u u^H) against [u, rho C w^*]; base is its
    constant part I + rho ||w||^2 u u^H and wc = w^*. On a flat axis
    (alpha = 0) every phase is optimal, and -arg(0) = 0 is one.
    """
    rC = rho * C
    B = np.array((u, rC @ wc))
    X = np.linalg.solve(base + rC @ C.conj().T, B.T)
    # rows u^H, ctil^H times columns x_u, x_c
    (ux_u, _), (alpha, cx_c) = (B.conj() @ X).tolist()
    kappa = cx_c.real * ux_u.real
    margin = (1.0 - abs(alpha)) ** 2 - kappa
    if not margin > 0.0:
        raise NumericalError(
            f"per-phase determinant term lost positivity: margin {margin:.3e} "
            f"(|alpha|={abs(alpha):.3e}, kappa={kappa:.3e})")
    return -cmath.phase(alpha)


class RateObjective(Objective):
    """Achievable-rate objective over the surface response.

    Usable both on the unitary-symmetric manifold (with the closed-form
    phase maximizer and sweep) and on the plain unitary manifold for the
    projection baseline.

    eval and grad_factors of one point object share one factorization:
    H_eq and L are kept for the last UsPoint or UPoint factored (points
    are frozen). channels and rho are read-only, so they cannot go stale.
    """

    def __init__(self, channels: ChannelSet, rho: float):
        self._channels = channels
        self._rho = float(rho)
        self._memo = None    # (point, H, L) of the last point factored

    @property
    def channels(self) -> ChannelSet:
        return self._channels

    @property
    def rho(self) -> float:
        return self._rho

    def _factored(self, point, what: str) -> tuple[np.ndarray, np.ndarray]:
        """_gram_cholesky at point, kept for a point object; a NumericalError
        leaves nothing kept."""
        memo = self._memo
        if memo is not None and memo[0] is point:
            return memo[1], memo[2]
        self._memo = None
        H, L = _gram_cholesky(self.channels, point, self.rho, what)
        if isinstance(point, (UsPoint, UPoint)):
            self._memo = (point, H, L)
        return H, L

    def eval(self, point) -> float:
        """The rate ln det E, E = I + rho H_eq H_eq^H, in nats, from the
        Cholesky factor L of E."""
        L = self._factored(point, "rate")[1]
        return float(2.0 * np.sum(np.log(np.real(np.diag(L)))))

    def grad_factors(self, point) -> tuple[np.ndarray, np.ndarray]:
        """The rate gradient 2 rho F^H X G, X = E^-1 H_eq (nr x nt), as a
        pair (A, B) with J = A B^H, of width min(nr, nt): 2 rho X joins F^H
        when nt <= nr and G^H otherwise.

        The conjugate-Wirtinger derivative of ln det E is rho F^H X G; the
        directional derivative along a perturbation D of Theta is twice its
        real inner product with D, so the metric gradient carries the
        factor 2. E^-1 = L^-H L^-1 is applied by two solves with L.
        """
        ch = self.channels
        H, L = self._factored(point, "gradient")
        # rho first, as in _gram_cholesky's check
        X = 2.0 * (self.rho * np.linalg.solve(L.conj().T, np.linalg.solve(L, H)))
        if X.shape[1] <= X.shape[0]:
            return ch.F.conj().T @ X, ch.G.conj().T
        return ch.F.conj().T, ch.G.conj().T @ X.conj().T

    def phase_maximizer(self, Fr: GeodesicFrame, theta: np.ndarray, m: int) -> float:
        """The closed-form optimal phase of axis m < Fr.k, the others held at
        theta. Never returns a phase worse than theta[m]. A flat axis (e.g.
        a column annihilated by F) is solved like any other, to -arg(0) = 0.
        """
        if isinstance(m, (int, np.integer)) and not 0 <= m < Fr.k:
            raise ValueError(f"phase index {m} out of range for k={Fr.k}")
        _check_count(m, "m", least=0)    # a bool, a float or None is no index
        return float(self._sweep(Fr, Fr.phases(theta, "theta"), (m,))[m])

    def sweep(self, Fr: GeodesicFrame, theta: np.ndarray) -> np.ndarray:
        return self._sweep(Fr, theta, range(Fr.k))

    def _sweep(self, Fr: GeodesicFrame, theta: np.ndarray, axes) -> np.ndarray:
        """The closed-form updates of the given axes in order: the channel H
        is built once, from all n columns of Fr.QR with phase 1 on the
        n - k that the frame carries, and kept current by removing and
        re-adding each axis's rank-one term u w^T, with one nr x nr solve,
        O(nr^2 nt), per axis. Overwrites and returns theta.

        The frame of optimize_us has k = min(n, 4 min(nr, nt)) phases, so a
        sweep solves that many axes on every link shape.

        A 2 rho b^2 past the float range, with b = ||Hd||_F + sum_j ||u_j||
        ||w_j|| bounding ||C||_2 at any phases, raises NumericalError up
        front.
        """
        ch = self.channels
        Ut = (ch.F @ Fr.QR).T.copy()           # row m: u of axis m
        Wt = (ch.G.conj() @ Fr.QR).T.copy()    # row m: w of axis m
        z = np.ones(Ut.shape[0], dtype=complex)
        z[:theta.size] = np.exp(1j * theta)
        H = ch.Hd + (Ut.T * z) @ Wt
        ww = np.einsum("ij,ij->i", Wt.conj(), Wt).real
        uu = np.einsum("ij,ij->i", Ut.conj(), Ut).real
        b = float(np.linalg.norm(ch.Hd)) + float(np.sqrt(uu * ww).sum())
        # rho first, as in _gram_cholesky's check
        if not 2.0 * (self.rho * b * b) < math.inf:     # negated, so that NaN fails too
            raise NumericalError(f"phase sweep overflowed: rho = {self.rho:.3g} times "
                                 f"b^2 = {b * b:.3g} leaves the float range")
        rows = np.array(axes, dtype=np.intp)
        U, W = Ut[rows], Wt[rows]
        # per axis: u w^T, and I + rho ||w||^2 u u^H, the constant part of
        # _phase_step's matrix
        UW = U[:, :, None] * W[:, None, :]
        base = np.eye(Ut.shape[1]) + (self.rho * ww[rows])[:, None, None] * (
            U[:, :, None] * U.conj()[:, None, :])
        for m, uw, u, wc, base_m in zip(axes, UW, U, W.conj(), base):
            C = H - cmath.exp(1j * theta[m]) * uw
            theta[m] = _phase_step(C, u, wc, base_m, self.rho)
            H = C + cmath.exp(1j * theta[m]) * uw
        return theta


def low_cost_bdris(ch: ChannelSet) -> UsPoint:
    """Training-free surface: a nearest point of Us to T = A + A^T, where
    A = F^H Hd G. Needs a live direct link; raises InapplicableMethodError
    when Hd = 0.

    The columns of T lie in range([F^H, G^T]), which the first
    k = min(m, nr + nt) columns Yk of a complete QR factor Y of [F^H, G^T]
    span, or contain when F or G is rank-deficient. The Takagi factor Qc
    of the k x k matrix Yk^H T conj(Yk), mapped back by Yk and completed by
    the other columns of Y, is a nearest point: Yk Qc is written over Yk in
    place. Y comes from linalg._complete_q, one level-3 product from
    M = 128 on, so the whole design costs O(m^2 (nr + nt)) rather than
    O(m^3). Any unitary completion is as near, and F and G^* annihilate
    it, so the channel does not depend on the choice.
    """
    if not np.any(ch.Hd):
        raise InapplicableMethodError("low-cost surface needs a direct link (Hd is zero)")
    Y = _complete_q(np.hstack((ch.F.conj().T, ch.G.T)))
    k = min(ch.m, ch.Hd.shape[0] + ch.Hd.shape[1])
    Yk = Y[:, :k]
    C = (ch.F @ Yk).conj().T @ ch.Hd @ (ch.G @ Yk.conj())    # Yk^H A conj(Yk)
    Y[:, :k] = Yk @ takagi(C + C.T).Q
    return UsPoint(Q=Y)


def mo_u_proj_baseline(ch: ChannelSet, rho: float, U0: UPoint,
                       cfg: OptimizerConfig | None = None) -> tuple[UsPoint, IterationTrace]:
    """Optimize over plain unitary matrices, then project to the feasible set.

    Runs the Armijo ascent on U(m) from U0 with the rate objective and
    returns the retraction of U + U^T together with the ascent's trace.

    That ascent never leaves U0 (I + Z (G_k - I) Z^H), G_k in U(k), where
    the m x k Z, k = min(m, nr + nt), is a thin QR factor of
    [U0^H F^H, G^H]: at U the gradient's tangent S lies in
    range([U^H F^H, G^H]), and S, skew-Hermitian, maps that range into
    itself, as exp(-tS) does; so the step U exp(tS) keeps U^H F^H in it.
    As G Z Z^H = G, the channel there is
    Hd + (F U0 Z) G_k (G Z)^H. So the ascent runs on that k x k problem
    from G_k = I, with the same gradients, norms and Armijo tests in exact
    arithmetic, and U is formed once, at O(m^2 k). The trace's residuals
    are the measured ones of G_k; U0 is checked for unitarity here, as the
    ascent on U(m) would check it.
    """
    residual = U0.max_residual()
    if not residual <= DRIFT_TOL:    # negated, so that NaN fails too
        raise ValueError(f"U0 is off the manifold: not unitary, residual {residual:.3e}")
    FU0 = ch.F @ U0.U
    Z = np.linalg.qr(np.hstack((FU0.conj().T, ch.G.conj().T)))[0]
    reduced = ChannelSet(Hd=ch.Hd, F=FU0 @ Z, G=ch.G @ Z)
    I = np.eye(Z.shape[1])
    Pk, trace = optimize_u_armijo(RateObjective(reduced, rho), UPoint(I), cfg)
    U = U0.U + (U0.U @ Z) @ (Pk.U - I) @ Z.conj().T
    return us_retract(U + U.T), trace
