"""BD-RIS-assisted MIMO link: channel model, achievable-rate objective,
closed-form per-phase updates, and the two reference baselines.

The reconfigurable surface response is a unitary symmetric matrix Theta;
the equivalent channel is H_eq = Hd + F Theta G^H and the objective is
the achievable rate ln det(I + rho H_eq H_eq^H) in nats (bits exposed as
nats / ln 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .linalg import NumericalError
from .manifold import (
    GeodesicFrame,
    UPoint,
    UsPoint,
    _crandn,
    as_matrix,
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
    positions and a link power gain above 1.
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
        if min(self.nt, self.nr, self.m) < 1:
            raise ValueError("nt, nr and m must be >= 1")
        # negated comparisons, so that NaN fails too
        if not self.rho > 0:
            raise ValueError("rho must be > 0")
        if not (self.alpha_ris > 0 and self.alpha_direct > 0):
            raise ValueError("alpha_ris and alpha_direct must be > 0")
        if not self.k_rician >= 0:
            raise ValueError("k_rician must be >= 0")
        for name in ("tx_pos", "rx_pos", "ris_pos"):
            p = getattr(self, name)
            if len(p) != 3:
                raise ValueError(f"{name} must have 3 coordinates")
        # each link joins distinct positions and, being passive, has a power
        # gain of at most 1, so its channels are finite and their products too
        for a, b, alpha in (("tx_pos", "ris_pos", "alpha_ris"), ("ris_pos", "rx_pos", "alpha_ris"),
                            ("tx_pos", "rx_pos", "alpha_direct")):
            d = _dist(getattr(self, a), getattr(self, b))
            if d == 0.0:
                raise ValueError(f"{a} and {b} are coincident positions")
            try:
                gain = path_loss(d, getattr(self, alpha), self.pl0_db)
            except OverflowError:
                gain = math.inf
            if not gain <= 1.0:
                raise ValueError(f"pl0_db, {alpha}, {a} and {b} give a link power gain "
                                 f"of {gain:.3g}, above 1")

    def with_elements(self, m: int) -> "Scenario":
        return replace(self, m=m)


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


def _dist(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


def link_distances(sc: Scenario) -> tuple[float, float, float]:
    """(Tx-RIS, RIS-Rx, Tx-Rx) distances in meters."""
    return (_dist(sc.tx_pos, sc.ris_pos),
            _dist(sc.ris_pos, sc.rx_pos),
            _dist(sc.tx_pos, sc.rx_pos))


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
    m x m matrix U = Q Q^T is never formed.
    """
    factor = isinstance(Theta, UsPoint)
    A = Theta.Q if factor else as_matrix(Theta)
    if A.shape != (ch.m, ch.m):
        raise ValueError(f"Theta has shape {A.shape}, expected ({ch.m}, {ch.m})")
    if factor:
        return ch.Hd + (ch.F @ A) @ (ch.G.conj() @ A).T
    return ch.Hd + ch.F @ A @ ch.G.conj().T


def rate(ch: ChannelSet, Theta, rho: float) -> float:
    """Achievable rate ln det(I + rho H_eq H_eq^H) in nats, via Cholesky."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    H = h_eq(ch, Theta)
    E = np.eye(H.shape[0]) + rho * (H @ H.conj().T)
    try:
        L = np.linalg.cholesky((E + E.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"rate argument lost positive definiteness: {exc}") from exc
    return float(2.0 * np.sum(np.log(np.real(np.diag(L)))))


def rate_bits(ch: ChannelSet, Theta, rho: float) -> float:
    return rate(ch, Theta, rho) / LN2


def euclid_grad(ch: ChannelSet, Theta, rho: float) -> np.ndarray:
    """Ambient gradient of the rate at Theta under the real trace metric.

    The conjugate-Wirtinger derivative of ln det E is rho F^H E^-1 H_eq G;
    the directional derivative along a perturbation D of Theta is twice
    its real inner product with D, so the metric gradient returned here
    carries the factor 2. E^-1 is applied through Cholesky solves.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    H = h_eq(ch, Theta)
    E = np.eye(H.shape[0]) + rho * (H @ H.conj().T)
    try:
        cho = cho_factor((E + E.conj().T) / 2.0, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"gradient argument lost positive definiteness: {exc}") from exc
    X = cho_solve(cho, H)
    return 2.0 * rho * (ch.F.conj().T @ X @ ch.G)


def _phase_step(C: np.ndarray, u: np.ndarray, wc: np.ndarray, base: np.ndarray,
                rho: float, phi: float) -> float:
    """Optimal phase of one frame axis with the others held fixed.

    With u, w the axis's columns of F QR and G^* QR, the varying part of
    the channel is e^{j phi} u w^T on top of C (direct link plus the other
    axes at their current phases). The determinant reduces to
    const + ln(|1 + alpha e^{j phi}|^2 - kappa), maximized at -arg(alpha).
    alpha and kappa come from one solve of the nr x nr matrix
    I + rho (C C^H + ||w||^2 u u^H) against [u, rho C w^*]; base is its
    constant part I + rho ||w||^2 u u^H and wc = w^*. A flat axis
    (alpha ~ 0) keeps phi.
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
    if abs(alpha) < 1e-14:
        return phi
    return -cmath.phase(alpha)


def per_phase_opt(ch: ChannelSet, Fr: GeodesicFrame, theta: np.ndarray,
                  m: int, rho: float) -> float:
    """Closed-form argmax of the rate over frame phase m, others fixed.

    Never returns a phase worse than theta[m]; flat axes (e.g. a column
    annihilated by F) keep their current phase.
    """
    return RateObjective(ch, rho).phase_maximizer(Fr, theta, m)


class RateObjective(Objective):
    """Achievable-rate objective over the surface response.

    Usable both on the unitary-symmetric manifold (with the closed-form
    phase maximizer and sweep) and on the plain unitary manifold for the
    projection baseline.
    """

    def __init__(self, channels: ChannelSet, rho: float):
        self.channels = channels
        self.rho = float(rho)

    def eval(self, point) -> float:
        return rate(self.channels, point, self.rho)

    def euclid_grad(self, point) -> np.ndarray:
        return euclid_grad(self.channels, point, self.rho)

    def phase_maximizer(self, Fr: GeodesicFrame, theta: np.ndarray, m: int) -> float:
        """The closed-form optimal phase of axis m, the others held at theta."""
        if not 0 <= m < Fr.n:
            raise ValueError(f"phase index {m} out of range for n={Fr.n}")
        return float(self._sweep(Fr, np.array(theta, dtype=float), (m,))[m])

    def sweep(self, Fr: GeodesicFrame, theta: np.ndarray) -> np.ndarray:
        return self._sweep(Fr, theta, range(Fr.n))

    def _sweep(self, Fr: GeodesicFrame, theta: np.ndarray, axes) -> np.ndarray:
        """The closed-form updates of the given axes in order, at O(nr^2 nt)
        per phase: the channel H is built once and kept current by removing
        and re-adding each axis's rank-one term u w^T, with one fresh
        nr x nr solve per phase. Overwrites and returns theta."""
        ch = self.channels
        Ut = (ch.F @ Fr.QR).T.copy()           # row m: u of axis m
        Wt = (ch.G.conj() @ Fr.QR).T.copy()    # row m: w of axis m
        Wct = Wt.conj()
        UW = Ut[:, :, None] * Wt[:, None, :]
        # row m: I + rho ||w||^2 u u^H, the constant part of _phase_step's matrix
        ww = np.einsum("ij,ij->i", Wct, Wt).real
        base = np.eye(Ut.shape[1]) + (self.rho * ww)[:, None, None] * (
            Ut[:, :, None] * Ut.conj()[:, None, :])
        H = ch.Hd + (Ut.T * np.exp(1j * theta)) @ Wt
        for m in axes:
            C = H - cmath.exp(1j * theta[m]) * UW[m]
            theta[m] = _phase_step(C, Ut[m], Wct[m], base[m], self.rho, theta[m])
            H = C + cmath.exp(1j * theta[m]) * UW[m]
        return theta


def low_cost_bdris(ch: ChannelSet) -> UsPoint:
    """Training-free surface: retraction of F^H Hd G + its transpose.

    Needs a live direct link; raises InapplicableMethodError when Hd = 0.
    The retracted matrix has rank at most 2 min(nr, nt), so for m beyond
    that the nearest point is inherently non-unique and the retraction
    returns one valid choice.
    """
    if not np.any(ch.Hd):
        raise InapplicableMethodError("low-cost surface needs a direct link (Hd is zero)")
    A = ch.F.conj().T @ ch.Hd @ ch.G
    return us_retract(A + A.T)


def mo_u_proj_baseline(ch: ChannelSet, rho: float, U0: UPoint,
                       cfg: OptimizerConfig | None = None) -> tuple[UsPoint, IterationTrace]:
    """Optimize over plain unitary matrices, then project to the feasible set.

    Runs the Armijo ascent on U(m) with the same rate objective and
    returns the retraction of Theta_u + Theta_u^T together with the
    ascent's trace.
    """
    obj = RateObjective(ch, rho)
    Pu, trace = optimize_u_armijo(obj, U0, cfg)
    return us_retract(Pu.U + Pu.U.T), trace
