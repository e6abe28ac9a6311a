"""Dense reference computations shared by the tests.

Each is written from the definition it checks, not from the code under
test: complex Gaussian draws, the real least-squares tangent projection
over an explicit symmetric basis, the rate from the eigenvalues of the
channel's Gram matrix, and the residual ||Q Q^H - I||_F in extended
precision. Import them as `from oracles import ...`; pytest puts this
directory on sys.path.
"""

import numpy as np


def crandn(rng, *shape):
    """Standard circularly symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def sym_basis(n):
    """Basis of real symmetric n x n matrices (E_kl + E_lk, and E_kk)."""
    out = []
    for k in range(n):
        for l in range(k, n):
            E = np.zeros((n, n))
            E[k, l] = 1.0
            E[l, k] = 1.0
            out.append(E)
    return out


def embedded_basis_matrix(Q):
    """Real matrix whose columns are the embedded symmetric basis vectors
    j Q E Q^T, real parts stacked over imaginary parts."""
    cols = []
    for E in sym_basis(Q.shape[0]):
        B = 1j * Q @ E @ Q.T
        cols.append(np.concatenate([B.real.ravel(), B.imag.ravel()]))
    return np.stack(cols, axis=1)


def project_lstsq(Q, J):
    """Minimizer of ||J - j Q R Q^T||_F over real symmetric R, solved as an
    explicit n(n+1)/2-dimensional real least-squares problem."""
    A = embedded_basis_matrix(Q)
    b = np.concatenate([np.asarray(J).real.ravel(), np.asarray(J).imag.ravel()])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    R = np.zeros(Q.shape)
    for c, E in zip(coef, sym_basis(Q.shape[0])):
        R += c * E
    return R


def rate_spectral(ch, U, rho):
    """Rate in nats through the eigenvalues of the smaller Gram matrix,
    H H^H or H^H H: sum ln(1 + rho lam_i). The larger one adds only zero
    eigenvalues, whose roundoff rho would scale into spurious nats."""
    H = ch.Hd + ch.F @ np.asarray(U) @ ch.G.conj().T
    if H.shape[1] < H.shape[0]:
        H = H.conj().T
    lam = np.linalg.eigvalsh(H @ H.conj().T)
    return float(np.sum(np.log1p(rho * np.clip(lam, 0.0, None))))


def rate_at_phases(ch, Fr, theta, rho):
    """Rate at the phases of a frame with all n phases: rebuild the full
    surface response QR diag(e^{j theta}) QR^T, then rate_spectral."""
    U = (Fr.QR * np.exp(1j * np.asarray(theta, float))[np.newaxis, :]) @ Fr.QR.T
    return rate_spectral(ch, U, rho)


def exact_residual(Q):
    """||Q Q^H - I||_F of a float64 Q, evaluated in numpy's extended
    precision, whose unit roundoff (5.4e-20 for x86's 80-bit format) is
    2,048 times below float64's: for entries of size about 1 the result
    is off by about 1e-19 n, where a float64 evaluation is off by about
    1e-16 n and can miss a defect of that size altogether."""
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps, "longdouble is no wider than float64"
    Q = np.asarray(Q).astype(np.clongdouble)
    D = Q @ Q.conj().T
    D -= np.eye(Q.shape[0], dtype=np.longdouble)
    return float(np.sqrt(np.sum(D.real * D.real + D.imag * D.imag)))
