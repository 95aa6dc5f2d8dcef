"""Statistical scenario: state covariance, noise level and derived constants.

The state covariance is an exponentially decaying Toeplitz matrix with
entries rho^|i-j|.  The noise variance is recovered from a signal-to-noise
ratio in dB via  SNR = 10 log10( tr(H Sigma_xx H^T) / (m sigma^2) ).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError


@dataclass(frozen=True)
class ScenarioStats:
    """Constant matrices shared by every metric evaluation of a scenario.

    sigma_xx: n x n state covariance (symmetric PD for rho in [0,1)).
    sigma2: measurement-noise variance.
    sigma_yy: m x m measurement covariance  cov_signal + sigma2 * I.
    sigma_yy_inv: its inverse (symmetrized).
    cov_signal: H sigma_xx H^T - the noiseless measurement covariance and,
        equivalently, the optimal attack covariance.
    """

    sigma_xx: np.ndarray
    sigma2: float
    sigma_yy: np.ndarray
    sigma_yy_inv: np.ndarray
    cov_signal: np.ndarray
    rho: float
    snr_db: float


def toeplitz_cov(n, rho):
    """Toeplitz state covariance with entries rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(n)
    return (rho ** idx)[np.abs(idx[:, None] - idx[None, :])]


def noise_variance(cov_signal, m, snr_db):
    """Noise variance matching the requested SNR (dB) for a signal covariance."""
    trace = float(np.trace(cov_signal))
    if trace <= 0.0:
        raise DomainError(f"signal covariance has nonpositive trace {trace}")
    return trace / (m * 10.0 ** (snr_db / 10.0))


def snr_from_variance(cov_signal, m, sigma2):
    """Inverse of :func:`noise_variance`: the SNR in dB for a noise level."""
    trace = float(np.trace(cov_signal))
    if trace <= 0.0 or sigma2 <= 0.0:
        raise DomainError("trace and sigma2 must be positive")
    return 10.0 * np.log10(trace / (m * sigma2))


def _sym(mat):
    return (mat + mat.T) / 2.0


def _tril_inv(low):
    """Inverse of a lower-triangular matrix by 2 x 2 block recursion."""
    n = low.shape[0]
    if n <= 64:
        return np.linalg.inv(low)
    h = n // 2
    top, bottom = _tril_inv(low[:h, :h]), _tril_inv(low[h:, h:])
    inv = np.zeros_like(low)
    inv[:h, :h] = top
    inv[h:, h:] = bottom
    inv[h:, :h] = -(bottom @ low[h:, :h]) @ top
    return inv


def build_scenario(model, rho, snr_db):
    """Assemble the :class:`ScenarioStats` for a grid model.

    All symmetric matrices are explicitly symmetrized before factorization
    to kill roundoff drift; the inverse of sigma_yy is computed once from
    its Cholesky factor L, as L^-T L^-1, and cached here for reuse.
    """
    sigma_xx = toeplitz_cov(model.n, rho)
    cov_signal = _sym(model.H @ sigma_xx @ model.H.T)
    sigma2 = noise_variance(cov_signal, model.m, snr_db)
    sigma_yy = _sym(cov_signal + sigma2 * np.eye(model.m))
    try:
        chol_inv = _tril_inv(np.linalg.cholesky(sigma_yy))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"measurement covariance not PD: {exc}") from None
    sigma_yy_inv = _sym(chol_inv.T @ chol_inv)
    return ScenarioStats(
        sigma_xx=sigma_xx,
        sigma2=sigma2,
        sigma_yy=sigma_yy,
        sigma_yy_inv=sigma_yy_inv,
        cov_signal=cov_signal,
        rho=rho,
        snr_db=snr_db,
    )
