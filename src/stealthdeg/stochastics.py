"""Statistical scenario: state covariance, noise level and derived constants.

The state covariance is an exponentially decaying Toeplitz matrix with
entries rho^|i-j|.  The noise variance is recovered from a signal-to-noise
ratio in dB via  SNR = 10 log10( tr(H Sigma_xx H^T) / (m sigma^2) ).
"""

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularityError, ValidationError


@dataclass(frozen=True)
class ScenarioStats:
    """Constant matrices shared by every metric evaluation of a scenario.

    sigma_xx: n x n state covariance (symmetric PD for rho in [0,1)).
    sigma2: measurement-noise variance.
    F: l x n factor diag(b) A L with sigma_xx = L L^T, so that the signal
        covariance H sigma_xx H^T is (J F)(J F)^T.
    G: l x l matrix J^T sigma_yy^-1 J, built without any m x m matrix on
        first access (the uniform sweep never reads it).
    H: the model's m x n Jacobian.
    signal_eigs: the n eigenvalues of (J F)^T (J F) = R^T R in ascending
        order, i.e. the n largest eigenvalues of the signal covariance.  R R^T is PSD
        by construction, so negative eigenvalues are roundoff and are
        clamped at 0.  With mu = signal_eigs / sigma2, the eigenvalues of
        F^T G F are mu / (1 + mu), which gives the uniform family
        phi = beta * ones in closed form (see
        :func:`~stealthdeg.experiment_harness.beta_sweep`).

    With J F = Q R (thin QR) and J_perp = J - Q Q^T J, the measurement
    covariance sigma_yy = Q R R^T Q^T + sigma2 I inverts on range(Q) and its
    complement separately:

        G = J_perp^T J_perp / sigma2 + (Q^T J)^T (R R^T + sigma2 I)^-1 (Q^T J).

    Singularity: :func:`build_scenario` raises :class:`SingularityError`
    when sigma2 <= eps ||R||_2^2, i.e. when the noise is below roundoff of
    the largest signal variance and sigma_yy is singular to working
    precision.  At rho = 0.5 this rejects SNRs from about 146.4 dB on
    case9, 143.6 dB on case14 and 141.6 dB on case30.

    ``cov_signal`` (H sigma_xx H^T, the noiseless measurement covariance
    and the optimal attack covariance), ``sigma_yy`` (cov_signal + sigma2 I)
    and ``sigma_yy_inv`` are the m x m matrices of the same scenario.  No
    library path reads them; they are built on first access, as references
    for the tests.
    """

    sigma_xx: np.ndarray
    sigma2: float
    F: np.ndarray
    H: np.ndarray
    signal_eigs: np.ndarray
    # (J, Q, R R^T) of the QR split, from which G is built.
    _split: tuple = field(repr=False)

    @cached_property
    def G(self):
        J, Q, RRt = self._split
        QtJ = Q.T @ J
        J_perp = J - Q @ QtJ
        Y = np.linalg.solve(np.linalg.cholesky(RRt + self.sigma2 * np.eye(len(RRt))), QtJ)
        return J_perp.T @ J_perp / self.sigma2 + Y.T @ Y

    @cached_property
    def cov_signal(self):
        cov = self.H @ self.sigma_xx @ self.H.T
        return (cov + cov.T) / 2.0

    @cached_property
    def sigma_yy(self):
        cov = self.cov_signal + self.sigma2 * np.eye(self.H.shape[0])
        return (cov + cov.T) / 2.0

    @cached_property
    def sigma_yy_inv(self):
        inv = np.linalg.inv(self.sigma_yy)
        return (inv + inv.T) / 2.0


def toeplitz_cov(n, rho):
    """Toeplitz state covariance with entries rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(n)
    return (rho ** idx)[np.abs(idx[:, None] - idx[None, :])]


def _normal(x):
    return sys.float_info.min <= x <= sys.float_info.max


def _noise_from_power(power, m, snr_db):
    """sigma2 = power / (m 10^(snr_db / 10)) for a signal trace ``power``.

    Raises :class:`ValidationError` unless the SNR factor and sigma2 are
    finite, positive, normal floats.
    """
    if power <= 0.0:
        raise DomainError(f"signal covariance has nonpositive trace {power}")
    try:
        factor = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        factor = float("inf")
    if not _normal(factor):
        raise ValidationError(f"SNR factor 10^({snr_db}/10) is not a normal float")
    sigma2 = float(power) / (m * factor)
    if not _normal(sigma2):
        raise ValidationError(f"noise variance {sigma2} at {snr_db} dB is not a normal float")
    return sigma2


def noise_variance(cov_signal, m, snr_db):
    """Noise variance matching the requested SNR (dB) for a signal covariance."""
    return _noise_from_power(float(np.trace(cov_signal)), m, snr_db)


def snr_from_variance(cov_signal, m, sigma2):
    """Inverse of :func:`noise_variance`: the SNR in dB for a noise level."""
    trace = float(np.trace(cov_signal))
    if trace <= 0.0 or sigma2 <= 0.0:
        raise DomainError("trace and sigma2 must be positive")
    return 10.0 * np.log10(trace / (m * sigma2))


def build_scenario(model, rho, snr_db):
    """Assemble the :class:`ScenarioStats` for a grid model in O(m n^2).

    Its G costs O(m l^2) more, on first access.

    See :class:`ScenarioStats` for the QR split of G and the singularity
    criterion.
    """
    sigma_xx = toeplitz_cov(model.n, rho)
    F = model.b[:, None] * (model.A @ np.linalg.cholesky(sigma_xx))
    JF = model.J @ F
    sigma2 = _noise_from_power(np.vdot(JF, JF), model.m, snr_db)
    Q, R = np.linalg.qr(JF)
    RRt = R @ R.T
    signal_eigs = np.maximum(np.linalg.eigvalsh(RRt), 0.0)
    if sigma2 <= np.finfo(float).eps * signal_eigs[-1]:
        raise SingularityError(
            f"noise variance {sigma2:.3e} is below roundoff of the signal at {snr_db} dB")
    return ScenarioStats(
        sigma_xx=sigma_xx,
        sigma2=sigma2,
        F=F,
        H=model.H,
        signal_eigs=signal_eigs,
        _split=(model.J, Q, RRt),
    )
