"""Statistical scenario: state covariance, noise level and derived constants.

The state covariance is an exponentially decaying Toeplitz matrix with
entries rho^|i-j|.  The noise variance is recovered from a signal-to-noise
ratio in dB via  SNR = 10 log10( tr(H Sigma_xx H^T) / (m sigma^2) ), where
the signal power tr(H Sigma_xx H^T) comes from the folded factor below, not
from an m x m covariance.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, ValidationError


@dataclass(frozen=True)
class ScenarioStats:
    """Constant matrices shared by every metric evaluation of a scenario.

    sigma_xx: n x n state covariance (symmetric PD for rho in [0,1)).
    sigma2: measurement-noise variance.
    F: l x n factor diag(b) A L with sigma_xx = L L^T, so that the signal
        covariance H sigma_xx H^T is (J F)(J F)^T.
    K: (n + l) x n folded J F, [A^T F; sqrt(2) F].
    gram: n x n Gram K^T K = (J F)^T (J F).
    signal_eigs: the n eigenvalues of ``gram`` in ascending order, i.e. the
        n largest eigenvalues of the signal covariance.  The Gram is PSD by
        construction, so negative eigenvalues are roundoff and are clamped
        at 0.  With mu = signal_eigs / sigma2, the eigenvalues of F^T G F
        are mu / (1 + mu), which gives the uniform family phi = beta * ones
        in closed form (see :func:`~stealthdeg.degradation_opt.uniform_metrics`).

    The fold: rotating each (flow, reverse flow) measurement pair by 45
    degrees is an orthogonal change of basis that maps J = [A^T; I; -I] to
    [J~; 0] with J~ = [A^T; sqrt(2) I], so every quantity here comes from
    the (n + l)-row J~, and J F from K = J~ F, whose Gram
    K^T K = (A^T F)^T (A^T F) + 2 F^T F is (J F)^T (J F).
    G = J^T sigma_yy^-1 J is built from K by
    :class:`~stealthdeg.degradation_opt.ObjectiveEvaluator`, its one reader.

    Singularity: :func:`build_scenario` raises :class:`SingularityError`
    when sigma2 <= eps ||K||_2^2, i.e. when the noise is below roundoff of
    the largest signal variance and sigma_yy is singular to working
    precision.  At rho = 0.5 this rejects SNRs from about 146.4 dB on
    case9, 143.6 dB on case14 and 141.6 dB on case30.

    No field is an m-row matrix: the signal covariance H sigma_xx H^T and
    sigma_yy = H sigma_xx H^T + sigma2 I enter only through F and K.
    """

    sigma_xx: np.ndarray
    sigma2: float
    F: np.ndarray
    K: np.ndarray
    gram: np.ndarray
    signal_eigs: np.ndarray


def toeplitz_cov(n, rho):
    """Toeplitz state covariance with entries rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise ValidationError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(n)
    return (rho ** idx)[np.abs(idx[:, None] - idx[None, :])]


def _normal(x):
    return sys.float_info.min <= x <= sys.float_info.max


def noise_variance(power, m, snr_db):
    """sigma2 = power / (m 10^(snr_db / 10)) for a signal power
    tr(H sigma_xx H^T) spread over m measurements.

    Raises :class:`SingularityError` for a nonpositive power and
    :class:`ValidationError` unless the SNR factor and sigma2 are finite,
    positive, normal floats.
    """
    if power <= 0.0:
        raise SingularityError(f"signal covariance has nonpositive trace {power}")
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


def build_scenario(model, rho, snr_db):
    """Assemble the :class:`ScenarioStats` for a grid model in O(l n^2).

    sigma2 and the signal spectrum come from the folded J F, the
    (n + l) x n matrix K = [A^T F; sqrt(2) F], and its n x n Gram: no
    m-row matrix is built and no QR is run.  See :class:`ScenarioStats` for
    the fold and the singularity criterion.
    """
    sigma_xx = toeplitz_cov(model.n, rho)
    F = model.b[:, None] * (model.A @ np.linalg.cholesky(sigma_xx))
    K = np.vstack([model.A.T @ F, np.sqrt(2.0) * F])
    # ||J F||_F^2 = ||K||_F^2 = ||A^T F||_F^2 + 2 ||F||_F^2.
    sigma2 = noise_variance(np.vdot(K, K), model.m, snr_db)
    gram = K.T @ K
    signal_eigs = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    if sigma2 <= np.finfo(float).eps * signal_eigs[-1]:
        raise SingularityError(
            f"noise variance {sigma2:.3e} is below roundoff of the signal at {snr_db} dB")
    return ScenarioStats(sigma_xx=sigma_xx, sigma2=sigma2, F=F, K=K, gram=gram,
                         signal_eigs=signal_eigs)
