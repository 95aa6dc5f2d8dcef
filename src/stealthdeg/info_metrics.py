"""Gaussian stealthiness and destructiveness metrics.

For a zero-mean attack with covariance T against measurements with
covariance sigma_yy and precision S = sigma_yy^-1:

    kl = 1/2 ( -log|I + S^1/2 T S^1/2| + tr(S^1/2 T S^1/2) )

is the divergence between attacked and clean measurement distributions (the
detectability proxy), and

    mi = 1/2 log|I + U^1/2 (sigma2 I + T)^-1 U^1/2|,   U = H sigma_xx H^T,

is the information the operator still obtains about the states.  Both are
reported in nats.  ``kl_divergence`` and ``mutual_information`` accept any
PSD attack covariance and take log-determinants from eigenvalues of the
symmetrized m x m inner matrices.  Attacks built from a ratio vector
(``evaluate``, ``optimal_metrics``) go through the reduced n x n core of
:class:`~stealthdeg.degradation_opt.ObjectiveEvaluator` instead.
"""

from dataclasses import dataclass

import numpy as np

from .degradation_opt import ObjectiveEvaluator
from .errors import DomainError, NotPSDError, SingularityError

# Negative eigenvalues above the error threshold are treated as roundoff and
# clamped; below it the matrix is genuinely indefinite and surfaced.
PSD_ERROR_SCALE = 1e-6


@dataclass(frozen=True)
class MetricsPoint:
    """KL divergence and mutual information (nats) plus their optima."""

    kl: float
    mi: float
    kl_opt: float
    mi_opt: float


def _checked_eigvals(mat, context):
    """Eigenvalues of a symmetric matrix, clamped to the PSD cone."""
    w = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    scale = max(1.0, float(w[-1]))
    if w[0] < -PSD_ERROR_SCALE * scale:
        raise NotPSDError(
            f"{context}: min eigenvalue {w[0]:.3e} below -{PSD_ERROR_SCALE:g}*scale"
        )
    return np.clip(w, 0.0, None)


def sym_sqrt(mat):
    """Symmetric PSD square root via eigendecomposition.

    Small negative eigenvalues (roundoff) are clamped to zero before
    rooting; genuinely indefinite input raises :class:`NotPSDError`.
    """
    mat = np.asarray(mat, dtype=float)
    asym = np.abs(mat - mat.T).max() if mat.size else 0.0
    if asym > 1e-10 * max(1.0, np.abs(mat).max()):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    sym = (mat + mat.T) / 2.0
    w, v = np.linalg.eigh(sym)
    scale = max(1.0, float(w[-1]))
    if w[0] < -PSD_ERROR_SCALE * scale:
        raise NotPSDError(
            f"min eigenvalue {w[0]:.3e} below -{PSD_ERROR_SCALE:g}*scale"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0


def kl_divergence(precision, cov_attack):
    """Divergence between attacked and clean measurement distributions.

    ``precision`` is the inverse clean-measurement covariance.
    """
    s_half = sym_sqrt(precision)
    inner = s_half @ cov_attack @ s_half
    lam = _checked_eigvals(inner, "kl divergence inner matrix")
    kl = 0.5 * float(np.sum(lam - np.log1p(lam)))
    return 0.0 if -1e-12 <= kl < 0.0 else kl


def mutual_information(cov_signal, cov_attack, sigma2):
    """Information the operator obtains from attacked measurements."""
    if sigma2 <= 0.0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    u_half = sym_sqrt(cov_signal)
    m = u_half.shape[0]
    noisy = cov_attack + sigma2 * np.eye(m)
    noisy = (noisy + noisy.T) / 2.0
    try:
        np.linalg.cholesky(noisy)
        inner = u_half @ np.linalg.solve(noisy, u_half)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"sigma2 I + T not PD: {exc}") from None
    lam = _checked_eigvals(inner, "mutual information inner matrix")
    return 0.5 * float(np.sum(np.log1p(lam)))


def integrity_cost(cov_attack, stats):
    """Attacker's objective: information leakage plus detectability.

    Convex in the attack covariance with minimum at cov_signal, the optimal
    complete-information attack.
    """
    return (
        mutual_information(stats.cov_signal, cov_attack, stats.sigma2)
        + kl_divergence(stats.sigma_yy_inv, cov_attack)
    )


def optimal_metrics(model, stats):
    """(kl, mi) of the complete-information attack (zero ratio vector)."""
    return ObjectiveEvaluator(model, stats).baseline()


def evaluate(model, stats, spec, *, baseline=None):
    """Metrics of the incomplete-information attack described by ``spec``.

    ``baseline`` is the (kl_opt, mi_opt) pair; pass a precomputed one when
    evaluating many specs against the same scenario.
    """
    ev = ObjectiveEvaluator(model, stats)
    kl, mi = ev.metrics(spec.phi)
    kl_opt, mi_opt = ev.baseline() if baseline is None else baseline
    return MetricsPoint(kl=kl, mi=mi, kl_opt=kl_opt, mi_opt=mi_opt)
