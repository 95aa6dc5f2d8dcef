"""Degradation-regime classification from the perturbation matrix.

A PSD perturbation pushes the attack towards higher detectability and lower
operator information (less stealthy, more destructive); an NSD perturbation
does the opposite.  The sign tests below are sufficient conditions built
from the closed-form eigenvalue bounds of the rank-structured factor
phi phi^T + phi 1^T + 1 phi^T.
"""

import enum
from dataclasses import dataclass

import numpy as np

CLASSIFY_TOL_SCALE = 1e-9


class RegimeLabel(enum.Enum):
    LESS_STEALTHY_MORE_DESTRUCTIVE = "LESS_STEALTHY_MORE_DESTRUCTIVE"
    MORE_STEALTHY_LESS_DESTRUCTIVE = "MORE_STEALTHY_LESS_DESTRUCTIVE"
    BOUNDARY = "BOUNDARY"
    INDEFINITE = "INDEFINITE"


@dataclass(frozen=True)
class DefinitenessConditions:
    """Sufficient-condition margins for the perturbation's sign.

    cond_psd holds when  phi^T 1 - sqrt(|phi|^2 l) >= -tol  (then the
    perturbation is PSD), tol = CLASSIFY_TOL_SCALE sqrt(|phi|^2 l) as the
    margin is exactly 0 on the uniform family; cond_nsd holds when
    phi^T phi + phi^T 1 + sqrt(|phi|^2 l) <= 0  (then NSD).  The conditions
    are sufficient only: they require phi proportional to the ones vector.
    """

    cond_psd: bool
    cond_nsd: bool
    lhs_psd: float
    lhs_nsd: float


def classify_delta(delta):
    """Label a symmetric perturbation by its Loewner sign.

    PSD and NSD are decided against a scale-relative tolerance; passing
    both tests (the zero matrix) is the BOUNDARY case.

    Diagonal entries are Rayleigh quotients, so lambda_min <= min diag and
    lambda_max >= max diag, and max |lambda| <= ||delta||_F bounds the
    tolerance.  Diagonal entries of both signs beyond twice that bound
    certify INDEFINITE without an eigendecomposition; the factor 2 leaves
    room for the eigensolver's own rounding, so the label cannot differ.
    """
    sym = (delta + delta.T) / 2.0
    diag = np.diagonal(sym)
    bound = 2.0 * CLASSIFY_TOL_SCALE * max(1.0, float(np.linalg.norm(sym)))
    if diag.min() < -bound and diag.max() > bound:
        return RegimeLabel.INDEFINITE
    return _label_of_eigs(np.linalg.eigvalsh(sym))


def _label_of_eigs(w):
    """Label of a symmetric matrix from its ascending eigenvalues ``w``."""
    tol = CLASSIFY_TOL_SCALE * max(1.0, float(np.abs(w).max()))
    psd = w[0] >= -tol
    nsd = w[-1] <= tol
    if psd and nsd:
        return RegimeLabel.BOUNDARY
    if psd:
        return RegimeLabel.LESS_STEALTHY_MORE_DESTRUCTIVE
    if nsd:
        return RegimeLabel.MORE_STEALTHY_LESS_DESTRUCTIVE
    return RegimeLabel.INDEFINITE


def definiteness_conditions(phi):
    """Evaluate both sufficient conditions on a full-length ratio vector.

    The ones vector has the full length l (ratios padded with zeros), which
    matters: using only the support length would change its norm.
    """
    phi = np.asarray(phi, dtype=float)
    l = phi.shape[0]
    dot_ones = float(phi.sum())
    sq = float(phi @ phi)
    cross = float(np.sqrt(sq * l))
    lhs_psd = dot_ones - cross
    lhs_nsd = sq + dot_ones + cross
    return DefinitenessConditions(
        cond_psd=lhs_psd >= -CLASSIFY_TOL_SCALE * cross,
        cond_nsd=lhs_nsd <= 0.0,
        lhs_psd=lhs_psd,
        lhs_nsd=lhs_nsd,
    )


def classify_uniform_ratio(beta):
    """Regime of the uniform family phi = beta * ones.

    The perturbation is (2 beta + beta^2) W with W PSD, so the sign of
    2 beta + beta^2 decides: boundary at beta in {0, -2}, NSD strictly
    between, PSD outside.
    """
    c = 2.0 * beta + beta * beta
    if c == 0.0:
        return RegimeLabel.BOUNDARY
    if c > 0.0:
        return RegimeLabel.LESS_STEALTHY_MORE_DESTRUCTIVE
    return RegimeLabel.MORE_STEALTHY_LESS_DESTRUCTIVE


def classify_ratio(phi, eigs):
    """Regime of ratio vector ``phi`` with delta's ascending eigenvalues
    ``eigs``: the exact sign of 2 beta + beta^2 for phi = beta * ones, as in
    ``sweep-beta``, else the tolerance label of ``eigs``."""
    phi = np.asarray(phi, dtype=float)
    if (phi == phi[0]).all():
        return classify_uniform_ratio(float(phi[0]))
    return _label_of_eigs(eigs)
