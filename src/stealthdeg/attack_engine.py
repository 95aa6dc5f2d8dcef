"""Incompleteness specs, the delta perturbation and moving-target plans.

The attacker's admittance error on branch i is expressed as the ratio
phi_i = (b'_i - b_i) / b_i, so the believed susceptance is (1 + phi_i) b_i.
The induced change of the attack covariance is captured exactly by the l x l
perturbation

    delta = Phi W + W Phi^T + Phi W Phi^T,      W = A sigma_xx A^T,

with Phi = diag(phi): the suboptimal attack covariance equals the optimal
one plus J diag(b) delta diag(b) J^T.  The regime labels read delta; the
metrics never form the m x m attack covariance.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class IncompletenessSpec:
    """Support set, ratio vector and per-branch ratio bounds.

    All vectors have length l (the in-service branch count) and are zero off
    the support.  ``phi_min <= phi <= phi_max`` holds elementwise.  A ratio
    of exactly -1 (admittance believed zero) is legal; :func:`mtd_admittance`
    maps it to a zero admittance, since b' / (1 + phi) is undefined there.
    """

    support: tuple
    phi: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        lo = np.array(self.phi_min, dtype=float)
        hi = np.array(self.phi_max, dtype=float)
        l = phi.shape[0]
        support = tuple(sorted(int(i) for i in self.support))
        if len(set(support)) != len(support):
            raise ValidationError("duplicate support indices")
        if support and not (0 <= support[0] and support[-1] < l):
            raise ValidationError(f"support index out of range for l={l}")
        if lo.shape != (l,) or hi.shape != (l,):
            raise ValidationError("phi, phi_min, phi_max must share one length")
        if not all(np.isfinite(vec).all() for vec in (phi, lo, hi)):
            raise ValidationError("phi, phi_min, phi_max must be finite")
        off = np.ones(l, dtype=bool)
        off[list(support)] = False
        for name, vec in (("phi", phi), ("phi_min", lo), ("phi_max", hi)):
            if np.any(vec[off] != 0.0):
                raise ValidationError(f"{name} is nonzero off the support")
        if np.any(lo > hi) or np.any(phi < lo) or np.any(phi > hi):
            raise ValidationError("need phi_min <= phi <= phi_max elementwise")
        for arr in (phi, lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_min", lo)
        object.__setattr__(self, "phi_max", hi)

    @classmethod
    def from_phi(cls, phi, support=None):
        """Spec pinned at a given ratio vector (bounds collapse onto phi)."""
        phi = np.asarray(phi, dtype=float)
        if support is None:
            support = tuple(range(phi.shape[0]))
        return cls(support=tuple(support), phi=phi.copy(),
                   phi_min=phi.copy(), phi_max=phi.copy())

    @classmethod
    def from_bounds(cls, support, phi_min, phi_max):
        """Spec carrying a box of ratios; phi is clipped-to-box zero."""
        lo = np.asarray(phi_min, dtype=float)
        hi = np.asarray(phi_max, dtype=float)
        phi = np.clip(np.zeros_like(lo), lo, hi)
        return cls(support=tuple(support), phi=phi, phi_min=lo.copy(),
                   phi_max=hi.copy())

    @classmethod
    def uniform(cls, l, beta):
        """All l branches perturbed by the same ratio beta."""
        return cls.from_phi(np.full(l, float(beta)))


def state_edge_cov(model, sigma_xx):
    """W = A sigma_xx A^T, the covariance of the branch angle differences."""
    W = model.A @ sigma_xx @ model.A.T
    return (W + W.T) / 2.0


def delta_from_state_cov(W, phi):
    """Equivalent perturbation  Phi W + W Phi^T + Phi W Phi^T  (three terms)."""
    # outer(phi, phi) * W keeps the quadratic term bitwise symmetric.
    pw = phi[:, None] * W
    return pw + pw.T + np.outer(phi, phi) * W


def mtd_admittance(b_prime, phi):
    """Operator-side susceptances b = b' / (1 + phi) realizing the ratios.

    A ratio of exactly -1 maps to 0, where the division is undefined; a
    ratio of 0 (every branch off the support) leaves b' unchanged.  Exact
    inverse of b' = (1 + phi) b whenever no ratio equals -1.
    """
    with np.errstate(divide="ignore"):
        return np.where(phi == -1.0, 0.0, b_prime / (1.0 + phi))


def read_spec_csv(text, l):
    """Parse a spec CSV; omitted branches are off the support.

    Header must name ``branch_index`` plus any of ``phi``, ``phi_min``,
    ``phi_max``.  Bounds-only rows get phi clipped-to-box zero; phi-only
    rows get pinned bounds.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or "branch_index" not in reader.fieldnames:
        raise ValidationError("spec CSV needs a branch_index column")
    has_phi = "phi" in reader.fieldnames
    has_bounds = "phi_min" in reader.fieldnames and "phi_max" in reader.fieldnames
    if not has_phi and not has_bounds:
        raise ValidationError("spec CSV needs phi and/or phi_min,phi_max columns")
    support, phi, lo, hi = [], np.zeros(l), np.zeros(l), np.zeros(l)
    for row in reader:
        try:
            idx = int(row["branch_index"]) - 1
        except (TypeError, ValueError):
            raise ValidationError(f"bad branch_index {row['branch_index']!r}") from None
        if not 0 <= idx < l:
            raise ValidationError(
                f"branch_index {idx + 1} outside 1..{l}"
            )
        support.append(idx)
        try:
            if has_phi:
                phi[idx] = float(row["phi"])
            if has_bounds:
                lo[idx] = float(row["phi_min"])
                hi[idx] = float(row["phi_max"])
        except (TypeError, ValueError):
            raise ValidationError(f"bad ratio in row {row}") from None
        if not has_bounds:
            lo[idx] = hi[idx] = phi[idx]
    if has_phi:
        return IncompletenessSpec(support=tuple(support), phi=phi,
                                  phi_min=lo, phi_max=hi)
    return IncompletenessSpec.from_bounds(tuple(support), lo, hi)
