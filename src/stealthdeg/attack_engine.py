"""Attack covariances under incomplete admittance information.

The attacker's admittance error on branch i is expressed as the ratio
phi_i = (b'_i - b_i) / b_i, so the believed susceptance is (1 + phi_i) b_i.
The induced change of the attack covariance is captured exactly by the l x l
perturbation

    delta = Phi W + W Phi^T + Phi W Phi^T,      W = A sigma_xx A^T,

with Phi = diag(phi): the suboptimal attack covariance equals the optimal
one plus J diag(b) delta diag(b) J^T.  ``equivalence_residual`` measures how
well that identity holds numerically.
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
    of exactly -1 (admittance believed zero) is legal but reported through
    :meth:`zeroed_indices` since the admittance mapping is undefined there.
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

    @property
    def l(self):
        return self.phi.shape[0]

    @property
    def k(self):
        return len(self.support)

    def zeroed_indices(self):
        """Support indices whose ratio is exactly -1."""
        return tuple(i for i in self.support if self.phi[i] == -1.0)

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


@dataclass(frozen=True, eq=False)
class AttackArtifacts:
    """Matrices derived from one incompleteness spec.

    attacker_admittance: the believed susceptances (1 + phi) b.
    attacker_jacobian: Jacobian built from the believed susceptances.
    delta: the equivalent l x l perturbation of W = A sigma_xx A^T.
    cov_optimal: attack covariance under complete information, H sigma_xx H^T.
    cov_incomplete: attack covariance actually deployed, H' sigma_xx H'^T.
    cov_attacked_meas: covariance of the attacked measurements.
    cov_via_delta: cov_incomplete rebuilt through the delta route.
    """

    attacker_admittance: np.ndarray
    attacker_jacobian: np.ndarray
    delta: np.ndarray
    cov_optimal: np.ndarray
    cov_incomplete: np.ndarray
    cov_attacked_meas: np.ndarray
    cov_via_delta: np.ndarray


@dataclass(frozen=True)
class MtdAdjustment:
    """Operator-side admittance targets plus the ratios that hit the 0 case."""

    admittance: np.ndarray
    zeroed: tuple


def perturbed_admittance(b, spec):
    """Believed susceptances: (1 + phi_i) b_i on support, b_i elsewhere."""
    return (1.0 + spec.phi) * np.asarray(b, dtype=float)


def perturbed_jacobian(model, spec):
    """Jacobian the attacker would assemble, J diag((1 + phi) b) A."""
    b_prime = perturbed_admittance(model.b, spec)
    return model.J @ (b_prime[:, None] * model.A)


def state_edge_cov(model, sigma_xx):
    """W = A sigma_xx A^T, the covariance of the branch angle differences."""
    W = model.A @ sigma_xx @ model.A.T
    return (W + W.T) / 2.0


def delta_matrix(model, sigma_xx, spec):
    """Equivalent perturbation  Phi W + W Phi^T + Phi W Phi^T  (three terms)."""
    W = state_edge_cov(model, sigma_xx)
    return delta_from_state_cov(W, spec.phi)


def delta_from_state_cov(W, phi):
    # outer(phi, phi) * W keeps the quadratic term bitwise symmetric.
    pw = phi[:, None] * W
    return pw + pw.T + np.outer(phi, phi) * W


def delta_matrix_hadamard(model, sigma_xx, spec):
    """Cross-check oracle: delta as a Hadamard product with W.

    Uses the rank-structured factor phi phi^T + phi 1^T + 1 phi^T applied
    entrywise to W; must agree with :func:`delta_matrix` to roundoff.
    """
    W = state_edge_cov(model, sigma_xx)
    phi = spec.phi
    ones = np.ones_like(phi)
    factor = np.outer(phi, phi) + np.outer(phi, ones) + np.outer(ones, phi)
    return factor * W


def covariance_from_delta(model, sigma_xx, delta):
    """Attack covariance J diag(b) (W + delta) diag(b) J^T for any delta.

    Accepts arbitrary symmetric perturbations, not only those produced by a
    ratio vector; the regime results extend to this generalized form.
    """
    W = state_edge_cov(model, sigma_xx)
    JD = model.J * model.b
    return JD @ (W + delta) @ JD.T


def attack_covariances(model, stats, spec):
    """All attack-side matrices for one spec, bundled as artifacts."""
    b_prime = perturbed_admittance(model.b, spec)
    h_prime = model.J @ (b_prime[:, None] * model.A)
    delta = delta_matrix(model, stats.sigma_xx, spec)
    cov_incomplete = h_prime @ stats.sigma_xx @ h_prime.T
    cov_incomplete = (cov_incomplete + cov_incomplete.T) / 2.0
    return AttackArtifacts(
        attacker_admittance=b_prime,
        attacker_jacobian=h_prime,
        delta=delta,
        cov_optimal=stats.cov_signal,
        cov_incomplete=cov_incomplete,
        cov_attacked_meas=stats.sigma_yy + cov_incomplete,
        cov_via_delta=covariance_from_delta(model, stats.sigma_xx, delta),
    )


def equivalence_residual(artifacts, model):
    """Relative Frobenius residual of the delta-route identity.

    || cov_incomplete - cov_optimal - J diag(b) delta diag(b) J^T ||_F
    over max(1, ||cov_optimal||_F); approximately zero iff the admittance
    incompleteness is exactly equivalent to the delta perturbation.
    """
    JD = model.J * model.b
    via_delta = artifacts.cov_optimal + JD @ artifacts.delta @ JD.T
    num = np.linalg.norm(artifacts.cov_incomplete - via_delta)
    return float(num / max(1.0, np.linalg.norm(artifacts.cov_optimal)))


def mtd_admittance(b_prime, spec):
    """Operator-side susceptances realizing the requested ratios.

    b_i = b'_i / (1 + phi_i) on the support (undefined at phi_i = -1, which
    maps to 0 and is reported in ``zeroed``); off support unchanged.  Exact
    inverse of :func:`perturbed_admittance` whenever no ratio equals -1.
    """
    b_prime = np.asarray(b_prime, dtype=float)
    out = b_prime.copy()
    zeroed = []
    for i in spec.support:
        if spec.phi[i] == -1.0:
            out[i] = 0.0
            zeroed.append(i)
        else:
            out[i] = b_prime[i] / (1.0 + spec.phi[i])
    return MtdAdjustment(admittance=out, zeroed=tuple(zeroed))


def write_spec_csv(spec, fh):
    """Write support rows as ``branch_index,phi,phi_min,phi_max`` (1-based)."""
    fh.write("branch_index,phi,phi_min,phi_max\n")
    for i in spec.support:
        fh.write("%d,%.17g,%.17g,%.17g\n"
                 % (i + 1, spec.phi[i], spec.phi_min[i], spec.phi_max[i]))


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
