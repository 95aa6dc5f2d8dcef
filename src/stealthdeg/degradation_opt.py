"""Maximal degradation of attack stealth over box-bounded ratio vectors.

The detectability objective

    f(phi) = -log|I + S^1/2 T(phi) S^1/2| + tr(S^1/2 T(phi) S^1/2)

(twice the KL divergence) is convex in phi, so its maximum over the box
phi_min <= phi <= phi_max sits at a vertex.  ``exhaustive_maximize``
enumerates the up-to-2^k vertices lazily; ``greedy_maximize`` picks one
bound per coordinate in a single ascending sweep, which has no global
optimality guarantee but is measured against the exhaustive oracle in the
test suite.
"""

import enum
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .attack_engine import delta_from_state_cov, state_edge_cov
from .errors import CapExceededError, SingularityError

ENUMERATION_CAP = 20


class VertexChoice(enum.Enum):
    LOW = "LOW"
    HIGH = "HIGH"
    PINNED = "PINNED"


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Chosen vertex, its objective, and bookkeeping for oracle comparison.

    vertex_flags align with the profile's support order; oracle_gap is
    1 - objective/objective_exhaustive when the oracle ran, else None.
    """

    phi_star: np.ndarray
    objective: float
    objective_at_zero: float
    vertex_flags: tuple
    oracle_gap: float = None


def _logdet_pd(mat, context):
    """log|mat| of a positive-definite matrix from its Cholesky pivots."""
    logdet = 2.0 * float(np.log(np.diagonal(np.linalg.cholesky(mat))).sum())
    if not np.isfinite(logdet):
        raise SingularityError(f"{context} has a non-finite log-determinant")
    return logdet


class ObjectiveEvaluator:
    """The one numerical core behind the objective, KL and MI of a scenario.

    W + delta = (I + Phi) W (I + Phi) factors the attack covariance as
    T(phi) = J C C^T J^T with C = diag(1 + phi) F, F = diag(b) A L and
    sigma_xx = L L^T.  Sylvester's identity then gives, on n x n matrices,

        2 kl = tr(M) - log|I + M|,   M = C^T (J^T S J) C,
        2 mi = log|I + P^T P / sigma2| - log|I + K^T K / sigma2|,

    with K = J C and P = [K, J F]; the objective is 2 kl.  Log-determinants
    come from Cholesky pivots of matrices no smaller than I.  W is kept for
    the delta route of :meth:`attack_cov` and for regime labels.
    """

    def __init__(self, model, stats):
        self.model = model
        self.stats = stats
        self.W = state_edge_cov(model, stats.sigma_xx)
        self._F = model.b[:, None] * (model.A @ np.linalg.cholesky(stats.sigma_xx))
        gram = model.J.T @ stats.sigma_yy_inv @ model.J
        self._G = (gram + gram.T) / 2.0
        self._JtJ = model.J.T @ model.J
        self._JF_gram = self._F.T @ self._JtJ @ self._F
        self._eye = np.eye(model.n)
        self._baseline = None

    def attack_cov(self, phi):
        """Attack covariance T(phi) through the delta route (m x m)."""
        jd = self.model.J * self.model.b
        return jd @ (self.W + delta_from_state_cov(self.W, phi)) @ jd.T

    def _kl(self, c):
        m = c.T @ (self._G @ c)
        kl = 0.5 * (float(np.trace(m)) - _logdet_pd(self._eye + m, "I + M"))
        # tr(M) and log|I + M| cancel as phi nears -1; clamp the roundoff.
        return 0.0 if -1e-12 <= kl < 0.0 else kl

    def objective(self, phi):
        """Detectability objective (twice the KL divergence) at phi."""
        return 2.0 * self._kl((1.0 + phi)[:, None] * self._F)

    def metrics(self, phi):
        """(kl, mi) of the attack built from phi."""
        c = (1.0 + phi)[:, None] * self._F
        q = self._JtJ @ c
        ktk = c.T @ q
        cross = q.T @ self._F
        ptp = np.block([[ktk, cross], [cross.T, self._JF_gram]])
        s2 = self.stats.sigma2
        mi = 0.5 * (_logdet_pd(np.eye(2 * self.model.n) + ptp / s2, "I + P^T P")
                    - _logdet_pd(self._eye + ktk / s2, "I + K^T K"))
        return self._kl(c), mi

    def baseline(self):
        """(kl_opt, mi_opt): metrics of the complete-information attack."""
        if self._baseline is None:
            self._baseline = self.metrics(np.zeros(self.model.l))
        return self._baseline


def detectability_objective(model, stats, phi):
    """Objective value at one ratio vector (fresh, uncached evaluation)."""
    return ObjectiveEvaluator(model, stats).objective(np.asarray(phi, dtype=float))


def vertex_profiles(spec, cap=ENUMERATION_CAP):
    """Lazily yield every vertex of the bound box, low/high per free index.

    Coordinates whose bounds coincide are pinned and contribute no factor
    of two.  Enumeration order is deterministic: the last free index varies
    fastest, with its lower bound first.
    """
    free = [i for i in spec.support if spec.phi_min[i] != spec.phi_max[i]]
    if len(free) > cap:
        raise CapExceededError(
            f"{len(free)} free coordinates exceed the enumeration cap {cap}"
        )
    base = np.zeros(spec.l)
    for i in spec.support:
        base[i] = spec.phi_min[i]
    for choice in itertools.product((0, 1), repeat=len(free)):
        phi = base.copy()
        for j, bit in zip(free, choice):
            phi[j] = spec.phi_max[j] if bit else spec.phi_min[j]
        yield phi


def _flags_for(spec, phi):
    flags = []
    for i in spec.support:
        if spec.phi_min[i] == spec.phi_max[i]:
            flags.append(VertexChoice.PINNED)
        elif phi[i] == spec.phi_min[i]:
            flags.append(VertexChoice.LOW)
        else:
            flags.append(VertexChoice.HIGH)
    return tuple(flags)


def greedy_maximize(model, stats, spec, *, refine=False, evaluator=None):
    """One ascending sweep choosing the better bound per support index.

    Undecided coordinates are held at zero while sweeping; ties go to the
    lower bound.  ``refine=True`` enables an extension beyond the single
    sweep: coordinates are re-swept (still vertex-constrained) until no
    choice changes.
    """
    ev = evaluator or ObjectiveEvaluator(model, stats)
    phi = np.zeros(spec.l)
    # The first sweep always runs; refine adds up to 50 re-sweeps.
    for sweep in range(51 if refine else 1):
        changed = sweep == 0
        for i in spec.support:
            lo, hi = spec.phi_min[i], spec.phi_max[i]
            if lo == hi:
                phi[i] = lo
                continue
            previous = phi[i]
            phi[i] = lo
            obj_lo = ev.objective(phi)
            phi[i] = hi
            obj_hi = ev.objective(phi)
            phi[i] = lo if obj_lo >= obj_hi else hi
            changed = changed or phi[i] != previous
        if not changed:
            break

    return OptimizationResult(
        phi_star=phi,
        objective=ev.objective(phi),
        objective_at_zero=ev.objective(np.zeros(spec.l)),
        vertex_flags=_flags_for(spec, phi),
    )


def exhaustive_maximize(model, stats, spec, *, cap=ENUMERATION_CAP, evaluator=None):
    """Global optimum over the vertex set (small supports only).

    Winners are ordered by (objective, lexicographic vertex) so the result
    does not depend on evaluation order.
    """
    ev = evaluator or ObjectiveEvaluator(model, stats)
    best_phi, best_key = None, None
    for phi in vertex_profiles(spec, cap=cap):
        key = (ev.objective(phi), tuple(phi))
        if best_key is None or key > best_key:
            best_phi, best_key = phi, key
    return OptimizationResult(
        phi_star=best_phi,
        objective=ev.objective(best_phi),
        objective_at_zero=ev.objective(np.zeros(spec.l)),
        vertex_flags=_flags_for(spec, best_phi),
    )


def maximize_with_oracle(model, stats, spec, *, cap=ENUMERATION_CAP, evaluator=None):
    """Greedy result annotated with its measured gap to the exhaustive optimum."""
    ev = evaluator or ObjectiveEvaluator(model, stats)
    greedy = greedy_maximize(model, stats, spec, evaluator=ev)
    exact = exhaustive_maximize(model, stats, spec, cap=cap, evaluator=ev)
    if exact.objective <= 0.0:
        gap = 0.0
    else:
        gap = 1.0 - greedy.objective / exact.objective
    return replace(greedy, oracle_gap=gap), exact


def convexity_gap_on_segment(model, stats, phi_a, phi_b, steps=50, *, evaluator=None):
    """Max violation of convexity sampled along a segment of ratio vectors.

    Returns max over theta of f(mix) - (theta f(a) + (1-theta) f(b)); a
    convex objective keeps this below numerical tolerance.
    """
    ev = evaluator or ObjectiveEvaluator(model, stats)
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    f_a = ev.objective(phi_a)
    f_b = ev.objective(phi_b)
    worst = -np.inf
    for step in range(steps + 1):
        theta = step / steps
        mixed = theta * phi_a + (1.0 - theta) * phi_b
        violation = ev.objective(mixed) - (theta * f_a + (1.0 - theta) * f_b)
        worst = max(worst, violation)
    return float(worst)
