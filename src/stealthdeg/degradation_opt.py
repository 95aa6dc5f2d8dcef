"""Maximal degradation of attack stealth over box-bounded ratio vectors.

A zero-mean attack with covariance T(phi) against measurements with
covariance sigma_yy (S = sigma_yy^-1) is scored in nats by the KL divergence
between attacked and clean measurement laws, its detectability, and by the
information the operator still obtains about the states:

    f(phi) = 2 kl = -log|I + S^1/2 T S^1/2| + tr(S^1/2 T S^1/2),
    mi = 1/2 log|I + U^1/2 (sigma2 I + T)^-1 U^1/2|,   U = H sigma_xx H^T.

:meth:`ObjectiveEvaluator.baseline` gives both at phi = 0 (complete
information).  The objective f is convex in phi, so its maximum over the box
phi_min <= phi <= phi_max sits at a vertex.  ``exhaustive_maximize(ev,
spec)`` enumerates the up-to-2^k vertices lazily and scores them in stacks;
``greedy_maximize(ev, spec)`` picks one bound per coordinate in a single
ascending sweep, which has no global optimality guarantee but is measured
against the exhaustive oracle in the test suite.  Both score with the
:class:`ObjectiveEvaluator` ``ev`` they are given.  The sweep runs on
:meth:`ObjectiveEvaluator.greedy`, which moves many boxes in lockstep and
scores each bound by a rank-2 update instead of a fresh evaluation.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularityError, ValidationError

ENUMERATION_CAP = 20
# Boxes swept in lockstep per block, and vertices scored per stacked
# objective call: enough to amortise NumPy's per-call overhead while the
# stacks stay small.
_SWEEP_BLOCK = 32
_VERTEX_CHUNK = 256
# Greedy scores closer than this fraction of their magnitude are a tie, which
# goes to the lower bound.  Symmetric boxes tie exactly; the rank-2 scores
# reproduce such ties only to roundoff.
_TIE_RTOL = 1e-12
# Below this, x - log1p(x) comes from its Taylor series: the direct
# difference loses about log10(2 / x) digits to cancellation.  The
# coefficients (-1)^k / k run from k = 18 down to 2 (Horner order); the first
# omitted term is about 1e-18 of the sum at x = _SERIES_MAX.
_SERIES_MAX = 0.1
_SERIES = tuple((-1.0) ** k / k for k in range(18, 1, -1))


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Chosen vertex and its objective.  oracle_gap is
    1 - objective/objective_exhaustive when the oracle ran, else None."""

    phi_star: np.ndarray
    objective: float
    oracle_gap: float = None


def _finite(values, context):
    if not np.isfinite(values).all():
        raise SingularityError(f"{context} is not finite")
    return values


def _x_minus_log1p(x):
    """x - log1p(x) for x >= 0, accurate to roundoff also as x -> 0."""
    t = np.minimum(x, _SERIES_MAX)
    series = np.zeros_like(t)
    for coeff in _SERIES:
        series = series * t + coeff
    return np.where(x < _SERIES_MAX, series * t * t, x - np.log1p(x))


def uniform_metrics(stats, betas):
    """(kl, mi) arrays of the uniform family phi = beta * ones, per beta.

    With phi = beta * ones, C = (1 + beta) F, so M = s F^T G F and
    P P^T = (1 + s) J F (J F)^T with s = (1 + beta)^2.  Let mu be the
    eigenvalues of (J F)^T J F / sigma2 (``stats.signal_eigs / sigma2``);
    those of F^T G F are then lam = mu / (1 + mu), and

        2 kl = sum (s lam - log1p(s lam)),
        2 mi = sum log1p(mu / (1 + s mu)) = sum log1p(1 / (s + 1 / mu)),

    so each beta costs O(n).  The last form cannot overflow in s mu.  The
    small-x end of x - log1p(x) is summed from its series, so kl keeps full
    relative accuracy as beta nears -1, and nothing cancels at high SNR as
    it does in M = F^T G F.  A beta whose s, kl or mi is not finite raises
    :class:`~stealthdeg.errors.SingularityError`.
    """
    mu = stats.signal_eigs / stats.sigma2
    lam = mu / (1.0 + mu)
    with np.errstate(divide="ignore"):
        inv_mu = 1.0 / mu
    with np.errstate(over="ignore"):
        s = _finite((1.0 + np.asarray(betas, dtype=float)) ** 2,
                    "the uniform scale (1 + beta)^2")[:, None]
        kl = 0.5 * _x_minus_log1p(s * lam).sum(axis=1)
        mi = 0.5 * np.log1p(1.0 / (s + inv_mu)).sum(axis=1)
    return _finite(kl, "the KL divergence"), _finite(mi, "the mutual information")


def _uniform_rows(phi):
    """Mask of the ratio vectors in a stack (..., l) whose coordinates are
    all equal, i.e. the members of the uniform family."""
    return (phi == phi[..., :1]).all(axis=-1)


class ObjectiveEvaluator:
    """The one numerical core behind the objective, KL and MI of a scenario.

    W + delta = (I + Phi) W (I + Phi) factors the attack covariance as
    T(phi) = J C C^T J^T with C = diag(1 + phi) F, F = diag(b) A L and
    sigma_xx = L L^T.  Sylvester's identity then gives, on n x n matrices,

        2 kl = tr(M) - log|I + M|,   M = C^T G C,   G = J^T S J,
        2 mi = sum log1p(mu) + log|I + M| - log|I + K_C^T K_C / sigma2|,

    with K_C = J C and mu = signal_eigs / sigma2; the objective is 2 kl.  mi
    is log|I + P^T P / sigma2| - log|I + K_C^T K_C / sigma2|, P = [J F, K_C],
    and the Schur complement of that Gram's leading block is
    I + K_C^T (sigma2 I + J F F^T J^T)^-1 K_C = I + M (push-through), so kl
    and mi share one factor of I + M.  F, the folded J F and its Gram
    (J F)^T J F are read from :class:`~stealthdeg.stochastics.ScenarioStats`,
    G is built from them (below), and J^T J = A A^T + 2 I comes from the
    model's incidence.  Log-determinants come from Cholesky pivots of n x n
    matrices no smaller than I.  Ratio vectors of the uniform family
    phi = beta * ones, phi = 0 among them, take their values from the closed
    form of :func:`uniform_metrics` instead, which does not cancel at high SNR.

    Moving 1 + phi_i by e changes C by e e_i r^T with r = F[i], hence M by
    the symmetric rank-2 term  e (r u^T + u r^T) + e^2 G_ii r r^T  with
    u = (G C)[i].  :meth:`greedy` scores both bounds of a coordinate from
    that term (determinant lemma, trace increment) and commits the winner
    to a maintained (I + M)^-1 by Woodbury, which stays well conditioned
    because I + M >= I.

    ``G`` is built here from one projector.  With the folded J F,
    E = J~ F (J~ = [A^T; sqrt(2) I], see ScenarioStats), and
    [E; sigma I] = Q R (thin QR, 2n + l rows), sigma2 (E E^T + sigma2 I)^-1
    is the leading block of I - Q Q^T, so G = Z^T Z / sigma2 with
    Z = [J~; 0] - Q X, X = Q[:n+l]^T J~ (read through the incidence).  A Gram
    of projected columns, G does not cancel as J~^T J~ - X^T X would.  Cost:
    one QR and one O((2n + l) l^2) Gram.
    """

    def __init__(self, model, stats):
        self.model = model
        self.stats = stats
        self._F = stats.F
        A, (l, n) = model.A, stats.F.shape
        Q, _ = np.linalg.qr(np.vstack([stats.K, np.sqrt(stats.sigma2) * np.eye(n)]))
        Z = Q @ -((A @ Q[:n]).T + np.sqrt(2.0) * Q[n:-n].T)
        Z[:n] += A.T
        Z[np.arange(n, n + l), np.arange(l)] += np.sqrt(2.0)
        self.G = Z.T @ Z / stats.sigma2
        # Small integers throughout, so bitwise equal to J^T J.
        self._JtJ = A @ A.T + 2.0 * np.eye(l)
        self._eye = np.eye(n)

    def _kl(self, c):
        """(kl, log|I + M|) for C, or for a stack of them (..., l, n), as arrays.

        With I + M = L L^T, 2 kl = sum_{i>j} L_ij^2 + sum_i (x_i - log1p x_i)
        where x_i = L_ii^2 - 1: every term is >= 0, so nothing cancels as
        phi nears -1 and M nears 0.  log|I + M| = sum_i log1p x_i.
        """
        m = np.swapaxes(c, -1, -2) @ (self.G @ c)
        chol = np.linalg.cholesky(self._eye + m)
        lower = np.tril(chol, -1)
        x = np.diagonal(chol, axis1=-2, axis2=-1) ** 2 - 1.0
        log1p = np.log1p(x)
        kl = 0.5 * ((lower * lower).sum(axis=(-2, -1)) + (x - log1p).sum(axis=-1))
        return _finite(np.asarray(kl), "the KL divergence"), log1p.sum(axis=-1)

    def objective(self, phi):
        """Detectability objective (twice the KL divergence) at phi.

        ``phi`` may be one ratio vector or a stack (..., l); a stack gives
        an array of objectives.
        """
        phi = np.asarray(phi, dtype=float)
        # A huge finite ratio overflows C or M; the check in _kl (or a failed
        # Cholesky) makes that a numerical error rather than a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            kl = self._kl((1.0 + phi)[..., :, None] * self._F)[0]
        uniform = _uniform_rows(phi)
        if uniform.any():
            kl[uniform] = uniform_metrics(self.stats, phi[uniform, 0])[0]
        return 2.0 * kl[()]

    def metrics(self, phi):
        """(kl, mi) of the attack built from phi.

        ``phi`` may be one ratio vector or a stack (..., l); a stack gives
        arrays of kl and mi.  mi reuses kl's log|I + M| (class docstring) and
        factors only I + K_C^T K_C / sigma2 = I + C^T J^T J C / sigma2 more.
        """
        phi = np.asarray(phi, dtype=float)
        # Overflow from a huge finite ratio is caught as in :meth:`objective`.
        with np.errstate(over="ignore", invalid="ignore"):
            c = (1.0 + phi)[..., :, None] * self._F
            kl, logdet_m = self._kl(c)
            kck = np.swapaxes(c, -1, -2) @ (self._JtJ @ c) / self.stats.sigma2
            pivots = np.diagonal(np.linalg.cholesky(self._eye + kck), axis1=-2, axis2=-1)
            log_kck = 2.0 * np.log(_finite(pivots, "a pivot of I + K_C^T K_C")).sum(axis=-1)
            signal = np.log1p(self.stats.signal_eigs / self.stats.sigma2).sum()
            mi = np.asarray(0.5 * (signal + logdet_m - log_kck))
        uniform = _uniform_rows(phi)
        if uniform.any():
            kl[uniform], mi[uniform] = uniform_metrics(self.stats, phi[uniform, 0])
        return kl[()], mi[()]

    def baseline(self):
        """(kl_opt, mi_opt): metrics of the complete-information attack,
        phi = 0, from the closed form."""
        kl, mi = uniform_metrics(self.stats, [0.0])
        return kl[0], mi[0]

    def greedy(self, lows, highs, *, refine=False):
        """Greedy vertex of every box (rows of ``lows``/``highs``, (T, l)).

        Each box is swept over coordinates 0..l-1, choosing the bound with
        the larger objective; ties go to the lower bound, and coordinates
        still undecided are held at zero.  Pinned coordinates (low == high,
        zero off the support) are set without scoring.  ``refine=True``
        re-sweeps (still vertex-constrained, up to 50 more times) until no
        box changes.  The vertex depends on the sweep order 0..l-1: permuting
        the branches permutes it only if the order is permuted too.  Boxes
        run in lockstep blocks, each independently of the others.  Returns
        the chosen vertices, (T, l).
        """
        lows = np.atleast_2d(np.asarray(lows, dtype=float))
        highs = np.atleast_2d(np.asarray(highs, dtype=float))
        origin = self._origin_state()
        return np.concatenate([
            self._sweep(lows[s:s + _SWEEP_BLOCK], highs[s:s + _SWEEP_BLOCK], refine, origin)[0]
            for s in range(0, len(lows), _SWEEP_BLOCK)])

    def _origin_state(self):
        """((I + M0)^-1, tr M0) at phi = 0, from M0 = V diag(lam) V^T with V
        the eigenvectors of the folded Gram and lam as in
        :func:`uniform_metrics`: F^T G F would cancel at high SNR.
        """
        mu, V = np.linalg.eigh(self.stats.gram)
        mu = np.maximum(mu, 0.0) / self.stats.sigma2
        lam = mu / (1.0 + mu)
        return (V / (1.0 + lam)) @ V.T, float(lam.sum())

    def _sweep(self, lows, highs, refine, origin):
        """Lockstep greedy over one block of boxes, starting from
        ``origin`` = :meth:`_origin_state`.

        Returns (phi, tr M, (I + M)^-1) at the chosen vertices, the last two
        as maintained by the rank-2 updates.
        """
        F, G = self._F, self.G
        inv0, trace0 = origin
        t, l = lows.shape
        inv = np.repeat(inv0[None], t, axis=0)
        trace = np.full(t, trace0)
        phi = np.zeros((t, l))
        bounds = np.stack([lows, highs])                 # (2, t, l)
        g_diag = np.diagonal(G)
        r_sq = np.einsum("ij,ij->i", F, F)
        ru = np.empty((t, F.shape[1], 2))
        for sweep in range(51 if refine else 1):
            changed = np.full(t, sweep == 0)
            for i in range(l):
                # Per box, the moves from phi_i to each bound: (2, t).
                steps = bounds[:, :, i] - phi[:, i]
                if not steps.any():
                    continue
                r = F[i]
                u = ((1.0 + phi) * G[i]) @ F           # row i of G C, per box
                ru[:, :, 0], ru[:, :, 1] = r, u
                z = inv @ ru                           # [N r, N u], N = (I + M)^-1
                a = z[:, :, 0] @ r
                c, d = np.einsum("tjk,tj->kt", z, u)
                g = g_diag[i]
                with np.errstate(all="ignore"):
                    d_trace = 2.0 * steps * (u @ r) + steps ** 2 * g * r_sq[i]
                    # |I + M'| / |I + M| = (1 + e c)^2 + e^2 a (g - d).
                    det = (1.0 + steps * c) ** 2 + steps ** 2 * a * (g - d)
                    gain = d_trace - np.log(det)
                _finite(gain, "a greedy score")
                high = gain[1] - gain[0] > _TIE_RTOL * (trace + np.abs(gain).sum(axis=0))
                e, det, d_trace = (np.where(high, x[1], x[0]) for x in (steps, det, d_trace))
                # Woodbury: (I + M')^-1 = N - z X z^T with
                # X = [[e^2 (g - d), e (1 + e c)], [e (1 + e c), -e^2 a]] / det.
                x_ru = e * (1.0 + e * c)
                X = np.stack([e ** 2 * (g - d), x_ru, x_ru, -(e ** 2) * a], -1) / det[:, None]
                inv -= (z @ X.reshape(t, 2, 2)) @ np.swapaxes(z, 1, 2)
                trace += d_trace
                phi[:, i] = np.where(high, highs[:, i], lows[:, i])
                changed |= e != 0.0
            if not changed.any():
                break
        return phi, trace, inv


def vertex_profiles(spec):
    """Lazily yield every vertex of the bound box, low/high per free index.

    Coordinates whose bounds coincide are pinned and contribute no factor
    of two.  Enumeration order is deterministic: the last free index varies
    fastest, with its lower bound first.  Vertex j sets free index f to its
    upper bound when bit (k - 1 - f) of j is set; vertices are built a chunk
    at a time from those bits and yielded row by row.
    """
    free = [i for i in spec.support if spec.phi_min[i] != spec.phi_max[i]]
    if len(free) > ENUMERATION_CAP:
        raise ValidationError(
            f"{len(free)} free coordinates exceed the enumeration cap {ENUMERATION_CAP}")
    base = np.zeros(spec.l)
    support = list(spec.support)
    base[support] = spec.phi_min[support]
    shifts = np.arange(len(free))[::-1]
    low, high = spec.phi_min[free], spec.phi_max[free]
    count = 1 << len(free)
    for start in range(0, count, _VERTEX_CHUNK):
        index = np.arange(start, min(start + _VERTEX_CHUNK, count))
        chunk = np.repeat(base[None], len(index), axis=0)
        chunk[:, free] = np.where((index[:, None] >> shifts) & 1, high, low)
        yield from chunk


def greedy_maximize(ev, spec, *, refine=False):
    """One ascending sweep choosing the better bound per support index.

    ``ev`` scores ``spec``.  Undecided coordinates are held at zero while
    sweeping; ties go to the lower bound.  The vertex depends on the sweep
    order 0..l-1, as the paper's heuristic does.  ``refine=True`` enables an
    extension beyond the single sweep: coordinates are re-swept (still
    vertex-constrained) until no choice changes.  See
    :meth:`ObjectiveEvaluator.greedy`.
    """
    phi = ev.greedy(spec.phi_min, spec.phi_max, refine=refine)[0]
    return OptimizationResult(phi, ev.objective(phi))


def exhaustive_maximize(ev, spec):
    """Global optimum over the vertex set (small supports only).

    ``ev`` scores the vertices in stacks.  Winners are ordered by (objective,
    lexicographic vertex) so the result does not depend on evaluation order;
    the objective returned is the stacked score that rule compared.
    """
    vertices = vertex_profiles(spec)
    best_phi, best_key = None, None
    row = (float, spec.l)
    while len(stack := np.fromiter(itertools.islice(vertices, _VERTEX_CHUNK), dtype=row)):
        values = ev.objective(stack)
        for j in np.flatnonzero(values == values.max()):
            key = (float(values[j]), tuple(stack[j]))
            if best_key is None or key > best_key:
                best_phi, best_key = stack[j], key
    return OptimizationResult(best_phi, best_key[0])


def maximize_with_oracle(ev, spec, *, refine=False):
    """Greedy result annotated with its measured gap to the exhaustive optimum.

    Both searches score with ``ev``; ``refine`` goes to :func:`greedy_maximize`.
    """
    greedy = greedy_maximize(ev, spec, refine=refine)
    exact = exhaustive_maximize(ev, spec)
    if exact.objective <= 0.0:
        gap = 0.0
    else:
        gap = 1.0 - greedy.objective / exact.objective
    return replace(greedy, oracle_gap=gap), exact
