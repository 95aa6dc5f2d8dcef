"""Desk-scale experiment drivers with deterministic seeding and CSV output.

Randomness contract: every trial draws from a Philox (counter-based, 64-bit)
generator keyed by the pair (seed, trial_id), so a trial's randomness is a
pure function of those two integers and runs agree regardless of execution
order.  Floats are printed with 17 significant digits, which round-trips
IEEE doubles and makes repeated runs byte-identical.

Bound sampling law: per support coordinate a pair is drawn uniformly from
[-1, 1]^2 and ordered into (phi_min, phi_max).  The box is then deformed to
hit the overall incompleteness  alpha = ||phi_max - phi_min||_2  exactly:
when the target lies below the drawn gap norm both bound vectors are scaled
radially toward the origin (so a zero budget collapses the box onto the
complete-information point phi = 0), and when it lies above they are
interpolated linearly toward the full box [-1, 1]^k, whose gap norm
2 sqrt(k) is the reachable maximum.  Both branches stay inside the unit box
by construction.

Both Monte-Carlo drivers run one trial loop, which draws each box straight
into a row of (trials, l) bound arrays and builds no per-trial spec object.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .attack_engine import delta_from_state_cov
from .degradation_opt import _finite, ObjectiveEvaluator
from .errors import UnreachableAlphaError, ValidationError
from .regime_analysis import classify_delta, classify_uniform_ratio, RegimeLabel

# Greedy vertices whose (kl, mi) are scored per stacked metrics call: larger
# stacks were slower and grew peak memory.
_METRICS_STACK = 8
# Grid points of a beta sweep evaluated per vectorised block, which keeps its
# (points, n) temporaries near 1.6 MB each on a 200-bus grid.
_BETA_CHUNK = 1024
# Below this, x - log1p(x) comes from its Taylor series: the direct
# difference loses about log10(2 / x) digits to cancellation.  The
# coefficients (-1)^k / k run from k = 18 down to 2 (Horner order); the first
# omitted term is about 1e-18 of the sum at x = _SERIES_MAX.
_SERIES_MAX = 0.1
_SERIES = tuple((-1.0) ** k / k for k in range(18, 1, -1))


def fmt17(x):
    """Format a float with 17 significant digits (round-trips doubles)."""
    return format(float(x), ".17g")


def trial_rng(seed, trial):
    """Philox generator keyed by (seed, trial): the per-trial substream."""
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def vertex_digest(phi):
    """Stable short hash of a chosen vertex (its fmt17 cells, comma-joined)."""
    values = np.asarray(phi, dtype=float).tolist()
    payload = (",".join(["%.17g"] * len(values)) % tuple(values)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class BetaRow:
    beta: float
    kl: float
    mi: float
    regime: RegimeLabel


@dataclass(frozen=True)
class TrialRecord:
    """One Monte-Carlo trial: budget, chosen vertex metrics and regime."""

    trial_id: int
    alpha: float
    k: int
    kl: float
    mi: float
    kl_opt: float
    mi_opt: float
    regime: RegimeLabel
    phi_star_digest: str


def _x_minus_log1p(x):
    """x - log1p(x) for x >= 0, accurate to roundoff also as x -> 0."""
    t = np.minimum(x, _SERIES_MAX)
    series = np.zeros_like(t)
    for coeff in _SERIES:
        series = series * t + coeff
    return np.where(x < _SERIES_MAX, series * t * t, x - np.log1p(x))


def beta_sweep(model, stats, beta_grid):
    """Metrics of the uniform-ratio family phi = beta * ones over a grid.

    With phi = beta * ones, C = (1 + beta) F, so M = s F^T G F and
    P P^T = (1 + s) J F (J F)^T with s = (1 + beta)^2.  Let mu be the
    eigenvalues of (J F)^T J F / sigma2 (``stats.signal_eigs / sigma2``);
    those of F^T G F are then lam = mu / (1 + mu), and

        2 kl = sum (s lam - log1p(s lam)),
        2 mi = sum log1p(mu / (1 + s mu)) = sum log1p(1 / (s + 1 / mu)),

    so each grid point costs O(n) and no evaluator is built.  The last form
    cannot overflow in s mu.  The small-x end of x - log1p(x) is summed from
    its series, so kl keeps full relative accuracy as beta nears -1.  The grid is evaluated in blocks of
    ``_BETA_CHUNK`` points.  A beta whose s, kl or mi is not finite raises
    :class:`~stealthdeg.errors.SingularityError`.
    """
    betas = np.asarray(beta_grid, dtype=float)
    mu = stats.signal_eigs / stats.sigma2
    lam = mu / (1.0 + mu)
    with np.errstate(divide="ignore"):
        inv_mu = 1.0 / mu
    kl = np.empty(len(betas))
    mi = np.empty(len(betas))
    for start in range(0, len(betas), _BETA_CHUNK):
        block = slice(start, start + _BETA_CHUNK)
        with np.errstate(over="ignore"):
            s = _finite((1.0 + betas[block]) ** 2, "the uniform scale (1 + beta)^2")[:, None]
            kl[block] = 0.5 * _x_minus_log1p(s * lam).sum(axis=1)
            mi[block] = 0.5 * np.log1p(1.0 / (s + inv_mu)).sum(axis=1)
    _finite(kl, "the KL divergence")
    _finite(mi, "the mutual information")
    return [BetaRow(beta=float(beta), kl=float(k), mi=float(m),
                    regime=classify_uniform_ratio(float(beta)))
            for beta, k, m in zip(betas, kl, mi)]


def _sample_bounds_from(rng, support, target_alpha, l):
    """Draw one bound box on ``support`` and deform it to the target alpha."""
    k = len(support)
    if k == 0:
        raise UnreachableAlphaError("empty support")
    if not target_alpha >= 0.0:
        raise UnreachableAlphaError(f"alpha must be a number >= 0, got {target_alpha}")
    if target_alpha > 2.0 * np.sqrt(k) + 1e-12:
        raise UnreachableAlphaError(
            f"alpha {target_alpha} exceeds the box maximum {2.0 * np.sqrt(k):g}"
        )
    pairs = rng.uniform(-1.0, 1.0, size=(k, 2))
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    gap = hi - lo
    alpha = float(np.linalg.norm(gap))
    if target_alpha <= alpha:
        # Radial shrink; exact and clip-free since the box contracts.
        scale = target_alpha / alpha if alpha > 0.0 else 0.0
        lo = scale * lo
        hi = scale * hi
    else:
        # Interpolate toward the full box: bounds (1-t) lo - t, (1-t) hi + t
        # give gap norm^2 quadratic in t; take its root in [0, 1].
        grow = 2.0 - gap
        quad = float(grow @ grow)
        lin = float(gap @ grow)
        const = alpha * alpha - target_alpha * target_alpha
        t = (-lin + np.sqrt(lin * lin - quad * const)) / quad
        t = min(t, 1.0)
        lo = (1.0 - t) * lo - t
        hi = (1.0 - t) * hi + t
    phi_min = np.zeros(l)
    phi_max = np.zeros(l)
    phi_min[list(support)] = lo
    phi_max[list(support)] = hi
    return phi_min, phi_max


def sample_bounds(seed, trial, support, target_alpha, l):
    """Bound box for one trial; pure function of (seed, trial)."""
    return _sample_bounds_from(trial_rng(seed, trial), support, target_alpha, l)


def _run_trials(ev, seed, trials, batches):
    """Greedy trials 0..trials-1 of each (k, alpha) batch, in batch order.

    Each trial draws its k-subset from the (seed, trial) substream (skipped
    at k = l, where the draw goes through :func:`sample_bounds`) and then
    its box, into one row of the batch's (trials, l) bound arrays.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    l = ev.model.l
    full = tuple(range(l))
    kl_opt, mi_opt = ev.baseline()
    records = []
    for k, alpha in batches:
        lows = np.empty((trials, l))
        highs = np.empty((trials, l))
        for trial in range(trials):
            if k == l:
                lows[trial], highs[trial] = sample_bounds(seed, trial, full, alpha, l)
            else:
                rng = trial_rng(seed, trial)
                support = np.sort(rng.choice(l, size=k, replace=False))
                lows[trial], highs[trial] = _sample_bounds_from(rng, support, alpha, l)
        phis = ev.greedy(lows, highs)
        kls, mis = np.concatenate([ev.metrics(phis[s:s + _METRICS_STACK])
                                   for s in range(0, trials, _METRICS_STACK)], axis=1)
        for trial, (phi, kl, mi) in enumerate(zip(phis, kls, mis)):
            records.append(TrialRecord(
                trial_id=trial,
                alpha=float(np.linalg.norm(highs[trial] - lows[trial])),
                k=k,
                kl=float(kl),
                mi=float(mi),
                kl_opt=kl_opt,
                mi_opt=mi_opt,
                regime=classify_delta(delta_from_state_cov(ev.W, phi)),
                phi_star_digest=vertex_digest(phi),
            ))
    return records


def alpha_montecarlo(model, stats, alphas, trials, seed):
    """Greedy degradation trials on the full support per alpha budget.

    The trial loop at k = l, once per budget; records sorted by (alpha,
    trial_id).  Budgets share the (seed, trial) base draws and differ only
    in the rescaling.
    """
    return _run_trials(ObjectiveEvaluator(model, stats), seed, trials,
                       [(model.l, alpha) for alpha in sorted(alphas)])


def k_sweep(model, stats, ks, trials, seed, target_alpha=1.0):
    """Greedy degradation trials on random k-subsets at a fixed alpha.

    The subset and its bounds are drawn from the single (seed, trial)
    substream, subset first; k = l skips the subset draw entirely so the
    full-support sweep reproduces :func:`alpha_montecarlo` trials.  Records
    sorted by (k, trial_id).
    """
    for k in sorted(ks):
        if not 1 <= k <= model.l:
            raise ValidationError(f"k={k} outside 1..{model.l}")
    return _run_trials(ObjectiveEvaluator(model, stats), seed, trials,
                       [(k, target_alpha) for k in sorted(ks)])


def write_beta_csv(rows, fh):
    fh.write("beta,kl_nats,mi_nats,regime\n")
    for r in rows:
        fh.write(f"{fmt17(r.beta)},{fmt17(r.kl)},{fmt17(r.mi)},{r.regime.value}\n")


def write_alpha_csv(records, fh):
    # The oracle_gap column is kept, always empty: no driver records a gap.
    fh.write("alpha,trial,kl_nats,mi_nats,kl_opt_nats,mi_opt_nats,regime,oracle_gap\n")
    for r in records:
        fh.write(
            f"{fmt17(r.alpha)},{r.trial_id},{fmt17(r.kl)},{fmt17(r.mi)},"
            f"{fmt17(r.kl_opt)},{fmt17(r.mi_opt)},{r.regime.value},\n"
        )


def write_k_csv(records, fh):
    fh.write("k,trial,alpha,kl_nats,mi_nats,kl_opt_nats,mi_opt_nats\n")
    for r in records:
        fh.write(
            f"{r.k},{r.trial_id},{fmt17(r.alpha)},{fmt17(r.kl)},{fmt17(r.mi)},"
            f"{fmt17(r.kl_opt)},{fmt17(r.mi_opt)}\n"
        )
