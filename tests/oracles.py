"""Reference routes the tests check the library against.

The library computes the objective, KL and MI on one reduced n x n core
(:class:`stealthdeg.ObjectiveEvaluator`) built from the scenario's F and G,
and holds no m-row matrix.  The routes here compute the same quantities
another way, on the stacking matrix J, the Jacobian H and the m x m
measurement covariances of a scenario, or through the delta perturbation,
so the paper's identities can be checked between them.  ``vertex_digest``
hashes a chosen vertex, for comparing vertices across runs,
``write_spec_csv`` writes the spec files the CLI reads, and
``scan_blocks_reference`` is the earlier case-file scanner.  Nothing in the
package imports this module.

For a zero-mean attack with covariance T against measurements with
covariance sigma_yy and precision S = sigma_yy^-1:

    kl = 1/2 ( -log|I + S^1/2 T S^1/2| + tr(S^1/2 T S^1/2) ),
    mi = 1/2 log|I + U^1/2 (sigma2 I + T)^-1 U^1/2|,   U = H sigma_xx H^T.

``kl_divergence`` and ``mutual_information`` accept any PSD attack
covariance and take log-determinants from eigenvalues of the symmetrized
m x m inner matrices.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from stealthdeg import (
    CaseSyntaxError,
    ObjectiveEvaluator,
    SingularityError,
    StealthdegError,
    definiteness_conditions,
    jacobian,
)
from stealthdeg.attack_engine import delta_from_state_cov, state_edge_cov

# Negative eigenvalues above the error threshold are treated as roundoff and
# clamped; below it the matrix is genuinely indefinite and surfaced.
PSD_ERROR_SCALE = 1e-6


class NotPSDError(StealthdegError):
    """Matrix expected to be positive semidefinite is genuinely indefinite."""


# -- the m-row matrices of a model and a scenario -----------------------------

def J(model):
    """Stacking matrix J = [A; I; -I]^T, (n + 2l) x l."""
    eye = np.eye(model.l)
    return np.vstack([model.A.T, eye, -eye])


def H(model):
    """The m x n Jacobian J diag(b) A, as ``dump-model`` writes it."""
    return jacobian(model.A, model.b)


def cov_signal(model, stats):
    """H sigma_xx H^T: the noiseless measurement covariance, which is also
    the optimal attack covariance."""
    h = H(model)
    cov = h @ stats.sigma_xx @ h.T
    return (cov + cov.T) / 2.0


def sigma_yy(model, stats):
    """Measurement covariance cov_signal + sigma2 I."""
    cov = cov_signal(model, stats) + stats.sigma2 * np.eye(model.m)
    return (cov + cov.T) / 2.0


def sigma_yy_inv(model, stats):
    """Measurement precision sigma_yy^-1, symmetrized."""
    inv = np.linalg.inv(sigma_yy(model, stats))
    return (inv + inv.T) / 2.0


def snr_from_variance(cov, m, sigma2):
    """Inverse of :func:`stealthdeg.noise_variance`: the SNR in dB of a
    noise level against an m x m signal covariance."""
    trace = float(np.trace(cov))
    if trace <= 0.0 or sigma2 <= 0.0:
        raise SingularityError("trace and sigma2 must be positive")
    return 10.0 * np.log10(trace / (m * sigma2))


# -- m x m KL and MI ----------------------------------------------------------

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
        raise SingularityError(f"sigma2 must be positive, got {sigma2}")
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


def integrity_cost(cov_attack, model, stats):
    """Attacker's objective: information leakage plus detectability.

    Convex in the attack covariance with minimum at cov_signal, the optimal
    complete-information attack.
    """
    return (
        mutual_information(cov_signal(model, stats), cov_attack, stats.sigma2)
        + kl_divergence(sigma_yy_inv(model, stats), cov_attack)
    )


# -- the unfolded scenario ---------------------------------------------------

def unfolded_G(model, stats):
    """G = J^T sigma_yy^-1 J through the QR split of the m-row J F.

    The same split as :attr:`stealthdeg.ObjectiveEvaluator.G` without the fold:
    with J F = Q R and J_perp = J - Q Q^T J,
    G = J_perp^T J_perp / sigma2 + (Q^T J)^T (R R^T + sigma2 I)^-1 (Q^T J).
    """
    stack = J(model)
    Q, R = np.linalg.qr(stack @ stats.F)
    QtJ = Q.T @ stack
    J_perp = stack - Q @ QtJ
    Y = np.linalg.solve(np.linalg.cholesky(R @ R.T + stats.sigma2 * np.eye(model.n)), QtJ)
    return J_perp.T @ J_perp / stats.sigma2 + Y.T @ Y


# -- the delta route ----------------------------------------------------------

def perturbed_admittance(b, spec):
    """Believed susceptances: (1 + phi_i) b_i on support, b_i elsewhere."""
    return (1.0 + spec.phi) * np.asarray(b, dtype=float)


def delta_matrix(model, sigma_xx, spec):
    """Equivalent perturbation  Phi W + W Phi^T + Phi W Phi^T  of a spec."""
    return delta_from_state_cov(state_edge_cov(model, sigma_xx), spec.phi)


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


def perturbed_jacobian(model, spec):
    """Jacobian the attacker would assemble, J diag((1 + phi) b) A."""
    b_prime = perturbed_admittance(model.b, spec)
    return J(model) @ (b_prime[:, None] * model.A)


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
    JD = J(model) * model.b
    return JD @ (W + delta) @ JD.T


def attack_cov(ev, phi):
    """Attack covariance T(phi) of an evaluator's scenario through the delta
    route (m x m)."""
    W = state_edge_cov(ev.model, ev.stats.sigma_xx)
    jd = J(ev.model) * ev.model.b
    return jd @ (W + delta_from_state_cov(W, phi)) @ jd.T


def attack_covariances(model, stats, spec):
    """All attack-side matrices for one spec, bundled as artifacts."""
    b_prime = perturbed_admittance(model.b, spec)
    h_prime = J(model) @ (b_prime[:, None] * model.A)
    delta = delta_matrix(model, stats.sigma_xx, spec)
    cov_incomplete = h_prime @ stats.sigma_xx @ h_prime.T
    cov_incomplete = (cov_incomplete + cov_incomplete.T) / 2.0
    return AttackArtifacts(
        attacker_admittance=b_prime,
        attacker_jacobian=h_prime,
        delta=delta,
        cov_optimal=cov_signal(model, stats),
        cov_incomplete=cov_incomplete,
        cov_attacked_meas=sigma_yy(model, stats) + cov_incomplete,
        cov_via_delta=covariance_from_delta(model, stats.sigma_xx, delta),
    )


def equivalence_residual(artifacts, model):
    """Relative Frobenius residual of the delta-route identity.

    || cov_incomplete - cov_optimal - J diag(b) delta diag(b) J^T ||_F
    over max(1, ||cov_optimal||_F); approximately zero iff the admittance
    incompleteness is exactly equivalent to the delta perturbation.
    """
    JD = J(model) * model.b
    via_delta = artifacts.cov_optimal + JD @ artifacts.delta @ JD.T
    num = np.linalg.norm(artifacts.cov_incomplete - via_delta)
    return float(num / max(1.0, np.linalg.norm(artifacts.cov_optimal)))


# -- regime bounds ------------------------------------------------------------

def ratio_interaction_matrix(phi):
    """The rank-structured factor phi phi^T + phi 1^T + 1 phi^T."""
    phi = np.asarray(phi, dtype=float)
    ones = np.ones_like(phi)
    return np.outer(phi, phi) + np.outer(phi, ones) + np.outer(ones, phi)


def interaction_eig_bounds(phi):
    """Closed-form (upper-on-max, lower-on-min) eigenvalue bounds.

    The rank-2 part phi 1^T + 1 phi^T has eigenvalues
    phi^T 1 +- sqrt(phi^T phi * l); adding the rank-1 part phi phi^T (single
    nonzero eigenvalue phi^T phi >= 0) shifts only the upper bound.
    """
    conditions = definiteness_conditions(phi)
    return conditions.lhs_nsd, conditions.lhs_psd


# -- objective ----------------------------------------------------------------

def detectability_objective(model, stats, phi):
    """Objective value at one ratio vector (fresh, uncached evaluation)."""
    return ObjectiveEvaluator(model, stats).objective(np.asarray(phi, dtype=float))


def convexity_gap_on_segment(ev, phi_a, phi_b, steps=50):
    """Max violation of convexity sampled along a segment of ratio vectors.

    Returns max over theta of f(mix) - (theta f(a) + (1-theta) f(b)), f the
    objective of the evaluator ``ev``; a convex objective keeps this below
    numerical tolerance.
    """
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


# -- the branch graph ---------------------------------------------------------

def branch_blocks(model):
    """Block (biconnected component) label of every branch, (l,) ints.

    The endpoints come from the reduced incidence, a row with one nonzero
    ending at the reference bus.  Two branches share a block when a cycle
    runs through both, and the fundamental circuits of one spanning tree
    generate that relation, so a union-find over them gives the blocks; a
    bridge is a block of its own.  Labels count from 0 in branch order.
    """
    ref = model.n
    ends = []
    for row in model.A:
        buses = list(np.flatnonzero(row))
        ends.append((buses + [ref])[:2])
    adjacent = [[] for _ in range(model.n + 1)]
    for k, (u, v) in enumerate(ends):
        adjacent[u].append((v, k))
        adjacent[v].append((u, k))
    # Breadth-first spanning tree from the reference bus: bus -> (parent, branch).
    up, depth, order = {}, {ref: 0}, [ref]
    for bus in order:
        for other, k in adjacent[bus]:
            if other not in depth:
                up[other], depth[other] = (bus, k), depth[bus] + 1
                order.append(other)
    tree = {k for _, k in up.values()}
    root = list(range(model.l))

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for k, (u, v) in enumerate(ends):
        if k in tree:
            continue
        # Walk both ends up to their common ancestor: the circuit of k.
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, branch = up[u]
            root[find(branch)] = find(k)
    labels = {}
    return np.array([labels.setdefault(find(k), len(labels)) for k in range(model.l)])


# -- vertices -----------------------------------------------------------------

def vertex_digest(phi):
    """Stable short hash of a chosen vertex (its fmt17 cells, comma-joined)."""
    values = np.asarray(phi, dtype=float).tolist()
    payload = (",".join(["%.17g"] * len(values)) % tuple(values)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# -- case files ---------------------------------------------------------------

def write_spec_csv(spec, fh):
    """Write support rows as ``branch_index,phi,phi_min,phi_max`` (1-based)."""
    fh.write("branch_index,phi,phi_min,phi_max\n")
    for i in spec.support:
        fh.write("%d,%.17g,%.17g,%.17g\n"
                 % (i + 1, spec.phi[i], spec.phi_min[i], spec.phi_max[i]))


def scan_blocks_reference(text):
    """The line-by-line case scanner that ``case_ingest._scan_blocks``
    replaced, kept as its reference.

    Yields ('basemva', value, lineno) and, for the bus and branch blocks,
    (block, rows, lineno) with each row as (tokens, lineno); raises
    :class:`CaseSyntaxError` as the library scanner does.
    """
    def strip_comment(line):
        cut = line.find("%")
        return line if cut < 0 else line[:cut]

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = strip_comment(lines[i]).strip()
        i += 1
        if not line:
            continue
        if line.startswith("mpc.") and "=" in line:
            name = line[len("mpc."):line.index("=")].strip()
            rhs = line[line.index("=") + 1:].strip()
            if name == "baseMVA":
                value = rhs.rstrip(";").strip()
                try:
                    number = float(value)
                except ValueError:
                    raise CaseSyntaxError(
                        f"baseMVA is not a number: {value!r}", lineno
                    ) from None
                yield "basemva", number, lineno
                continue
            if rhs.startswith("["):
                # Matrix block, possibly spanning lines; ';' terminates a row.
                rows, tokens = [], []
                chunk, start = rhs[1:], lineno
                while True:
                    closed = "]" in chunk
                    body = chunk[:chunk.index("]")] if closed else chunk
                    pieces = body.split(";")
                    for piece in pieces[:-1]:
                        tokens.extend(piece.split())
                        if tokens:
                            rows.append((tokens, lineno))
                        tokens = []
                    tokens.extend(pieces[-1].split())
                    if closed:
                        if tokens:
                            rows.append((tokens, lineno))
                        break
                    if i >= len(lines):
                        raise CaseSyntaxError(
                            f"unterminated mpc.{name} block", start
                        )
                    lineno = i + 1
                    chunk = strip_comment(lines[i])
                    i += 1
                if name in ("bus", "branch"):
                    yield name, rows, start
