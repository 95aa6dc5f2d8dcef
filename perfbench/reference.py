"""Independent reference model that the benchmark checks program outputs against.

Nothing here imports the package under test.  The case file is parsed with a
small reader of its own, and the detectability objective, KL divergence and
mutual information are evaluated on the n x n reduced route:

    f(phi) = tr M - log|I + M|,   M = C^T G C,   C = diag((1 + phi) b) A L,

with G = J^T (sigma2 I + H Sigma H^T)^-1 J and Sigma = L L^T.  Its nonzero
spectrum equals that of S^1/2 T S^1/2 (Sylvester), so it must agree with the
program's l x l and m x m routes to roundoff, while sharing none of their
arithmetic.  Log-determinants come from batched Cholesky factors.  Greedy
runs all trials in lockstep so one batched factorisation scores a whole
coordinate step.
"""

import re
from functools import cached_property

import numpy as np

# Agreement demanded between program and reference: relative, with a floor
# of one nat so that values near zero are compared absolutely.  Loose enough
# for any re-association of floating-point sums, tight enough that a changed
# vertex or a wrong formula fails.
RTOL = 1e-8
# Loewner-sign tolerance of the regime labels, relative to the largest
# eigenvalue magnitude (the definition the regime vocabulary is built on).
REGIME_TOL = 1e-9

PSD = "LESS_STEALTHY_MORE_DESTRUCTIVE"
NSD = "MORE_STEALTHY_LESS_DESTRUCTIVE"
BOUNDARY = "BOUNDARY"
INDEFINITE = "INDEFINITE"


def close(a, b):
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _block(text, name):
    match = re.search(r"mpc\.%s\s*=\s*\[(.*?)\]" % name, text, re.S)
    if match is None:
        raise ValueError(f"case has no mpc.{name} block")
    rows = []
    for row in match.group(1).split(";"):
        tokens = row.split()
        if tokens:
            rows.append([float(t) for t in tokens])
    return rows


class Grid:
    """DC measurement model of a case file: A (l x n), b, J (m x l), H (m x n)."""

    def __init__(self, text):
        text = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
        buses = _block(text, "bus")
        ids = [int(r[0]) for r in buses]
        slack = [int(r[0]) for r in buses if int(r[1]) == 3]
        ref = slack[0] if slack else ids[0]
        cols = {bus: i for i, bus in enumerate(b for b in ids if b != ref)}
        branches = [r for r in _block(text, "branch") if r[10] != 0]
        self.n, self.l = len(cols), len(branches)
        self.m = self.n + 2 * self.l
        self.A = np.zeros((self.l, self.n))
        for k, row in enumerate(branches):
            f, t = int(row[0]), int(row[1])
            if f in cols:
                self.A[k, cols[f]] = 1.0
            if t in cols:
                self.A[k, cols[t]] = -1.0
        self.b = 1.0 / np.array([row[3] for row in branches])
        self.J = np.vstack([self.A.T, np.eye(self.l), -np.eye(self.l)])
        self.H = self.J @ (self.b[:, None] * self.A)


def _logdet_spd(mats):
    """log-determinants of a stack of SPD matrices via Cholesky."""
    chol = np.linalg.cholesky(mats)
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


class Scenario:
    """Toeplitz state covariance rho^|i-j| and noise set by an SNR in dB."""

    def __init__(self, grid, rho, snr_db):
        self.grid = grid
        n, m = grid.n, grid.m
        idx = np.arange(n)
        sigma = rho ** np.abs(idx[:, None] - idx[None, :])
        L = np.linalg.cholesky(sigma)
        self.B = grid.A @ L                       # l x n, W = B B^T
        self.K0 = grid.H @ L                      # m x n, H Sigma H^T = K0 K0^T
        self.X = self.K0.T @ self.K0              # n x n
        self.sigma2 = float(np.trace(self.X)) / (m * 10.0 ** (snr_db / 10.0))
        self.W = self.B @ self.B.T

    @cached_property
    def G(self):
        """J^T (sigma2 I + K0 K0^T)^-1 J, built on first use (m x m solve)."""
        yy = self.sigma2 * np.eye(self.grid.m) + self.K0 @ self.K0.T
        G = self.grid.J.T @ np.linalg.solve(yy, self.grid.J)
        return (G + G.T) / 2.0

    @cached_property
    def spectrum(self):
        """Eigenvalues mu of X = K0^T K0, the nonzero spectrum of H Sigma H^T."""
        return np.clip(np.linalg.eigvalsh(self.X), 0.0, None)

    def _scaled(self, phis):
        return ((1.0 + phis) * self.grid.b)[..., :, None] * self.B

    def objective(self, phis):
        """f(phi) = 2 KL for a stack of ratio vectors (..., l)."""
        C = self._scaled(np.asarray(phis, dtype=float))
        M = np.swapaxes(C, -1, -2) @ (self.G @ C)
        eye = np.eye(M.shape[-1])
        return np.trace(M, axis1=-2, axis2=-1) - _logdet_spd(eye + M)

    def mutual_information(self, phis):
        """mi = 1/2 (log|I + P^T P / s2| - log|I + K^T K / s2|), P = [K, K0]."""
        C = self._scaled(np.asarray(phis, dtype=float))
        JtJ = self.grid.J.T @ self.grid.J
        Ct = np.swapaxes(C, -1, -2)
        KtK = Ct @ (JtJ @ C)
        KtK0 = Ct @ (self.grid.J.T @ self.K0)
        top = np.concatenate([KtK, KtK0], axis=-1)
        X = np.broadcast_to(self.X, KtK.shape)
        bottom = np.concatenate([np.swapaxes(KtK0, -1, -2), X], axis=-1)
        PtP = np.concatenate([top, bottom], axis=-2)
        n = KtK.shape[-1]
        s2 = self.sigma2
        return 0.5 * (_logdet_spd(np.eye(2 * n) + PtP / s2)
                      - _logdet_spd(np.eye(n) + KtK / s2))

    def regimes(self, phis):
        """Loewner sign of delta = ((1+phi)(1+phi)^T - 1 1^T) o W, per row."""
        phis = np.asarray(phis, dtype=float)
        g = 1.0 + phis
        delta = (g[:, :, None] * g[:, None, :] - 1.0) * self.W
        w = np.linalg.eigvalsh(delta)
        labels = []
        for row in w:
            tol = REGIME_TOL * max(1.0, float(np.abs(row).max()))
            psd, nsd = row[0] >= -tol, row[-1] <= tol
            labels.append(BOUNDARY if psd and nsd else PSD if psd
                          else NSD if nsd else INDEFINITE)
        return labels

    def uniform_sweep(self, betas):
        """(kl, mi) of phi = beta * ones in closed form from the spectrum of X.

        With T = (1+beta)^2 H Sigma H^T, the eigenvalues of S^1/2 T S^1/2
        are c mu / (sigma2 + mu), c = (1+beta)^2, mu the spectrum of X.
        """
        mu = self.spectrum
        s2 = self.sigma2
        c = (1.0 + np.asarray(betas, dtype=float))[:, None] ** 2
        lam = c * mu / (s2 + mu)
        kl = 0.5 * (lam - np.log1p(lam)).sum(axis=1)
        mi = 0.5 * (np.log1p((c + 1.0) * mu / s2) - np.log1p(c * mu / s2)).sum(axis=1)
        return kl, mi


def uniform_regime(beta):
    """Sign of 2 beta + beta^2, the scale of delta for a uniform ratio."""
    c = 2.0 * beta + beta * beta
    return BOUNDARY if c == 0.0 else PSD if c > 0.0 else NSD


def greedy(scn, lows, highs):
    """Lockstep greedy over trials: one bound per coordinate, ties go low.

    ``lows``/``highs`` are (trials, l); undecided coordinates sit at zero.
    Returns (phi_star, choose_high) with choose_high a boolean (trials, l).
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    trials, l = lows.shape
    phi = np.zeros((trials, l))
    high = np.zeros((trials, l), dtype=bool)
    for i in range(l):
        free = lows[:, i] != highs[:, i]
        phi[~free, i] = lows[~free, i]
        if not free.any():
            continue
        cand = np.repeat(phi[free][:, None, :], 2, axis=1)
        cand[:, 0, i] = lows[free, i]
        cand[:, 1, i] = highs[free, i]
        f = scn.objective(cand)
        pick_high = f[:, 0] < f[:, 1]
        phi[free, i] = np.where(pick_high, highs[free, i], lows[free, i])
        high[free, i] = pick_high
    return phi, high


def exhaustive_best(scn, low, high):
    """Largest objective over the 2^k vertices of one bound box."""
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    k = low.shape[0]
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1
    vertices = np.where(bits == 1, high, low)
    return float(scn.objective(vertices).max())
