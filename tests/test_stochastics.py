import dataclasses

import mpmath
import numpy as np
import pytest

from stealthdeg import (
    IncompletenessSpec,
    ObjectiveEvaluator,
    SingularityError,
    ValidationError,
    alpha_montecarlo,
    beta_sweep,
    build_model,
    build_scenario,
    classify_delta,
    k_sweep,
    load_case,
    maximize_with_oracle,
    noise_variance,
    sample_bounds,
    toeplitz_cov,
)
import oracles
from oracles import (
    cov_signal,
    delta_matrix,
    sigma_yy,
    sigma_yy_inv,
    snr_from_variance,
    unfolded_G,
)


def test_toeplitz_rho_zero_is_identity():
    assert np.array_equal(toeplitz_cov(3, 0.0), np.eye(3))


def test_toeplitz_half():
    expected = [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]
    assert np.array_equal(toeplitz_cov(3, 0.5), expected)


def test_toeplitz_large_is_pd():
    cov = toeplitz_cov(50, 0.9)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov)[0] > 0


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.99])
def test_toeplitz_pd_sweep(rho):
    assert np.linalg.eigvalsh(toeplitz_cov(300, rho))[0] > 0


@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_toeplitz_domain(rho):
    with pytest.raises(ValidationError):
        toeplitz_cov(4, rho)


def test_noise_variance_values():
    cov = np.diag([1.0, 2.0, 3.0])
    assert noise_variance(np.trace(cov), 3, 0.0) == pytest.approx(2.0)
    cov = np.eye(100) * 10.0
    assert noise_variance(np.trace(cov), 100, 30.0) == pytest.approx(0.01)


def test_noise_variance_domain():
    with pytest.raises(SingularityError):
        noise_variance(np.trace(np.zeros((2, 2))), 2, 10.0)


def test_snr_round_trip():
    cov = np.diag([4.0, 1.0, 7.0])
    for snr in (-100.0, 0.0, 12.5, 30.0):
        sigma2 = noise_variance(np.trace(cov), 3, snr)
        assert snr_from_variance(cov, 3, sigma2) == pytest.approx(snr, abs=1e-12)


def test_build_scenario_invariants(ring_model):
    stats = build_scenario(ring_model, 0.5, 10.0)
    m = ring_model.m
    assert stats.sigma2 > 0
    yy, signal = sigma_yy(ring_model, stats), cov_signal(ring_model, stats)
    assert np.array_equal(yy, yy.T)
    # sigma_yy is cov_signal + sigma2 I by construction.
    assert np.array_equal(
        yy, (signal + stats.sigma2 * np.eye(m)
             + (signal + stats.sigma2 * np.eye(m)).T) / 2
    )
    residual = np.linalg.norm(sigma_yy_inv(ring_model, stats) @ yy - np.eye(m))
    assert residual <= 1e-10 * m
    eigs = np.linalg.eigvalsh(signal)
    assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])


@pytest.mark.parametrize("fixture", ["case9_stats", "case14_stats", "case30_stats"])
def test_scenario_inverse_residual(fixture, request):
    stats = request.getfixturevalue(fixture)
    model = request.getfixturevalue(fixture.replace("_stats", "_model"))
    m = model.m
    residual = np.linalg.norm(sigma_yy_inv(model, stats) @ sigma_yy(model, stats) - np.eye(m))
    assert residual <= 1e-10 * m


def test_high_noise_limit(ring_model):
    stats = build_scenario(ring_model, 0.5, -100.0)
    approx = np.eye(ring_model.m) / stats.sigma2
    rel = np.linalg.norm(sigma_yy_inv(ring_model, stats) - approx) / np.linalg.norm(approx)
    assert rel < 0.01


def test_snr_inversion_matches_build(case9_model, case9_stats):
    recovered = snr_from_variance(
        cov_signal(case9_model, case9_stats), case9_model.m, case9_stats.sigma2
    )
    assert recovered == pytest.approx(30.0, abs=1e-12)


@pytest.mark.parametrize("case", ["case9", "case14", "case30"])
def test_sigma_yy_inverse(case, request):
    # case30 (m = 111) exercises the block recursion of the triangular inverse.
    stats = request.getfixturevalue(f"{case}_stats")
    model = request.getfixturevalue(f"{case}_model")
    inv, yy = sigma_yy_inv(model, stats), sigma_yy(model, stats)
    eye = np.eye(model.m)
    assert np.array_equal(inv, inv.T)
    assert np.abs(inv @ yy - eye).max() <= 1e-9


def test_noise_below_roundoff_is_singular(case9_model):
    # sigma2 vanishes next to the rank-n signal covariance (m > n).
    with pytest.raises(SingularityError):
        build_scenario(case9_model, 0.5, 300.0)


@pytest.mark.parametrize("snr_db", [3100.0, -3100.0, -3300.0, 1e300, -1e300])
def test_extreme_snr_is_a_validation_error(snr_db, case9_model):
    # The SNR factor overflows, is subnormal or underflows to zero.
    cov = np.diag([4.0, 1.0, 7.0])
    with pytest.raises(ValidationError):
        noise_variance(np.trace(cov), 3, snr_db)
    with pytest.raises(ValidationError):
        build_scenario(case9_model, 0.5, snr_db)


def test_noise_variance_subnormal_is_a_validation_error():
    # A normal SNR factor can still give a subnormal or infinite variance.
    with pytest.raises(ValidationError):
        noise_variance(2e-300, 2, 100.0)
    with pytest.raises(ValidationError):
        noise_variance(2e300, 2, -100.0)


@pytest.mark.parametrize("case", ["case9", "case14", "case30"])
def test_singularity_threshold(case, request):
    # sigma2 <= eps ||R||_2^2 starts between 141 and 147 dB on these cases.
    model = request.getfixturevalue(f"{case}_model")
    stats = build_scenario(model, 0.5, 140.0)
    assert np.isfinite(ObjectiveEvaluator(model, stats).G).all()
    with pytest.raises(SingularityError):
        build_scenario(model, 0.5, 147.0)


def _mp_matrix(arr):
    return mpmath.matrix(np.asarray(arr, dtype=float).tolist())


@pytest.mark.parametrize("snr_db", [0.0, 30.0, 70.0, 90.0])
def test_G_and_objective_match_mpmath(snr_db, case9_model):
    # 60-digit oracle of G = J^T (H sigma_xx H^T + sigma2 I)^-1 J and of
    # f(phi) = tr M - log|I + M|, M = C^T G C, C = diag((1 + phi) b) A L.
    # At 90 dB an m x m inverse of sigma_yy errs by about 1e-7 in G.
    model = case9_model
    stats = build_scenario(model, 0.5, snr_db)
    with mpmath.workdps(60):
        sigma_xx = _mp_matrix(stats.sigma_xx)
        H, J = _mp_matrix(oracles.H(model)), _mp_matrix(oracles.J(model))
        sigma_yy = H * sigma_xx * H.T + mpmath.mpf(stats.sigma2) * mpmath.eye(model.m)
        G = J.T * mpmath.inverse(sigma_yy) * J
        G_ref = np.array(G.tolist(), dtype=float)
        err = np.abs(ObjectiveEvaluator(model, stats).G - G_ref).max() / np.abs(G_ref).max()
        assert err <= 1e-14

        F = _mp_matrix(model.b[:, None] * model.A) * mpmath.cholesky(sigma_xx)
        ev = ObjectiveEvaluator(model, stats)
        rng = np.random.default_rng(6)
        for phi in rng.uniform(-1.0, 1.0, size=(3, model.l)):
            C = mpmath.diag(_mp_matrix(1.0 + phi)) * F
            M = C.T * G * C
            ref = (sum(M[i, i] for i in range(model.n))
                   - mpmath.log(mpmath.det(mpmath.eye(model.n) + M)))
            assert abs(ev.objective(phi) - float(ref)) <= 1e-13 * float(ref)


@pytest.mark.parametrize("snr_db, rtol", [(30.0, 1e-13), (70.0, 1e-9), (90.0, 1e-7)])
def test_mi_matches_mpmath(snr_db, rtol, case9_model):
    # 60-digit oracle of 2 mi = log|sigma2 I + P^T P| - log|sigma2 I + K_C^T K_C|
    # - n log sigma2, P = [J F, K_C], K_C = J C, on random, near-uniform and
    # zeroed-branch phi.
    # Factoring the 2n x 2n Gram I + P^T P / sigma2 in floats squares P's
    # condition number: on these phi it erred by 1.5e-13, 2.6e-9 and 8.6e-8
    # at 30, 70 and 90 dB.
    model = case9_model
    stats = build_scenario(model, 0.5, snr_db)
    rng = np.random.default_rng(6)
    zeroed = rng.uniform(-1.0, 1.0, model.l)
    zeroed[4] = -1.0
    phis = np.vstack([rng.uniform(-1.0, 1.0, (3, model.l)),
                      0.3 + 1e-6 * rng.uniform(-1.0, 1.0, model.l), zeroed])
    mi = ObjectiveEvaluator(model, stats).metrics(phis)[1]
    with mpmath.workdps(60):
        J = _mp_matrix(oracles.J(model))
        F = _mp_matrix(model.b[:, None] * model.A) * mpmath.cholesky(_mp_matrix(stats.sigma_xx))
        JF, sigma2 = J * F, mpmath.mpf(stats.sigma2)
        for got, phi in zip(mi, phis):
            KC = J * (mpmath.diag(_mp_matrix(1.0 + phi)) * F)
            P = mpmath.matrix(KC.rows, 2 * model.n)
            for i in range(KC.rows):
                for j in range(model.n):
                    P[i, j], P[i, model.n + j] = JF[i, j], KC[i, j]
            ref = float((mpmath.log(mpmath.det(sigma2 * mpmath.eye(2 * model.n) + P.T * P))
                         - mpmath.log(mpmath.det(sigma2 * mpmath.eye(model.n) + KC.T * KC))
                         - model.n * mpmath.log(sigma2)) / 2)
            assert abs(got - ref) <= rtol * ref, phi


def _mp_G_and_F(model, stats):
    """60-digit G = J^T sigma_yy^-1 J from the m x m covariance, and
    F = diag(b) A L; call inside ``mpmath.workdps(60)``."""
    sigma_xx = _mp_matrix(stats.sigma_xx)
    H, J = _mp_matrix(oracles.H(model)), _mp_matrix(oracles.J(model))
    sigma_yy = H * sigma_xx * H.T + mpmath.mpf(stats.sigma2) * mpmath.eye(model.m)
    F = _mp_matrix(model.b[:, None] * model.A) * mpmath.cholesky(sigma_xx)
    return J.T * mpmath.inverse(sigma_yy) * J, F


@pytest.fixture(scope="module")
def stiff_case9_model():
    """case9 with branch 4's reactance x0.01 and branch 7's x100: the
    folded K = J F has a condition number of about 1.7e4."""
    case = load_case("case9")
    branches = list(case.branches)
    for k, scale in ((3, 0.01), (6, 100.0)):
        branches[k] = dataclasses.replace(
            branches[k], reactance_x=branches[k].reactance_x * scale)
    return build_model(dataclasses.replace(case, branches=tuple(branches)))


@pytest.mark.parametrize("snr_db", [30.0, 90.0])
def test_G_matches_mpmath_on_ill_conditioned_fold(snr_db, stiff_case9_model):
    # An orthogonal projector keeps G at 1.7e-13 here; forming its
    # range part from R by a triangular solve errs by about 1e-11.
    model = stiff_case9_model
    stats = build_scenario(model, 0.5, snr_db)
    assert np.linalg.cond(oracles.J(model) @ stats.F) > 1e4
    with mpmath.workdps(60):
        G, _ = _mp_G_and_F(model, stats)
        G_ref = np.array(G.tolist(), dtype=float)
    assert np.abs(ObjectiveEvaluator(model, stats).G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()


def test_near_uniform_objective_matches_mpmath(case9_model):
    # Near phi = beta * ones, M = C^T G C nearly cancels the sigma2^-1-sized
    # part of G.  With G a Gram of projected columns the objective stays
    # within 1e-10; G = (J^T J - V^T V) / sigma2 loses it to 4e-9.
    model = case9_model
    stats = build_scenario(model, 0.5, 70.0)
    ev = ObjectiveEvaluator(model, stats)
    u = np.random.default_rng(0).uniform(-1.0, 1.0, model.l)
    with mpmath.workdps(60):
        G, F = _mp_G_and_F(model, stats)
        for beta in (-0.5, 0.3):
            for eps in (1e-6, 1e-4, 1e-2):
                phi = beta + eps * u
                C = mpmath.diag(_mp_matrix(1.0 + phi)) * F
                M = C.T * G * C
                ref = float(sum(M[i, i] for i in range(model.n))
                            - mpmath.log(mpmath.det(mpmath.eye(model.n) + M)))
                assert abs(ev.objective(phi) - ref) <= 1e-9 * ref, (beta, eps)


def _mp_uniform_metrics(model, stats, betas):
    """50-digit (kl, mi) of phi = beta * ones, without an eigendecomposition.

    With K = J F the attack covariance is T = s K K^T, s = (1 + beta)^2, and
    Sylvester's identity turns the m x m definitions into n x n
    determinants d(c) = |sigma2 I + c K^T K|:
    2 kl = s tr(K^T K (sigma2 I + K^T K)^-1) - log(d(1 + s) / d(1)),
    2 mi = log(d(1 + s) / d(s)).
    """
    with mpmath.workdps(50):
        F = _mp_matrix(model.b[:, None] * model.A) * mpmath.cholesky(_mp_matrix(stats.sigma_xx))
        K = _mp_matrix(oracles.J(model)) * F
        gram = K.T * K
        noise = mpmath.mpf(stats.sigma2) * mpmath.eye(model.n)

        def logdet(c):
            return mpmath.log(mpmath.det(noise + c * gram))

        ratio = gram * mpmath.inverse(noise + gram)
        trace = sum(ratio[i, i] for i in range(model.n))
        out = []
        for beta in betas:
            s = (1 + mpmath.mpf(beta)) ** 2
            kl = (s * trace - logdet(1 + s) + logdet(1)) / 2
            mi = (logdet(1 + s) - logdet(s)) / 2
            out.append((float(kl), float(mi)))
        return out


_MIXED_BETAS = [0.4, -0.7, -2.5]
# kl ~ s^2 as s = (1 + beta)^2 -> 0, where the Cholesky route errs by 2e-4
# at beta = -1 + 1e-6; the series branch of x - log1p(x) must not.
_NEAR_CANCELLATION_BETAS = [-1.0 + sign * 10.0 ** -k for k in range(2, 9) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("snr_db, betas", [
    (30.0, _MIXED_BETAS), (70.0, _MIXED_BETAS), (90.0, _MIXED_BETAS),
    (30.0, _NEAR_CANCELLATION_BETAS), (90.0, _NEAR_CANCELLATION_BETAS),
], ids=["30dB", "70dB", "90dB", "30dB-near-minus-one", "90dB-near-minus-one"])
def test_beta_sweep_matches_mpmath(snr_db, betas, case9_model):
    # The closed form reads the signal spectrum, so the high-SNR
    # cancellation of M = F^T G F (1e-10 at 70 dB) does not reach it.
    stats = build_scenario(case9_model, 0.5, snr_db)
    for row, (kl, mi) in zip(beta_sweep(case9_model, stats, betas),
                             _mp_uniform_metrics(case9_model, stats, betas)):
        assert abs(row.kl - kl) <= 1e-14 * kl
        assert abs(row.mi - mi) <= 1e-14 * mi


def test_library_paths_never_build_m_by_m(case30_model):
    model = case30_model
    stats = build_scenario(model, 0.5, 30.0)
    ev = ObjectiveEvaluator(model, stats)
    ev.metrics(IncompletenessSpec.uniform(model.l, 0.3).phi)
    ev.baseline()
    beta_sweep(model, stats, [-0.5, 0.0, 0.5])
    alpha_montecarlo(model, stats, [0.5, 1.0], 4, 0)
    k_sweep(model, stats, [3, model.l], 4, 0)
    support = tuple(range(6))
    lo, hi = sample_bounds(0, 0, support, 1.0, model.l)
    greedy, exact = maximize_with_oracle(
        ObjectiveEvaluator(model, stats), IncompletenessSpec.from_bounds(support, lo, hi))
    for phi in (greedy.phi_star, exact.phi_star):
        classify_delta(delta_matrix(model, stats.sigma_xx, IncompletenessSpec.from_phi(phi)))
    assert not {"cov_signal", "sigma_yy", "sigma_yy_inv"} & set(vars(stats))


@pytest.mark.parametrize("snr_db", [0.0, 30.0, 90.0])
@pytest.mark.parametrize("fixture", ["case9_model", "case14_model", "case30_model",
                                     "ring200_model"])
def test_folded_G_matches_unfolded_split(fixture, snr_db, request):
    # Rotating each (flow, reverse flow) row pair by 45 degrees is an
    # orthogonal change of measurement basis, so folding J changes G only
    # by roundoff.
    model = request.getfixturevalue(fixture)
    stats = build_scenario(model, 0.5, snr_db)
    ref = unfolded_G(model, stats)
    assert np.abs(ObjectiveEvaluator(model, stats).G - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["case9", "case14"])
def test_signal_eigs_match_mpmath(case, request):
    # 50-digit eigenvalues of (J F)^T (J F), built from the unfolded J.
    model = request.getfixturevalue(f"{case}_model")
    stats = request.getfixturevalue(f"{case}_stats")
    with mpmath.workdps(50):
        F = _mp_matrix(model.b[:, None] * model.A) * mpmath.cholesky(_mp_matrix(stats.sigma_xx))
        K = _mp_matrix(oracles.J(model)) * F
        ref = np.sort([float(x) for x in mpmath.eigsy(K.T * K, eigvals_only=True)])
    # A backward-stable symmetric eigensolver errs by O(n eps ||K^T K||).
    err = np.abs(stats.signal_eigs - ref).max()
    assert err <= model.n * np.finfo(float).eps * ref[-1]


@pytest.mark.parametrize("snr_db", [30.0, 70.0, 90.0])
def test_baseline_matches_mpmath(snr_db, case9_model):
    # phi = 0 is beta = 0 of the uniform family.  Through M = F^T G F the
    # objective at zero cancelled down to 1e-8 relative at 90 dB.
    stats = build_scenario(case9_model, 0.5, snr_db)
    ev = ObjectiveEvaluator(case9_model, stats)
    (kl, mi), = _mp_uniform_metrics(case9_model, stats, [0.0])
    kl_opt, mi_opt = ev.baseline()
    assert abs(kl_opt - kl) <= 1e-14 * kl
    assert abs(mi_opt - mi) <= 1e-14 * mi
    assert abs(2.0 * ev.baseline()[0] - 2.0 * kl) <= 2e-14 * kl


def test_library_paths_need_neither_J_nor_H(case30_model, no_jacobian):
    full = case30_model
    bare = build_model(load_case("case30"))
    stats, full_stats = build_scenario(bare, 0.5, 30.0), build_scenario(full, 0.5, 30.0)
    betas = [-2.5, -1.0, 0.0, 0.4]
    assert beta_sweep(bare, stats, betas) == beta_sweep(full, full_stats, betas)
    ev, full_ev = ObjectiveEvaluator(bare, stats), ObjectiveEvaluator(full, full_stats)
    support = tuple(range(full.l))
    boxes = [sample_bounds(0, trial, support, 1.0, full.l) for trial in range(3)]
    lows, highs = (np.array(side) for side in zip(*boxes))
    phis = ev.greedy(lows, highs)
    assert np.array_equal(phis, full_ev.greedy(lows, highs))
    assert np.array_equal(ev.objective(phis), full_ev.objective(phis))
    for got, expected in zip(ev.metrics(phis), full_ev.metrics(phis)):
        assert np.array_equal(got, expected)
    assert ev.baseline() == full_ev.baseline()


def test_sweep_path_runs_no_qr(case30_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the uniform sweep must not run a QR")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    stats = build_scenario(case30_model, 0.5, 30.0)
    rows = beta_sweep(case30_model, stats, [-2.5, -1.0, 0.0, 0.4])
    assert all(np.isfinite([r.kl, r.mi]).all() for r in rows)
    assert "G" not in vars(stats)
