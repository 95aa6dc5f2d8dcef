import numpy as np
import pytest

from stealthdeg import (
    IncompletenessSpec,
    ObjectiveEvaluator,
)

from oracles import (
    NotPSDError,
    cov_signal,
    integrity_cost,
    kl_divergence,
    mutual_information,
    sigma_yy,
    sigma_yy_inv,
    sym_sqrt,
)


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * (g @ g.T) / n


class TestSymSqrt:
    def test_identity(self):
        assert np.array_equal(sym_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = random_psd(rng, 12, scale=rng.uniform(0.01, 100))
            root = sym_sqrt(w)
            assert np.array_equal(root, root.T)
            err = np.linalg.norm(root @ root - w) / max(1.0, np.linalg.norm(w))
            assert err <= 1e-8

    def test_roundoff_negatives_clamped(self):
        # Rank-deficient product carries tiny negative eigenvalues.
        rng = np.random.default_rng(1)
        g = rng.standard_normal((10, 3))
        root = sym_sqrt(g @ g.T)
        assert np.isfinite(root).all()

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            sym_sqrt(np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestKlDivergence:
    def test_zero_attack(self, case9_model, case9_stats):
        m = case9_model.m
        assert kl_divergence(sigma_yy_inv(case9_model, case9_stats), np.zeros((m, m))) == 0.0

    @pytest.mark.parametrize("s,t", [(0.5, 3.0), (2.0, 0.25), (10.0, 10.0)])
    def test_scalar_closed_form(self, s, t):
        got = kl_divergence(np.array([[s]]), np.array([[t]]))
        expected = 0.5 * (s * t - np.log1p(s * t))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_generic_gaussian_formula_oracle(self, case30_model, case30_stats):
        # Independent route: 1/2 ( tr(S  Sigma_att) - m - log det(S Sigma_att) )
        # with Sigma_att = sigma_yy + T evaluated by slogdet.
        m = case30_model.m
        t = cov_signal(case30_model, case30_stats)
        got = kl_divergence(sigma_yy_inv(case30_model, case30_stats), t)
        ratio = sigma_yy_inv(case30_model, case30_stats) @ (
            sigma_yy(case30_model, case30_stats) + t)
        sign, logdet = np.linalg.slogdet(ratio)
        assert sign > 0
        expected = 0.5 * (np.trace(ratio) - m - logdet)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_nondecreasing_in_attack_cov(self):
        # f(X) = -log|I+X| + tr(X) grows along PSD increments.
        rng = np.random.default_rng(2)
        s = random_psd(rng, 8) + np.eye(8)
        for _ in range(30):
            t = random_psd(rng, 8)
            bump = random_psd(rng, 8, scale=rng.uniform(0.01, 10))
            assert (
                kl_divergence(s, t + bump) >= kl_divergence(s, t) - 1e-10
            )

    def test_nonnegative_zero_only_at_zero(self):
        rng = np.random.default_rng(3)
        s = np.eye(6)
        for _ in range(50):
            t = random_psd(rng, 6, scale=rng.uniform(1e-3, 10))
            kl = kl_divergence(s, t)
            assert kl >= 0.0
            assert kl > 0.0  # nonzero PSD input

    def test_indefinite_attack_rejected(self):
        with pytest.raises(NotPSDError):
            kl_divergence(np.eye(2), np.diag([1.0, -1.0]))


class TestMutualInformation:
    def test_no_attack_closed_form(self, case9_model, case9_stats):
        m = case9_model.m
        got = mutual_information(
            cov_signal(case9_model, case9_stats), np.zeros((m, m)), case9_stats.sigma2
        )
        sign, logdet = np.linalg.slogdet(
            np.eye(m) + cov_signal(case9_model, case9_stats) / case9_stats.sigma2
        )
        assert got == pytest.approx(0.5 * logdet, rel=1e-10)

    def test_no_signal(self):
        assert mutual_information(np.zeros((3, 3)), np.eye(3), 0.5) == 0.0

    def test_monotone_decreasing_in_masking_noise(self, case9_model, case9_stats):
        m = case9_model.m
        values = [
            mutual_information(
                cov_signal(case9_model, case9_stats), (10.0 ** p) * np.eye(m), case9_stats.sigma2
            )
            for p in range(0, 7)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_shrinking_precision_shrinks_logdet(self):
        # log|I + M (X+E)^-1 M^T| <= log|I + M X^-1 M^T| for PD increments E.
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = 7
            m_mat = rng.standard_normal((n, n))
            x = random_psd(rng, n) + 0.1 * np.eye(n)
            e = random_psd(rng, n) + 0.1 * np.eye(n)
            def logdet_term(cov):
                sign, val = np.linalg.slogdet(
                    np.eye(n) + m_mat @ np.linalg.inv(cov) @ m_mat.T
                )
                return val
            assert logdet_term(x + e) <= logdet_term(x) + 1e-10


class TestIntegrityCost:
    def test_zero_attack_cost(self, case9_model, case9_stats):
        m = case9_model.m
        got = integrity_cost(np.zeros((m, m)), case9_model, case9_stats)
        expected = mutual_information(
            cov_signal(case9_model, case9_stats), np.zeros((m, m)), case9_stats.sigma2
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_finite_for_psd_inputs(self, case9_model, case9_stats):
        rng = np.random.default_rng(5)
        m = case9_model.m
        for _ in range(10):
            cost = integrity_cost(random_psd(rng, m, scale=100.0), case9_model, case9_stats)
            assert np.isfinite(cost)

    def test_local_optimality_probe(self, case9_model, case9_stats):
        # The complete-information covariance is a local minimum.
        rng = np.random.default_rng(6)
        u = cov_signal(case9_model, case9_stats)
        base = integrity_cost(u, case9_model, case9_stats)
        for _ in range(50):
            p = rng.standard_normal(u.shape)
            p = (p + p.T) / 2
            p /= np.abs(np.linalg.eigvalsh(p)).max()
            w, v = np.linalg.eigh(u + 1e-3 * p)
            candidate = (v * np.clip(w, 0.0, None)) @ v.T
            assert base <= integrity_cost(candidate, case9_model, case9_stats) + 1e-10


class TestEvaluate:
    def test_zero_ratio_hits_baseline(self, case9_model, case9_stats):
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        kl, mi = ev.metrics(IncompletenessSpec.uniform(case9_model.l, 0.0).phi)
        kl_opt, mi_opt = ev.baseline()
        assert kl == kl_opt
        assert mi == mi_opt

    def test_full_cancellation(self, case9_model, case9_stats):
        kl, mi = ObjectiveEvaluator(case9_model, case9_stats).metrics(
            IncompletenessSpec.uniform(case9_model.l, -1.0).phi
        )
        assert kl == 0.0
        m = case9_model.m
        no_attack_mi = mutual_information(
            cov_signal(case9_model, case9_stats), np.zeros((m, m)), case9_stats.sigma2
        )
        assert mi == pytest.approx(no_attack_mi, rel=1e-12)

    def test_ratio_symmetry(self, case9_model, case9_stats):
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        for i in range(-6, 3):
            beta = i / 2.0
            a_kl, a_mi = ev.metrics(IncompletenessSpec.uniform(case9_model.l, beta).phi)
            b_kl, b_mi = ev.metrics(
                IncompletenessSpec.uniform(case9_model.l, -2.0 - beta).phi)
            assert a_kl == pytest.approx(b_kl, rel=1e-9, abs=1e-9)
            assert a_mi == pytest.approx(b_mi, rel=1e-9)

    def test_kl_convex_along_uniform_family(self, case9_model, case9_stats):
        betas = [i / 20.0 for i in range(-60, 21)]
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        kls = [
            ev.metrics(IncompletenessSpec.uniform(case9_model.l, b).phi)[0]
            for b in betas
        ]
        second = np.diff(kls, 2)
        assert second.min() >= -1e-8

    def test_permutation_invariance(self, case9_model, case9_stats):
        spec = IncompletenessSpec.uniform(case9_model.l, 0.4)
        from oracles import attack_covariances

        art = attack_covariances(case9_model, case9_stats, spec)
        t = art.cov_via_delta
        kl = kl_divergence(sigma_yy_inv(case9_model, case9_stats), t)
        mi = mutual_information(cov_signal(case9_model, case9_stats), t, case9_stats.sigma2)
        rng = np.random.default_rng(7)
        perm = rng.permutation(case9_model.m)
        s_p = sigma_yy_inv(case9_model, case9_stats)[np.ix_(perm, perm)]
        t_p = t[np.ix_(perm, perm)]
        u_p = cov_signal(case9_model, case9_stats)[np.ix_(perm, perm)]
        assert kl_divergence(s_p, t_p) == pytest.approx(kl, rel=1e-9)
        assert mutual_information(u_p, t_p, case9_stats.sigma2) == pytest.approx(
            mi, rel=1e-9
        )

    def test_metrics_takes_two_n_by_n_factors(self, case9_model, case9_stats, monkeypatch):
        # kl and mi share the factor of I + M; mi's only other one is of
        # I + K_C^T K_C / sigma2.  No 2n x 2n Gram is factored.
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        phis = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 4, case9_model.l))
        cholesky, shapes = np.linalg.cholesky, []

        def counting(mat):
            shapes.append(mat.shape)
            return cholesky(mat)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        kl, mi = ev.metrics(phis)
        monkeypatch.undo()
        n = case9_model.n
        assert shapes == [(2, 4, n, n)] * 2
        assert kl.shape == mi.shape == (2, 4)
