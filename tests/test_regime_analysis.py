import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthdeg import (
    IncompletenessSpec,
    ObjectiveEvaluator,
    RegimeLabel,
    build_model,
    build_scenario,
    classify_delta,
    classify_uniform_ratio,
    definiteness_conditions,
    load_case,
)
from stealthdeg.attack_engine import delta_from_state_cov, state_edge_cov

from oracles import (
    branch_blocks,
    cov_signal,
    covariance_from_delta,
    delta_matrix,
    interaction_eig_bounds,
    kl_divergence,
    mutual_information,
    ratio_interaction_matrix,
    sigma_yy_inv,
)

LESS = RegimeLabel.LESS_STEALTHY_MORE_DESTRUCTIVE
MORE = RegimeLabel.MORE_STEALTHY_LESS_DESTRUCTIVE


class TestClassifyDelta:
    def test_zero_is_boundary(self):
        assert classify_delta(np.zeros((4, 4))) is RegimeLabel.BOUNDARY

    def test_scaled_psd(self, case9_model, case9_stats):
        w = state_edge_cov(case9_model, case9_stats.sigma_xx)
        beta = 0.5
        assert classify_delta((2 * beta + beta**2) * w) is LESS
        beta = -1.0
        assert classify_delta((2 * beta + beta**2) * w) is MORE

    def test_mixed_signs_typically_indefinite(self, case9_model, case9_stats):
        rng = np.random.default_rng(0)
        labels = set()
        for _ in range(20):
            phi = rng.uniform(-1.5, 1.5, case9_model.l)
            delta = delta_matrix(
                case9_model, case9_stats.sigma_xx, IncompletenessSpec.from_phi(phi)
            )
            labels.add(classify_delta(delta))
        assert RegimeLabel.INDEFINITE in labels

    def test_scale_relative_tolerance(self):
        big = np.diag([1e12, 1.0])  # tiny relative negative stays PSD
        assert classify_delta(big + np.diag([0.0, -1e-3])) is LESS


class TestDefinitenessConditions:
    def test_uniform_positive(self):
        checks = definiteness_conditions(np.full(6, 0.7))
        assert checks.cond_psd and not checks.cond_nsd

    def test_uniform_minus_one_misses_nsd(self, case9_model, case9_stats):
        # The sufficient condition is not necessary: the uniform -1 profile
        # yields a negated state covariance (NSD) yet fails the test.
        phi = np.full(case9_model.l, -1.0)
        checks = definiteness_conditions(phi)
        assert not checks.cond_nsd
        assert checks.lhs_nsd == pytest.approx(case9_model.l)
        delta = delta_matrix(
            case9_model, case9_stats.sigma_xx, IncompletenessSpec.from_phi(phi)
        )
        assert classify_delta(delta) is MORE

    def test_two_distinct_entries_fail_both(self):
        checks = definiteness_conditions(np.array([0.5, 0.2, 0.0]))
        assert not checks.cond_psd and not checks.cond_nsd

    def test_uniform_family_holds_psd_despite_roundoff(self):
        # phi^T 1 = sqrt(|phi|^2 l) exactly on the uniform family, so
        # without a tolerance roundoff alone decides the margin's sign.
        for l in (9, 20, 41):
            for beta in np.linspace(0.01, 3.0, 300):
                assert definiteness_conditions(np.full(l, beta)).cond_psd

    @pytest.mark.parametrize("move", [1e-3, -1e-3])
    def test_one_moved_coordinate_fails_psd(self, move):
        for l in (9, 20, 41):
            for beta in np.linspace(0.01, 3.0, 300):
                phi = np.full(l, beta)
                phi[l // 2] += move
                assert not definiteness_conditions(phi).cond_psd

    def test_zero_vector_sits_on_both_boundaries(self):
        checks = definiteness_conditions(np.zeros(5))
        assert checks.cond_psd and checks.cond_nsd
        assert checks.lhs_psd == 0.0 and checks.lhs_nsd == 0.0


class TestUniformRatio:
    @pytest.mark.parametrize(
        "beta,label",
        [
            (0.0, RegimeLabel.BOUNDARY),
            (-2.0, RegimeLabel.BOUNDARY),
            (0.5, LESS),
            (2.0, LESS),
            (-2.5, LESS),
            (-1.0, MORE),
            (-0.25, MORE),
        ],
    )
    def test_sign_split(self, beta, label):
        assert classify_uniform_ratio(beta) is label

    @pytest.mark.parametrize(
        "fixture", ["case9_model", "case14_model", "case30_model"]
    )
    def test_agrees_with_matrix_classification(self, fixture, request):
        model = request.getfixturevalue(fixture)
        from stealthdeg import build_scenario

        sigma_xx = build_scenario(model, 0.5, 30.0).sigma_xx
        for i in range(-80, 41):
            beta = i / 20.0  # hits -2.0 and 0.0 exactly
            delta = delta_matrix(
                model, sigma_xx, IncompletenessSpec.uniform(model.l, beta)
            )
            assert classify_delta(delta) is classify_uniform_ratio(beta)


class TestInteractionBounds:
    def test_zero_vector(self):
        assert interaction_eig_bounds(np.zeros(5)) == (0.0, 0.0)

    def test_unit_vector_length_four(self):
        phi = np.array([1.0, 0.0, 0.0, 0.0])
        upper, lower = interaction_eig_bounds(phi)
        assert (upper, lower) == (4.0, -1.0)
        eigs = np.linalg.eigvalsh(ratio_interaction_matrix(phi))
        assert eigs[-1] <= upper + 1e-12
        assert eigs[0] >= lower - 1e-12

    def test_fuzzed_bounds_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            l = int(rng.integers(1, 40))
            phi = rng.uniform(-5, 5, l) * rng.uniform(0.01, 10)
            upper, lower = interaction_eig_bounds(phi)
            eigs = np.linalg.eigvalsh(ratio_interaction_matrix(phi))
            scale = max(1.0, np.abs(eigs).max())
            assert eigs[-1] <= upper + 1e-9 * scale
            assert eigs[0] >= lower - 1e-9 * scale


class TestSoundness:
    def test_sufficient_conditions_imply_labels(self, case9_model, case9_stats):
        rng = np.random.default_rng(2)
        vectors = [rng.uniform(-2, 2, case9_model.l) for _ in range(100)]
        vectors += [c * np.ones(case9_model.l) for c in (0.0, 0.3, 1.5, -0.5, -2.0)]
        for phi in vectors:
            checks = definiteness_conditions(phi)
            delta = delta_matrix(
                case9_model, case9_stats.sigma_xx, IncompletenessSpec.from_phi(phi)
            )
            label = classify_delta(delta)
            if checks.cond_psd:
                assert label in (LESS, RegimeLabel.BOUNDARY)
            if checks.cond_nsd:
                assert label in (MORE, RegimeLabel.BOUNDARY)

    def test_regime_orders_metrics_uniform_family(self, case14_model, case14_stats):
        rng = np.random.default_rng(3)
        betas = np.concatenate([
            rng.uniform(0.0, 2.0, 20),
            rng.uniform(-4.0, -2.0, 20),
            rng.uniform(-2.0, 0.0, 40),
        ])
        ev = ObjectiveEvaluator(case14_model, case14_stats)
        kl_opt, mi_opt = ev.baseline()
        for beta in betas:
            kl, mi = ev.metrics(
                IncompletenessSpec.uniform(case14_model.l, float(beta)).phi
            )
            label = classify_uniform_ratio(float(beta))
            if label is LESS:
                assert kl >= kl_opt - 1e-9
                assert mi <= mi_opt + 1e-9
            elif label is MORE:
                assert kl <= kl_opt + 1e-9
                assert mi >= mi_opt - 1e-9

    def test_regime_orders_metrics_injected_delta(self, case14_model, case14_stats):
        # The ordering holds for any PSD perturbation injected directly,
        # bypassing the ratio construction.
        rng = np.random.default_rng(4)
        kl_opt, mi_opt = ObjectiveEvaluator(case14_model, case14_stats).baseline()
        l = case14_model.l
        w = state_edge_cov(case14_model, case14_stats.sigma_xx)
        for _ in range(30):
            g = rng.standard_normal((l, l)) * rng.uniform(0.05, 2)
            injected = g @ g.T
            t = covariance_from_delta(case14_model, case14_stats.sigma_xx, injected)
            kl = kl_divergence(sigma_yy_inv(case14_model, case14_stats), t)
            mi = mutual_information(cov_signal(case14_model, case14_stats), t, case14_stats.sigma2)
            assert kl >= kl_opt - 1e-9
            assert mi <= mi_opt + 1e-9
        for _ in range(30):
            shrink = rng.uniform(0.0, 1.0)
            t = covariance_from_delta(
                case14_model, case14_stats.sigma_xx, -shrink * w
            )
            kl = kl_divergence(sigma_yy_inv(case14_model, case14_stats), t)
            mi = mutual_information(cov_signal(case14_model, case14_stats), t, case14_stats.sigma2)
            assert kl <= kl_opt + 1e-9
            assert mi >= mi_opt - 1e-9


@pytest.mark.parametrize("case, sizes", [
    ("case9", [6, 1, 1, 1]), ("case14", [19, 1]), ("case30", [35, 3, 1, 1, 1]),
])
def test_branch_blocks(case, sizes):
    blocks = branch_blocks(build_model(load_case(case)))
    assert sorted(np.bincount(blocks), reverse=True) == sizes


@functools.cache
def _block_scenario(case):
    """Branch blocks, W and the evaluator of a bundled case at 30 dB."""
    model = build_model(load_case(case))
    stats = build_scenario(model, 0.5, 30.0)
    return (branch_blocks(model), state_edge_cov(model, stats.sigma_xx),
            ObjectiveEvaluator(model, stats))


@pytest.mark.parametrize("case", ["case9", "case14", "case30"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_regime_orders_metrics_block_constant_phi(case, data):
    # Beyond the uniform family: phi constant on each block of the branch
    # graph, all in (0, 1) or all in (-1, 0).  About half of these deltas
    # are definite, and the label orders kl and mi as it does for phi =
    # beta * ones.
    blocks, w, ev = _block_scenario(case)
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    count = int(blocks.max()) + 1
    values = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                min_size=count, max_size=count))
    phi = sign * np.array(values)[blocks]
    label = classify_delta(delta_from_state_cov(w, phi))
    kl, mi = ev.metrics(phi)
    kl_opt, mi_opt = ev.baseline()
    if label is LESS:
        assert kl >= kl_opt * (1.0 - 1e-12)
        assert mi <= mi_opt * (1.0 + 1e-12)
    elif label is MORE:
        assert kl <= kl_opt * (1.0 + 1e-12)
        assert mi >= mi_opt * (1.0 - 1e-12)


def eigvalsh_label(delta, tol_scale=1e-9):
    """Reference labelling: always through the full eigendecomposition."""
    w = np.linalg.eigvalsh((delta + delta.T) / 2.0)
    tol = tol_scale * max(1.0, float(np.abs(w).max()))
    psd, nsd = w[0] >= -tol, w[-1] <= tol
    if psd and nsd:
        return RegimeLabel.BOUNDARY
    if psd:
        return LESS
    if nsd:
        return MORE
    return RegimeLabel.INDEFINITE


def labelling_suite(seed):
    """Symmetric matrices across every label, scale and near-tolerance case."""
    rng = np.random.default_rng(seed)
    mats = [np.zeros((5, 5))]
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for size in (1, 2, 5, 12):
            x = rng.standard_normal((size, size))
            sym = scale * (x + x.T)
            low_rank = rng.standard_normal((size, max(1, size // 2)))
            psd = scale * low_rank @ low_rank.T
            mats += [sym, psd, -psd]
            # Diagonal entries right at and around the tolerance.
            for edge in (0.5e-9, 1e-9, 1.9e-9, 2e-9, 2.1e-9, 4e-9):
                for sign in (-1.0, 1.0):
                    tweak = np.zeros(size)
                    tweak[rng.integers(size)] = sign * edge * max(1.0, scale)
                    mats += [psd + np.diag(tweak), -psd + np.diag(tweak)]
                    dominant = np.diag(rng.choice([-1.0, 1.0], size) * scale)
                    dominant[0, 0] = sign * edge * max(1.0, scale)
                    mats.append(dominant)
    return mats


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classify_matches_eigvalsh_oracle(seed):
    labels = set()
    for mat in labelling_suite(seed):
        expected = eigvalsh_label(mat)
        assert classify_delta(mat) is expected
        labels.add(expected)
    assert labels == set(RegimeLabel)


def test_classify_matches_oracle_on_case_deltas(case30_model, case30_stats):
    w = state_edge_cov(case30_model, case30_stats.sigma_xx)
    rng = np.random.default_rng(5)
    for scale in (1e-8, 1e-4, 0.1, 1.0, 3.0):
        for _ in range(20):
            phi = scale * rng.uniform(-1.0, 1.0, case30_model.l)
            delta = np.diag(phi) @ w + w @ np.diag(phi) + np.diag(phi) @ w @ np.diag(phi)
            assert classify_delta(delta) is eigvalsh_label(delta)


def test_indefinite_diagonal_skips_eigendecomposition(monkeypatch):
    def no_eig(_):
        raise AssertionError("eigvalsh called on a certified matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
    assert classify_delta(np.diag([1.0, -1.0, 0.0])) is RegimeLabel.INDEFINITE
    with pytest.raises(AssertionError):
        classify_delta(np.diag([1.0, 1e-12]))
