import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthdeg import IncompletenessSpec, ValidationError, mtd_admittance
from stealthdeg.attack_engine import read_spec_csv, state_edge_cov

from oracles import (
    H,
    J,
    attack_covariances,
    cov_signal,
    covariance_from_delta,
    delta_matrix,
    delta_matrix_hadamard,
    equivalence_residual,
    perturbed_admittance,
    perturbed_jacobian,
    sigma_yy,
    write_spec_csv,
)


def rel(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


class TestIncompletenessSpec:
    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValidationError):
            IncompletenessSpec(
                support=(0,), phi=np.zeros(2),
                phi_min=np.array([0.5, 0.0]), phi_max=np.array([-0.5, 0.0]),
            )

    def test_phi_inside_bounds_enforced(self):
        with pytest.raises(ValidationError):
            IncompletenessSpec(
                support=(0,), phi=np.array([2.0, 0.0]),
                phi_min=np.array([-1.0, 0.0]), phi_max=np.array([1.0, 0.0]),
            )

    def test_zero_off_support_enforced(self):
        with pytest.raises(ValidationError, match="off the support"):
            IncompletenessSpec.from_phi(np.array([0.0, 0.7]), support=(0,))

    def test_support_sorted_and_deduplicated(self):
        spec = IncompletenessSpec.from_phi(np.array([0.1, 0.0, -0.2]),
                                           support=(2, 0))
        assert spec.support == (0, 2)
        with pytest.raises(ValidationError):
            IncompletenessSpec.from_phi(np.zeros(3), support=(1, 1))

    def test_out_of_range_support(self):
        with pytest.raises(ValidationError):
            IncompletenessSpec.from_phi(np.zeros(3), support=(3,))

    @pytest.mark.parametrize("lo_len, hi_len", [(2, 3), (3, 4)],
                             ids=["short-min", "long-max"])
    def test_bounds_share_phi_length(self, lo_len, hi_len):
        with pytest.raises(ValidationError, match="share one length"):
            IncompletenessSpec(support=(0,), phi=np.zeros(3),
                               phi_min=np.zeros(lo_len), phi_max=np.zeros(hi_len))

    def test_arrays_immutable(self):
        spec = IncompletenessSpec.uniform(3, 0.5)
        with pytest.raises(ValueError):
            spec.phi[0] = 1.0

    def test_from_bounds_clips_phi_into_box(self):
        lo = np.array([0.2, -0.6, 0.0])
        hi = np.array([0.8, -0.1, 0.0])
        spec = IncompletenessSpec.from_bounds((0, 1), lo, hi)
        assert np.array_equal(spec.phi, [0.2, -0.1, 0.0])

    def test_csv_round_trip(self):
        spec = IncompletenessSpec(
            support=(1, 4),
            phi=np.array([0, 0.25, 0, 0, -0.5]),
            phi_min=np.array([0, -1.0, 0, 0, -0.5]),
            phi_max=np.array([0, 0.5, 0, 0, 0.75]),
        )
        buf = io.StringIO()
        write_spec_csv(spec, buf)
        back = read_spec_csv(buf.getvalue(), 5)
        assert back.support == spec.support
        assert np.array_equal(back.phi, spec.phi)
        assert np.array_equal(back.phi_min, spec.phi_min)
        assert np.array_equal(back.phi_max, spec.phi_max)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip_property(self, data):
        # Any finite ordered triple per support branch, subnormals and -0
        # included, comes back bitwise through the 17-digit CSV.
        l = data.draw(st.integers(1, 12))
        support = data.draw(st.lists(st.integers(0, l - 1), unique=True, max_size=l))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        phi, lo, hi = np.zeros(l), np.zeros(l), np.zeros(l)
        for i in support:
            lo[i], phi[i], hi[i] = sorted(data.draw(st.lists(finite, min_size=3, max_size=3)))
        spec = IncompletenessSpec(support=tuple(support), phi=phi, phi_min=lo, phi_max=hi)
        buf = io.StringIO()
        write_spec_csv(spec, buf)
        back = read_spec_csv(buf.getvalue(), l)
        assert back.support == spec.support
        for name in ("phi", "phi_min", "phi_max"):
            assert getattr(back, name).tobytes() == getattr(spec, name).tobytes()

    def test_csv_bounds_only(self):
        text = "branch_index,phi_min,phi_max\n2,-0.5,0.5\n3,0.1,0.4\n"
        spec = read_spec_csv(text, 4)
        assert spec.support == (1, 2)
        assert np.array_equal(spec.phi, [0, 0, 0.1, 0])

    def test_csv_phi_only(self):
        spec = read_spec_csv("branch_index,phi\n1,-0.25\n", 2)
        assert spec.support == (0,)
        assert np.array_equal(spec.phi, [-0.25, 0])
        assert np.array_equal(spec.phi_min, spec.phi_max)

    def test_csv_errors(self):
        with pytest.raises(ValidationError):
            read_spec_csv("phi\n0.5\n", 2)
        with pytest.raises(ValidationError):
            read_spec_csv("branch_index,phi\n9,0.5\n", 2)
        with pytest.raises(ValidationError):
            read_spec_csv("branch_index\n1\n", 2)


class TestPerturbations:
    def test_admittance_identity(self, case9_model):
        spec = IncompletenessSpec.uniform(case9_model.l, 0.0)
        assert np.array_equal(
            perturbed_admittance(case9_model.b, spec), case9_model.b
        )

    def test_admittance_values(self):
        spec = IncompletenessSpec.from_phi(np.array([0.3, -1.0]))
        out = perturbed_admittance(np.array([10.0, 7.0]), spec)
        assert out[0] == pytest.approx(13.0)
        assert out[1] == 0.0

    def test_jacobian_identity_and_annihilation(self, case9_model):
        zero = IncompletenessSpec.uniform(case9_model.l, 0.0)
        assert np.array_equal(perturbed_jacobian(case9_model, zero), H(case9_model))
        wipe = IncompletenessSpec.uniform(case9_model.l, -1.0)
        assert np.array_equal(
            perturbed_jacobian(case9_model, wipe), np.zeros_like(H(case9_model))
        )

    def test_diagonal_commutation_exact(self, case9_model):
        rng = np.random.default_rng(1)
        phi = rng.uniform(-2, 2, case9_model.l)
        spec = IncompletenessSpec.from_phi(phi)
        via_ratio = J(case9_model) @ (
            ((1.0 + phi) * case9_model.b)[:, None] * case9_model.A
        )
        assert np.array_equal(perturbed_jacobian(case9_model, spec), via_ratio)


class TestDelta:
    def test_zero_ratio_gives_zero(self, case9_model, case9_stats):
        spec = IncompletenessSpec.uniform(case9_model.l, 0.0)
        assert np.array_equal(
            delta_matrix(case9_model, case9_stats.sigma_xx, spec),
            np.zeros((case9_model.l, case9_model.l)),
        )

    @pytest.mark.parametrize("beta", [0.5, -1.0, 2.0])
    def test_uniform_closed_form(self, case9_model, case9_stats, beta):
        spec = IncompletenessSpec.uniform(case9_model.l, beta)
        delta = delta_matrix(case9_model, case9_stats.sigma_xx, spec)
        W = state_edge_cov(case9_model, case9_stats.sigma_xx)
        assert np.allclose(delta, (2 * beta + beta * beta) * W, atol=1e-12)

    def test_symmetry_and_hadamard_oracle(self, case9_model, case9_stats):
        rng = np.random.default_rng(2)
        for _ in range(25):
            spec = IncompletenessSpec.from_phi(rng.uniform(-3, 3, case9_model.l))
            delta = delta_matrix(case9_model, case9_stats.sigma_xx, spec)
            assert np.array_equal(delta, delta.T)
            oracle = delta_matrix_hadamard(case9_model, case9_stats.sigma_xx, spec)
            assert np.abs(delta - oracle).max() <= 1e-12 * max(
                1.0, np.abs(delta).max()
            )

    def test_shifted_state_cov_stays_psd(self, case9_model, case9_stats):
        # Fuzzed ratio vectors keep W + delta inside the PSD cone.
        rng = np.random.default_rng(3)
        W = state_edge_cov(case9_model, case9_stats.sigma_xx)
        for _ in range(100):
            spec = IncompletenessSpec.from_phi(rng.uniform(-5, 5, case9_model.l))
            delta = delta_matrix(case9_model, case9_stats.sigma_xx, spec)
            eigs = np.linalg.eigvalsh(W + delta)
            assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])


class TestAttackCovariances:
    def test_zero_ratio_recovers_optimum(self, case9_model, case9_stats):
        spec = IncompletenessSpec.uniform(case9_model.l, 0.0)
        art = attack_covariances(case9_model, case9_stats, spec)
        assert rel(art.cov_incomplete, art.cov_optimal) <= 1e-12
        assert rel(art.cov_incomplete, cov_signal(case9_model, case9_stats)) <= 1e-12

    def test_full_cancellation(self, case9_model, case9_stats):
        spec = IncompletenessSpec.uniform(case9_model.l, -1.0)
        art = attack_covariances(case9_model, case9_stats, spec)
        assert np.array_equal(art.cov_incomplete, np.zeros_like(art.cov_optimal))
        assert np.array_equal(art.cov_attacked_meas, sigma_yy(case9_model, case9_stats))

    def test_sign_flip_recovers_optimum(self, case9_model, case9_stats):
        spec = IncompletenessSpec.uniform(case9_model.l, -2.0)
        art = attack_covariances(case9_model, case9_stats, spec)
        assert rel(art.cov_incomplete, art.cov_optimal) <= 1e-10

    def test_delta_route_matches_direct(self, case9_model, case9_stats):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = IncompletenessSpec.from_phi(rng.uniform(-2, 2, case9_model.l))
            art = attack_covariances(case9_model, case9_stats, spec)
            assert rel(art.cov_via_delta, art.cov_incomplete) <= 1e-10

    def test_ratio_symmetry_about_minus_one(self, case9_model, case9_stats):
        for beta in (-3.0, -1.25, 0.0, 0.7):
            a = attack_covariances(
                case9_model, case9_stats,
                IncompletenessSpec.uniform(case9_model.l, beta),
            )
            b = attack_covariances(
                case9_model, case9_stats,
                IncompletenessSpec.uniform(case9_model.l, -2.0 - beta),
            )
            assert rel(a.cov_incomplete, b.cov_incomplete) <= 1e-10


class TestEquivalenceResidual:
    def test_zero_ratio(self, case9_model, case9_stats):
        spec = IncompletenessSpec.uniform(case9_model.l, 0.0)
        art = attack_covariances(case9_model, case9_stats, spec)
        assert equivalence_residual(art, case9_model) == 0.0

    def test_random_ratios(self, case9_model, case9_stats):
        rng = np.random.default_rng(5)
        for _ in range(50):
            spec = IncompletenessSpec.from_phi(rng.uniform(-2, 2, case9_model.l))
            art = attack_covariances(case9_model, case9_stats, spec)
            assert equivalence_residual(art, case9_model) <= 1e-10

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_delta_route_property(self, data, case9_model, case9_stats, case14_model,
                                  case14_stats, case30_model, case30_stats):
        # cov_incomplete = cov_optimal + J diag(b) delta diag(b) J^T for any
        # ratio vector, with branches zeroed (phi = -1) or left exact (0).
        model, stats = data.draw(st.sampled_from([
            (case9_model, case9_stats), (case14_model, case14_stats),
            (case30_model, case30_stats)]))
        coordinate = st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(-3.0, 3.0))
        phi = data.draw(st.lists(coordinate, min_size=model.l, max_size=model.l))
        art = attack_covariances(model, stats, IncompletenessSpec.from_phi(np.array(phi)))
        assert equivalence_residual(art, model) <= 1e-10

    def test_uniform_on_ring(self, ring_model):
        from stealthdeg import build_scenario

        stats = build_scenario(ring_model, 0.5, 10.0)
        spec = IncompletenessSpec.uniform(ring_model.l, 0.7)
        art = attack_covariances(ring_model, stats, spec)
        assert equivalence_residual(art, ring_model) <= 1e-12


def test_random_congruence_stays_psd():
    # M X M^T keeps positive semidefiniteness for any square M and PSD X.
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        g = rng.standard_normal((n, n))
        x = g @ g.T
        m = rng.standard_normal((n, n)) * rng.uniform(0.1, 10)
        eigs = np.linalg.eigvalsh(m @ x @ m.T)
        assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])


def test_injected_delta_covariance(case9_model, case9_stats):
    # The generalized route accepts any symmetric perturbation of W.
    rng = np.random.default_rng(7)
    g = rng.standard_normal((case9_model.l, case9_model.l))
    delta = g @ g.T
    t = covariance_from_delta(case9_model, case9_stats.sigma_xx, delta)
    assert np.allclose(t, t.T)
    base = covariance_from_delta(
        case9_model, case9_stats.sigma_xx, np.zeros_like(delta)
    )
    assert rel(base, cov_signal(case9_model, case9_stats)) <= 1e-12


class TestMtd:
    def test_identity(self):
        spec = IncompletenessSpec.uniform(3, 0.0)
        admittance = mtd_admittance(np.array([1.0, 2.0, 3.0]), spec.phi)
        assert np.array_equal(admittance, [1.0, 2.0, 3.0])

    def test_inverse_of_perturbation(self):
        spec = IncompletenessSpec.from_phi(np.array([0.3, 0.0]), support=(0,))
        admittance = mtd_admittance(np.array([13.0, 5.0]), spec.phi)
        assert admittance[0] == pytest.approx(10.0)
        assert admittance[1] == 5.0

    def test_round_trip_exact(self, case9_model):
        rng = np.random.default_rng(8)
        phi = rng.uniform(-0.9, 0.9, case9_model.l)
        spec = IncompletenessSpec.from_phi(phi)
        stale = perturbed_admittance(case9_model.b, spec)
        admittance = mtd_admittance(stale, spec.phi)
        assert np.allclose(admittance, case9_model.b, rtol=1e-14)

    def test_zeroed_branch_flagged(self):
        spec = IncompletenessSpec.from_phi(np.array([-1.0, 0.5]))
        admittance = mtd_admittance(np.array([4.0, 6.0]), spec.phi)
        assert admittance[0] == 0.0
        assert admittance[1] == 4.0
