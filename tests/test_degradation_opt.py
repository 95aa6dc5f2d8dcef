import itertools

import numpy as np
import pytest

from stealthdeg import (
    IncompletenessSpec,
    ObjectiveEvaluator,
    ValidationError,
    exhaustive_maximize,
    oracle_gap,
    vertex_profiles,
)
from stealthdeg.experiment_harness import sample_bounds

from oracles import (
    attack_cov,
    convexity_gap_on_segment,
    cov_signal,
    detectability_objective,
    kl_divergence,
    mutual_information,
    sigma_yy_inv,
)


def bounds_spec(l, support, lo, hi):
    phi_min = np.zeros(l)
    phi_max = np.zeros(l)
    phi_min[list(support)] = lo
    phi_max[list(support)] = hi
    return IncompletenessSpec.from_bounds(support, phi_min, phi_max)


class TestObjective:
    def test_zero_ratio_is_twice_kl_opt(self, case9_model, case9_stats):
        kl_opt, _ = ObjectiveEvaluator(case9_model, case9_stats).baseline()
        got = detectability_objective(case9_model, case9_stats, np.zeros(case9_model.l))
        assert got == pytest.approx(2.0 * kl_opt, rel=1e-10)

    def test_full_cancellation_is_zero(self, case9_model, case9_stats):
        got = detectability_objective(
            case9_model, case9_stats, np.full(case9_model.l, -1.0)
        )
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_everywhere(self, case9_model, case9_stats):
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert ev.objective(rng.uniform(-3, 3, case9_model.l)) >= 0.0

    def test_reduced_route_matches_full_formula(self, case30_model, case30_stats):
        # The cached evaluator works on an l x l congruence; it must agree
        # with the m-level divergence route.
        ev = ObjectiveEvaluator(case30_model, case30_stats)
        rng = np.random.default_rng(1)
        for _ in range(10):
            phi = rng.uniform(-2, 2, case30_model.l)
            via_kl = 2.0 * kl_divergence(
                sigma_yy_inv(case30_model, case30_stats), attack_cov(ev, phi)
            )
            assert ev.objective(phi) == pytest.approx(via_kl, rel=1e-10, abs=1e-10)


class TestVertexProfiles:
    def test_two_free_coordinates(self):
        spec = bounds_spec(3, (0, 2), [-1.0, -1.0], [1.0, 1.0])
        vertices = list(vertex_profiles(spec.phi_min, spec.phi_max))
        assert len(vertices) == 4
        assert {tuple(v) for v in vertices} == {
            (-1.0, 0.0, -1.0), (-1.0, 0.0, 1.0), (1.0, 0.0, -1.0), (1.0, 0.0, 1.0)
        }

    def test_pinned_coordinate_collapses(self):
        spec = bounds_spec(3, (0, 1, 2), [-1.0, 0.5, -1.0], [1.0, 0.5, 1.0])
        vertices = list(vertex_profiles(spec.phi_min, spec.phi_max))
        assert len(vertices) == 4
        assert all(v[1] == 0.5 for v in vertices)

    def test_case9_count(self, case9_model):
        spec = bounds_spec(
            case9_model.l, tuple(range(9)), [-1.0] * 9, [1.0] * 9
        )
        assert sum(1 for _ in vertex_profiles(spec.phi_min, spec.phi_max)) == 512

    def test_cap(self):
        spec = bounds_spec(25, tuple(range(25)), [-1.0] * 25, [1.0] * 25)
        with pytest.raises(ValidationError):
            next(vertex_profiles(spec.phi_min, spec.phi_max))


class TestGreedy:
    def test_single_coordinate_matches_exhaustive(self, case9_model, case9_stats):
        spec = bounds_spec(case9_model.l, (3,), [-0.5], [0.5])
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        phi = ev.greedy(spec.phi_min, spec.phi_max)[0]
        phi_star, objective = exhaustive_maximize(ev, spec.phi_min, spec.phi_max)
        assert np.array_equal(phi, phi_star)
        assert ev.objective(phi) == objective

    def test_all_pinned_short_circuits(self, case9_model, case9_stats):
        phi = np.linspace(-0.4, 0.4, case9_model.l)
        spec = IncompletenessSpec.from_phi(phi)
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        assert np.array_equal(ev.greedy(spec.phi_min, spec.phi_max)[0], phi)

    def test_vertex_membership(self, case9_model, case9_stats):
        rng = np.random.default_rng(2)
        pairs = np.sort(rng.uniform(-1, 1, (case9_model.l, 2)), axis=1)
        spec = bounds_spec(
            case9_model.l, tuple(range(case9_model.l)), pairs[:, 0], pairs[:, 1]
        )
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        phi = ev.greedy(spec.phi_min, spec.phi_max)[0]
        for i in spec.support:
            assert phi[i] in (spec.phi_min[i], spec.phi_max[i])

    def test_deterministic(self, case9_model, case9_stats):
        spec = bounds_spec(
            case9_model.l, tuple(range(9)), [-0.8] * 9, [0.6] * 9
        )
        a, b = (ObjectiveEvaluator(case9_model, case9_stats) for _ in range(2))
        phi_a = a.greedy(spec.phi_min, spec.phi_max)[0]
        phi_b = b.greedy(spec.phi_min, spec.phi_max)[0]
        assert np.array_equal(phi_a, phi_b)
        assert a.objective(phi_a) == b.objective(phi_b)

    def test_objective_matches_fresh_evaluation(self, case9_model, case9_stats):
        spec = bounds_spec(case9_model.l, tuple(range(9)), [-1.0] * 9, [1.0] * 9)
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        phi = ev.greedy(spec.phi_min, spec.phi_max)[0]
        fresh = detectability_objective(case9_model, case9_stats, phi)
        assert ev.objective(phi) == pytest.approx(fresh, rel=1e-10)

    def test_refinement_never_hurts(self, case9_model, case9_stats):
        rng = np.random.default_rng(3)
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        for _ in range(5):
            pairs = np.sort(rng.uniform(-1, 1, (case9_model.l, 2)), axis=1)
            spec = bounds_spec(
                case9_model.l, tuple(range(case9_model.l)), pairs[:, 0], pairs[:, 1]
            )
            plain = ev.greedy(spec.phi_min, spec.phi_max)[0]
            refined = ev.greedy(spec.phi_min, spec.phi_max, refine=True)[0]
            assert ev.objective(refined) >= ev.objective(plain) - 1e-12
            for i in spec.support:
                assert refined[i] in (spec.phi_min[i], spec.phi_max[i])


class TestExhaustive:
    def test_two_coordinate_instance_by_hand(self, case9_model, case9_stats):
        spec = bounds_spec(case9_model.l, (1, 6), [-0.9, -0.3], [0.4, 0.8])
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        exact = exhaustive_maximize(ev, spec.phi_min, spec.phi_max)[1]
        best = -np.inf
        for a in (-0.9, 0.4):
            for b in (-0.3, 0.8):
                phi = np.zeros(case9_model.l)
                phi[1], phi[6] = a, b
                best = max(best, ev.objective(phi))
        assert exact == pytest.approx(best, rel=1e-12)

    def test_pinned_uniform_family(self, case9_model, case9_stats):
        beta = -0.7
        phi = np.full(case9_model.l, beta)
        spec = IncompletenessSpec.from_phi(phi)
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        exact = exhaustive_maximize(ev, spec.phi_min, spec.phi_max)[1]
        assert exact == pytest.approx(
            detectability_objective(case9_model, case9_stats, phi), rel=1e-12
        )

    def test_oracle_gap_bounds_greedy(self, case9_model, case9_stats):
        rng = np.random.default_rng(4)
        pairs = np.sort(rng.uniform(-1, 1, (case9_model.l, 2)), axis=1)
        spec = bounds_spec(
            case9_model.l, tuple(range(case9_model.l)), pairs[:, 0], pairs[:, 1]
        )
        ev = ObjectiveEvaluator(case9_model, case9_stats)
        objective = ev.objective(ev.greedy(spec.phi_min, spec.phi_max)[0])
        exact = exhaustive_maximize(ev, spec.phi_min, spec.phi_max)[1]
        assert objective <= exact + 1e-12
        assert oracle_gap(objective, exact) == pytest.approx(
            1.0 - objective / exact, abs=1e-15
        )


class TestConvexity:
    def test_identical_endpoints(self, case14_model, case14_stats):
        phi = np.full(case14_model.l, 0.3)
        assert convexity_gap_on_segment(
            ObjectiveEvaluator(case14_model, case14_stats), phi, phi, steps=10
        ) <= 1e-12

    def test_random_segments(self, case14_model, case14_stats):
        ev = ObjectiveEvaluator(case14_model, case14_stats)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-2, 2, case14_model.l)
            b = rng.uniform(-2, 2, case14_model.l)
            gap = convexity_gap_on_segment(ev, a, b, steps=50)
            assert gap <= 1e-8

    @pytest.mark.parametrize("case", ["case9", "case14", "case30"])
    def test_random_segments_through_minus_one(self, case, request):
        # About a fifth of each endpoint's coordinates sit exactly at -1,
        # where that branch's attack column vanishes.
        model = request.getfixturevalue(f"{case}_model")
        stats = request.getfixturevalue(f"{case}_stats")
        ev = ObjectiveEvaluator(model, stats)
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, (2, model.l))
            a[rng.random(model.l) < 0.2] = -1.0
            b[rng.random(model.l) < 0.2] = -1.0
            gap = convexity_gap_on_segment(ev, a, b, steps=50)
            assert gap <= 1e-9 * max(1.0, ev.objective(a), ev.objective(b))

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("case", ["case9", "case14", "case30"])
    def test_short_segments_from_minus_one(self, case, h, request):
        # A chord of length h clears a smooth convex f by only about
        # h^2 f'' / 8, so the midpoint sees faults that long chords hide,
        # such as a drop of f at the exact -1 coordinates of the start.
        model = request.getfixturevalue(f"{case}_model")
        ev = ObjectiveEvaluator(model, request.getfixturevalue(f"{case}_stats"))
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(-2, 2, model.l)
            a[rng.random(model.l) < 0.2] = -1.0
            step = rng.standard_normal(model.l)
            b = a + h * step / np.linalg.norm(step)
            f_a, f_mid, f_b = ev.objective(np.stack([a, (a + b) / 2, b]))
            assert f_mid - (f_a + f_b) / 2 <= 1e-9 * max(1.0, abs(f_a))

    def test_uniform_family_segment(self, case14_model, case14_stats):
        a = np.full(case14_model.l, -3.0)
        b = np.full(case14_model.l, 1.0)
        assert convexity_gap_on_segment(
            ObjectiveEvaluator(case14_model, case14_stats), a, b, steps=50
        ) <= 1e-8


@pytest.mark.parametrize("case", ["case9", "case14", "case30"])
def test_kl_nonnegative_near_full_cancellation(case, request):
    # tr(M) and log|I + M| cancel as phi -> -1; the core must not go negative.
    model = request.getfixturevalue(f"{case}_model")
    ev = ObjectiveEvaluator(model, request.getfixturevalue(f"{case}_stats"))
    rng = np.random.default_rng(8)
    for eps in 10.0 ** -np.arange(3, 13):
        for _ in range(50):
            phi = -1.0 + eps * rng.uniform(-1.0, 1.0, model.l)
            assert ev.objective(phi) >= 0.0
            assert ev.metrics(phi)[0] >= 0.0


@pytest.mark.parametrize("case", ["case9", "case14", "case30"])
def test_metrics_match_m_level_routes(case, request):
    model = request.getfixturevalue(f"{case}_model")
    stats = request.getfixturevalue(f"{case}_stats")
    ev = ObjectiveEvaluator(model, stats)
    rng = np.random.default_rng(9)
    for _ in range(20):
        phi = rng.uniform(-3.0, 3.0, model.l)
        t = attack_cov(ev, phi)
        kl, mi = ev.metrics(phi)
        assert kl == pytest.approx(
            kl_divergence(sigma_yy_inv(model, stats), t), rel=1e-10, abs=1e-12)
        assert mi == pytest.approx(
            mutual_information(cov_signal(model, stats), t, stats.sigma2), rel=1e-10)
        assert ev.objective(phi) == 2.0 * kl


@pytest.mark.parametrize("case", ["case9", "case14", "case30"])
def test_stacked_metrics_match_single_vectors(case, request):
    model = request.getfixturevalue(f"{case}_model")
    ev = ObjectiveEvaluator(model, request.getfixturevalue(f"{case}_stats"))
    rng = np.random.default_rng(10)
    for size in (1, 8, 37):
        phis = rng.uniform(-2.0, 2.0, (size, model.l))
        kls, mis = ev.metrics(phis)
        assert kls.shape == mis.shape == (size,)
        for phi, kl, mi in zip(phis, kls, mis):
            one_kl, one_mi = ev.metrics(phi)
            assert kl == pytest.approx(one_kl, rel=1e-12)
            assert mi == pytest.approx(one_mi, rel=1e-12)
    kls, mis = ev.metrics(phis[:36].reshape(4, 9, model.l))
    assert kls.shape == mis.shape == (4, 9)


def product_vertices(spec):
    """Reference enumeration: one itertools.product choice per vertex."""
    free = [i for i in spec.support if spec.phi_min[i] != spec.phi_max[i]]
    base = np.zeros(len(spec.phi))
    for i in spec.support:
        base[i] = spec.phi_min[i]
    for choice in itertools.product((0, 1), repeat=len(free)):
        phi = base.copy()
        for j, bit in zip(free, choice):
            phi[j] = spec.phi_max[j] if bit else spec.phi_min[j]
        yield phi


@pytest.mark.parametrize("k", [1, 9, 10])
def test_vertex_profiles_match_product_order(k):
    # Two pinned coordinates (one at zero) and one branch off the support;
    # 2^9 and 2^10 vertices cross the 256-row chunk boundary.
    rng = np.random.default_rng(k)
    l = k + 3
    support = tuple(int(i) for i in np.sort(rng.choice(l, size=k + 2, replace=False)))
    pairs = np.sort(rng.uniform(-1.0, 1.0, (k + 2, 2)), axis=1)
    pairs[0] = (0.0, 0.0)
    pairs[-1, 1] = pairs[-1, 0]
    spec = bounds_spec(l, support, pairs[:, 0], pairs[:, 1])
    got = np.array(list(vertex_profiles(spec.phi_min, spec.phi_max)))
    expected = np.array(list(product_vertices(spec)))
    assert got.shape == (2 ** k, l)
    assert np.array_equal(got, expected)


def test_refined_gap_never_exceeds_greedy_gap(case9_model, case9_stats):
    # Each re-sweep step keeps the better of two bounds, one of them the
    # current one, so refining cannot lose objective beyond the greedy
    # kernel's relative tie tolerance of 1e-12.
    ev = ObjectiveEvaluator(case9_model, case9_stats)
    support = tuple(range(case9_model.l))
    for trial in range(50):
        lo, hi = sample_bounds(0, trial, support, 1.0, case9_model.l)
        greedy = ev.objective(ev.greedy(lo, hi)[0])
        refined = ev.objective(ev.greedy(lo, hi, refine=True)[0])
        exact = exhaustive_maximize(ev, lo, hi)[1]
        assert refined >= greedy * (1.0 - 1e-11)
        assert oracle_gap(refined, exact) <= oracle_gap(greedy, exact) + 1e-11
        assert refined <= exact * (1.0 + 1e-12)


def test_evaluator_state_is_fixed_at_construction(case9_model, case9_stats):
    # Every field is set in __init__, so no call depends on an earlier one.
    ev = ObjectiveEvaluator(case9_model, case9_stats)
    before = dict(vars(ev))
    snapshot = {k: v.tobytes() for k, v in before.items() if isinstance(v, np.ndarray)}
    l, support = case9_model.l, tuple(range(case9_model.l))
    lo, hi = sample_bounds(0, 0, support, 1.0, l)
    stack = np.random.default_rng(5).uniform(-1.0, 1.0, (3, l))
    ev.objective(stack[0])
    ev.objective(stack)
    ev.metrics(stack)
    ev.baseline()
    ev.greedy(lo, hi)
    ev.greedy(lo, hi, refine=True)
    exhaustive_maximize(ev, lo, hi)
    after = vars(ev)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert {k: after[k].tobytes() for k in snapshot} == snapshot
