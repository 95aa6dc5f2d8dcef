import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthdeg import (
    ObjectiveEvaluator,
    ValidationError,
    alpha_montecarlo,
    beta_sweep,
    build_model,
    build_scenario,
    k_sweep,
    sample_bounds,
)
from stealthdeg.case_ingest import BranchRecord, GridCase
from stealthdeg.experiment_harness import (
    _BETA_CHUNK,
    fmt17,
    trial_rng,
    write_alpha_csv,
    write_beta_csv,
    write_k_csv,
)
from stealthdeg.regime_analysis import RegimeLabel

from oracles import vertex_digest


def _greedy_metrics(model, stats, seed, alpha, trials):
    """(kl, mi) of ``ev.greedy``'s vertices for the full-support boxes of
    trials 0..trials-1, scored in one stack as the trial loop scores them."""
    ev = ObjectiveEvaluator(model, stats)
    support = tuple(range(model.l))
    lows, highs = np.array([sample_bounds(seed, t, support, alpha, model.l)
                            for t in range(trials)]).transpose(1, 0, 2)
    return ev.metrics(ev.greedy(lows, highs))


class TestSampleBounds:
    def test_zero_budget_collapses_to_origin(self):
        lo, hi = sample_bounds(3, 0, (0, 1, 2), 0.0, 3)
        assert np.array_equal(lo, np.zeros(3))
        assert np.array_equal(hi, np.zeros(3))

    def test_single_coordinate_full_budget(self):
        lo, hi = sample_bounds(3, 5, (0,), 2.0, 1)
        assert lo[0] == -1.0 and hi[0] == 1.0

    def test_budget_hit_exactly(self):
        lo, hi = sample_bounds(42, 0, tuple(range(9)), 1.0, 9)
        assert abs(np.linalg.norm(hi - lo) - 1.0) <= 1e-9

    def test_stays_inside_unit_box_across_branches(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            k = int(rng.integers(1, 12))
            target = float(rng.uniform(0.0, 2.0 * np.sqrt(k)))
            lo, hi = sample_bounds(1, trial, tuple(range(k)), target, k)
            assert (lo >= -1.0).all() and (hi <= 1.0).all()
            assert (lo <= hi).all()
            assert abs(np.linalg.norm(hi - lo) - target) <= 1e-9

    def test_off_support_zero(self):
        lo, hi = sample_bounds(9, 2, (1, 3), 0.5, 6)
        assert lo[0] == lo[2] == lo[4] == lo[5] == 0.0
        assert hi[0] == hi[2] == hi[4] == hi[5] == 0.0

    def test_unreachable_budget(self):
        with pytest.raises(ValidationError):
            sample_bounds(0, 0, (0, 1), 2.0 * np.sqrt(2) + 0.1, 2)
        with pytest.raises(ValidationError):
            sample_bounds(0, 0, (), 0.5, 2)
        with pytest.raises(ValidationError):
            sample_bounds(0, 0, (0,), -0.5, 1)

    def test_nan_budget_rejected_at_entry(self):
        with pytest.raises(ValidationError, match="nan"):
            sample_bounds(0, 0, (0, 1), float("nan"), 2)

    def test_pure_function_of_seed_and_trial(self):
        a = sample_bounds(7, 11, (0, 1, 2), 1.0, 3)
        b = sample_bounds(7, 11, (0, 1, 2), 1.0, 3)
        c = sample_bounds(7, 12, (0, 1, 2), 1.0, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_same_base_draw_across_budgets(self):
        # Budgets share the (seed, trial) stream: boxes are nested rescales.
        lo1, hi1 = sample_bounds(5, 3, (0, 1), 0.4, 2)
        lo2, hi2 = sample_bounds(5, 3, (0, 1), 0.2, 2)
        assert np.allclose(lo2, lo1 / 2) and np.allclose(hi2, hi1 / 2)


class TestBetaSweep:
    def test_cancellation_row(self, ring_model):
        from stealthdeg import build_scenario

        stats = build_scenario(ring_model, 0.5, 10.0)
        rows = beta_sweep(ring_model, stats, [-1.0])
        assert rows[0].kl <= 1e-12
        assert rows[0].regime is RegimeLabel.MORE_STEALTHY_LESS_DESTRUCTIVE

    def test_boundary_rows_match_optimum(self, case9_model, case9_stats):
        kl_opt, mi_opt = ObjectiveEvaluator(case9_model, case9_stats).baseline()
        rows = beta_sweep(case9_model, case9_stats, [0.0, -2.0])
        for row in rows:
            assert row.kl == pytest.approx(kl_opt, rel=1e-9, abs=1e-12)
            assert row.mi == pytest.approx(mi_opt, rel=1e-9)
            assert row.regime is RegimeLabel.BOUNDARY

    def test_shape_properties_small_grid(self, case9_model, case9_stats):
        grid = [(-150 + i) / 50 for i in range(201)]  # [-3, 1] step 0.02
        rows = beta_sweep(case9_model, case9_stats, grid)
        kl = np.array([r.kl for r in rows])
        mi = np.array([r.mi for r in rows])
        kl_opt, mi_opt = ObjectiveEvaluator(case9_model, case9_stats).baseline()
        # Symmetry about -1: index pairs i and 200-i.
        for i in range(201):
            assert abs(kl[i] - kl[200 - i]) <= 1e-9 * max(1.0, kl[i])
        assert kl[100] <= 1e-12
        assert np.diff(kl, 2).min() >= -1e-8
        assert int(np.argmax(mi)) == 100
        assert kl[150] == pytest.approx(kl_opt, rel=1e-9)
        assert mi[150] == pytest.approx(mi_opt, rel=1e-9)

    def test_tradeoff_monotone_on_upper_branch(self, case9_model, case9_stats):
        grid = [(-50 + i) / 50 for i in range(101)]  # [-1, 1] step 0.02
        rows = beta_sweep(case9_model, case9_stats, grid)
        for earlier, later in zip(rows, rows[1:]):
            assert later.kl >= earlier.kl - 1e-9
            assert later.mi <= earlier.mi + 1e-9


@pytest.fixture(scope="module")
def ring200_model():
    """200-bus ring plus 100 seeded chords (n = 199, l = 300, m = 799)."""
    rng = np.random.default_rng(3)
    edges = [(i, i % 200 + 1) for i in range(1, 201)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < 300:
        a, b = (int(v) for v in rng.integers(1, 201, size=2))
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b))
    branches = tuple(BranchRecord(a, b, float(x), True)
                     for (a, b), x in zip(edges, rng.uniform(0.02, 0.2, size=300)))
    return build_model(GridCase(base_mva=100.0, buses=tuple(range(1, 201)),
                                branches=branches, reference_bus=1))


class TestBetaSweepClosedForm:
    @pytest.mark.parametrize("case", ["case9", "case14", "case30", "ring200"])
    def test_matches_evaluator_metrics(self, case, request):
        model = request.getfixturevalue(f"{case}_model")
        stats = build_scenario(model, 0.5, 30.0)
        ev = ObjectiveEvaluator(model, stats)
        betas = [-3.0, -2.2, -1.5, -1.0, -0.6, 0.0, 0.4, 1.0]
        for row in beta_sweep(model, stats, betas):
            kl, mi = ev.metrics(np.full(model.l, row.beta))
            assert row.kl == pytest.approx(kl, rel=1e-10)
            assert row.mi == pytest.approx(mi, rel=1e-10)

    def test_builds_no_evaluator(self, case9_model, case9_stats, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the uniform sweep must not use the n x n core")

        monkeypatch.setattr(ObjectiveEvaluator, "__init__", refuse)
        monkeypatch.setattr(ObjectiveEvaluator, "metrics", refuse)
        rows = beta_sweep(case9_model, case9_stats, [-2.5, -1.0, 0.0, 0.4])
        assert [r.beta for r in rows] == [-2.5, -1.0, 0.0, 0.4]
        assert all(np.isfinite([r.kl, r.mi]).all() for r in rows)

    def test_chunked_grid_matches_single_points(self, case14_model, case14_stats):
        grid = np.linspace(-3.0, 1.0, _BETA_CHUNK + 3)
        rows = beta_sweep(case14_model, case14_stats, grid)
        assert rows == [beta_sweep(case14_model, case14_stats, [b])[0] for b in grid]


# Deterministic and small, so tier-1 stays reproducible and fast.
_PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)


class TestBetaSweepProperties:
    """Hypothesis properties of the uniform family on case9 at 30 dB.

    The 1e-12 relative slack covers roundoff between the closed form and the
    Cholesky baseline where kl and mi meet kl_opt and mi_opt.
    """

    @_PROPERTIES
    @given(beta=st.floats(-3.0, 1.0))
    def test_regime_orders_metrics(self, beta, case9_model, case9_stats):
        kl_opt, mi_opt = ObjectiveEvaluator(case9_model, case9_stats).baseline()
        row, = beta_sweep(case9_model, case9_stats, [beta])
        if row.regime is RegimeLabel.LESS_STEALTHY_MORE_DESTRUCTIVE:
            assert row.kl >= kl_opt * (1.0 - 1e-12)
            assert row.mi <= mi_opt * (1.0 + 1e-12)
        elif row.regime is RegimeLabel.MORE_STEALTHY_LESS_DESTRUCTIVE:
            assert row.kl <= kl_opt * (1.0 + 1e-12)
            assert row.mi >= mi_opt * (1.0 - 1e-12)

    @_PROPERTIES
    @given(beta=st.floats(-3.0, 1.0))
    def test_kl_symmetric_about_full_cancellation(self, beta, case9_model, case9_stats):
        row, mirror = beta_sweep(case9_model, case9_stats, [beta, -2.0 - beta])
        assert abs(row.kl - mirror.kl) <= 1e-12 * max(1.0, row.kl)


class TestTrials:
    def test_zero_budget_trial_hits_baseline(self, case9_model, case9_stats):
        records = alpha_montecarlo(case9_model, case9_stats, [0.0], 1, 0)
        assert len(records) == 1
        assert records[0].kl == records[0].kl_opt
        assert records[0].mi == records[0].mi_opt
        assert records[0].alpha == 0.0

    def test_alpha_recheck_invariant(self, case9_model, case9_stats):
        records = alpha_montecarlo(case9_model, case9_stats, [0.7], 5, 11)
        support = tuple(range(case9_model.l))
        for rec in records:
            lo, hi = sample_bounds(11, rec.trial_id, support, 0.7, case9_model.l)
            assert abs(rec.alpha - np.linalg.norm(hi - lo)) <= 1e-12

    def test_records_sorted_and_complete(self, case9_model, case9_stats):
        records = alpha_montecarlo(case9_model, case9_stats, [1.0, 0.5], 3, 0)
        keys = [(round(r.alpha, 6), r.trial_id) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 6
        assert all(r.k == case9_model.l for r in records)

    def test_k_one_oracle_free(self, case9_model, case9_stats):
        from stealthdeg import exhaustive_maximize, greedy_maximize
        from stealthdeg.attack_engine import IncompletenessSpec
        from stealthdeg.experiment_harness import _sample_bounds_from

        # With one free coordinate the greedy cannot lose to the oracle.
        for trial in range(50):
            rng = trial_rng(0, trial)
            support = tuple(int(i) for i in np.sort(
                rng.choice(case9_model.l, size=1, replace=False)))
            lo, hi = _sample_bounds_from(rng, support, 1.0, case9_model.l)
            spec = IncompletenessSpec.from_bounds(support, lo, hi)
            greedy = greedy_maximize(ObjectiveEvaluator(case9_model, case9_stats), spec)
            exact = exhaustive_maximize(ObjectiveEvaluator(case9_model, case9_stats), spec)
            assert greedy.objective == exact.objective

    def test_full_support_matches_alpha_montecarlo(self, case9_model, case9_stats):
        # k = l skips the subset draw, so records coincide with the
        # alpha-driver's for the same seed.
        a = alpha_montecarlo(case9_model, case9_stats, [1.0], 4, 3)
        b = k_sweep(case9_model, case9_stats, [case9_model.l], 4, 3,
                    target_alpha=1.0)
        kls, mis = _greedy_metrics(case9_model, case9_stats, 3, 1.0, 4)
        for ra, rb, kl, mi in zip(a, b, kls, mis):
            assert ra.kl == rb.kl and ra.mi == rb.mi
            assert (ra.kl, ra.mi) == (kl, mi)

    def test_trial_loop_hashes_no_vertex(self, case9_model, case9_stats):
        records = alpha_montecarlo(case9_model, case9_stats, [0.5], 3, 2)
        kls, mis = _greedy_metrics(case9_model, case9_stats, 2, 0.5, 3)
        for rec, kl, mi in zip(records, kls, mis):
            assert (rec.kl, rec.mi) == (kl, mi)

    def test_drivers_build_no_spec(self, case9_model, case9_stats, monkeypatch):
        from stealthdeg.attack_engine import IncompletenessSpec

        def refuse(self):
            raise AssertionError("the trial loop must not build an IncompletenessSpec")

        def run():
            return (alpha_montecarlo(case9_model, case9_stats, [0.5, 2.0], 6, 4)
                    + k_sweep(case9_model, case9_stats, [1, 4, case9_model.l], 6, 4))

        expected = run()
        monkeypatch.setattr(IncompletenessSpec, "__post_init__", refuse)
        assert run() == expected

    @pytest.mark.parametrize("driver", ["alpha", "k"])
    def test_zero_trials_is_validation_error(self, driver, case9_model, case9_stats):
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            if driver == "alpha":
                alpha_montecarlo(case9_model, case9_stats, [1.0], 0, 0)
            else:
                k_sweep(case9_model, case9_stats, [2], 0, 0)

    def test_k_out_of_range(self, case9_model, case9_stats):
        with pytest.raises(ValidationError):
            k_sweep(case9_model, case9_stats, [0], 1, 0)
        with pytest.raises(ValidationError):
            k_sweep(case9_model, case9_stats, [10], 1, 0)

    def test_concentration_with_larger_support(self, case9_model, case9_stats):
        # Relative and absolute spread shrink as the same budget is spread
        # over more branches (600 trials keeps the comparison stable).
        records = k_sweep(case9_model, case9_stats, [2, 5, 9], 600, 0,
                          target_alpha=1.0)
        iqrs = []
        for k in (2, 5, 9):
            kl = np.array([r.kl for r in records if r.k == k])
            iqrs.append(np.percentile(kl, 75) - np.percentile(kl, 25))
        assert iqrs[0] >= iqrs[1] >= iqrs[2]


class TestCsvWriters:
    def test_beta_csv(self, case9_model, case9_stats):
        rows = beta_sweep(case9_model, case9_stats, [0.0, 0.5])
        buf = io.StringIO()
        write_beta_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "beta,kl_nats,mi_nats,regime"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",BOUNDARY")

    def test_alpha_csv_deterministic(self, case9_model, case9_stats):
        def render():
            records = alpha_montecarlo(case9_model, case9_stats, [0.5, 1.0], 3, 9)
            buf = io.StringIO()
            write_alpha_csv(records, buf)
            return buf.getvalue()

        first, second = render(), render()
        assert first == second
        header = first.splitlines()[0]
        assert header == (
            "alpha,trial,kl_nats,mi_nats,kl_opt_nats,mi_opt_nats,regime,oracle_gap"
        )
        assert first.splitlines()[1].endswith(",")  # no oracle gap recorded

    def test_k_csv_schema(self, case9_model, case9_stats):
        records = k_sweep(case9_model, case9_stats, [2], 2, 0, target_alpha=1.0)
        buf = io.StringIO()
        write_k_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,trial,alpha,kl_nats,mi_nats,kl_opt_nats,mi_opt_nats"
        assert len(lines) == 3

    def test_fmt17_round_trips_doubles(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt17(x)) == x

    def test_digest_stability(self):
        phi = np.array([0.25, -1.0, 0.0])
        assert vertex_digest(phi) == vertex_digest(phi.copy())
        assert vertex_digest(phi) != vertex_digest(np.array([0.25, -1.0, 1e-9]))

    def test_digest_matches_per_value_format(self):
        # The digest hashes the fmt17 cells of the vertex, comma-joined.
        rng = np.random.default_rng(8)
        vectors = [
            np.array([-0.0, 5e-324, 1e308, -1e308, 0.0, -5e-324]),
            rng.standard_normal(41) * 10.0 ** rng.integers(-300, 300, 41).astype(float),
            rng.uniform(-1.0, 1.0, 9),
            np.array([]),
        ]
        for phi in vectors:
            expected = hashlib.sha256(",".join(fmt17(v) for v in phi).encode()).hexdigest()[:16]
            assert vertex_digest(phi) == expected
            assert vertex_digest(list(phi)) == expected
