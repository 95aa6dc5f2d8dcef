"""The lockstep rank-2 greedy kernel against the two-evaluation greedy.

``sequential_greedy`` is the plain form of the heuristic: at each support
coordinate it evaluates the objective at both bounds from scratch and keeps
the larger, ties going low.  The kernel must choose the same vertex on every
box, whether boxes run alone or in a block.
"""

import subprocess
import sys

import numpy as np
import pytest

from stealthdeg import (
    IncompletenessSpec,
    ObjectiveEvaluator,
    SingularityError,
    beta_sweep,
    build_scenario,
    greedy_maximize,
    sample_bounds,
)
from stealthdeg import degradation_opt

import oracles

CASES = ("case9", "case14", "case30")


def sequential_greedy(ev, spec, refine=False):
    """Reference greedy: two full objective evaluations per coordinate."""
    phi = np.zeros(spec.l)
    for sweep in range(51 if refine else 1):
        changed = sweep == 0
        for i in spec.support:
            lo, hi = spec.phi_min[i], spec.phi_max[i]
            if lo == hi:
                phi[i] = lo
                continue
            previous = phi[i]
            phi[i] = lo
            obj_lo = ev.objective(phi)
            phi[i] = hi
            obj_hi = ev.objective(phi)
            phi[i] = lo if obj_lo >= obj_hi else hi
            changed = changed or phi[i] != previous
        if not changed:
            break
    return phi


def random_specs(l, count, seed):
    """Boxes on full and k-subset supports, some coordinates pinned."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        k = l if rng.random() < 0.3 else int(rng.integers(1, l + 1))
        support = np.sort(rng.choice(l, size=k, replace=False))
        pairs = np.sort(rng.uniform(-1.5, 1.5, (k, 2)), axis=1)
        pinned = rng.random(k) < 0.15
        pairs[pinned, 1] = pairs[pinned, 0]
        lo, hi = np.zeros(l), np.zeros(l)
        lo[support], hi[support] = pairs[:, 0], pairs[:, 1]
        specs.append(IncompletenessSpec.from_bounds(tuple(support), lo, hi))
    return specs


def bounds_of(specs):
    return (np.array([s.phi_min for s in specs]),
            np.array([s.phi_max for s in specs]))


@pytest.fixture(scope="module")
def scenario(request):
    return {case: (request.getfixturevalue(f"{case}_model"),
                   request.getfixturevalue(f"{case}_stats")) for case in CASES}


@pytest.mark.parametrize("refine", [False, True], ids=["single", "refine"])
@pytest.mark.parametrize("case", CASES)
def test_kernel_matches_sequential_greedy(case, refine, scenario):
    model, stats = scenario[case]
    ev = ObjectiveEvaluator(model, stats)
    specs = random_specs(model.l, 200, seed=CASES.index(case))
    chosen = ev.greedy(*bounds_of(specs), refine=refine)
    for spec, phi in zip(specs, chosen):
        assert np.array_equal(phi, sequential_greedy(ev, spec, refine=refine))
    # A box alone takes the same vertex as inside its block.
    for spec, phi in zip(specs[:10], chosen):
        alone = greedy_maximize(ev, spec, refine=refine)
        assert np.array_equal(alone.phi_star, phi)


@pytest.mark.parametrize("case,refine", [("case9", False), ("case9", True), ("case30", False)],
                         ids=["case9-single", "case9-refine", "case30-single"])
def test_block_mates_do_not_change_a_vertex(case, refine, scenario, monkeypatch):
    # Each box's vertex is bitwise the one it takes alone, whether its block
    # is full or, with 7-box blocks, split unevenly (48 = 6 x 7 + 6).
    model, stats = scenario[case]
    ev = ObjectiveEvaluator(model, stats)
    full = tuple(range(model.l))
    boxes = [sample_bounds(0, trial, full, alpha, model.l)
             for alpha in (0.5, 2.0) for trial in range(24)]
    lows, highs = (np.array(side) for side in zip(*boxes))
    alone = np.concatenate([ev.greedy(lo, hi, refine=refine) for lo, hi in boxes])
    assert ev.greedy(lows, highs, refine=refine).tobytes() == alone.tobytes()
    monkeypatch.setattr(degradation_opt, "_SWEEP_BLOCK", 7)
    assert ev.greedy(lows, highs, refine=refine).tobytes() == alone.tobytes()


@pytest.mark.parametrize("case", CASES)
def test_maintained_trace_and_inverse_match_recomputation(case, scenario):
    model, stats = scenario[case]
    ev = ObjectiveEvaluator(model, stats)
    for refine in (False, True):
        lows, highs = bounds_of(random_specs(model.l, 32, seed=10))
        phi, trace, inv = ev._sweep(lows, highs, refine, ev._origin_state())
        for row, tr, got in zip(phi, trace, inv):
            c = (1.0 + row)[:, None] * ev._F
            m = c.T @ ev.G @ c
            assert tr == pytest.approx(np.trace(m), rel=1e-12)
            expected = np.linalg.inv(np.eye(model.n) + m)
            assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()


@pytest.mark.parametrize("snr_db", [30.0, 70.0, 90.0])
@pytest.mark.parametrize("case", CASES)
def test_origin_state_matches_closed_form(case, snr_db, scenario):
    # The sweep's starting point, tr M0 - log|I + M0|, is the objective at
    # phi = 0; forming F^T G F would cancel at high SNR.
    model = scenario[case][0]
    ev = ObjectiveEvaluator(model, build_scenario(model, 0.5, snr_db))
    inv0, trace = ev._origin_state()
    logdet = -np.linalg.slogdet(inv0)[1]
    at_zero = 2.0 * ev.baseline()[0]
    assert abs((trace - logdet) - at_zero) <= 1e-14 * at_zero


def test_non_finite_score_raises(case9_model, case9_stats):
    ev = ObjectiveEvaluator(case9_model, case9_stats)
    lows = np.zeros((3, case9_model.l))
    highs = np.full((3, case9_model.l), 0.5)
    highs[1, 4] = 1e200  # one bad candidate in a block of three
    with pytest.raises(SingularityError):
        ev.greedy(lows, highs)


def x_minus_log1p(lam):
    """lam - log1p(lam) without cancellation for small lam (series)."""
    small = lam < 1e-2
    k = np.arange(2, 12)
    series = ((-1.0) ** k * lam[:, None] ** k / k).sum(axis=1)
    return np.where(small, series, lam - np.log1p(np.where(small, 0.0, lam)))


@pytest.mark.parametrize("case", CASES)
def test_kl_relative_precision_near_full_cancellation(case, scenario):
    # 2 kl = sum(lam - log1p lam) over the eigenvalues of M, which shrink
    # like eps^2 at phi = -1 + eps u.
    model, stats = scenario[case]
    ev = ObjectiveEvaluator(model, stats)
    rng = np.random.default_rng(11)
    for eps in 10.0 ** -np.arange(1, 6):
        for _ in range(20):
            phi = -1.0 + eps * rng.uniform(-1.0, 1.0, model.l)
            c = (1.0 + phi)[:, None] * ev._F
            lam = np.clip(np.linalg.eigvalsh(c.T @ ev.G @ c), 0.0, None)
            expected = x_minus_log1p(lam).sum()
            assert ev.objective(phi) == pytest.approx(expected, rel=1e-6)
            assert ev.objective(phi) == 2.0 * ev.metrics(phi)[0]


def test_stacked_objective_matches_rows(case30_model, case30_stats):
    ev = ObjectiveEvaluator(case30_model, case30_stats)
    stack = np.random.default_rng(12).uniform(-2.0, 2.0, (2, 3, case30_model.l))
    values = ev.objective(stack)
    assert values.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert values[idx] == pytest.approx(ev.objective(stack[idx]), rel=1e-14)


def test_objective_at_zero_is_twice_baseline_kl(case9_model, case9_stats):
    ev = ObjectiveEvaluator(case9_model, case9_stats)
    assert ev.objective(np.zeros(case9_model.l)) == 2.0 * ev.baseline()[0]


def test_uniform_rows_take_the_closed_form(case9_model, case9_stats):
    # Rows phi = beta * ones of a stack read the closed form of the sweep;
    # the other rows keep the Cholesky route.
    ev = ObjectiveEvaluator(case9_model, case9_stats)
    l = case9_model.l
    betas = [-1.5, -1.0, -0.0, 0.0, 0.4]
    rows = beta_sweep(case9_model, case9_stats, betas)
    stack = np.vstack([np.outer(betas, np.ones(l)),
                       np.random.default_rng(3).uniform(-1.0, 1.0, (2, l))])
    objective = ev.objective(stack)
    kl, mi = ev.metrics(stack)
    for i, row in enumerate(rows):
        assert objective[i] == 2.0 * row.kl
        assert (kl[i], mi[i]) == (row.kl, row.mi)
    for j in (5, 6):
        assert objective[j] == pytest.approx(ev.objective(stack[j]), rel=1e-14)
        assert kl[j] == pytest.approx(ev.metrics(stack[j])[0], rel=1e-14)


def test_gram_blocks_from_the_fold(case30_model, case30_stats):
    # J^T J = A A^T + 2 I holds small integers, so it is exact.
    ev = ObjectiveEvaluator(case30_model, case30_stats)
    J, F = oracles.J(case30_model), case30_stats.F
    assert np.array_equal(ev._JtJ, J.T @ J)
    gram = F.T @ (J.T @ J) @ F
    assert np.abs(ev.stats.gram - gram).max() <= 1e-13 * np.abs(gram).max()


def test_package_does_not_import_scipy():
    code = "import sys, stealthdeg.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize("case", CASES)
def test_exact_tie_goes_low(case, scenario):
    # With every other branch cancelled (phi = -1), M depends on the last
    # coordinate only through (1 + phi)^2, so bounds mirrored about -1 tie.
    model, stats = scenario[case]
    ev = ObjectiveEvaluator(model, stats)
    for half_width in (0.25, 0.3, 0.5, 0.75):
        lo = np.full(model.l, -1.0)
        hi = lo.copy()
        lo[-1], hi[-1] = -1.0 - half_width, -1.0 + half_width
        spec = IncompletenessSpec.from_bounds(tuple(range(model.l)), lo, hi)
        assert ev.greedy(lo, hi)[0][-1] == lo[-1]
        assert np.array_equal(ev.greedy(lo, hi)[0], sequential_greedy(ev, spec))
