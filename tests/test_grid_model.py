import numpy as np
import pytest

from stealthdeg import (
    ValidationError,
    build_model,
    check_connectivity_and_rank,
    incidence_matrix,
    jacobian,
    parse_case,
    susceptance_diag,
)
from stealthdeg.grid_model import GridModel, _connected_components
import oracles

TWO_BUS = """\
mpc.baseMVA = 100;
mpc.bus = [
 1 {t1} 0 0 0 0 1 1 0 345 1 1.1 0.9;
 2 {t2} 0 0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.branch = [ 1 2 0 0.25 0 0 0 0 0 0 1; ];
"""

ISLANDS = """\
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;
 2 1 0 0 0 0 1 1 0 345 1 1.1 0.9;
 3 1 0 0 0 0 1 1 0 345 1 1.1 0.9;
 4 1 0 0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.branch = [
 1 2 0 0.1 0 0 0 0 0 0 1;
 3 4 0 0.1 0 0 0 0 0 0 1;
];
"""

# Five buses in three islands: 1-2, 3-4 and bus 5 alone.
THREE_ISLANDS = ISLANDS.replace(
    "];\nmpc.branch", " 5 1 0 0 0 0 1 1 0 345 1 1.1 0.9;\n];\nmpc.branch")


def test_ring_incidence(ring_case):
    A = incidence_matrix(ring_case)
    assert np.array_equal(A, [[-1, 0], [1, -1], [0, -1]])


def test_two_bus_incidence_both_references():
    A = incidence_matrix(parse_case(TWO_BUS.format(t1=3, t2=1)))
    assert np.array_equal(A, [[-1]])
    A = incidence_matrix(parse_case(TWO_BUS.format(t1=1, t2=3)))
    assert np.array_equal(A, [[1]])


def test_susceptance_values(ring_case):
    assert np.array_equal(susceptance_diag(ring_case), [10.0, 10.0, 10.0])
    case = parse_case(TWO_BUS.format(t1=3, t2=1).replace("0.25", "-0.25"))
    assert np.array_equal(susceptance_diag(case), [-4.0])


def test_case9_susceptances(case9_model):
    published_x = [0.0576, 0.092, 0.17, 0.0586, 0.1008, 0.072, 0.0625, 0.161, 0.085]
    assert np.allclose(case9_model.b, 1.0 / np.array(published_x), rtol=0, atol=0)
    assert (case9_model.b > 0).all()


def test_ring_jacobian_blocks(ring_case):
    A = incidence_matrix(ring_case)
    H = jacobian(A, np.full(3, 10.0))
    assert H.shape == (8, 2)
    assert np.array_equal(H[:2], [[20.0, -10.0], [-10.0, 20.0]])


def test_scalar_jacobian():
    A = np.array([[-1.0]])
    H = jacobian(A, np.array([4.0]))
    assert np.array_equal(H, [[4.0], [-4.0], [4.0]])


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_shapes_and_reconstruction(name):
    from stealthdeg import load_case

    model = build_model(load_case(name))
    assert model.m == model.n + 2 * model.l
    H, J = oracles.H(model), oracles.J(model)
    assert H.shape == (model.m, model.n)
    assert J.shape == (model.m, model.l)
    # Same arithmetic path: exact equality.
    rebuilt = J @ (model.b[:, None] * model.A)
    assert np.array_equal(H, rebuilt)
    # Row blocks: flows then negated flows.
    flows = model.b[:, None] * model.A
    assert np.array_equal(H[model.n:model.n + model.l], flows)
    assert np.array_equal(H[model.n + model.l:], -flows)


@pytest.mark.parametrize(
    "fixture,n",
    [("ring_model", 2), ("case9_model", 8), ("case14_model", 13), ("case30_model", 29)],
)
def test_connected_full_rank(fixture, n, request):
    model = request.getfixturevalue(fixture)
    report = check_connectivity_and_rank(model)
    assert report.connected
    assert report.n_components == 1
    assert report.rank == n
    assert report.full_rank
    assert report.rank == np.linalg.matrix_rank(jacobian(model.A, model.b))


def test_disconnected_islands_rejected():
    case = parse_case(ISLANDS)
    with pytest.raises(ValidationError):
        build_model(case)
    # Diagnostic path: assemble the matrices by hand and inspect the report.
    A = incidence_matrix(case)
    b = susceptance_diag(case)
    model = GridModel(A=A, b=b, n=3, l=2, m=7)
    report = check_connectivity_and_rank(model)
    assert not report.connected
    assert report.n_components == 2
    assert report.rank < model.n


def test_three_islands_rank_matches_svd():
    case = parse_case(THREE_ISLANDS)
    with pytest.raises(ValidationError):
        build_model(case)
    A = incidence_matrix(case)
    b = susceptance_diag(case)
    model = GridModel(A=A, b=b, n=4, l=2, m=8)
    report = check_connectivity_and_rank(model)
    assert not report.connected
    assert report.n_components == 3
    assert report.rank == np.linalg.matrix_rank(jacobian(A, b)) == 2


@pytest.mark.parametrize("fixture", ["ring_model", "case9_model", "case14_model",
                                     "case30_model", "ring200_model"])
def test_blockwise_jacobian_matches_the_product(fixture, request):
    # Negated susceptances turn the zero flows into -0.0, which the product
    # never yields; bytes compare the sign of zero too.  The injection
    # block's sums may be ordered differently by BLAS on larger grids, so
    # beyond the bundled cases it is held to roundoff only.
    model = request.getfixturevalue(fixture)
    for b in (model.b, -model.b):
        H = jacobian(model.A, b)
        product = oracles.J(model) @ (b[:, None] * model.A)
        if fixture != "ring200_model":
            assert H.tobytes() == product.tobytes()
        n = model.n
        assert H[n:].tobytes() == product[n:].tobytes()
        assert np.abs(H[:n] - product[:n]).max() <= 1e-14 * np.abs(product[:n]).max()


def _union_find_components(n_bus, edges):
    parent = list(range(n_bus))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(n_bus)})


def test_components_match_union_find_oracle():
    # Random multigraphs, from edgeless (all islands) to dense, with
    # branches at the reference bus, parallel branches and either sign.
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_bus = int(rng.integers(2, 13))
        edges = [tuple(int(v) for v in rng.choice(n_bus, size=2, replace=False))
                 for _ in range(int(rng.integers(0, 2 * n_bus)))]
        full = np.zeros((len(edges), n_bus))
        for k, (a, b) in enumerate(edges):
            full[k, a], full[k, b] = 1.0, -1.0
        A = np.delete(full, int(rng.integers(n_bus)), axis=1)
        assert _connected_components(A) == _union_find_components(n_bus, edges)
