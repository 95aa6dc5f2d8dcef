import os

# Pin BLAS to one thread before numpy loads it: the matrices here are small
# and thread fan-out costs far more than it saves.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import sys

import numpy as np
import pytest

from stealthdeg import build_model, build_scenario, grid_model, load_case, parse_case
from stealthdeg.case_ingest import BranchRecord, GridCase

RING_TEXT = """\
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;
\t2\t1\t0\t0\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;
\t3\t1\t0\t0\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;
];
mpc.branch = [
\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
\t2\t3\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
\t1\t3\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
];
"""


@pytest.fixture(scope="session")
def ring_case():
    return parse_case(RING_TEXT)


@pytest.fixture(scope="session")
def ring_model(ring_case):
    return build_model(ring_case)


def seeded_ring(n_bus, n_branch, seed):
    """Ring 1-2-...-n-1 plus seeded chords and reactances in [0.02, 0.2]."""
    rng = np.random.default_rng(seed)
    edges = [(i, i % n_bus + 1) for i in range(1, n_bus + 1)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < n_branch:
        a, b = (int(v) for v in rng.integers(1, n_bus + 1, size=2))
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b))
    xs = rng.uniform(0.02, 0.2, size=n_branch)
    branches = tuple(BranchRecord(a, b, float(x), True) for (a, b), x in zip(edges, xs))
    return GridCase(base_mva=100.0, buses=tuple(range(1, n_bus + 1)),
                    branches=branches, reference_bus=1)


@pytest.fixture(scope="session")
def ring200_model():
    """A 200-bus ring with 100 seeded chords: n = 199, l = 300, m = 799."""
    return build_model(seeded_ring(200, 300, 0))


@pytest.fixture(scope="session")
def case9_model():
    return build_model(load_case("case9"))


@pytest.fixture(scope="session")
def case14_model():
    return build_model(load_case("case14"))


@pytest.fixture(scope="session")
def case30_model():
    return build_model(load_case("case30"))


@pytest.fixture(scope="session")
def case9_stats(case9_model):
    return build_scenario(case9_model, 0.5, 30.0)


@pytest.fixture(scope="session")
def case14_stats(case14_model):
    return build_scenario(case14_model, 0.5, 30.0)


@pytest.fixture(scope="session")
def case30_stats(case30_model):
    return build_scenario(case30_model, 0.5, 30.0)


@pytest.fixture
def no_jacobian(monkeypatch):
    """Make every name the package binds ``grid_model.jacobian`` to raise, so
    a path that builds the m-row Jacobian fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("this path must not build the m-row Jacobian")

    original = grid_model.jacobian
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stealthdeg":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
