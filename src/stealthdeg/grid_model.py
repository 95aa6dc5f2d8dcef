"""Incidence, susceptance and Jacobian matrices of the DC measurement model.

Measurements are the net bus injections plus the branch flows in both
directions, so the Jacobian stacks as H = [A^T diag(b) A; diag(b) A;
-diag(b) A] = J diag(b) A with J = [A; I; -I]^T.  States are the voltage
angles at the non-reference buses.

J enters every metric only through J^T J = A A^T + 2 I: rotating each
(flow, reverse flow) row pair by 45 degrees, an orthogonal change of
measurement basis, maps it to (sqrt(2) flow, 0).  The scenario and the
metrics are therefore built from A and b alone (see
:func:`~stealthdeg.stochastics.build_scenario`), and the model holds no
m-row matrix.  H is built only on request, by :func:`jacobian`, for
``dump-model``.
"""

from dataclasses import dataclass

import numpy as np

from .case_ingest import in_service_branches
from .errors import ValidationError


@dataclass(frozen=True)
class GridModel:
    """Immutable matrix bundle for one case.

    A: l x n reduced incidence matrix (reference column removed).
    b: length-l branch susceptance vector (1/x).
    n, l: state and in-service branch counts.
    m: measurement count n + 2l, the row count of H = :func:`jacobian`.
    """

    A: np.ndarray
    b: np.ndarray
    n: int
    l: int
    m: int


@dataclass(frozen=True)
class StructureReport:
    """Connectivity and rank diagnostics for a model."""

    connected: bool
    n_components: int
    rank: int
    full_rank: bool


def incidence_matrix(case):
    """Signed branch-bus incidence matrix with the reference column removed.

    Row k carries +1 at the from-bus column and -1 at the to-bus column of
    in-service branch k (file order); the reference bus column is deleted.
    """
    branches = in_service_branches(case)
    pos = case.bus_positions()
    ref_col = pos[case.reference_bus]
    full = np.zeros((len(branches), len(case.buses)))
    for k, br in enumerate(branches):
        full[k, pos[br.from_bus]] = 1.0
        full[k, pos[br.to_bus]] = -1.0
    return np.delete(full, ref_col, axis=1)


def susceptance_diag(case):
    """Branch susceptances b_i = 1/x_i for the in-service branches."""
    return 1.0 / np.array([br.reactance_x for br in in_service_branches(case)])


def jacobian(A, b):
    """The m x n Jacobian H = J diag(b) A, with J = [A; I; -I]^T.

    H is stacked block by block from the flows diag(b) A, without forming J
    or the O(m l n) product J @ (diag(b) A).  Its flow blocks are bitwise
    those of the product; the injection block A^T diag(b) A sums the same
    terms, in an order BLAS may choose differently on large grids (bitwise
    equal on the bundled cases).
    """
    flows = b[:, None] * A
    H = np.vstack([A.T @ flows, flows, -flows])
    # The matrix product sums from +0.0, so its zeros are never -0.0.
    H += 0.0
    return H


def _connected_components(A):
    """Component count of the branch graph encoded by a reduced incidence.

    The deleted reference column is restored as a virtual node: any row with
    a single nonzero entry joins its bus to the reference.
    """
    l, n = A.shape
    parent = list(range(n + 1))  # node n is the reference

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Row k's ends default to the reference; np.nonzero lists each row's
    # columns in order, the first filling slot 0 and a second slot 1.
    rows, cols = np.nonzero(A)
    ends = np.full((l, 2), n)
    second = np.zeros(len(rows), dtype=np.intp)
    second[1:] = rows[1:] == rows[:-1]
    ends[rows, second] = cols
    for u, v in ends.tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(x) for x in range(n + 1)})


def check_connectivity_and_rank(model):
    """Graph connectivity plus the rank of H, from the component count.

    H = J diag(b) A has the rank of A, since J has full column rank
    (J^T J = A A^T + 2 I) and every b_i is nonzero; a reduced incidence of
    a graph on n + 1 buses with c components has rank n + 1 - c.
    """
    n_components = _connected_components(model.A)
    rank = model.n + 1 - n_components
    return StructureReport(
        connected=n_components == 1,
        n_components=n_components,
        rank=rank,
        full_rank=rank == model.n,
    )


def build_model(case):
    """Assemble a :class:`GridModel`; reject disconnected branch graphs."""
    A = incidence_matrix(case)
    b = susceptance_diag(case)
    n_components = _connected_components(A)
    if n_components != 1:
        raise ValidationError(
            f"in-service branch graph has {n_components} components"
        )
    l, n = A.shape
    return GridModel(A=A, b=b, n=n, l=l, m=n + 2 * l)
