"""Eigen-tables (a, d, mult) and their a_1 = 0 flag against dense A, D and
T (the edges with no common neighbour), and the product law."""

import numpy as np
import pytest

from kronspectra.closedform import eigen_table, kron_complete_law
from kronspectra.graphs import (
    Complete,
    Cycle,
    Hamming,
    Johnson,
    Kron,
    build_family,
    distance_matrix,
)
from kronspectra.numeric import symmetric_eigenvalues

FACTORS = (
    [Cycle(n) for n in range(4, 10)]
    + [Complete(n) for n in range(3, 7)]
    + [Johnson(5, 2), Johnson(6, 3), Hamming(2, 3), Hamming(3, 3)]
    # outside the product forms: triangle-free factors, and C_3 with a_1 = 1
    + [Cycle(3), Complete(2), Johnson(2, 1), Hamming(3, 2)]
)
COMBOS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3), (0.5, 3, -2)]


def dense_a_d_t(spec):
    graph = build_family(spec)
    a = graph.adjacency_matrix()
    # T: the edges whose endpoints have no common neighbour
    t = a * (a @ a == 0)
    return a.astype(float), distance_matrix(graph).astype(float), t.astype(float)


@pytest.mark.parametrize("spec", FACTORS, ids=repr)
def test_table_rows_are_joint_eigenvalues(spec):
    a, d, t = dense_a_d_t(spec)
    table = eigen_table(spec)
    # what the law reads off the flag: T is A (a_1 = 0) or 0 (a_1 > 0)
    assert np.array_equal(t, a if table.triangle_free else 0 * a)
    mult = table.mult.astype(np.int64)
    assert mult.sum() == a.shape[0]
    t_col = table.a if table.triangle_free else 0 * table.a
    for x, y, z in COMBOS:
        dense = symmetric_eigenvalues(x * a + y * d + z * t)
        rows = (x * table.a + y * table.d + z * t_col).astype(float)
        closed = np.sort(np.repeat(rows, mult))
        radius = max(1.0, float(np.abs(dense).max()))
        assert np.max(np.abs(closed - dense)) <= 1e-9 * radius, (x, y, z)


@pytest.mark.parametrize("left,right", [
    (3, Hamming(3, 2)),  # hypercube factor, excluded from the published forms
    (3, Complete(2)),
    (4, Cycle(3)),
])
def test_law_holds_wherever_the_table_is_honest(left, right):
    closed = np.array(kron_complete_law(left, eigen_table(right)).expanded())
    oracle = symmetric_eigenvalues(
        distance_matrix(build_family(Kron(Complete(left), right))).astype(float))
    assert np.max(np.abs(closed - oracle)) <= 1e-9 * max(1.0, np.abs(oracle).max())
