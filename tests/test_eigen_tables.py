"""Eigen-tables (a, d, mult) and their a_1 = 0 flag against dense A, D and
T (the edges with no common neighbour), and the product law."""

import numpy as np
import pytest

from kronspectra.circulant import cycle_adjacency_eigenvalues, cycle_distance_eigenvalues
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


def test_integer_tables_are_shared_and_read_only():
    for spec in (Hamming(3, 3), Johnson(6, 3), Complete(5), Complete(1)):
        table = eigen_table(spec)
        assert eigen_table(spec) is table
        for column in (table.a, table.d, table.mult):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7
    # a cycle table has a float row per vertex pair, so none is kept
    assert eigen_table(Cycle(9)) is not eigen_table(Cycle(9))


@pytest.mark.parametrize("n", list(range(3, 41)) + [999, 1000, 4001])
def test_cycle_table_is_the_half_table_of_the_public_columns(n):
    table = eigen_table(Cycle(n))
    rows = n // 2 + 1
    assert table.a.shape == table.d.shape == table.mult.shape == (rows,)
    assert table.mult.dtype == np.int64 and table.mult.sum() == n
    # j and n - j are one row of multiplicity 2; j = 0, and j = n/2 for
    # even n, stand alone
    singles = [0, rows - 1] if n % 2 == 0 else [0]
    assert np.flatnonzero(table.mult == 1).tolist() == singles
    assert np.all(np.delete(table.mult, singles) == 2)
    assert np.array_equal(table.a, cycle_adjacency_eigenvalues(n)[:rows])
    assert np.array_equal(table.d, cycle_distance_eigenvalues(n)[:rows])
