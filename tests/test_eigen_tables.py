"""Eigen-tables (a, d, mult) and their a_1 = 0 flag against dense A, D and
T (the edges with no common neighbour), and the product law."""

import math

import numpy as np
import pytest

from kronspectra import circulant, closedform
from kronspectra.circulant import (
    cycle_adjacency_eigenvalues,
    cycle_distance_eigenvalues,
    cycle_half_adjacency,
    cycle_half_distance,
)
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
from kronspectra.spectrum import Spectrum, group_sorted, sort_rows

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


def parity_major(n):
    """j = 0..n//2 in the half table's row order: even j ascending, then
    odd j ascending."""
    j = np.arange(n // 2 + 1)
    return np.concatenate([j[::2], j[1::2]])


def same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", list(range(3, 41)) + [999, 1000, 4001])
def test_cycle_table_is_the_half_table_of_the_public_columns(n):
    table = eigen_table(Cycle(n))
    rows = n // 2 + 1
    assert table.a.shape == table.d.shape == table.mult.shape == (rows,)
    assert table.mult.dtype == np.int64 and table.mult.sum() == n
    # j and n - j are one row of multiplicity 2; j = 0, and j = n/2 for
    # even n, stand alone
    order = parity_major(n)
    singles = np.flatnonzero((order == 0) | (2 * order == n)).tolist()
    assert np.flatnonzero(table.mult == 1).tolist() == singles
    assert np.all(np.delete(table.mult, singles) == 2)
    assert same_bytes(table.a, cycle_adjacency_eigenvalues(n)[order])
    assert same_bytes(table.d, cycle_distance_eigenvalues(n)[order])


def plain_columns(n, rows):
    """The cycle columns as plain whole-array expressions, one temporary
    per step: the form the in-place columns must reproduce bit for bit."""
    j = np.arange(rows)
    a = 2.0 * np.cos(2.0 * math.pi * j / n)
    d = np.zeros(rows)
    d[0] = n * n / 4.0 if n % 2 == 0 else (n * n - 1) / 4.0
    if n % 2 == 0:
        d[1::2] = -1.0 / np.sin(math.pi * j[1::2] / n) ** 2
    else:
        d[2::2] = -0.25 / np.cos(math.pi * j[2::2] / (2 * n)) ** 2
        d[1::2] = -0.25 / np.sin(math.pi * j[1::2] / (2 * n)) ** 2
    return a, d


def plain_multiplicities(n):
    """The half table's multiplicities in j order."""
    mult = np.full(n // 2 + 1, 2, dtype=np.int64)
    mult[0] = 1
    if n % 2 == 0:
        mult[-1] = 1
    return mult


@pytest.mark.parametrize("n", list(range(3, 61)) + [999, 1000, 4001, 10**6])
def test_in_place_cycle_columns_are_the_plain_expressions_bit_for_bit(n):
    a, d = plain_columns(n, n)
    assert same_bytes(cycle_adjacency_eigenvalues(n), a)
    assert same_bytes(cycle_distance_eigenvalues(n), d)
    order = parity_major(n)
    mult = plain_multiplicities(n)[order]
    table = eigen_table(Cycle(n))
    assert same_bytes(table.a, a[order]) and same_bytes(table.d, d[order])
    assert same_bytes(table.mult, mult)
    for half_column, column in ((cycle_half_adjacency, a), (cycle_half_distance, d)):
        half, half_mult = half_column(n)
        assert same_bytes(half, column[order]) and same_bytes(half_mult, mult)


def test_a_cycle_half_column_evaluates_only_its_own_formula(monkeypatch):
    calls = []
    for name in ("_adjacency_column", "_distance_column"):
        real = getattr(circulant, name)
        monkeypatch.setattr(circulant, name,
                            lambda n, half, _real=real, _name=name:
                            calls.append((_name, half)) or _real(n, half))
    cycle_half_adjacency(10)
    cycle_half_distance(10)
    closedform.cycle_distance_spectrum(11)
    closedform.cycle_adjacency_spectrum(11)
    cycle_distance_eigenvalues(12)
    cycle_adjacency_eigenvalues(12)
    assert calls == [("_adjacency_column", True), ("_distance_column", True),
                     ("_distance_column", True), ("_adjacency_column", True),
                     ("_distance_column", False), ("_adjacency_column", False)]


def sort_runs(x):
    """Runs of x as a stable merge sort finds them, left to right: each a
    maximal strictly descending stretch, or else a maximal non-descending
    one; the element that ends a run starts the next."""
    descents = x[1:] < x[:-1]
    # where the descent pattern changes, so where a run of either kind ends
    changes = np.flatnonzero(descents[1:] != descents[:-1]) + 1
    runs, start = 0, 0
    while start < x.size:
        runs += 1
        end = changes[np.searchsorted(changes, start, side="right"):][:1]
        start = (int(end[0]) if end.size else x.size - 1) + 1
    return runs


def test_sort_runs_counts_the_greedy_runs():
    for x, runs in (([], 0), ([1.0], 1), ([1, 2, 2, 3], 1), ([3, 2, 1], 1),
                    ([3, 2, 2, 1], 2), ([1, 0, 1, 0, 1], 3), ([0, 1, 0, 1, 0], 3),
                    ([2, 1, 0, 0, 5, -9, 1], 3), ([5, 4, 0, 0, 0, -3, -2], 3)):
        assert sort_runs(np.array(x, dtype=float)) == runs, x


def test_cycle_half_columns_are_a_few_monotone_runs():
    for n in list(range(3, 3001)) + [100001, 502327, 921722, 10**6]:
        assert sort_runs(cycle_half_distance(n)[0]) <= 3, n
        assert sort_runs(cycle_half_adjacency(n)[0]) <= 2, n


def test_the_cycle_law_sorts_a_few_monotone_runs(monkeypatch):
    runs = []
    sorting = closedform.sort_rows
    monkeypatch.setattr(closedform, "sort_rows",
                        lambda v, m: runs.append(sort_runs(v)) or sorting(v, m))
    for length in range(4, 1500):
        table = eigen_table(Cycle(length))
        for n in range(3, 9):
            kron_complete_law(n, table)
    closedform.kron_cycle_odd_spectrum(3, 490093 // 2)
    assert len(runs) == 6 * 1496 + 1 and max(runs) <= 6


def j_order_spectrum(values, mults):
    return group_sorted(*sort_rows(values, mults), 1e-6)


def same_spectrum(x, y):
    return (x.grouping_tol == y.grouping_tol
            and same_bytes(x.value_array, y.value_array)
            and same_bytes(x.multiplicity_array, y.multiplicity_array))


@pytest.mark.parametrize("n", list(range(3, 41)) + [998, 999, 1000, 4001, 100001, 10**6])
def test_cycle_spectra_are_those_of_the_j_order_rows_bit_for_bit(n):
    a, d = plain_columns(n, n // 2 + 1)
    mult = plain_multiplicities(n)
    assert same_spectrum(closedform.cycle_distance_spectrum(n), j_order_spectrum(d, mult))
    assert same_spectrum(closedform.cycle_adjacency_spectrum(n), j_order_spectrum(a, mult))
    for s, t in ((1, 0), (0, 1), (2, -1), (0.5, 3), (1, 1)):
        assert same_spectrum(circulant.cycle_combo_spectrum(n, s, t),
                             j_order_spectrum(s * a + t * d, mult)), (s, t)
    if n >= 4:
        a_law = 2 * a
        for left in (3, 4, 7):
            values = np.concatenate([left * d + a_law + 2 * (left - 1), a_law - 2])
            mults = np.concatenate([mult, (left - 1) * mult])
            assert same_spectrum(kron_complete_law(left, eigen_table(Cycle(n))),
                                 j_order_spectrum(values, mults)), left


@pytest.mark.parametrize("length", list(range(3, 21)) + [999, 1000, 4001])
def test_float_law_is_the_concatenated_law_bit_for_bit(length, monkeypatch):
    seen = []
    sorting = closedform.sort_rows
    monkeypatch.setattr(closedform, "sort_rows",
                        lambda v, m: seen.append((v.copy(), m.copy())) or sorting(v, m))
    table = eigen_table(Cycle(length))
    for n in range(3, 9):
        seen.clear()
        kron_complete_law(n, table)
        [(values, mults)] = seen
        # the law as two np.concatenate calls over whole-column temporaries
        a = 2 * table.a if table.triangle_free else table.a
        assert same_bytes(values, np.concatenate([n * table.d + a + 2 * (n - 1), a - 2]))
        assert same_bytes(mults, np.concatenate([table.mult, (n - 1) * table.mult]))


@pytest.mark.parametrize("factor", [Complete(3), Complete(5), Johnson(6, 3), Johnson(9, 4),
                                    Hamming(3, 3), Hamming(4, 2)])
def test_integer_law_is_the_concatenated_law_exactly(factor):
    table = eigen_table(factor)
    for n in range(3, 9):
        a = 2 * table.a if table.triangle_free else table.a
        values = np.concatenate([n * table.d + a + 2 * (n - 1), a - 2])
        mults = np.concatenate([table.mult, (n - 1) * table.mult])
        got = kron_complete_law(n, table)
        assert got == Spectrum.from_pairs(zip(values.tolist(), mults.tolist()))
        assert got.grouping_tol == 0.0
