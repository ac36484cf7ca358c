"""Circulant eigenvalue formulas against dense eigensolves."""

import math

import numpy as np
import pytest

from kronspectra.circulant import (
    block_circulant_matrix,
    block_circulant_reduce,
    circulant_eigenvalues,
    circulant_matrix,
    cycle_combo_eigenvalues,
    cycle_combo_spectrum,
    cycle_distance_row,
)
from kronspectra.errors import NonSymmetricMatrixError


# ---------------------------------------------------------------------------
# Circulant eigenvalues
# ---------------------------------------------------------------------------

def test_circulant_eigenvalue_examples():
    assert circulant_eigenvalues([0, 1, 1]) == pytest.approx([2, -1, -1])
    assert circulant_eigenvalues([5]) == pytest.approx([5])
    assert circulant_eigenvalues([0, 1, 0, 1]) == pytest.approx([2, 0, -2, 0])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40, 64])
def test_symmetric_circulant_matches_dense(n):
    rng = np.random.RandomState(n)
    half = rng.randn(n // 2 + 1)
    row = np.zeros(n)
    for k in range(n):
        row[k] = half[min(k, n - k)]
    assert np.array_equal(row[1:], row[:0:-1])  # c_k == c_{n-k}: symmetric
    vals = np.sort(circulant_eigenvalues(row).real)
    dense = np.sort(np.linalg.eigvalsh(circulant_matrix(row).astype(float)))
    assert np.max(np.abs(vals - dense)) < 1e-8


@pytest.mark.parametrize("n", [257, 512])
def test_larger_symmetric_circulant_spot_checks(n):
    rng = np.random.RandomState(n)
    half = rng.randn(n // 2 + 1)
    row = np.array([half[min(k, n - k)] for k in range(n)])
    vals = np.sort(circulant_eigenvalues(row).real)
    dense = np.sort(np.linalg.eigvalsh(circulant_matrix(row).astype(float)))
    assert np.max(np.abs(vals - dense)) < 1e-8


# ---------------------------------------------------------------------------
# Block circulants
# ---------------------------------------------------------------------------

def test_block_reduce_two_blocks():
    b0 = np.array([[1.0, 2.0], [2.0, 5.0]])
    b1 = np.array([[0.0, 1.0], [1.0, 3.0]])
    h0, h1 = block_circulant_reduce([b0, b1])
    assert np.allclose(h0, b0 + b1)
    assert np.allclose(h1, b0 - b1)


def test_block_reduce_three_blocks_j_zero():
    b0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    b1 = np.array([[1.0, 2.0], [0.0, 1.0]])
    hs = block_circulant_reduce([b0, b1, b1.T])
    assert np.allclose(hs[0], b0 + b1 + b1.T)


def test_block_reduce_rejects_asymmetric():
    b0 = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonSymmetricMatrixError):
        block_circulant_reduce([b0, np.eye(2)])
    good = np.eye(2)
    bad_pair = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonSymmetricMatrixError):
        block_circulant_reduce([good, bad_pair, bad_pair])


def random_symmetric_block_circulant(rng, n, k):
    blocks = [None] * n
    b0 = rng.randn(k, k)
    blocks[0] = (b0 + b0.T) / 2
    for f in range(1, n // 2 + 1):
        b = rng.randn(k, k)
        if n % 2 == 0 and f == n // 2:
            b = (b + b.T) / 2  # middle block pairs with itself
        blocks[f] = b
        blocks[n - f] = b.T
    return blocks


@pytest.mark.parametrize("n, k", [(2, 3), (3, 2), (4, 5), (5, 8), (7, 6), (6, 10)])
def test_random_block_circulants_match_dense(n, k):
    rng = np.random.RandomState(100 * n + k)
    blocks = random_symmetric_block_circulant(rng, n, k)
    hs = block_circulant_reduce(blocks)
    union = np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in hs]))
    dense = np.sort(np.linalg.eigvalsh(block_circulant_matrix(blocks)))
    assert np.max(np.abs(union - dense)) < 1e-8


# ---------------------------------------------------------------------------
# Cycle combinations s*A + t*D
# ---------------------------------------------------------------------------

def test_cycle_distance_rows():
    assert cycle_distance_row(4) == [0, 1, 2, 1]
    assert cycle_distance_row(5) == [0, 1, 2, 2, 1]
    assert cycle_distance_row(6) == [0, 1, 2, 3, 2, 1]


def test_cycle_combo_spectrum_examples():
    sp = cycle_combo_spectrum(4, 0, 1)
    assert sp.values() == pytest.approx([4, 0, -2], abs=1e-9)
    assert sp.multiplicities() == [1, 1, 2]

    sp = cycle_combo_spectrum(3, 1, 0)
    assert sp.values() == pytest.approx([2, -1], abs=1e-9)
    assert sp.multiplicities() == [1, 2]

    sp = cycle_combo_spectrum(5, 0, 1)
    assert sp.values() == pytest.approx([6, -0.381966, -2.618034], abs=1e-6)
    assert sp.multiplicities() == [1, 2, 2]


def test_cycle_combo_rejects_small_n():
    with pytest.raises(Exception):
        cycle_combo_eigenvalues(2, 1, 1)


@pytest.mark.parametrize("n", range(3, 17))
def test_cycle_combo_full_st_grid_matches_dense(n):
    adj_row = np.zeros(n)
    adj_row[1] = adj_row[-1] = 1
    dist_row = np.array(cycle_distance_row(n), dtype=float)
    a = circulant_matrix(adj_row).astype(float)
    d = circulant_matrix(dist_row).astype(float)
    for s in (-2, -1, 0, 1, 2):
        for t in (-2, -1, 0, 1, 2):
            closed = np.sort(cycle_combo_eigenvalues(n, s, t))
            dense = np.sort(np.linalg.eigvalsh(s * a + t * d))
            assert np.max(np.abs(closed - dense)) < 1e-8, (n, s, t)


def _scalar_cycle_combo(n, s, t):
    """The per-index loop cycle_combo_eigenvalues replaced.

    Returns the values and, per index, the larger magnitude of the two
    terms the entry subtracts: the scale its rounding errors are relative to.
    """
    values, scales = np.empty(n), np.empty(n)
    for j in range(n):
        cosj = 2.0 * s * math.cos(2.0 * math.pi * j / n)
        second = 0.0
        if j == 0:
            cosj = 2.0 * s + (n * n / 4.0 if n % 2 == 0 else (n * n - 1) / 4.0) * t
        elif n % 2 == 0:
            if j % 2 == 1:
                second = t / math.sin(math.pi * j / n) ** 2
        elif j % 2 == 0:
            second = (t / 4.0) / math.cos(math.pi * j / (2 * n)) ** 2
        else:
            second = (t / 4.0) / math.sin(math.pi * j / (2 * n)) ** 2
        values[j] = cosj - second
        scales[j] = max(abs(cosj), abs(second))
    return values, scales


@pytest.mark.parametrize("n", list(range(3, 41)) + [999, 1000, 4001])
def test_cycle_combo_table_matches_scalar_loop(n):
    for s, t in ((0, 1), (1, 0), (0.7, 1.3)):
        table = cycle_combo_eigenvalues(n, s, t)
        values, scales = _scalar_cycle_combo(n, s, t)
        # numpy squares where `x ** 2` calls libm pow, one ulp apart at times
        assert np.all(np.abs(table - values) <= 4 * np.spacing(scales)), (n, s, t)
        exact = [0] + (list(range(2, n, 2)) if n % 2 == 0 else [])
        assert np.array_equal(table[exact], values[exact]), (n, s, t)
