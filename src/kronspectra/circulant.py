"""Circulant and block-circulant eigenstructure.

A circulant circ(c_0, ..., c_{n-1}) is diagonalized by the n-th roots of
unity: eigenvalue j is sum_k c_k * rho_j^k with rho_j = exp(2*pi*i*j/n).
A real symmetric block circulant Circ(b_0, ..., b_{n-1}) with k x k blocks
reduces to n Hermitian k x k matrices

    H_j = sum_f b_f rho_j^f = b_0 + sum_{f=1}^{n-1} b_f rho_j^f,

Hermitian because b_{n-f} = b_f^T pairs each term with its conjugate
transpose; their eigenvalues, over all j, form exactly the spectrum of the
big matrix.  Both sums are one discrete Fourier transform: n * ifft of the
first row, or of the blocks along the block axis, gives every lambda_j or
H_j at once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NonSymmetricMatrixError
from .families import Cycle
from .spectrum import Spectrum, spectrum_from_values

__all__ = [
    "circulant_eigenvalues",
    "circulant_matrix",
    "block_circulant_reduce",
    "block_circulant_matrix",
    "cycle_half_table",
    "cycle_half_adjacency",
    "cycle_half_distance",
    "cycle_adjacency_eigenvalues",
    "cycle_distance_row",
    "cycle_distance_eigenvalues",
    "cycle_combo_eigenvalues",
    "cycle_combo_spectrum",
]

HERMITIAN_TOL = 1e-9


def _shifts(n: int) -> np.ndarray:
    """(j - i) mod n at (i, j): the index of a circulant's entry or block."""
    return (np.arange(n) - np.arange(n)[:, None]) % n


def circulant_eigenvalues(first_row: Sequence[complex]) -> np.ndarray:
    """Eigenvalues lambda_j = sum_k c_k rho_j^k, indexed j = 0..n-1."""
    c = np.asarray(first_row, dtype=complex)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("first row must be a nonempty 1-d sequence")
    return c.size * np.fft.ifft(c)


def circulant_matrix(first_row: Sequence[complex]) -> np.ndarray:
    """Dense matrix with each row the previous one shifted right."""
    c = np.asarray(first_row)
    return c[_shifts(c.size)]


# ---------------------------------------------------------------------------
# Block circulants
# ---------------------------------------------------------------------------

def _validate_block_circulant(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    if len(blocks) < 1:
        raise ValueError("need at least one block")
    mats = [np.asarray(b, dtype=float) for b in blocks]
    k = mats[0].shape[0]
    for b in mats:
        if b.ndim != 2 or b.shape != (k, k):
            raise ValueError("all blocks must be square of equal order")
    n = len(mats)
    if np.max(np.abs(mats[0] - mats[0].T)) > HERMITIAN_TOL:
        raise NonSymmetricMatrixError("b_0 must be symmetric")
    for f in range(1, n):
        dev = float(np.max(np.abs(mats[f].T - mats[n - f])))
        if dev > HERMITIAN_TOL:
            raise NonSymmetricMatrixError(
                f"b_{f}^T != b_{n - f} (deviation {dev:.3e}); "
                "the assembled matrix would not be symmetric"
            )
    return mats


def block_circulant_reduce(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Reduce a real symmetric block circulant to the Hermitian blocks H_j.

    The union of the eigenvalues of the returned H_j (j = 0..n-1) equals
    the spectrum of the assembled n*k x n*k matrix.  Each H_j is verified
    Hermitian to 1e-9 before being returned.
    """
    mats = _validate_block_circulant(blocks)
    hs = len(mats) * np.fft.ifft(np.stack(mats), axis=0)
    devs = np.abs(hs - hs.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(devs > HERMITIAN_TOL)
    if bad.size:
        j = int(bad[0])
        raise NonSymmetricMatrixError(
            f"H_{j} failed the Hermitian check (deviation {devs[j]:.3e})"
        )
    return list(hs)


def block_circulant_matrix(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble the dense n*k x n*k block circulant (for oracle checks)."""
    mats = np.stack([np.asarray(b, dtype=float) for b in blocks])
    n, rows, cols = mats.shape
    return mats[_shifts(n)].transpose(0, 2, 1, 3).reshape(n * rows, n * cols)


# ---------------------------------------------------------------------------
# Cycle graphs: closed forms for A, D and s*A + t*D
# ---------------------------------------------------------------------------

def _j_values(n: int, half: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float64 j values of a cycle column, with the views of its even
    and of its odd j.

    A full column lists j = 0..n-1 in order.  The half table's rows
    j = 0..n//2 are listed parity-major: the even j ascending, then the odd
    j ascending.  Each parity is one monotone family of values (the
    distance column's sec^2 and csc^2 terms, a descending cosine for the
    adjacency column), so the table's columns, and the law's rows made
    from them, are a few monotone runs that a stable sort merges in linear
    time.  Every j is an exact integer of one ``arange``, so each row's
    value is bit-identical to the full column's at that j.
    """
    if not half:
        j = np.arange(n, dtype=np.float64)
        return j, j[::2], j[1::2]
    rows = n // 2 + 1
    j = np.arange(rows, dtype=np.float64)
    evens = (rows + 1) // 2
    even, odd = j[:evens], j[evens:]
    even *= 2.0
    odd -= evens
    odd *= 2.0
    odd += 1.0
    return j, even, odd


def _adjacency_column(n: int, half: bool) -> np.ndarray:
    """2*cos(2*pi*j/n) over the j of ``_j_values``, evaluated in one buffer."""
    Cycle(n)  # domain check
    a, _, _ = _j_values(n, half)
    a *= 2.0 * math.pi
    a /= n
    np.cos(a, out=a)
    a *= 2.0
    return a


def _distance_column(n: int, half: bool) -> np.ndarray:
    """Distance eigenvalues of C_n over the j of ``_j_values``, evaluated
    in one buffer:

      even n:  j = 0        -> n^2/4
               j even, != 0 -> 0
               j odd        -> -1 / sin^2(pi j / n)
      odd n:   j = 0        -> (n^2 - 1)/4
               j even, != 0 -> -(1/4) / cos^2(pi j / 2n)
               j odd        -> -(1/4) / sin^2(pi j / 2n)

    For j <= n/2 the odd-n cos^2 argument is at most pi/4, far from its
    zero at j = n.  j = 0 is the first row in both layouts.
    """
    Cycle(n)  # domain check
    d, even, odd = _j_values(n, half)
    if n % 2 == 0:
        odd *= math.pi
        odd /= n
        np.sin(odd, out=odd)
        np.square(odd, out=odd)
        np.divide(-1.0, odd, out=odd)
        even[...] = 0.0
        d[0] = n * n / 4.0
    else:
        d *= math.pi
        d /= 2 * n
        np.cos(even, out=even)
        np.sin(odd, out=odd)
        np.square(d, out=d)
        np.divide(-0.25, d, out=d)
        d[0] = (n * n - 1) / 4.0
    return d


def _half_multiplicities(n: int) -> np.ndarray:
    """1 at the rows of j = 0 and, for even n, of j = n/2, which closes the
    even or the odd half; 2 elsewhere."""
    rows = n // 2 + 1
    mult = np.full(rows, 2, dtype=np.int64)
    mult[0] = 1
    if n % 2 == 0:
        mult[(rows + 1) // 2 - 1 if n % 4 == 0 else -1] = 1
    return mult


def cycle_half_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows (a, d, mult) of C_n's joint adjacency and distance
    eigenvalues: j = 0..n//2, since j and n - j give the same pair, listed
    parity-major (even j ascending, then odd j ascending; ``_j_values``).

    mult is 1 at j = 0 and, for even n, at j = n/2, and 2 elsewhere, so it
    sums to n.  Each column is evaluated as the full columns are, so every
    row is bit for bit the full columns' entry at its j.
    """
    return _adjacency_column(n, True), _distance_column(n, True), _half_multiplicities(n)


def cycle_half_adjacency(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency column of ``cycle_half_table`` and its multiplicities,
    with the distance column never evaluated."""
    return _adjacency_column(n, True), _half_multiplicities(n)


def cycle_half_distance(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distance column of ``cycle_half_table`` and its multiplicities,
    with the adjacency column never evaluated."""
    return _distance_column(n, True), _half_multiplicities(n)


def cycle_adjacency_eigenvalues(n: int) -> np.ndarray:
    """Adjacency eigenvalues of C_n: 2*cos(2*pi*j/n), j = 0..n-1."""
    return _adjacency_column(n, False)


def cycle_distance_row(n: int) -> list[int]:
    """First row of the distance circulant of C_n.

    Even n: (0, 1, ..., n/2 - 1, n/2, n/2 - 1, ..., 1).
    Odd n:  (0, 1, ..., (n-1)/2, (n-1)/2, ..., 1).
    """
    Cycle(n)  # domain check
    return [min(k, n - k) for k in range(n)]


def cycle_distance_eigenvalues(n: int) -> np.ndarray:
    """Distance eigenvalues of C_n, indexed j = 0..n-1 (formulas at
    ``_distance_column``)."""
    return _distance_column(n, False)


def cycle_combo_eigenvalues(n: int, s: float, t: float) -> np.ndarray:
    """Eigenvalues of s*A(C_n) + t*D(C_n), indexed j = 0..n-1.

    A(C_n) and D(C_n) are circulants of the same order, so the combination
    acts eigenvalue-wise on the two closed-form columns.
    """
    return s * _adjacency_column(n, False) + t * _distance_column(n, False)


def cycle_combo_spectrum(n: int, s: float, t: float,
                         group_tol: float = 1e-6) -> Spectrum:
    """Spectrum of s*A(C_n) + t*D(C_n) from the half table's rows and
    their multiplicities."""
    a, d, mult = cycle_half_table(n)
    return spectrum_from_values(s * a + t * d, group_tol, mult)
