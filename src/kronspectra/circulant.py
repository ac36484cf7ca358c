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
from .graphs import Cycle
from .spectrum import Spectrum, spectrum_from_values

__all__ = [
    "apgp_sum",
    "circulant_eigenvalues",
    "circulant_combo_eigenvalues",
    "is_symmetric_circulant",
    "real_circulant_spectrum",
    "circulant_matrix",
    "block_circulant_reduce",
    "block_circulant_matrix",
    "block_spectrum_union",
    "cycle_half_table",
    "cycle_adjacency_eigenvalues",
    "cycle_distance_row",
    "cycle_distance_eigenvalues",
    "cycle_combo_eigenvalues",
    "cycle_combo_spectrum",
]

IMAG_TOL = 1e-9
HERMITIAN_TOL = 1e-9
_R_ONE_TOL = 1e-12


def apgp_sum(a: complex, d: complex, r: complex, n: int) -> complex:
    """Sum of the first n terms of (a + k*d) * r^k, k = 0..n-1.

    For r != 1 this is the closed form
        [a + (n-1)d] (r^n - 1)/(r - 1) - d/(r - 1) [(r^n - 1)/(r - 1) - n];
    within 1e-12 of r = 1 the direct arithmetic-series value is returned.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if abs(r - 1) <= _R_ONE_TOL:
        return n * a + d * n * (n - 1) / 2
    geo = (r ** n - 1) / (r - 1)
    return (a + (n - 1) * d) * geo - d / (r - 1) * (geo - n)


def _shifts(n: int) -> np.ndarray:
    """(j - i) mod n at (i, j): the index of a circulant's entry or block."""
    return (np.arange(n) - np.arange(n)[:, None]) % n


def circulant_eigenvalues(first_row: Sequence[complex]) -> np.ndarray:
    """Eigenvalues lambda_j = sum_k c_k rho_j^k, indexed j = 0..n-1."""
    c = np.asarray(first_row, dtype=complex)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("first row must be a nonempty 1-d sequence")
    return c.size * np.fft.ifft(c)


def circulant_combo_eigenvalues(s: float, row_a: Sequence[complex],
                                t: float, row_b: Sequence[complex]) -> np.ndarray:
    """Eigenvalues of s*A + t*B for circulants A, B of equal order.

    Both are diagonalized by the same root-of-unity eigenvectors, so the
    combination acts eigenvalue-wise: s*lambda_j + t*mu_j.
    """
    a = np.asarray(row_a, dtype=complex)
    b = np.asarray(row_b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"order mismatch: {a.shape} vs {b.shape}")
    return s * circulant_eigenvalues(a) + t * circulant_eigenvalues(b)


def is_symmetric_circulant(first_row: Sequence[float], tol: float = 0.0) -> bool:
    """True iff c_k == c_{n-k} for all k >= 1 (the matrix is symmetric)."""
    c = np.asarray(first_row, dtype=float)
    return bool((np.abs(c[1:] - c[:0:-1]) <= tol).all())


def real_circulant_spectrum(first_row: Sequence[float],
                            group_tol: float = 1e-6) -> Spectrum:
    """Spectrum of a symmetric circulant, with the imaginary parts checked.

    The eigenvalues of a symmetric circulant are real; residual imaginary
    parts above 1e-9 indicate a formula or input error and raise instead of
    being silently discarded.
    """
    if not is_symmetric_circulant(first_row):
        raise NonSymmetricMatrixError("first row is not symmetric (c_k != c_{n-k})")
    vals = circulant_eigenvalues(first_row)
    worst = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if worst > IMAG_TOL:
        raise NonSymmetricMatrixError(
            f"imaginary residue {worst:.3e} exceeds {IMAG_TOL:.1e}"
        )
    return spectrum_from_values(vals.real, group_tol)


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


def block_spectrum_union(hs: Sequence[np.ndarray], tol: float = 1e-6) -> Spectrum:
    """Concatenate the eigenvalues of Hermitian blocks into one Spectrum."""
    values: list[float] = []
    for hj in hs:
        a = np.asarray(hj)
        dev = float(np.max(np.abs(a - a.conj().T)))
        if dev > HERMITIAN_TOL:
            raise NonSymmetricMatrixError(f"block not Hermitian (deviation {dev:.3e})")
        values.extend(np.linalg.eigvalsh(a))
    return spectrum_from_values(values, tol)


# ---------------------------------------------------------------------------
# Cycle graphs: closed forms for A, D and s*A + t*D
# ---------------------------------------------------------------------------

def _cycle_columns(n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and distance eigenvalues of C_n at j = 0..rows-1.

    adjacency:  2*cos(2*pi*j/n)
    distance:
      even n:  j = 0        -> n^2/4
               j even, != 0 -> 0
               j odd        -> -1 / sin^2(pi j / n)
      odd n:   j = 0        -> (n^2 - 1)/4
               j even, != 0 -> -(1/4) / cos^2(pi j / 2n)
               j odd        -> -(1/4) / sin^2(pi j / 2n)

    Every formula is evaluated here, so the full columns and the half table
    agree bit for bit on the rows they share.  For j <= n/2 the odd-n
    cos^2 argument is at most pi/4, far from its zero at j = n.
    """
    Cycle(n)  # domain check
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


def cycle_half_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows (a, d, mult) of C_n's joint adjacency and distance
    eigenvalues: j = 0..n//2, since j and n - j give the same pair.

    mult is 1 at j = 0 and, for even n, at j = n/2, and 2 elsewhere, so it
    sums to n.
    """
    a, d = _cycle_columns(n, n // 2 + 1)
    mult = np.full(a.size, 2, dtype=np.int64)
    mult[0] = 1
    if n % 2 == 0:
        mult[-1] = 1
    return a, d, mult


def cycle_adjacency_eigenvalues(n: int) -> np.ndarray:
    """Adjacency eigenvalues of C_n: 2*cos(2*pi*j/n), j = 0..n-1."""
    return _cycle_columns(n, n)[0]


def cycle_distance_row(n: int) -> list[int]:
    """First row of the distance circulant of C_n.

    Even n: (0, 1, ..., n/2 - 1, n/2, n/2 - 1, ..., 1).
    Odd n:  (0, 1, ..., (n-1)/2, (n-1)/2, ..., 1).
    """
    Cycle(n)  # domain check
    return [min(k, n - k) for k in range(n)]


def cycle_distance_eigenvalues(n: int) -> np.ndarray:
    """Distance eigenvalues of C_n, indexed j = 0..n-1 (formulas at
    ``_cycle_columns``)."""
    return _cycle_columns(n, n)[1]


def cycle_combo_eigenvalues(n: int, s: float, t: float) -> np.ndarray:
    """Eigenvalues of s*A(C_n) + t*D(C_n), indexed j = 0..n-1.

    A(C_n) and D(C_n) are circulants of the same order, so the combination
    acts eigenvalue-wise on the two closed-form columns.
    """
    a, d = _cycle_columns(n, n)
    return s * a + t * d


def cycle_combo_spectrum(n: int, s: float, t: float,
                         group_tol: float = 1e-6) -> Spectrum:
    """Spectrum of s*A(C_n) + t*D(C_n) from the half table's rows and
    their multiplicities."""
    a, d, mult = cycle_half_table(n)
    return spectrum_from_values(s * a + t * d, group_tol, mult)
