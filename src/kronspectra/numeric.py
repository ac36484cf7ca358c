"""Eigensolvers used as independent ground truth: the dense
symmetric/Hermitian solve, one DFT for a symmetric group matrix over a
product of cyclic groups, given its row 0, and one DFT and a batched
Hermitian solve for a block group matrix, given its blocks.

Everything here is deliberately decoupled from the closed-form and circulant
modules: this is the brute-force side of every dual-route check, so it must
not share formula code with the side it validates.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import NonSymmetricMatrixError, OrderCapError
from .spectrum import Spectrum, spectrum_from_values

__all__ = [
    "DEFAULT_DENSE_CAP",
    "dense_matrix_cap",
    "refuse_past_dense_cap",
    "ensure_symmetric",
    "max_asymmetry",
    "symmetric_eigenvalues",
    "group_matrix_eigenvalues",
    "block_group_matrix_eigenvalues",
    "oracle_spectrum",
]

DEFAULT_DENSE_CAP = 4000
SYMMETRY_TOL = 1e-9

_CAP_ENV = "KRON_SPECTRA_MAX_ORDER"

# entries per row tile of max_asymmetry: a tile and its transposed partner
# stay in cache
_ASYMMETRY_TILE = 1 << 16


def dense_matrix_cap() -> int:
    """Dense-matrix order cap; overridable via KRON_SPECTRA_MAX_ORDER."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError as err:
        raise OrderCapError(f"{_CAP_ENV} must be an integer, got {raw!r}") from err
    if cap <= 0:
        raise OrderCapError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def refuse_past_dense_cap(order: int, name: str = "matrix") -> None:
    """Raise OrderCapError for a dense ``name`` of an order past the cap:
    the one refusal that every dense matrix, and a shaped family's row 0,
    goes through."""
    cap = dense_matrix_cap()
    if order > cap:
        raise OrderCapError(f"{name} order {order} exceeds dense cap {cap}")


def ensure_symmetric(matrix: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate a square symmetric (real) or Hermitian (complex) matrix."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricMatrixError(f"expected a square matrix, got shape {a.shape}")
    deviation = max_asymmetry(a)
    # a non-finite entry makes its own deviation non-finite, so only then
    # can one exist
    if not math.isfinite(deviation) and not np.isfinite(a).all():
        raise NonSymmetricMatrixError("matrix has non-finite entries")
    if deviation > tol:
        raise NonSymmetricMatrixError(
            f"symmetry deviation {deviation:.3e} exceeds tolerance {tol:.1e}"
        )
    return a


def max_asymmetry(a: np.ndarray) -> float:
    """``max |a - a^H|`` of a square matrix (0.0 when empty), NaN when a
    difference is NaN.

    Scans row tiles of the upper triangle against the matching columns, so
    no n x n temporary is built; the result is the same float as the
    full-matrix expression.
    """
    n = a.shape[0]
    rows = max(1, _ASYMMETRY_TILE // max(n, 1))
    tile_max = []
    with np.errstate(invalid="ignore"):  # inf - inf: the NaN is the answer
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            lower = a[r0:, r0:r1].T
            if np.iscomplexobj(a):
                lower = lower.conj()
            tile_max.append(np.abs(a[r0:r1, r0:] - lower).max())
    return float(np.max(tile_max)) if tile_max else 0.0


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric/Hermitian matrix, ascending.

    The backward-stable dense solve delivers a few ulps times the spectral
    radius.  Deterministic for identical input: no randomized or
    timing-dependent steps.  A square matrix past the dense cap is refused
    before any scan.
    """
    a = np.asarray(matrix)
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        refuse_past_dense_cap(a.shape[0])
    ensure_symmetric(a, SYMMETRY_TOL)
    if a.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(a)


def group_matrix_eigenvalues(row: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric group matrix over
    ``Z_{n_1} x ... x Z_{n_k}`` whose row 0 is ``row``, an array of shape
    ``(n_1, ..., n_k)``: the character sums of row 0, one k-dimensional DFT
    (Babai 1979).  That the matrix is such a group matrix, symmetric
    included, is the caller's proof (``graphs.translation_table``, which
    proves the graph simple and undirected); nothing here checks it.
    """
    return np.sort(np.fft.fftn(row).real, axis=None)


def block_group_matrix_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the block group matrix M over
    ``G = Z_{n_1} x ... x Z_{n_k}`` with ``M[(x, u), (y, v)] =
    blocks[y - x][u, v]``, given ``blocks`` of shape ``(n_1, ..., n_k, b,
    b)``; k = 0 is one b x b matrix.

    M is symmetric iff ``blocks[-y] == blocks[y].T`` for every y, which is
    checked first, exactly (the oracle's blocks are integers), and raises
    NonSymmetricMatrixError if it fails.  Then a character of G turns M
    into the Hermitian b x b block ``sum_y blocks[y] chi(y)`` (Babai
    1979), one DFT over the group axes gives all |G| of them, and one
    batched ``eigvalsh`` solves them.  That M is such a block group matrix
    is the caller's proof (``graphs.product_blocks``).
    """
    blocks = np.asarray(blocks)
    if blocks.ndim < 2 or blocks.shape[-1] != blocks.shape[-2]:
        raise NonSymmetricMatrixError(f"expected square blocks, got shape {blocks.shape}")
    axes = tuple(range(blocks.ndim - 2))
    mirrored = blocks
    for axis in axes:
        size = blocks.shape[axis]
        mirrored = mirrored.take(-np.arange(size) % size, axis=axis)
    unequal = mirrored != blocks.swapaxes(-1, -2)
    if unequal.any():
        y = tuple(np.argwhere(unequal)[0, :-2].tolist())
        raise NonSymmetricMatrixError(
            f"block {y} is not the transpose of the block at its inverse")
    b = blocks.shape[-1]
    hermitian = np.fft.fftn(blocks, axes=axes) if axes else blocks.astype(np.float64)
    hermitian = hermitian.reshape(-1, b, b)
    # dropped, the integer blocks are freed before the solve unless the
    # caller keeps them
    del blocks, mirrored, unequal
    return np.sort(np.linalg.eigvalsh(hermitian), axis=None)


def oracle_spectrum(matrix: np.ndarray, group_tol: float = 1e-6) -> Spectrum:
    """Eigensolve then group: the standard oracle pipeline for one matrix."""
    return spectrum_from_values(symmetric_eigenvalues(matrix), group_tol)
