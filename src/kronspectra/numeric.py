"""Eigensolvers used as independent ground truth.  The oracle's one solver
is ``block_group_matrix_eigenvalues``: every family's D and A is a block
group matrix over a product of cyclic groups, solved by one DFT and a
batched Hermitian solve of its blocks (one DFT alone for 1 x 1 blocks).
No family's oracle solves a dense n x n matrix.  ``symmetric_eigenvalues``
is the one dense symmetric/Hermitian solve, for the library and the tests.

Everything here is deliberately decoupled from the closed-form and circulant
modules: this is the brute-force side of every dual-route check, so it must
not share formula code with the side it validates.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import NonSymmetricMatrixError, OrderCapError
# not called here; it stays importable from this module, where
# benchmarks/tracing.py wraps it
from .spectrum import spectrum_from_values  # noqa: F401

__all__ = [
    "DEFAULT_DENSE_CAP",
    "dense_matrix_cap",
    "refuse_past_dense_cap",
    "max_asymmetry",
    "symmetric_eigenvalues",
    "block_group_matrix_eigenvalues",
]

DEFAULT_DENSE_CAP = 4000
SYMMETRY_TOL = 1e-9

_CAP_ENV = "KRON_SPECTRA_MAX_ORDER"


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
    the one refusal that every dense matrix, and a family's blocks, go
    through."""
    cap = dense_matrix_cap()
    if order > cap:
        raise OrderCapError(f"{name} order {order} exceeds dense cap {cap}")


def max_asymmetry(a: np.ndarray) -> float:
    """``max |a - a^H|`` of a square matrix (0.0 when empty), NaN when a
    difference is NaN."""
    with np.errstate(invalid="ignore"):  # inf - inf: the NaN is the answer
        return float(np.abs(a - a.conj().T).max(initial=0.0))


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric (real) or Hermitian (complex) matrix,
    ascending.

    A non-square matrix raises NonSymmetricMatrixError and one past the
    dense cap OrderCapError, both before any scan; a non-finite entry or
    a deviation from symmetry past ``SYMMETRY_TOL`` then raises
    NonSymmetricMatrixError.  The backward-stable dense solve delivers a
    few ulps times the spectral radius.  Deterministic for identical
    input: no randomized or timing-dependent steps.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricMatrixError(f"expected a square matrix, got shape {a.shape}")
    refuse_past_dense_cap(a.shape[0])
    deviation = max_asymmetry(a)
    # a non-finite entry makes its own deviation non-finite, so only then
    # can one exist
    if not math.isfinite(deviation) and not np.isfinite(a).all():
        raise NonSymmetricMatrixError("matrix has non-finite entries")
    if deviation > SYMMETRY_TOL:
        raise NonSymmetricMatrixError(
            f"symmetry deviation {deviation:.3e} exceeds tolerance {SYMMETRY_TOL:.1e}"
        )
    return np.linalg.eigvalsh(a)


def block_group_matrix_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the block group matrix M over
    ``G = Z_{n_1} x ... x Z_{n_k}``, k >= 1, with ``M[(x, u), (y, v)] =
    blocks[y - x][u, v]``, given ``blocks`` of shape ``(n_1, ..., n_k, b,
    b)``: b = 1 is a group matrix given by its row 0.  That M is such a
    matrix is the caller's proof (``graphs.orbit_table``).

    A character of G turns M into the Hermitian b x b block ``sum_y
    blocks[y] chi(y)`` (Babai 1979), so one DFT over the group axes gives
    all |G| of them.  For b = 1 they are the eigenvalues, and M's
    symmetry is the caller's proof too (``graphs.translation_table``
    proves the graph undirected); nothing here checks it.  Otherwise M is
    symmetric iff ``blocks[-y] == blocks[y].T`` for every y, which is
    checked first, exactly (the oracle's entries are integers), and raises
    NonSymmetricMatrixError if it fails; then one batched ``eigvalsh``
    solves the blocks.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim < 3 or blocks.shape[-1] != blocks.shape[-2]:
        raise NonSymmetricMatrixError(f"expected square blocks, got shape {blocks.shape}")
    axes = tuple(range(blocks.ndim - 2))
    b = blocks.shape[-1]
    if b == 1:
        return np.sort(np.fft.fftn(blocks.reshape(blocks.shape[:-2])).real, axis=None)
    mirrored = blocks
    for axis in axes:
        size = blocks.shape[axis]
        mirrored = mirrored.take(-np.arange(size) % size, axis=axis)
    unequal = mirrored != blocks.swapaxes(-1, -2)
    if unequal.any():
        y = tuple(np.argwhere(unequal)[0, :-2].tolist())
        raise NonSymmetricMatrixError(
            f"block {y} is not the transpose of the block at its inverse")
    # the check's temporaries are freed before the solve
    del mirrored, unequal
    hermitian = np.fft.fftn(blocks, axes=axes)
    return np.sort(np.linalg.eigvalsh(hermitian.reshape(-1, b, b)), axis=None)

