"""The oracle: a family's D and A from its graph alone, and their spectra.

This is the brute-force side of every dual-route check, so it imports no
formula code, only ``graphs``, ``numeric`` and ``spectrum``.
Every family is a block group matrix over a group ``Z_{n_1} x ... x
Z_{n_k}`` of its automorphisms that acts freely (Babai 1979), and one
solver reads them all (``numeric.block_group_matrix_eigenvalues``): one
DFT, and a batched solve of the b x b blocks where b > 1.  No family
builds an n x n matrix, runs an all-sources BFS or solves a dense n x n
matrix.

The same blocks check a distance polynomial: A and D commute with every
automorphism P (P A P^T = A, and P preserves distances), so p(A) - D does
too, and every entry of it occurs on an orbit representative's row.  So
``FamilyOracle.polynomial_gap`` evaluates p(A) on those rows alone, d
steps of a sparse Horner over the neighbour table (``polynomial_rows``)
instead of d - 1 n x n matrix products.  That Horner sums each vertex's
row, which is r A only for a symmetric A; no ``Graph`` checks a shaped
table, so it relies on the translation proof's own symmetry check (N(0) =
-N(0)), and a J(m, r >= 2) table is a validated ``Graph``'s.
"""

from __future__ import annotations

import functools

import numpy as np

from .graphs import FamilySpec, Kron, atom_blocks, orbit_table, product_blocks
from .graphs import refuse_past_product_cap
from .numeric import block_group_matrix_eigenvalues, refuse_past_dense_cap
from .spectrum import Spectrum, group_sorted

__all__ = [
    "FamilyOracle",
    "oracle_distance_spectrum",
    "oracle_adjacency_spectrum",
    "polynomial_rows",
]


class FamilyOracle:
    """A family's D and A as block group matrices (``blocks``) and their
    eigenvalues, each computed the first time a check reads it and then
    shared by the family's later checks.

    An atom's blocks are read off its orbit representatives' rows
    (``orbits``, ``graphs.atom_blocks``): a shaped atom's are 1 x 1, its
    row 0, one BFS from vertex 0 and the neighbours of vertex 0; a
    ``J(m,r>=2)`` family's are b x b over a cyclic group Z_k of point
    permutations, b = n / k, one bitset BFS from its b representatives.  A
    product's blocks are ``graphs.product_blocks``, read off its atoms'
    walks over the product of their groups.  ``refuse`` turns away a
    family past the product cap or the dense cap before anything is built.

    A computation that raises stores nothing, so every check that reads it
    raises the same error.
    """

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self._blocks: dict[str, np.ndarray] = {}
        self._eigenvalues: dict[str, np.ndarray] = {}

    @functools.cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """An atom's proven (n, degree) neighbour table and its orbit
        numbering of shape ``G + (b,)`` (``graphs.orbit_table``)."""
        return orbit_table(self.spec)

    def refuse(self, matrix: str) -> int:
        """The family's order; raises OrderCapError, before anything is
        built, past the product cap and then past the dense cap: a policy on
        the order of D (``"distance"``) or A, of which only blocks are built."""
        n = refuse_past_product_cap(self.spec)
        refuse_past_dense_cap(n, "distance matrix" if matrix == "distance" else "matrix")
        return n

    def blocks(self, matrix: str) -> np.ndarray:
        """D (``"distance"``) or A (``"adjacency"``) as read-only int64
        blocks of shape ``G + (b, b)``
        (``numeric.block_group_matrix_eigenvalues``): a product's
        ``graphs.product_blocks``, an atom's ``graphs.atom_blocks``;
        refused past either cap (``refuse``) before anything is built."""
        if matrix not in self._blocks:
            self.refuse(matrix)
            if matrix not in ("distance", "adjacency"):
                raise ValueError(f"unknown matrix kind {matrix!r}")
            if isinstance(self.spec, Kron):
                blocks = product_blocks(self.spec, matrix)
            else:
                blocks = atom_blocks(*self.orbits, matrix)
            blocks.setflags(write=False)
            self._blocks[matrix] = blocks
        return self._blocks[matrix]

    def eigenvalues(self, matrix: str) -> np.ndarray:
        """Ascending eigenvalues of D (``"distance"``) or A
        (``"adjacency"``), read-only: the one solve of their ``blocks``."""
        if matrix not in self._eigenvalues:
            values = block_group_matrix_eigenvalues(self.blocks(matrix))
            values.setflags(write=False)
            self._eigenvalues[matrix] = values
        return self._eigenvalues[matrix]

    def spectrum(self, matrix: str, group_tol: float) -> Spectrum:
        """The ``eigenvalues`` grouped within ``group_tol``; they are
        ascending already, so grouped as they come, on a copy."""
        return group_sorted(self.eigenvalues(matrix).copy(), None, group_tol)

    def polynomial_gap(self, coefficients: np.ndarray) -> float:
        """Largest entry of |p(A) - D| for an atom, p given by its float
        ``coefficients`` in ascending degree: p(A) on the orbit
        representatives' rows (``polynomial_rows``) against every entry of
        D's ``blocks``, which are read, or refused, first."""
        target = self.blocks("distance")
        table, vertices = self.orbits
        rows = polynomial_rows(coefficients, table, vertices.reshape(-1, vertices.shape[-1])[0])
        # the rows in the blocks' layout, |p(A) - D| in place
        evaluated = np.moveaxis(rows[:, vertices], 0, -2)
        np.abs(np.subtract(evaluated, target, out=evaluated), out=evaluated)
        return float(np.max(evaluated)) if target.size else 0.0


def oracle_distance_spectrum(spec: FamilySpec, group_tol: float = 1e-6) -> Spectrum:
    return FamilyOracle(spec).spectrum("distance", group_tol)


def oracle_adjacency_spectrum(spec: FamilySpec, group_tol: float = 1e-6) -> Spectrum:
    return FamilyOracle(spec).spectrum("adjacency", group_tol)


# entries gathered by one Horner step of a block of rows, so that one
# block's (rows, n, degree) gather, not all rows', sets the temporaries
_HORNER_BLOCK_ENTRIES = 1 << 21


def polynomial_rows(coefficients: np.ndarray, nbrs: np.ndarray,
                    sources: np.ndarray) -> np.ndarray:
    """Rows ``sources`` of p(A), shape (len(sources), n), for p given by
    its float ``coefficients`` in ascending degree and the adjacency
    matrix A of a regular graph whose vertex x has the neighbours
    ``nbrs[x]``, by Horner on each row: each step is r <- r A, the sum of
    r over each vertex's neighbours, and each coefficient goes onto the
    row's own vertex.  That is d steps of O(n * degree) a row, on blocks
    of rows of at most ``_HORNER_BLOCK_ENTRIES`` gathered entries."""
    n, degree = nbrs.shape
    step = max(1, _HORNER_BLOCK_ENTRIES // max(n * degree, 1))
    blocks = []
    for first in range(0, len(sources), step):
        block = sources[first:first + step]
        own = np.arange(len(block)) * n + block  # each row's own vertex, flat
        rows = np.zeros(len(block) * n)
        rows[own] = coefficients[-1]
        for c in coefficients[-2::-1]:
            rows = rows.reshape(-1, n).take(nbrs, axis=1).sum(axis=2).ravel()
            rows[own] += c
        blocks.append(rows.reshape(-1, n))
    return np.concatenate(blocks)
