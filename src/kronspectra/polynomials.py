"""Distance matrix as a polynomial of the adjacency matrix.

In a distance-regular graph of diameter d the distance-i matrix is v_i(A),
where v_0 = 1, v_1 = x and c_{i+1} v_{i+1} = (x - a_i) v_i - b_{i-1} v_{i-1}
in the intersection numbers, so D = p(A) with p = sum_i i * v_i of degree d.
`distance_polynomial` takes p, in exact fractions, from the intersection
array of a Johnson or Hamming graph (`closedform.IntersectionArray`);
`verify.poly_report` checks p(A) entrywise against the D of the family's
shared oracle (``oracle.FamilyOracle.polynomial_gap``), and this module
reads no oracle.  Lagrange/Vandermonde interpolation stays as an exact
general tool, and ``matrix_polynomial_eval`` as a dense Horner for callers
that hold one dense matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .closedform import intersection_array
from .errors import NonSymmetricMatrixError
from .families import FamilySpec, Hamming, Johnson
# not called here (the oracle module builds A and D); they stay importable
# from this module, where benchmarks/tracing.py wraps them
from .graphs import build_family, distance_matrix  # noqa: F401
from .numeric import SYMMETRY_TOL, max_asymmetry

__all__ = [
    "Polynomial",
    "lagrange_basis",
    "vandermonde_solve",
    "distance_polynomial",
    "johnson_distance_polynomial",
    "hamming_distance_polynomial",
    "matrix_polynomial_eval",
]

Number = Fraction | int | float


def _as_fraction(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError(f"non-integer float {x!r}; pass a Fraction for exactness")
        return Fraction(int(x))
    raise TypeError(f"unsupported coefficient type {type(x).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with exact rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero (trim first)")

    @staticmethod
    def from_coefficients(coeffs: Sequence[Number]) -> "Polynomial":
        vals = [_as_fraction(c) for c in coeffs]
        while len(vals) > 1 and vals[-1] == 0:
            vals.pop()
        return Polynomial(tuple(vals) if vals else (Fraction(0),))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: Number) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * _as_fraction(x) + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        size = max(len(a), len(b))
        return Polynomial.from_coefficients(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(size)
            ]
        )

    def scale(self, factor: Number) -> "Polynomial":
        f = _as_fraction(factor)
        return Polynomial.from_coefficients([c * f for c in self.coefficients])

    def as_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coefficients])

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs": [f"{float(c):.12g}" for c in self.coefficients]}
        )


def _monic_from_roots(roots: Sequence[Fraction]) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for root in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    return coeffs


def _check_distinct(nodes: Sequence[Fraction]) -> None:
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be pairwise distinct")


def lagrange_basis(nodes: Sequence[Number], j: int) -> Polynomial:
    """L_j on the given nodes: L_j(x_i) = 1 if i == j else 0."""
    xs = [_as_fraction(x) for x in nodes]
    _check_distinct(xs)
    if not 0 <= j < len(xs):
        raise IndexError(f"j={j} out of range for {len(xs)} nodes")
    others = [x for i, x in enumerate(xs) if i != j]
    denom = Fraction(1)
    for x in others:
        denom *= xs[j] - x
    numer = _monic_from_roots(others)
    return Polynomial.from_coefficients([c / denom for c in numer])


def vandermonde_solve(nodes: Sequence[Number], rhs: Sequence[Number]) -> Polynomial:
    """Interpolating polynomial p with p(x_j) = rhs_j.

    This is the Lagrange route through the Vandermonde system: the inverse
    of the Vandermonde matrix has the Lagrange coefficients as columns, so
    the solution is sum_j rhs_j * L_j.
    """
    if len(nodes) != len(rhs):
        raise ValueError("nodes and rhs must have equal length")
    if not nodes:
        raise ValueError("need at least one node")
    acc = Polynomial.from_coefficients([0])
    for j, value in enumerate(rhs):
        acc = acc + lagrange_basis(nodes, j).scale(value)
    return acc


# ---------------------------------------------------------------------------
# Johnson and Hamming distance polynomials
# ---------------------------------------------------------------------------

def distance_polynomial(spec: FamilySpec) -> Polynomial:
    """p with p(A) = D for a Johnson or Hamming family, from its
    intersection array; any other family raises FamilyDomainError."""
    return Polynomial.from_coefficients(intersection_array(spec).distance_polynomial())


def johnson_distance_polynomial(m: int, r: int) -> Polynomial:
    """p with p(A) = D for J(m, r)."""
    return distance_polynomial(Johnson(m, r))


def hamming_distance_polynomial(d: int, q: int) -> Polynomial:
    """p with p(A) = D for H(d, q)."""
    return distance_polynomial(Hamming(d, q))


# ---------------------------------------------------------------------------
# Matrix evaluation
# ---------------------------------------------------------------------------

def matrix_polynomial_eval(p: Polynomial, a: np.ndarray) -> np.ndarray:
    """Horner evaluation p(A) for a square symmetric matrix A."""
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if max_asymmetry(mat) > SYMMETRY_TOL:
        raise NonSymmetricMatrixError("matrix must be symmetric")
    diagonal = np.diag_indices(mat.shape[0])
    coeffs = p.as_floats()
    if coeffs.size == 1:
        result = np.zeros(mat.shape)
        result[diagonal] = coeffs[0]
    else:
        # the first Horner step is c_d A + c_{d-1} I; each coefficient after
        # it goes onto the diagonal in place
        result = coeffs[-1] * mat
        result[diagonal] += coeffs[-2]
        for c in coeffs[-3::-1]:
            result = result @ mat
            result[diagonal] += c
    if max_asymmetry(result) > SYMMETRY_TOL:
        raise NonSymmetricMatrixError("evaluation lost symmetry beyond tolerance")
    return result
