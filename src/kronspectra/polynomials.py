"""Distance matrix as a polynomial of the adjacency matrix.

For a distance-regular graph of diameter d there is a degree-d polynomial p
with p(A) = D.  For Johnson and Hamming graphs it is explicit: with
adjacency eigenvalues lambda_0 > ... > lambda_d as interpolation nodes,

    p = mu_0 * L_0 + mu_1 * L_1,

where L_j are the Lagrange basis polynomials on the nodes and mu_0, mu_1
are the nonzero distance eigenvalues (p vanishes on lambda_i for i >= 2).
Coefficients are kept exact as fractions; the same polynomials also have a
product form in the intersection numbers, implemented separately so the two
routes can be checked against each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .closedform import (
    hamming_adjacency_eigenvalues,
    hamming_intersection,
    johnson_adjacency_eigenvalues,
    johnson_distance_total,
    johnson_intersection,
)
from .errors import FamilyDomainError, NonSymmetricMatrixError
from .graphs import FamilySpec, Hamming, Johnson, build_family, distance_matrix

__all__ = [
    "Polynomial",
    "lagrange_basis",
    "vandermonde_solve",
    "johnson_distance_polynomial",
    "johnson_distance_polynomial_product_form",
    "hamming_distance_polynomial",
    "hamming_distance_polynomial_product_form",
    "matrix_polynomial_eval",
    "verify_distance_polynomial",
    "PolynomialCheck",
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

def johnson_distance_polynomial(m: int, r: int) -> Polynomial:
    """p with p(A) = D for J(m, r): p = s*L_0 - (s/(m-1))*L_1 on the
    adjacency eigenvalues."""
    nodes = johnson_adjacency_eigenvalues(m, r)
    s = johnson_distance_total(m, r)
    mu1 = Fraction(-s, m - 1)
    return lagrange_basis(nodes, 0).scale(s) + lagrange_basis(nodes, 1).scale(mu1)


def johnson_distance_polynomial_product_form(m: int, r: int) -> Polynomial:
    """Same polynomial written through the intersection numbers:

    s * [ prod_{i=1..r} (x - b_i + i)/(b_0 - b_i + i)
          - 1/(m-1) * prod_{i=0..r, i != 1} (x - b_i + i)/(b_1 - b_i + i - 1) ].

    The denominators are the node gaps in disguise: b_0 - b_i + i is
    lambda_0 - lambda_i and b_1 - b_i + i - 1 is lambda_1 - lambda_i.
    """
    arr = johnson_intersection(m, r)
    b = list(arr.b) + [0]  # b_r = (r-r)(m-r-r) = 0
    s = johnson_distance_total(m, r)

    first = Polynomial.from_coefficients([1])
    for i in range(1, r + 1):
        first = _multiply_linear(first, Fraction(b[i] - i))
        first = first.scale(Fraction(1, b[0] - b[i] + i))
    second = Polynomial.from_coefficients([1])
    for i in range(0, r + 1):
        if i == 1:
            continue
        second = _multiply_linear(second, Fraction(b[i] - i))
        second = second.scale(Fraction(1, b[1] - b[i] + i - 1))
    return (first + second.scale(Fraction(-1, m - 1))).scale(s)


def hamming_distance_polynomial(d: int, q: int) -> Polynomial:
    """p with p(A) = D for H(d, q): p = t*L_0 - q^(d-1)*L_1 on the
    adjacency eigenvalues, t = d*q^(d-1)*(q-1)."""
    nodes = hamming_adjacency_eigenvalues(d, q)
    t = d * q ** (d - 1) * (q - 1)
    mu1 = -(q ** (d - 1))
    return lagrange_basis(nodes, 0).scale(t) + lagrange_basis(nodes, 1).scale(mu1)


def hamming_distance_polynomial_product_form(d: int, q: int) -> Polynomial:
    """Intersection-number form:

    t * [ prod_{i=1..d} (x - b_0 + q*c_i)/(q*c_i)
          - 1/(d(q-1)) * prod_{i=0..d, i != 1} (x - b_0 + q*c_i)/(q*(c_i - 1)) ].
    """
    arr = hamming_intersection(d, q)
    b0 = arr.b[0]
    c = [0] + list(arr.c)  # c_0 = 0 so the i = 0 factor reads (x - b_0)/(-q)
    t = d * q ** (d - 1) * (q - 1)

    first = Polynomial.from_coefficients([1])
    for i in range(1, d + 1):
        first = _multiply_linear(first, Fraction(b0 - q * c[i]))
        first = first.scale(Fraction(1, q * c[i]))
    second = Polynomial.from_coefficients([1])
    for i in range(0, d + 1):
        if i == 1:
            continue
        second = _multiply_linear(second, Fraction(b0 - q * c[i]))
        second = second.scale(Fraction(1, q * (c[i] - 1)))
    return (first + second.scale(Fraction(-1, d * (q - 1)))).scale(t)


def _multiply_linear(p: Polynomial, root: Fraction) -> Polynomial:
    """p(x) * (x - root)."""
    coeffs = [Fraction(0)] + list(p.coefficients)
    for i in range(len(coeffs) - 1):
        coeffs[i] -= root * coeffs[i + 1]
    return Polynomial.from_coefficients(coeffs)


# ---------------------------------------------------------------------------
# Matrix evaluation and end-to-end verification
# ---------------------------------------------------------------------------

def matrix_polynomial_eval(p: Polynomial, a: np.ndarray) -> np.ndarray:
    """Horner evaluation p(A) for a square symmetric matrix A."""
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.size and np.max(np.abs(mat - mat.T)) > 1e-9:
        raise NonSymmetricMatrixError("matrix must be symmetric")
    n = mat.shape[0]
    coeffs = p.as_floats()
    if coeffs.size == 1:
        result = coeffs[0] * np.eye(n)
    else:
        # the first Horner step is c_d A + c_{d-1} I; each coefficient after
        # it goes onto the diagonal in place
        result = coeffs[-1] * mat
        result.flat[::n + 1] += coeffs[-2]
        for c in coeffs[-3::-1]:
            result = result @ mat
            result.flat[::n + 1] += c
    if n and np.max(np.abs(result - result.T)) > 1e-9:
        raise NonSymmetricMatrixError("evaluation lost symmetry beyond tolerance")
    return result


@dataclass(frozen=True)
class PolynomialCheck:
    """Entrywise comparison of p(A) against the BFS distance matrix."""

    family: str
    degree: int
    max_entry_gap: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "degree": self.degree,
            "max_entry_gap": self.max_entry_gap,
            "pass": self.passed,
        }


def verify_distance_polynomial(spec: FamilySpec, tol: float = 1e-8) -> PolynomialCheck:
    """Build the graph, evaluate its distance polynomial on A, compare to D."""
    from .graphs import family_to_string

    if isinstance(spec, Johnson):
        poly = johnson_distance_polynomial(spec.m, spec.r)
    elif isinstance(spec, Hamming):
        poly = hamming_distance_polynomial(spec.d, spec.q)
    else:
        raise FamilyDomainError(
            "distance polynomials are available for Johnson and Hamming families only"
        )
    graph = build_family(spec)
    d = distance_matrix(graph).astype(np.float64)
    evaluated = matrix_polynomial_eval(poly, graph.adjacency_matrix())
    gap = float(np.max(np.abs(evaluated - d))) if d.size else 0.0
    return PolynomialCheck(family_to_string(spec), poly.degree, gap, gap < tol)
