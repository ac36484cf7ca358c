"""Closed-form adjacency and distance spectra from one product law.

Each base family (cycle, complete, Johnson, Hamming) has one eigen-table:
rows (a, d, mult), the joint eigenvalues of its adjacency matrix A and its
distance matrix D with their multiplicity, and one flag, whether the graph
is triangle-free.  The base spectra are its a and d columns.  On a
distance-regular graph every edge lies in a_1 triangles (Brouwer, Cohen and
Neumaier, Distance-Regular Graphs, 1989, 4.1), so the flag is a_1 = 0:
true for C_len with len >= 4, K_2 and hypercubes, false for the others,
whose edges all lie in a triangle.

For n >= 3 the distance matrix of K_n (x) G is block circulant with
off-diagonal blocks D + 2I (a vertex reaches its copy in another block in
two steps via a third block) and diagonal block D + A when a_1 > 0
(adjacent pairs meet through a common neighbour at distance 2) or D + 2A
when a_1 = 0 (they meet at distance 3).  So every product spectrum is one
law on G's table: with a' = a (a_1 > 0) or 2a (a_1 = 0), each row gives
n*d + a' + 2(n-1) with multiplicity mult and a' - 2 with multiplicity
(n-1)*mult.  Johnson and Hamming tables hold only integers
(their d column is p(a) for the polynomial p with D = p(A) that the
intersection array gives), so K_n (x) J(m, r) and K_n (x) H(d, q) with
q >= 3 are distance integral; they stay in exact integer arithmetic
(grouping tolerance 0), while cycle tables are float rows, each carrying
its multiplicity, grouped at 1e-6.

The three enumeration fixes in the verification notes are rows of the law:
the even-cycle row j = 0 (a = 2, a' = 4) gives the repeated value 2 with
multiplicity n-1; C_{2m+1} has 2m+1 eigenvalues (rows j = 0..m, each
j >= 1 of multiplicity 2), so the secant family runs p = 1..m; the Hamming
row with distance eigenvalue -q^(d-1) enters the distinguished block
multiplied by n.  Each excluded case fails a condition
of the law: a K_2 left factor has no third block, so its off-diagonal
blocks are not D + 2I; K_2 and hypercube right factors have a_1 = 0, while
the published complete, Johnson and Hamming forms assume a_1 > 0 (H(2,2) is
C_4 and takes the even-cycle form); C_3 is K_3, with a_1 = 1 rather than the
cycle forms' a_1 = 0, and takes the complete-product form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .circulant import cycle_half_adjacency, cycle_half_distance, cycle_half_table
from .errors import FamilyDomainError, NoClosedFormError
from .families import Complete, Cycle, FamilySpec, Hamming, Johnson, family_to_string
from .spectrum import Spectrum, group_sorted, sort_rows, spectrum_from_values

__all__ = [
    "IntersectionArray",
    "IntegralityReport",
    "EigenTable",
    "eigen_table",
    "kron_complete_law",
    "intersection_array",
    "johnson_intersection",
    "hamming_intersection",
    "johnson_adjacency_eigenvalues",
    "johnson_adjacency_multiplicities",
    "johnson_adjacency_spectrum",
    "johnson_distance_total",
    "johnson_distance_spectrum",
    "hamming_adjacency_eigenvalues",
    "hamming_adjacency_multiplicities",
    "hamming_adjacency_spectrum",
    "hamming_distance_spectrum",
    "complete_adjacency_spectrum",
    "complete_distance_spectrum",
    "cycle_adjacency_spectrum",
    "cycle_distance_spectrum",
    "kron_cycle_even_spectrum",
    "kron_cycle_odd_spectrum",
    "kron_complete_spectrum",
    "kron_johnson_spectrum",
    "kron_hamming_spectrum",
    "check_integrality",
]


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph: b_0..b_{d-1}, c_1..c_d.

    A vertex at distance i from x has c_i neighbours at distance i-1 from x,
    a_i = b_0 - b_i - c_i at distance i and b_i at distance i+1 (c_0 = b_d = 0).
    """

    b: tuple[int, ...]
    c: tuple[int, ...]
    diameter: int

    def __post_init__(self):
        if self.diameter < 1:
            raise ValueError("diameter must be positive")
        if len(self.b) != self.diameter or len(self.c) != self.diameter:
            raise ValueError("b and c must each have length equal to the diameter")
        if min(self.b) < 1 or min(self.c) < 1:
            raise ValueError("need every b_i >= 1 and every c_i >= 1")
        if any(self.a(i) < 0 for i in range(self.diameter + 1)):
            raise ValueError("need every a_i = b_0 - b_i - c_i >= 0")

    def a(self, i: int) -> int:
        """a_i = b_0 - b_i - c_i for i = 0..d."""
        b_i = self.b[i] if i < self.diameter else 0
        c_i = self.c[i - 1] if i else 0
        return self.b[0] - b_i - c_i

    def distance_polynomial(self) -> list[Fraction]:
        """Ascending coefficients of p = sum_i i * v_i, so that p(A) = D.

        v_i(A) is the distance-i matrix: v_0 = 1, v_1 = x and
        c_{i+1} v_{i+1} = (x - a_i) v_i - b_{i-1} v_{i-1} (Brouwer, Cohen and
        Neumaier, Distance-Regular Graphs, 1989, 4.1).  The recurrence runs
        on the integer polynomials w_i = c_1...c_i v_i, with
        w_{i+1} = (x - a_i) w_i - b_{i-1} c_i w_{i-1}; only adding
        i * w_i / (c_1...c_i) into p divides.
        """
        prev, cur = [], [1]
        scale = 1
        p = [Fraction(0)] * (self.diameter + 1)
        for i in range(self.diameter):
            a_i = self.a(i)
            bc = self.b[i - 1] * self.c[i - 1] if i else 0
            nxt = [0] + cur
            for k, coeff in enumerate(cur):
                nxt[k] -= a_i * coeff
            for k, coeff in enumerate(prev):
                nxt[k] -= bc * coeff
            prev, cur = cur, nxt
            scale *= self.c[i]
            for k, coeff in enumerate(cur):
                p[k] += Fraction((i + 1) * coeff, scale)
        return p


def johnson_intersection(m: int, r: int) -> IntersectionArray:
    """J(m, r): c_i = i^2, b_i = (r-i)(m-r-i), diameter r."""
    Johnson(m, r)  # domain check
    b = tuple((r - i) * (m - r - i) for i in range(r))
    c = tuple(i * i for i in range(1, r + 1))
    return IntersectionArray(b, c, r)


def hamming_intersection(d: int, q: int) -> IntersectionArray:
    """H(d, q): c_i = i, b_i = (d-i)(q-1), diameter d."""
    Hamming(d, q)  # domain check
    b = tuple((d - i) * (q - 1) for i in range(d))
    c = tuple(range(1, d + 1))
    return IntersectionArray(b, c, d)


def intersection_array(spec: FamilySpec) -> IntersectionArray:
    """The intersection array of a Johnson or Hamming graph."""
    if isinstance(spec, Johnson):
        return johnson_intersection(spec.m, spec.r)
    if isinstance(spec, Hamming):
        return hamming_intersection(spec.d, spec.q)
    raise FamilyDomainError(f"{family_to_string(spec)}: intersection arrays and distance"
                            " polynomials cover Johnson and Hamming families only")


# ---------------------------------------------------------------------------
# Eigen-tables and the product law
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenTable:
    """Joint eigenvalues (a, d) of A and D with multiplicity, by row, and
    whether the graph is triangle-free (a_1 = 0).

    Columns are numpy arrays of equal length, one row per distinct joint
    eigenvalue, so a multiplicity is read off the table and never rebuilt
    by grouping repeated values.  Integer tables hold Python ints (dtype
    object), so sums stay exact at any size.  The table of C_n holds the
    float64 rows j = 0..n//2, even j ascending and then odd j ascending
    (``circulant.cycle_half_table``), with an int64 multiplicity column: 1
    at j = 0 and, for even n, at j = n/2, and 2 elsewhere (row j stands
    for j and n - j).
    """

    a: np.ndarray
    d: np.ndarray
    mult: np.ndarray
    triangle_free: bool

    def adjacency_spectrum(self) -> Spectrum:
        return _grouped(self.a, self.mult, 1e-6)

    def distance_spectrum(self) -> Spectrum:
        return _grouped(self.d, self.mult, 1e-6)


def _grouped(values: np.ndarray, mults: np.ndarray, group_tol: float) -> Spectrum:
    """Exact pairs for an integer column, float grouping of the weighted
    rows otherwise."""
    if values.dtype == object:
        return Spectrum.from_pairs(zip(values.tolist(), mults.tolist()))
    return spectrum_from_values(values, group_tol, mults)


def _integer_value(coeffs: list[Fraction], x: int) -> int:
    """The polynomial with these ascending coefficients at x, required integral."""
    value = Fraction(0)
    for coeff in reversed(coeffs):
        value = value * x + coeff
    if value.denominator != 1:
        raise ArithmeticError(f"distance eigenvalue {value} at {x} is not an integer")
    return value.numerator


def eigen_table(spec: FamilySpec) -> EigenTable:
    """The (a, d, mult) table and a_1 = 0 flag of a cycle, complete, Johnson
    or Hamming graph.  A complete, Johnson or Hamming table is computed once
    per process and shared, with read-only columns; a cycle table (n//2 + 1
    float rows, and closed forms reach cycles of 10^6 vertices) is computed
    on every call."""
    if isinstance(spec, Cycle):
        return EigenTable(*cycle_half_table(spec.n), spec.n >= 4)
    return _integer_table(spec)


# bounded as the graph module's factor-table memo is; a grid run at order
# 1200 asks for 123 distinct integer tables
@functools.lru_cache(maxsize=128)
def _integer_table(spec: FamilySpec) -> EigenTable:
    if spec == Complete(1):
        a = d = [0]
        mult, triangle_free = [1], False
    else:
        if isinstance(spec, Complete):
            spec = Johnson(spec.n, 1)  # K_n is J(n, 1)
        if isinstance(spec, Johnson):
            a = johnson_adjacency_eigenvalues(spec.m, spec.r)
            mult = johnson_adjacency_multiplicities(spec.m, spec.r)
        elif isinstance(spec, Hamming):
            a = hamming_adjacency_eigenvalues(spec.d, spec.q)
            mult = hamming_adjacency_multiplicities(spec.d, spec.q)
        else:
            raise NoClosedFormError("eigen-tables cover the base families only")
        # D = p(A) gives d = p(a)
        arr = intersection_array(spec)
        p = arr.distance_polynomial()
        d = [_integer_value(p, x) for x in a]
        triangle_free = arr.a(1) == 0
    columns = [np.array(col, dtype=object) for col in (a, d, mult)]
    for column in columns:
        column.flags.writeable = False
    return EigenTable(*columns, triangle_free)


def kron_complete_law(n: int, table: EigenTable, group_tol: float = 1e-6) -> Spectrum:
    """Distance spectrum of K_n (x) G for n >= 3 from the eigen-table of G.

    Reduces the block circulant with diagonal block D + A' and
    off-diagonal blocks D + 2I, where A' is A when every edge lies in a
    triangle and 2A when none does (a_1 = 0): one block nD + A' + 2(n-1)I
    and n-1 copies of A' - 2I, evaluated row by row on the table.
    """
    if n < 3:
        raise FamilyDomainError(
            f"product closed forms need a complete factor K_n with n >= 3, got n={n};"
            " with n = 2 the off-diagonal distance blocks are wrong"
            " (no third block to route distance-2 detours through)"
        )
    # One buffer per column, each half filled in place: nD + A' + 2(n-1)
    # and A' - 2, step by step in that order, so a float table's rows round
    # as the whole-column expressions do (an integer table's are exact).
    rows = table.a.size
    values = np.empty(2 * rows, dtype=table.a.dtype)
    block, repeated = values[:rows], values[rows:]
    np.multiply(table.a, 2 if table.triangle_free else 1, out=repeated)  # a'
    np.multiply(table.d, n, out=block)
    block += repeated
    block += 2 * (n - 1)
    repeated -= 2
    mults = np.empty(2 * rows, dtype=table.mult.dtype)
    mults[:rows] = table.mult
    np.multiply(table.mult, n - 1, out=mults[rows:])
    # The two views would keep the unsorted values alive.  Dropping the
    # table's name frees it only where no caller holds it: the cycle
    # products pass theirs straight from eigen_table, and CPython 3.11 and
    # later hand a call's argument values over to the callee.
    del table, block, repeated
    if values.dtype == object:
        return _grouped(values, mults, group_tol)
    # the unsorted rows go once their sorted copies exist
    ordered, weights = sort_rows(values, mults)
    del values, mults
    return group_sorted(ordered, weights, group_tol)


# ---------------------------------------------------------------------------
# Base families
# ---------------------------------------------------------------------------

def johnson_adjacency_eigenvalues(m: int, r: int) -> list[int]:
    """lambda_i = (r-i)(m-r-i) - i for i = 0..r (strictly decreasing)."""
    Johnson(m, r)  # domain check
    return [(r - i) * (m - r - i) - i for i in range(r + 1)]


def johnson_adjacency_multiplicities(m: int, r: int) -> list[int]:
    """C(m, i) - C(m, i-1) for i = 0..r."""
    Johnson(m, r)  # domain check
    return [comb(m, i) - comb(m, i - 1) if i else 1 for i in range(r + 1)]


def johnson_adjacency_spectrum(m: int, r: int) -> Spectrum:
    return eigen_table(Johnson(m, r)).adjacency_spectrum()


def johnson_distance_total(m: int, r: int) -> int:
    """s = sum_j j * C(r, j) * C(m-r, j): the distance row sum of J(m, r).

    k_j = C(r, j) * C(m-r, j) counts vertices at distance j from a fixed
    vertex, so s is also the Perron distance eigenvalue.
    """
    Johnson(m, r)  # domain check
    return sum(j * comb(r, j) * comb(m - r, j) for j in range(r + 1))


def johnson_distance_spectrum(m: int, r: int) -> Spectrum:
    """Distance spectrum of J(m, r): {s, -s/(m-1), 0} with multiplicities
    1, m-1 and C(m, r) - m.

    s/(m-1) = C(m-2, r-1) exactly, so all values are integers; the zero
    class is empty when C(m, r) == m (r = 1).
    """
    return eigen_table(Johnson(m, r)).distance_spectrum()


def hamming_adjacency_eigenvalues(d: int, q: int) -> list[int]:
    """lambda_i = d(q-1) - q*i for i = 0..d."""
    Hamming(d, q)  # domain check
    return [d * (q - 1) - q * i for i in range(d + 1)]


def hamming_adjacency_multiplicities(d: int, q: int) -> list[int]:
    """C(d, i) * (q-1)^i for i = 0..d."""
    Hamming(d, q)  # domain check
    return [comb(d, i) * (q - 1) ** i for i in range(d + 1)]


def hamming_adjacency_spectrum(d: int, q: int) -> Spectrum:
    return eigen_table(Hamming(d, q)).adjacency_spectrum()


def hamming_distance_spectrum(d: int, q: int) -> Spectrum:
    """Distance spectrum of H(d, q): {d*q^(d-1)*(q-1), -q^(d-1), 0} with
    multiplicities 1, d(q-1) and q^d - d(q-1) - 1."""
    return eigen_table(Hamming(d, q)).distance_spectrum()


def complete_adjacency_spectrum(n: int) -> Spectrum:
    return eigen_table(Complete(n)).adjacency_spectrum()


def complete_distance_spectrum(n: int) -> Spectrum:
    # D(K_n) = J - I: same spectrum as the adjacency matrix.
    return complete_adjacency_spectrum(n)


# A cycle's half columns live only until sort_rows returns: the grouping
# holds their sorted copies alone.

def cycle_adjacency_spectrum(n: int, group_tol: float = 1e-6) -> Spectrum:
    return group_sorted(*sort_rows(*cycle_half_adjacency(n)), group_tol)


def cycle_distance_spectrum(n: int, group_tol: float = 1e-6) -> Spectrum:
    return group_sorted(*sort_rows(*cycle_half_distance(n)), group_tol)


# ---------------------------------------------------------------------------
# Kronecker products with a complete graph
# ---------------------------------------------------------------------------

def kron_cycle_even_spectrum(n: int, m: int, group_tol: float = 1e-6) -> Spectrum:
    """Distance spectrum of K_n (x) C_{2m} for n >= 3, m >= 2.

    Blocks of the product distance matrix: diagonal 2A + D, off-diagonal
    2I + D over the cycle's own A and D (the law with a_1 = 0).  Reduction
    gives one block 2(n-1)I + nD + 2A and n-1 copies of 2(A - I); eigenvalues
    come from the cycle closed forms.  The repeated block contributes
    4*cos(pi*r/m) - 2 for r = 0..2m-1: the r = 0 value 2 is included,
    which the multiplicity count and the zero-trace identity both require.
    """
    if m < 2:
        raise FamilyDomainError(f"even cycle factor needs length >= 4, got {2 * m}")
    return kron_complete_law(n, eigen_table(Cycle(2 * m)), group_tol)


def kron_cycle_odd_spectrum(n: int, m: int, group_tol: float = 1e-6) -> Spectrum:
    """Distance spectrum of K_n (x) C_{2m+1} for n >= 3, m >= 2.

    Same block shapes as the even case.  The distinguished block has 2m+1
    eigenvalues: the top value 2(n+1) + n(m^2+m), the secant family for
    p = 1..m (not m-1: stopping early loses one eigenvalue) and the
    cosecant family for q = 1..m.  Length 3 is rejected here: C_3 is K_3
    and same-block adjacent pairs then sit at distance 2, not 3, so the
    complete-graph form applies instead.
    """
    if m < 2:
        raise FamilyDomainError(
            f"odd cycle factor needs length >= 5, got {2 * m + 1}; "
            "length 3 is the complete graph K_3 (use the complete-product form)"
        )
    return kron_complete_law(n, eigen_table(Cycle(2 * m + 1)), group_tol)


def kron_complete_spectrum(n: int, m: int) -> Spectrum:
    """Distance spectrum of K_n (x) K_m for n, m >= 3:
    {mn+m+n-3: 1, n-3: m-1, m-3: n-1, -3: (n-1)(m-1)}."""
    if m < 3:
        raise FamilyDomainError(
            f"complete-product form needs both factors >= 3, got m={m}; "
            "with a K_2 factor same-position pairs sit at distance 3, not 2"
        )
    return kron_complete_law(n, eigen_table(Complete(m)))


def kron_johnson_spectrum(n: int, m: int, r: int) -> Spectrum:
    """Distance spectrum of K_n (x) J(m, r) for n >= 3, C(m, r) > 2.

    Distinguished block 2(n-1)I + nD + A evaluated on the Johnson
    adjacency eigenvalues lambda_i:
        2n - 2 + n*s + lambda_0            (multiplicity 1)
        2n - 2 - n*s/(m-1) + lambda_1      (multiplicity m-1)
        2n - 2 + lambda_i                  (i >= 2, adjacency multiplicity)
    plus n-1 copies of the repeated block A - 2I.  All values are exact
    integers, so the family is distance integral.
    """
    factor = Johnson(m, r)
    if comb(m, r) <= 2:
        raise FamilyDomainError(
            "J(2,1) is K_2; the product closed form needs a factor with more"
            " than two vertices (adjacent pairs must have a common neighbor)"
        )
    return kron_complete_law(n, eigen_table(factor))


def kron_hamming_spectrum(n: int, d: int, q: int) -> Spectrum:
    """Distance spectrum of K_n (x) H(d, q) for n >= 3, q >= 3.

    Distinguished block 2(n-1)I + nD + A on the Hamming adjacency
    eigenvalues lambda_i:
        2n - 2 + n*t + lambda_0            (t = d*q^(d-1)*(q-1), mult 1)
        2n - 2 - n*q^(d-1) + lambda_1      (multiplicity d(q-1))
        2n - 2 + lambda_i                  (i >= 2, adjacency multiplicity)
    plus n-1 copies of A - 2I.  The factor n on q^(d-1) is required: the
    variant without it fails the zero-trace identity and the oracle.
    q = 2 is rejected: the hypercube factor is bipartite and the diagonal
    distance blocks differ (H(2,2) is the 4-cycle; use the even-cycle form).
    """
    factor = Hamming(d, q)
    if q < 3:
        raise FamilyDomainError(
            "hamming factor with q = 2 is bipartite: adjacent factor pairs sit"
            " at product distance 3, not 2, so this closed form does not apply"
            " (H(2,2) is the 4-cycle; use the even-cycle product form)"
        )
    return kron_complete_law(n, eigen_table(factor))


# ---------------------------------------------------------------------------
# Integrality certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralityReport:
    is_integral: bool
    worst_deviation: float
    offending_values: tuple[float, ...]


def check_integrality(sp: Spectrum, tol: float = 1e-6) -> IntegralityReport:
    """Distance of each eigenvalue from the nearest integer."""
    values = sp.value_array
    # np.round, like round, takes halves to even
    deviations = np.abs(values - np.round(values))
    worst = float(deviations.max(initial=0.0))
    offending = values[deviations > tol].tolist()
    return IntegralityReport(worst <= tol, worst, tuple(offending))
