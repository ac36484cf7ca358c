"""Lagrange/Vandermonde machinery and the D = p(A) polynomials."""

from fractions import Fraction

import numpy as np
import pytest

from kronspectra import oracle
from kronspectra.closedform import (
    hamming_adjacency_eigenvalues,
    johnson_adjacency_eigenvalues,
    johnson_distance_total,
)
from kronspectra.errors import FamilyDomainError, NonSymmetricMatrixError
from kronspectra.graphs import (
    Complete,
    Cycle,
    Hamming,
    Johnson,
    build_family,
    distance_matrix,
    family_to_string,
)
from kronspectra.polynomials import (
    Polynomial,
    distance_polynomial,
    hamming_distance_polynomial,
    johnson_distance_polynomial,
    lagrange_basis,
    matrix_polynomial_eval,
    vandermonde_solve,
)
from kronspectra.oracle import polynomial_rows
from kronspectra.verify import default_grid, poly_report

F = Fraction


# ---------------------------------------------------------------------------
# Lagrange basis and Vandermonde solve
# ---------------------------------------------------------------------------

def test_lagrange_two_nodes():
    p = lagrange_basis([0, 1], 0)
    assert p.coefficients == (F(1), F(-1))  # 1 - x


def test_lagrange_octahedron_nodes():
    p = lagrange_basis([4, 0, -2], 0)
    assert p.coefficients == (F(0), F(1, 12), F(1, 24))  # x(x+2)/24


def test_lagrange_delta_property():
    rng = np.random.RandomState(5)
    for _ in range(20):
        nodes = sorted(rng.choice(range(-20, 21), size=5, replace=False))
        for j in range(5):
            basis = lagrange_basis([int(x) for x in nodes], j)
            for i, x in enumerate(nodes):
                assert basis(int(x)) == (1 if i == j else 0)


def test_lagrange_rejects_duplicates():
    with pytest.raises(ValueError):
        lagrange_basis([1, 1, 2], 0)


def test_vandermonde_identity_line():
    p = vandermonde_solve([0, 1], [0, 1])
    assert p.coefficients == (F(0), F(1))


def test_vandermonde_octahedron_polynomial():
    p = vandermonde_solve([4, 0, -2], [6, -2, 0])
    assert p.coefficients == (F(-2), F(0), F(1, 2))  # (x^2 - 4)/2


def test_vandermonde_interpolates_random_instances():
    rng = np.random.RandomState(9)
    for _ in range(30):
        size = rng.randint(2, 9)
        nodes = [int(x) for x in rng.choice(range(-500, 501), size, replace=False)]
        rhs = [int(x) for x in rng.randint(-1000, 1000, size)]
        p = vandermonde_solve(nodes, rhs)
        assert p.degree <= size - 1
        for x, y in zip(nodes, rhs):
            assert p(x) == y  # exact rational interpolation


# ---------------------------------------------------------------------------
# Johnson / Hamming distance polynomials
# ---------------------------------------------------------------------------

def test_johnson_polynomial_octahedron():
    p = johnson_distance_polynomial(4, 2)
    assert p.coefficients == (F(-2), F(0), F(1, 2))  # (x^2 - 4)/2


def test_hamming_polynomial_four_cycle():
    p = hamming_distance_polynomial(2, 2)
    assert p.coefficients == (F(-2), F(1), F(1))  # x^2 + x - 2


def johnson_grid(max_m):
    return [(m, r) for m in range(2, max_m + 1) for r in range(1, m // 2 + 1)]


def hamming_grid(max_order):
    return [
        (d, q)
        for d in range(1, 11)
        for q in range(2, 17)
        if q ** d <= max_order
    ]


@pytest.mark.parametrize("m, r", johnson_grid(12))
def test_johnson_polynomial_node_values(m, r):
    p = johnson_distance_polynomial(m, r)
    lam = johnson_adjacency_eigenvalues(m, r)
    s = johnson_distance_total(m, r)
    assert p.degree == r
    assert p(lam[0]) == s
    assert p(lam[1]) == F(-s, m - 1)
    for value in lam[2:]:
        assert p(value) == 0


@pytest.mark.parametrize("d, q", hamming_grid(4096))
def test_hamming_polynomial_node_values(d, q):
    p = hamming_distance_polynomial(d, q)
    lam = hamming_adjacency_eigenvalues(d, q)
    assert p.degree == d
    assert p(lam[0]) == d * q ** (d - 1) * (q - 1)
    assert p(lam[1]) == -(q ** (d - 1))
    for value in lam[2:]:
        assert p(value) == 0


# The intersection-number recurrence against the Lagrange form, interpolated
# independently through the adjacency eigenvalues and the distance eigenvalues.

@pytest.mark.parametrize("m, r", johnson_grid(10))
def test_johnson_product_form_equals_lagrange_form(m, r):
    lam = johnson_adjacency_eigenvalues(m, r)
    s = johnson_distance_total(m, r)
    lagrange = vandermonde_solve(lam, [s, F(-s, m - 1)] + [0] * (len(lam) - 2))
    assert johnson_distance_polynomial(m, r).coefficients == lagrange.coefficients


@pytest.mark.parametrize("d, q", hamming_grid(256))
def test_hamming_product_form_equals_lagrange_form(d, q):
    lam = hamming_adjacency_eigenvalues(d, q)
    values = [d * q ** (d - 1) * (q - 1), -(q ** (d - 1))] + [0] * (len(lam) - 2)
    lagrange = vandermonde_solve(lam, values)
    assert hamming_distance_polynomial(d, q).coefficients == lagrange.coefficients


@pytest.mark.parametrize("m, r", johnson_grid(12))
def test_product_form_denominators_are_node_gaps(m, r):
    # b_1 - b_i + i - 1 must equal lambda_1 - lambda_i
    b = [(r - i) * (m - r - i) for i in range(r + 1)]
    lam = johnson_adjacency_eigenvalues(m, r)
    for i in range(r + 1):
        assert b[1] - b[i] + i - 1 == lam[1] - lam[i]


# ---------------------------------------------------------------------------
# Matrix evaluation
# ---------------------------------------------------------------------------

def test_matrix_eval_identity_polynomial():
    a = build_family(Johnson(4, 2)).adjacency_matrix().astype(float)
    p = Polynomial.from_coefficients([0, 1])
    assert np.allclose(matrix_polynomial_eval(p, a), a)


def test_matrix_eval_octahedron_recovers_distances():
    g = build_family(Johnson(4, 2))
    p = johnson_distance_polynomial(4, 2)
    evaluated = matrix_polynomial_eval(p, g.adjacency_matrix())
    assert np.max(np.abs(evaluated - distance_matrix(g))) < 1e-9


def test_matrix_eval_four_cycle():
    g = build_family(Cycle(4))
    p = Polynomial.from_coefficients([-2, 1, 1])  # x^2 + x - 2
    evaluated = matrix_polynomial_eval(p, g.adjacency_matrix())
    expected = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    assert np.max(np.abs(evaluated - expected)) < 1e-12


def test_matrix_eval_rejects_nonsquare():
    p = Polynomial.from_coefficients([1, 1])
    with pytest.raises(ValueError):
        matrix_polynomial_eval(p, np.zeros((2, 3)))


def _identity_horner(p, a):
    """Horner from c_d * I, the form matrix_polynomial_eval replaced."""
    n = a.shape[0]
    coeffs = p.as_floats()
    result = coeffs[-1] * np.eye(n)
    for c in coeffs[-2::-1]:
        result = result @ a + c * np.eye(n)
    return result


@pytest.mark.parametrize("spec", [Cycle(7), Johnson(6, 3), Hamming(3, 3), Complete(5)])
def test_matrix_eval_matches_identity_horner(spec):
    a = build_family(spec).adjacency_matrix().astype(float)
    rng = np.random.default_rng(3)
    for degree in range(5):
        coeffs = [F(int(x), int(y)) for x, y in zip(rng.integers(-9, 10, degree + 1),
                                                      rng.integers(1, 7, degree + 1))]
        coeffs[-1] = coeffs[-1] or F(1)
        p = Polynomial.from_coefficients(coeffs)
        assert p.degree == degree
        # same products and sums; only the sign of a zero entry may differ
        assert np.array_equal(matrix_polynomial_eval(p, a), _identity_horner(p, a))
    assert np.array_equal(matrix_polynomial_eval(Polynomial.from_coefficients([F(5, 2)]),
                                                 np.zeros((0, 0))), np.zeros((0, 0)))


def _grid_base_families(max_order):
    specs = dict.fromkeys(spec for spec, _ in default_grid(max_order)
                          if isinstance(spec, (Johnson, Hamming)))
    return list(specs)


def _neighbours(g):
    """The (n, degree) neighbour array of a regular graph."""
    return g.indices.reshape(g.vertex_count, -1)


def _assert_row_matches(p, a, nbrs, scale):
    # row 0 alone, and rows 0, n - 1 and n // 2 at once
    n = a.shape[0]
    for sources in ([0], [0, n - 1, n // 2]):
        rows = polynomial_rows(p.as_floats(), nbrs, np.array(sources))
        assert rows.shape == (len(sources), a.shape[0])
        expected = matrix_polynomial_eval(p, a)[sources]
        assert np.max(np.abs(rows - expected)) <= 1e-12 * max(1.0, scale)


def test_row_blocks_give_the_rows_of_one_block(monkeypatch):
    # a budget of one row's gather a block: every row is its own block
    g = build_family(Johnson(7, 3))
    nbrs, p = _neighbours(g), distance_polynomial(Johnson(7, 3)).as_floats()
    sources = np.array([0, 3, 17, 34])
    whole = polynomial_rows(p, nbrs, sources)
    monkeypatch.setattr(oracle, "_HORNER_BLOCK_ENTRIES", nbrs.size)
    assert np.array_equal(polynomial_rows(p, nbrs, sources), whole)
    assert np.array_equal(whole, np.concatenate([polynomial_rows(p, nbrs, sources[i:i + 1])
                                                 for i in range(4)]))


@pytest.mark.parametrize("spec", _grid_base_families(300), ids=family_to_string)
def test_matrix_eval_row_block_is_the_row_of_the_full_evaluation(spec):
    # every base family is regular, shaped or not, so the sparse Horner on
    # row 0 applies to each of them
    g = build_family(spec)
    _assert_row_matches(distance_polynomial(spec), g.adjacency_matrix(np.float64),
                        _neighbours(g), float(distance_matrix(g).max()))


@pytest.mark.parametrize("spec", [Hamming(3, 3), Johnson(6, 3)])
def test_matrix_eval_row_block_of_low_degrees_and_two_rows(spec):
    g = build_family(spec)
    a, nbrs = g.adjacency_matrix(np.float64), _neighbours(g)
    # row 5 is row 0 once vertices 0 and 5 trade labels
    swap = np.arange(g.vertex_count)
    swap[[0, 5]] = [5, 0]
    for coeffs in ([F(5, 2)], [F(-3), F(7, 4)], [F(1), F(-2), F(1, 3), F(2)]):
        p = Polynomial.from_coefficients(coeffs)
        scale = float(np.abs(matrix_polynomial_eval(p, a)).max())
        _assert_row_matches(p, a, nbrs, scale)
        _assert_row_matches(p, a[np.ix_(swap, swap)], swap[nbrs[swap]], scale)


def test_matrix_eval_rejects_asymmetric_input():
    with pytest.raises(NonSymmetricMatrixError):
        matrix_polynomial_eval(Polynomial.from_coefficients([0, 1]),
                               np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# End-to-end D = p(A)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    Johnson(4, 2), Johnson(6, 3), Hamming(2, 2), Hamming(3, 3), Hamming(2, 5),
])
def test_verify_distance_polynomial(spec):
    report = poly_report(spec)
    assert report.match and report.max_abs_gap < 1e-8


def test_verify_rejects_other_families():
    with pytest.raises(FamilyDomainError):
        poly_report(Complete(4))


def test_polynomial_json():
    p = johnson_distance_polynomial(4, 2)
    assert p.to_json() == '{"coeffs": ["-2", "0", "0.5"]}'
