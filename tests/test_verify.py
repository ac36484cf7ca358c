"""The per-family oracle context that a family's grid checks share."""

from fractions import Fraction

import numpy as np
import pytest

from kronspectra import polynomials, verify
from kronspectra.errors import NonSymmetricMatrixError, OrderCapError
from kronspectra.graphs import Complete, Cycle, Graph, Hamming, Johnson, Kron
from kronspectra.polynomials import Polynomial, verify_distance_polynomial
from kronspectra.verify import (
    FamilyOracle,
    oracle_adjacency_spectrum,
    oracle_distance_spectrum,
    poly_report,
    run_grid,
    verify_family,
)


def test_family_oracle_computes_each_part_on_first_use(monkeypatch):
    calls = []
    bfs = verify.distance_matrix
    monkeypatch.setattr(verify, "distance_matrix", lambda g: calls.append(g) or bfs(g))
    spec = Johnson(6, 3)
    oracle = FamilyOracle(spec)
    assert verify_family(spec, 1e-6, "adjacency", oracle).match
    assert "graph" in vars(oracle) and "distances" not in vars(oracle)
    assert not calls
    assert verify_family(spec, 1e-6, "distance", oracle).match
    assert poly_report(spec, 1e-8, oracle).match
    assert calls == [oracle.graph]


def test_family_oracle_keeps_no_failed_result(monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "10")
    spec = Hamming(2, 4)
    oracle = FamilyOracle(spec)
    messages = []
    for check in (lambda: verify_family(spec, 1e-6, "distance", oracle),
                  lambda: poly_report(spec, 1e-8, oracle)):
        with pytest.raises(OrderCapError) as info:
            check()
        messages.append(str(info.value))
    assert messages == ["distance matrix order 16 exceeds dense cap 10"] * 2
    assert "distances" not in vars(oracle)


def test_oracle_of_another_family_is_refused():
    with pytest.raises(ValueError):
        verify_family(Johnson(5, 2), 1e-6, "distance", FamilyOracle(Johnson(6, 3)))


def test_grid_family_builds_one_float_adjacency(monkeypatch):
    dtypes = []
    build = Graph.adjacency_matrix

    def counting(self, dtype=np.int64):
        dtypes.append(np.dtype(dtype))
        return build(self, dtype)

    monkeypatch.setattr(Graph, "adjacency_matrix", counting)
    spec = Hamming(3, 3)
    kinds = ("adjacency-spectrum", "distance-spectrum", "distance-polynomial")
    assert all(report.match for report in run_grid([(spec, kind) for kind in kinds]))
    # the BFS may build its own float32 A for a dense step; the float64 A
    # that the eigensolve and p(A) read is built once
    assert dtypes.count(np.dtype(np.float64)) == 1


@pytest.mark.parametrize("spec", [Hamming(3, 3), Kron(Complete(4), Cycle(5)), Johnson(6, 3)])
def test_spectrum_and_verify_share_the_oracle_values(spec):
    assert oracle_distance_spectrum(spec) == verify_family(spec).oracle
    if not isinstance(spec, Kron):
        adjacency = verify_family(spec, matrix="adjacency").oracle
        assert oracle_adjacency_spectrum(spec) == adjacency


def test_family_oracle_carries_the_translation_shape():
    assert FamilyOracle(Kron(Complete(3), Hamming(2, 4))).shape == (3, 4, 4)
    assert FamilyOracle(Johnson(6, 3)).shape is None
    with pytest.raises(ValueError, match="unknown matrix kind"):
        FamilyOracle(Johnson(6, 3)).eigenvalues("laplacian")


def _with_symmetric_pair_changed(matrix, change):
    """A copy of ``matrix`` with entries (5, 7) and (7, 5) changed: off
    row 0, so a comparison of row 0 alone would not see it."""
    out = matrix.copy()
    out[5, 7] = out[7, 5] = change(out[5, 7])
    return out


@pytest.mark.parametrize("attribute, change", [
    ("distances", lambda entry: entry + 1),
    ("adjacency", lambda entry: 1 - entry),
], ids=["distances", "adjacency"])
def test_poly_check_refuses_a_mutation_off_row_zero(attribute, change):
    oracle = FamilyOracle(Hamming(3, 3))
    planted = _with_symmetric_pair_changed(getattr(oracle, attribute), change)
    setattr(oracle, attribute, planted)
    with pytest.raises(NonSymmetricMatrixError, match="not invariant"):
        poly_report(oracle.spec, 1e-8, oracle)


def test_poly_check_sees_a_wrong_polynomial(monkeypatch):
    exact = polynomials.distance_polynomial
    shift = Polynomial.from_coefficients([Fraction(1, 10**6)])
    monkeypatch.setattr(polynomials, "distance_polynomial", lambda spec: exact(spec) + shift)
    report = poly_report(Hamming(3, 3))
    assert not report.match
    assert abs(report.max_abs_gap - 1e-6) < 1e-12


def test_poly_check_evaluates_row_zero_of_a_group_matrix_only(monkeypatch):
    shapes = []
    evaluate = polynomials.matrix_polynomial_eval

    def spy(*args):
        result = evaluate(*args)
        shapes.append(result.shape)
        return result

    monkeypatch.setattr(polynomials, "matrix_polynomial_eval", spy)
    for spec in (Hamming(3, 3), Johnson(6, 3)):
        assert verify_distance_polynomial(spec).passed
    assert shapes == [(1, 27), (20, 20)]


def test_family_oracle_solves_each_matrix_once(monkeypatch):
    calls = []
    solve = verify.symmetric_eigenvalues
    monkeypatch.setattr(verify, "symmetric_eigenvalues",
                        lambda *args: calls.append(args[1]) or solve(*args))
    oracle = FamilyOracle(Hamming(3, 3))
    first = oracle.eigenvalues("distance")
    second = oracle.eigenvalues("distance")
    assert second is first and not first.flags.writeable
    assert np.array_equal(first, solve(oracle.distances, (3, 3, 3)))
    assert calls == [(3, 3, 3)]


def test_family_oracle_keeps_no_failed_solve(monkeypatch):
    calls = []
    solve = verify.symmetric_eigenvalues
    monkeypatch.setattr(verify, "symmetric_eigenvalues",
                        lambda *args: calls.append(args[1]) or solve(*args))
    oracle = FamilyOracle(Hamming(3, 3))
    oracle.distances = _with_symmetric_pair_changed(oracle.distances, lambda e: e + 1)
    for _ in range(2):
        with pytest.raises(NonSymmetricMatrixError):
            oracle.eigenvalues("distance")
    assert calls == [(3, 3, 3)] * 2
