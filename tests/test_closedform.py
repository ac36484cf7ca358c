"""Closed-form spectra: frozen examples, oracle equality, domain guards."""

from math import comb

import numpy as np
import pytest

from kronspectra import circulant, closedform
from kronspectra.closedform import (
    IntegralityReport,
    IntersectionArray,
    check_integrality,
    complete_distance_spectrum,
    cycle_distance_spectrum,
    hamming_adjacency_spectrum,
    hamming_distance_spectrum,
    hamming_intersection,
    johnson_adjacency_spectrum,
    johnson_distance_spectrum,
    johnson_distance_total,
    johnson_intersection,
    kron_complete_spectrum,
    kron_cycle_even_spectrum,
    kron_cycle_odd_spectrum,
    kron_hamming_spectrum,
    kron_johnson_spectrum,
)
from kronspectra.errors import FamilyDomainError, NoClosedFormError
from kronspectra.graphs import (
    Complete,
    Cycle,
    Hamming,
    Johnson,
    Kron,
    build_family,
    distance_matrix,
    family_to_string,
)
from kronspectra.numeric import symmetric_eigenvalues
from kronspectra.spectrum import Spectrum, spectrum_from_values
from kronspectra.verify import closed_form_distance_spectrum


def oracle_distance_values(spec):
    return symmetric_eigenvalues(distance_matrix(build_family(spec)).astype(float))


# ---------------------------------------------------------------------------
# Intersection arrays
# ---------------------------------------------------------------------------

def test_johnson_intersection_examples():
    arr = johnson_intersection(4, 2)
    assert arr.b == (4, 1) and arr.c == (1, 4) and arr.diameter == 2
    arr = johnson_intersection(6, 3)
    assert arr.b == (9, 4, 1) and arr.c == (1, 4, 9)
    arr = johnson_intersection(2, 1)
    assert arr.b == (1,) and arr.c == (1,)


def test_hamming_intersection_examples():
    arr = hamming_intersection(2, 2)
    assert arr.b == (2, 1) and arr.c == (1, 2)
    arr = hamming_intersection(3, 3)
    assert arr.b == (6, 4, 2) and arr.c == (1, 2, 3)
    arr = hamming_intersection(1, 7)
    assert arr.b == (6,) and arr.c == (1,)


def test_intersection_domain_errors():
    with pytest.raises(FamilyDomainError):
        johnson_intersection(3, 2)
    with pytest.raises(FamilyDomainError):
        hamming_intersection(0, 2)


def test_intersection_array_rejects_malformed_numbers():
    # the distance recurrence divides by every c_{i+1}
    with pytest.raises(ValueError, match="every c_i >= 1"):
        IntersectionArray((2, 1), (1, 0), 2)
    with pytest.raises(ValueError, match="every b_i >= 1"):
        IntersectionArray((2, 0), (1, 1), 2)
    with pytest.raises(ValueError, match="every a_i"):
        IntersectionArray((3, 1), (1, 4), 2)  # a_2 = 3 - 0 - 4


# ---------------------------------------------------------------------------
# Base-family spectra
# ---------------------------------------------------------------------------

def test_johnson_adjacency_examples():
    assert johnson_adjacency_spectrum(4, 2).pairs == ((4.0, 1), (0.0, 3), (-2.0, 2))
    # lambda_1 = b_1 - 1 = 4 - 1 = 3; dense oracle agrees
    assert johnson_adjacency_spectrum(6, 3).pairs == (
        (9.0, 1), (3.0, 5), (-1.0, 9), (-3.0, 5)
    )
    assert johnson_adjacency_spectrum(2, 1).pairs == ((1.0, 1), (-1.0, 1))


def test_johnson_distance_examples():
    assert johnson_distance_total(4, 2) == 6
    assert johnson_distance_spectrum(4, 2).pairs == ((6.0, 1), (0.0, 2), (-2.0, 3))
    # k_j = C(3,j)^2 = (1, 9, 9, 1) so s = 9 + 18 + 3 = 30 and mu_1 = -6
    assert johnson_distance_total(6, 3) == 30
    assert johnson_distance_spectrum(6, 3).pairs == ((30.0, 1), (0.0, 14), (-6.0, 5))
    # r = 1: the zero eigenvalue class is empty
    assert johnson_distance_spectrum(2, 1).pairs == ((1.0, 1), (-1.0, 1))


def test_johnson_distance_matches_oracle():
    closed = np.array(johnson_distance_spectrum(6, 3).expanded())
    assert closed == pytest.approx(oracle_distance_values(Johnson(6, 3)), abs=1e-8)


@pytest.mark.parametrize("m", range(2, 13))
def test_second_distance_eigenvalue_is_binomial(m):
    # s/(m-1) == C(m-2, r-1) makes the Johnson family distance integral
    for r in range(1, m // 2 + 1):
        s = johnson_distance_total(m, r)
        assert s % (m - 1) == 0
        assert s // (m - 1) == comb(m - 2, r - 1)


def test_hamming_adjacency_examples():
    assert hamming_adjacency_spectrum(2, 2).pairs == ((2.0, 1), (0.0, 2), (-2.0, 1))
    assert hamming_adjacency_spectrum(2, 3).pairs == ((4.0, 1), (1.0, 4), (-2.0, 4))
    assert hamming_adjacency_spectrum(1, 5).pairs == ((4.0, 1), (-1.0, 4))


def test_hamming_distance_examples():
    assert hamming_distance_spectrum(2, 2).pairs == ((4.0, 1), (0.0, 1), (-2.0, 2))
    assert hamming_distance_spectrum(2, 3).pairs == ((12.0, 1), (0.0, 4), (-3.0, 4))
    assert hamming_distance_spectrum(1, 3).pairs == ((2.0, 1), (-1.0, 2))


def test_cycle_and_complete_distance_spectra():
    assert complete_distance_spectrum(4).pairs == ((3.0, 1), (-1.0, 3))
    sp = cycle_distance_spectrum(4)
    assert sp.values() == pytest.approx([4, 0, -2], abs=1e-9)


@pytest.mark.xfail(strict=True, reason="values are chained at an absolute 1e-6, "
                   "which merges three distinct eigenvalues near -1/4 (ROADMAP item 4)")
def test_odd_cycle_distance_groups_are_distinct_values():
    # j and n - j give one value, j = 0 its own: (n + 1) / 2 distinct values
    sp, _ = closed_form_distance_spectrum(Cycle(3999))
    assert len(sp.pairs) == 2000


@pytest.mark.parametrize("n,odd", [(100001, 1), (999999, 1), (1000000, 2), (99998, 2)])
def test_cycle_pairs_never_split(n, odd):
    # every row but j = 0 (and j = n/2 for even n) carries a pair, so only
    # the groups holding those singletons have an odd multiplicity
    sp, _ = closed_form_distance_spectrum(Cycle(n))
    assert sp.order == n
    assert int(np.count_nonzero(sp.multiplicity_array % 2)) == odd


def test_closed_forms_group_table_rows_not_repeated_values(monkeypatch):
    rows = []

    def spy(values, group_tol, multiplicities=None):
        rows.append(len(values))
        return spectrum_from_values(values, group_tol, multiplicities)

    monkeypatch.setattr(closedform, "spectrum_from_values", spy)
    monkeypatch.setattr(circulant, "spectrum_from_values", spy)
    for n in (5, 6, 4001, 100000):
        assert cycle_distance_spectrum(n).order == n
        assert circulant.cycle_combo_spectrum(n, 0.5, 2.0).order == n
        assert rows == [n // 2 + 1] * 2
        rows.clear()
    sp, _ = closed_form_distance_spectrum(Kron(Complete(8), Cycle(187500)))
    assert sp.order == 8 * 187500
    assert rows == [2 * (187500 // 2 + 1)]


# ---------------------------------------------------------------------------
# Product spectra
# ---------------------------------------------------------------------------

def test_kron_cycle_even_example():
    sp = kron_cycle_even_spectrum(3, 2)
    assert sp.multiplicities() == [1, 2, 1, 6, 2]
    assert sp.values() == pytest.approx([20, 2, 0, -2, -6], abs=1e-9)
    # top eigenvalue is 2(n+1) + n m^2
    assert sp.values()[0] == pytest.approx(2 * 4 + 3 * 4, abs=1e-12)
    assert abs(sp.trace()) < 1e-9


def test_kron_cycle_even_matches_oracle():
    closed = np.array(kron_cycle_even_spectrum(4, 3).expanded())
    oracle = oracle_distance_values(Kron(Complete(4), Cycle(6)))
    assert closed == pytest.approx(oracle, abs=1e-8)


def test_kron_cycle_odd_example():
    sp = kron_cycle_odd_spectrum(3, 2)  # K_3 (x) C_5
    # top eigenvalue 2(n+1) + n(m^2+m) = 8 + 18 = 26
    assert sp.values()[0] == pytest.approx(26, abs=1e-9)
    assert abs(sp.trace()) < 1e-9
    closed = np.array(sp.expanded())
    oracle = oracle_distance_values(Kron(Complete(3), Cycle(5)))
    assert closed == pytest.approx(oracle, abs=1e-8)


def test_kron_complete_examples():
    assert kron_complete_spectrum(3, 4).pairs == (
        (16.0, 1), (1.0, 2), (0.0, 3), (-3.0, 6)
    )
    # n = m collapses to (n-1)(n+3), n-3, -3 with multiplicities 1, 2n-2, (n-1)^2
    assert kron_complete_spectrum(3, 3).pairs == ((12.0, 1), (0.0, 4), (-3.0, 4))
    assert kron_complete_spectrum(5, 5).pairs == ((32.0, 1), (2.0, 8), (-3.0, 16))


def test_kron_complete_zero_trace_grid():
    for n in range(3, 9):
        for m in range(3, 9):
            sp = kron_complete_spectrum(n, m)
            assert sp.trace() == 0
            assert sp.order == n * m


def test_kron_johnson_example():
    sp = kron_johnson_spectrum(3, 4, 2)
    # merged multiset of {26:1, -2:3, 2:2} and 2 x {2:1, -2:3, -4:2}
    assert sp.pairs == ((26.0, 1), (2.0, 4), (-2.0, 9), (-4.0, 4))
    assert sp.values()[0] == 2 * 3 - 2 + 3 * 6 + 4  # 2n-2 + n*s + lambda_0
    assert sp.trace() == 0
    assert check_integrality(sp, 0.0).is_integral


def test_kron_johnson_matches_oracle():
    closed = np.array(kron_johnson_spectrum(4, 5, 2).expanded())
    oracle = oracle_distance_values(Kron(Complete(4), Johnson(5, 2)))
    assert closed == pytest.approx(oracle, abs=1e-8)


def test_kron_hamming_example():
    sp = kron_hamming_spectrum(3, 2, 3)
    assert sp.pairs == ((44.0, 1), (2.0, 6), (-1.0, 8), (-4.0, 12))
    assert sp.values()[0] == 2 * 3 - 2 + 3 * 12 + 4  # 2n-2 + n*t + lambda_0
    assert sp.trace() == 0
    assert check_integrality(sp, 0.0).is_integral


def test_kron_hamming_matches_oracle():
    closed = np.array(kron_hamming_spectrum(3, 3, 3).expanded())
    oracle = oracle_distance_values(Kron(Complete(3), Hamming(3, 3)))
    assert closed == pytest.approx(oracle, abs=1e-8)


def test_product_perron_root_simple_and_dominant():
    for sp in (
        kron_complete_spectrum(4, 6),
        kron_johnson_spectrum(3, 6, 2),
        kron_hamming_spectrum(4, 2, 4),
        kron_cycle_even_spectrum(5, 3),
        kron_cycle_odd_spectrum(4, 3),
    ):
        assert sp.pairs[0][1] == 1
        assert sp.values()[0] > abs(sp.values()[1]) - 1e-9
        assert sp.values()[0] > sp.values()[1]


# ---------------------------------------------------------------------------
# Domain guards on the product forms
# ---------------------------------------------------------------------------

def test_product_forms_reject_k2_factors():
    with pytest.raises(FamilyDomainError):
        kron_complete_spectrum(2, 3)
    with pytest.raises(FamilyDomainError):
        kron_complete_spectrum(3, 2)
    with pytest.raises(FamilyDomainError):
        kron_cycle_odd_spectrum(2, 2)
    with pytest.raises(FamilyDomainError):
        kron_johnson_spectrum(3, 2, 1)  # J(2,1) = K_2


def test_cycle_product_forms_reject_triangle():
    with pytest.raises(FamilyDomainError):
        kron_cycle_odd_spectrum(3, 1)  # C_3 is K_3
    with pytest.raises(FamilyDomainError):
        kron_cycle_even_spectrum(3, 1)


def test_hamming_product_form_rejects_bipartite_factor():
    with pytest.raises(FamilyDomainError):
        kron_hamming_spectrum(3, 2, 2)
    with pytest.raises(FamilyDomainError):
        kron_hamming_spectrum(4, 3, 2)


def test_k2_complete_product_formula_really_fails():
    # K_2 (x) K_3 is the 6-cycle with distance spectrum {9, 0, 0, -1, -4, -4}:
    # the product formula would predict {8, 0, -1, -1, -3, -3}.
    oracle = oracle_distance_values(Kron(Complete(2), Complete(3)))
    assert np.sort(oracle) == pytest.approx([-4, -4, -1, 0, 0, 9], abs=1e-8)
    formula = sorted(
        [2 * 3 + 2 + 3 - 3] + [2 - 3] * 2 + [3 - 3] * 1 + [-3] * 2
    )
    assert np.max(np.abs(np.sort(oracle) - np.array(formula, float))) > 0.5


@pytest.mark.parametrize("spec", [
    Kron(Complete(2), Cycle(5)),
    Kron(Complete(2), Complete(3)),
    Kron(Complete(3), Complete(2)),
])
def test_product_dispatch_reports_k2_factor_as_no_closed_form(spec):
    with pytest.raises(NoClosedFormError) as info:
        closed_form_distance_spectrum(spec)
    assert str(info.value).startswith(f"no closed form for {family_to_string(spec)}")


# ---------------------------------------------------------------------------
# Integrality certificate
# ---------------------------------------------------------------------------

def test_integrality_examples():
    report = check_integrality(kron_complete_spectrum(3, 3), 1e-9)
    assert report.is_integral and report.worst_deviation == 0.0

    c5 = cycle_distance_spectrum(5)
    report = check_integrality(c5, 1e-6)
    assert not report.is_integral
    assert any(abs(v + 2.618034) < 1e-5 for v in report.offending_values)

    assert check_integrality(kron_johnson_spectrum(3, 4, 2), 0.0).is_integral


def _reference_integrality(sp, tol):
    """The per-value loop check_integrality replaced."""
    worst = 0.0
    offending = []
    for value, _ in sp.pairs:
        dev = abs(value - round(value))
        worst = max(worst, dev)
        if dev > tol:
            offending.append(value)
    return IntegralityReport(worst <= tol, worst, tuple(offending))


def test_integrality_agrees_with_per_value_loop():
    rng = np.random.default_rng(12)
    halves = [2.5, 1.5, 0.5, -0.5, -1.5, 1e300, -2.0**60 - 2048.0, 3 + 1e-7, -2.0000001]
    values = np.concatenate([rng.normal(scale=30, size=300).round(1),
                             rng.integers(-50, 50, 100), halves])
    sp = spectrum_from_values(values, 0.0)
    for tol in (0.0, 1e-6, 0.3, 0.5):
        report = check_integrality(sp, tol)
        assert report == _reference_integrality(sp, tol)
        assert type(report.worst_deviation) is float
        assert all(type(v) is float for v in report.offending_values)
    assert check_integrality(Spectrum(()), 0.0) == IntegralityReport(True, 0.0, ())
