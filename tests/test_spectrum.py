"""Spectrum grouping/matching and the dense eigensolver oracle."""

import functools
import math
import operator
import warnings

import numpy as np
import pytest

from kronspectra.errors import NonSymmetricMatrixError, OrderCapError
from kronspectra.graphs import Complete, Cycle, Kron, build_family, distance_matrix
from kronspectra.numeric import oracle_spectrum, symmetric_eigenvalues
from kronspectra.spectrum import Spectrum, spectra_match, spectrum_from_values


def test_grouping_merges_close_values():
    sp = spectrum_from_values([1.0000000001, 1.0, 0.0], 1e-6)
    assert sp.multiplicities() == [2, 1]
    assert sp.values()[0] == pytest.approx(1.0, abs=1e-9)
    assert sp.values()[1] == 0.0


def test_grouping_tol_zero_keeps_exact_groups():
    sp = spectrum_from_values([2, -1, -1], 0.0)
    assert sp.pairs == ((2.0, 1), (-1.0, 2))


def test_spectrum_invariants_enforced():
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Spectrum(((1.0, 0),))
    with pytest.raises(ValueError, match="sorted by descending value"):
        Spectrum(((1.0, 1), (2.0, 1)))  # not descending
    with pytest.raises(ValueError, match="differ by more than grouping_tol"):
        Spectrum(((1.0, 1), (1.0 - 1e-9, 1)), grouping_tol=1e-6)
    with pytest.raises(ValueError, match="differ by more than grouping_tol"):
        Spectrum(((1.5, 2), (1.0, 1), (0.75, 1)), grouping_tol=0.25)
    assert Spectrum(((1.5, 2), (1.0, 1), (0.75, 1)), grouping_tol=0.125).order == 4
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            Spectrum(((2.0, 1), (value, 1)))
    # the first offending pair names the error
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Spectrum(((2.0, 1), (1.0, -1), (np.nan, 1)))
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        Spectrum(((np.inf, 1), (1.0, 0)))
    with pytest.raises(ValueError, match="sorted by descending value"):
        Spectrum(((1.0, 1), (2.0, 1)), grouping_tol=5.0)


def test_spectrum_order_sums_multiplicities():
    assert Spectrum(()).order == 0
    assert Spectrum(((3.0, 2), (1.0, 5), (-4.0, 1))).order == 8
    assert Spectrum(((1.0, 1), (0.0, 2**70))).order == 2**70 + 1


def _reference_grouping(values, group_tol):
    """The per-value loop spectrum_from_values replaced, as (pairs, tol).

    Each group is summed left to right from 0.0, as ``sum`` adds floats
    before Python 3.12 (later versions compensate).
    """
    ordered = sorted(float(v) for v in values)
    groups = []
    for v in ordered:
        if groups and v - groups[-1][-1] <= group_tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    pairs = tuple(
        (functools.reduce(operator.add, g, 0.0) / len(g), len(g))
        for g in reversed(groups)
    )
    return pairs, group_tol


def _assert_grouping_matches_reference(values, group_tol):
    sp = spectrum_from_values(values, group_tol)
    assert (sp.pairs, sp.grouping_tol) == _reference_grouping(values, group_tol)
    assert all(type(v) is float and type(m) is int for v, m in sp.pairs)


def _clustered(rng, groups, max_size, tol):
    """Values in `groups` clusters of 1..max_size members, each within tol."""
    centres = np.cumsum(rng.uniform(3 * max_size * tol, 1.0, groups)) - groups / 2
    sizes = rng.integers(1, max_size + 1, groups)
    values = np.repeat(centres, sizes) + rng.uniform(0.0, tol, sizes.sum())
    return rng.permutation(values)


def test_grouping_small_inputs_match_reference():
    for values, tol in [
        ([], 1e-6), ([], 0.0), ([2.5], 1e-6), ([-3], 0.0),
        ([2, -1, -1, 7, 2], 0.0), ([2, -1, -1, 7, 2], 1.5), ([10**20, -4], 1e-6),
        ([-0.0], 0.0), ([0.0, -0.0, -0.0], 0.0), ([-0.0, -0.0], 1e-6),
        ([-0.0, 1e-7, -1e-7, 0.0], 1e-6), ([1.0, -0.0, 1.0], 0.0),
    ]:
        _assert_grouping_matches_reference(values, tol)


@pytest.mark.parametrize("tol", [0.25, 1e-6, 0.1])
def test_grouping_chains_at_exactly_the_tolerance(tol):
    rng = np.random.default_rng(5)
    spaced = list(np.arange(40) * tol) + [100.0 + k * tol for k in range(7)]
    _assert_grouping_matches_reference(spaced, tol)
    _assert_grouping_matches_reference(rng.permutation(spaced), tol)
    if tol == 0.25:  # every gap is exactly the tolerance, so runs chain
        assert spectrum_from_values(spaced, tol).multiplicities() == [7, 40]


@pytest.mark.parametrize("seed", range(6))
def test_grouping_random_clusters_match_reference(seed):
    rng = np.random.default_rng(seed)
    tol = [1e-6, 1e-3, 0.0][seed % 3]
    values = _clustered(rng, int(rng.integers(65, 400)), 12, tol)
    if tol == 0.0:
        values = np.repeat(values, rng.integers(1, 13, values.size))
    assert len(spectrum_from_values(values, tol).pairs) > 64
    _assert_grouping_matches_reference(values, tol)
    _assert_grouping_matches_reference(values.tolist(), tol)
    _assert_grouping_matches_reference(np.round(values * 1000).astype(int), tol)


@pytest.mark.parametrize("seed", range(3))
def test_grouping_long_group_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    long_group = rng.uniform(-1e-7, 1e-7, 12_000) + [0.0, 3.7, -2.2][seed]
    values = np.concatenate([_clustered(rng, 200, 12, 1e-6) + 10.0, long_group,
                             np.full(20_000, -0.0), -long_group - 50.0])
    sp = spectrum_from_values(values, 1e-6)
    assert max(sp.multiplicities()) >= 20_000
    _assert_grouping_matches_reference(values, 1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouping_rejects_nonfinite_values(bad):
    for values in ([bad], [1.0, bad], [bad, -3.0, 2.0, 2.0], [bad, bad]):
        for tol in (1e-6, 0.0):
            # a ValueError, not a numpy RuntimeWarning, even when warnings raise
            with warnings.catch_warnings(), \
                    pytest.raises(ValueError, match="eigenvalues must be finite"):
                warnings.simplefilter("error")
                spectrum_from_values(values, tol)


def test_identity_eigenvalues():
    vals = symmetric_eigenvalues(np.eye(5))
    assert vals == pytest.approx([1.0] * 5)


def test_triangle_adjacency_eigenvalues():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    assert symmetric_eigenvalues(a) == pytest.approx([-1, -1, 2])


def test_k3_by_k3_distance_eigenvalues():
    g = build_family(Kron(Complete(3), Complete(3)))
    sp = oracle_spectrum(distance_matrix(g).astype(float))
    assert sp.values() == pytest.approx([12, 0, -3], abs=1e-9)
    assert sp.multiplicities() == [1, 4, 4]


def test_c5_distance_spectrum():
    sp = oracle_spectrum(distance_matrix(build_family(Cycle(5))).astype(float))
    assert sp.multiplicities() == [1, 2, 2]
    assert sp.values() == pytest.approx([6.0, -0.381966, -2.618034], abs=1e-6)


def test_match_identical():
    sp = spectrum_from_values([3, 1, 1, 0], 0.0)
    report = spectra_match(sp, sp, 0.0)
    assert report.matches and report.max_gap == 0.0


def test_match_catches_multiplicity_difference():
    a = spectrum_from_values([2, -1, -1], 0.0)
    b = spectrum_from_values([2, -1, 0], 0.0)
    report = spectra_match(a, b, 1e-6)
    assert not report.matches
    assert report.mismatches


def test_match_catches_order_difference():
    a = spectrum_from_values([1, 1], 0.0)
    b = spectrum_from_values([1, 1, 1], 0.0)
    assert not spectra_match(a, b, 1e-6).matches


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_tolerances_must_be_finite_and_nonnegative(tol):
    # a NaN tolerance merged every value into one group and matched
    # spectra 97 apart
    a = spectrum_from_values([1.0], 0.0)
    b = spectrum_from_values([98.0], 0.0)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        spectra_match(a, b, tol)
    with pytest.raises(ValueError, match="group_tol must be finite and nonnegative"):
        spectrum_from_values([1.0], tol)


def test_trace_and_frobenius_identities():
    rng = np.random.RandomState(7)
    for n in (2, 5, 17, 40):
        m = rng.randn(n, n)
        m = (m + m.T) / 2
        vals = symmetric_eigenvalues(m)
        scale = max(1.0, np.linalg.norm(m))
        assert abs(vals.sum() - np.trace(m)) <= 1e-7 * scale
        assert abs((vals ** 2).sum() - (m ** 2).sum()) <= 1e-7 * scale ** 2


def test_eigensolver_deterministic():
    rng = np.random.RandomState(11)
    m = rng.randn(30, 30)
    m = m + m.T
    first = symmetric_eigenvalues(m)
    second = symmetric_eigenvalues(m.copy())
    assert (first == second).all()


def test_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricMatrixError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "3")
    with pytest.raises(OrderCapError):
        symmetric_eigenvalues(np.eye(4))
    assert symmetric_eigenvalues(np.eye(3)) == pytest.approx([1, 1, 1])


def test_hermitian_input_supported():
    h = np.array([[2.0, 1j], [-1j, 2.0]])
    assert symmetric_eigenvalues(h) == pytest.approx([1.0, 3.0])


def test_json_round_trip():
    sp = spectrum_from_values([6.0, -0.3819660113, -0.3819660113, -2.618, -2.618], 1e-6)
    back = Spectrum.from_json(sp.to_json())
    assert back.order == sp.order
    assert back.multiplicities() == sp.multiplicities()
    assert back.values() == pytest.approx(sp.values(), abs=1e-9)
