"""Spectrum grouping/matching and the oracle's eigensolves."""

import functools
import gc
import itertools
import math
import operator
import warnings

import numpy as np
import pytest

from kronspectra import graphs
from kronspectra.errors import NonSymmetricMatrixError, OrderCapError
from kronspectra.graphs import (
    Complete,
    Cycle,
    Hamming,
    Kron,
    build_family,
    distance_matrix,
    family_to_string,
    from_edge_list_text,
    translation_shape,
)
from kronspectra.numeric import max_asymmetry, symmetric_eigenvalues
from kronspectra.spectrum import Spectrum, spectra_match, spectrum_from_values
from kronspectra.verify import (
    FamilyOracle,
    closed_form_distance_spectrum,
    default_grid,
    oracle_distance_spectrum,
)


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


@pytest.mark.parametrize("seed", range(6))
def test_weighted_rows_group_as_their_repeated_values(seed):
    rng = np.random.default_rng(200 + seed)
    tol = [1e-6, 1e-3, 0.0][seed % 3]
    values = _clustered(rng, int(rng.integers(65, 400)), 12, tol)
    weights = rng.integers(1, 7, values.size)
    weighted = spectrum_from_values(values, tol, weights)
    repeated = spectrum_from_values(np.repeat(values, weights), tol)
    assert weighted.grouping_tol == repeated.grouping_tol == tol
    assert np.array_equal(weighted.multiplicity_array, repeated.multiplicity_array)
    # both means are rounded sums of the group's members: M repeated values,
    # or k rows each rounded once as m * v, so each is within (M + 1) and
    # (k + 2) units of the last place of the group's largest magnitude
    mults = repeated.multiplicity_array
    members = np.sort(np.repeat(values, weights))[::-1]
    ends = np.cumsum(mults)
    scale = np.maximum(np.abs(members[ends - mults]), np.abs(members[ends - 1]))
    rows = spectrum_from_values(values, tol).multiplicity_array
    bound = (mults + rows + 3) * np.spacing(scale)
    assert np.all(np.abs(weighted.value_array - repeated.value_array) <= bound)


@pytest.mark.parametrize("tol", [0.0, 1e-6, 1e-3])
def test_unit_weights_group_bit_for_bit_as_no_weights(tol):
    rng = np.random.default_rng(7)
    for values in (_clustered(rng, 300, 12, tol), np.array([0.0, -0.0, -0.0, 1.0]),
                   np.array([2.5]), np.array([])):
        plain = spectrum_from_values(values, tol)
        unit = spectrum_from_values(values, tol, np.ones(values.size, dtype=np.int64))
        assert np.array_equal(plain.value_array, unit.value_array)
        assert np.array_equal(plain.multiplicity_array, unit.multiplicity_array)
        assert unit == plain


def test_weighted_rows_are_checked():
    with pytest.raises(ValueError, match="2 multiplicities for 3 values"):
        spectrum_from_values([1.0, 2.0, 3.0], 0.0, [1, 1])
    for bad in (0, -2):
        with pytest.raises(ValueError, match="multiplicities must be positive"):
            spectrum_from_values([1.0, 2.0], 0.0, [1, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouping_rejects_nonfinite_values(bad):
    for values in ([bad], [1.0, bad], [bad, -3.0, 2.0, 2.0], [bad, bad]):
        for tol in (1e-6, 0.0):
            # a ValueError, not a numpy RuntimeWarning, even when warnings raise
            with warnings.catch_warnings(), \
                    pytest.raises(ValueError, match="eigenvalues must be finite"):
                warnings.simplefilter("error")
                spectrum_from_values(values, tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouping_finds_a_nonfinite_value_at_either_end(bad):
    # a sort puts -inf first and inf and NaN last, so the sorted ends show
    # every non-finite value, weighted or not
    for values in ([bad, 1.0, 2.0], [1.0, 2.0, bad], [2.0, bad, 1.0],
                   [bad, 1.0, bad], [np.nan, bad, 1.0], [-np.inf, 0.5, bad]):
        for mults in (None, [1, 2, 3]):
            with warnings.catch_warnings(), \
                    pytest.raises(ValueError, match="eigenvalues must be finite"):
                warnings.simplefilter("error")
                spectrum_from_values(values, 1e-6, mults)


def _previous_grouping(values, group_tol, multiplicities=None):
    """spectrum_from_values before it reused its buffers, as the (values,
    multiplicities) arrays of its Spectrum: every group summed from 0.0,
    one array step per member position."""
    values = np.asarray(values, dtype=float)
    if multiplicities is None:
        ordered = terms = np.sort(values)
    else:
        order = np.argsort(values, kind="stable")
        ordered, weights = values[order], np.asarray(multiplicities, dtype=np.int64)[order]
        terms = ordered * weights
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered) > group_tol) + 1))
    sizes = np.diff(starts, append=ordered.size)
    counts = sizes if multiplicities is None else np.add.reduceat(weights, starts)
    sums = np.zeros(starts.size)
    open_groups = np.arange(starts.size)
    k = 0
    while open_groups.size > 64:
        sums[open_groups] += terms[starts[open_groups] + k]
        k += 1
        open_groups = open_groups[sizes[open_groups] > k]
    for g in open_groups.tolist():
        tail = terms[starts[g] + k:starts[g] + sizes[g]]
        sums[g] = np.add.accumulate(np.concatenate((sums[g:g + 1], tail)))[-1]
    means = sums / counts
    return np.array(means[::-1]), np.array(counts[::-1], dtype=np.int64)


@pytest.mark.parametrize("seed", range(8))
def test_grouping_is_the_previous_algorithm_bit_for_bit(seed):
    rng = np.random.default_rng(300 + seed)
    tol = [0.0, 1e-6, 1e-3, 5e-3][seed % 4]
    # few groups (the per-group tail alone) or many (array steps first)
    clusters = _clustered(rng, int(rng.integers(3, 400)), 30, tol)
    # exact ties, and zeros of both signs, alone and together
    values = rng.permutation(np.concatenate([
        clusters, rng.choice(clusters, clusters.size // 2), np.zeros(5), np.full(7, -0.0)]))
    weights = rng.integers(1, 9, values.size)
    inputs = [(values, None), (values, weights), (np.full(3, -0.0), None),
              (np.full(3, -0.0), [2, 1, 3])]
    for values, mults in inputs:
        got = spectrum_from_values(values, tol, mults)
        want_values, want_mults = _previous_grouping(values, tol, mults)
        assert got.value_array.dtype == np.float64 and got.multiplicity_array.dtype == np.int64
        assert got.value_array.tobytes() == want_values.tobytes()
        assert got.multiplicity_array.tobytes() == want_mults.tobytes()


def _raised(pairs, tol):
    """The messages Spectrum(pairs) raises, or None."""
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            Spectrum(pairs, tol)
        except ValueError as err:
            messages.append(str(err))
        else:
            messages.append(None)
    return messages


@pytest.mark.parametrize("pairs, tol, message", [
    (((1.0, 1), (0.0, 0)), 0.0, "multiplicities must be positive"),
    (((1.0, 1), (np.inf, 1)), 0.0, "eigenvalues must be finite"),
    (((1.0, 1), (2.0, 1)), 0.0, "pairs must be sorted by descending value"),
    (((1.0, 1), (1.0 - 1e-9, 1)), 1e-6,
     "consecutive values must differ by more than grouping_tol"),
    # a nonpositive multiplicity and a non-finite value: the first
    # offending pair names the error ...
    (((2.0, 1), (np.nan, 1), (1.0, 0)), 0.0, "eigenvalues must be finite"),
    (((2.0, 1), (1.5, -1), (np.inf, 1)), 0.0, "multiplicities must be positive"),
    # ... and at the same pair the multiplicity does
    (((2.0, 1), (np.nan, 0)), 0.0, "multiplicities must be positive"),
    (((-np.inf, 0), (1.0, 1)), 0.0, "multiplicities must be positive"),
    # unsorted and too close together: unsorted, before or after
    (((3.0, 1), (3.0, 1), (1.0, 1), (2.0, 1)), 0.5, "pairs must be sorted by descending value"),
    (((1.0, 1), (2.0, 1), (2.0, 1)), 0.5, "pairs must be sorted by descending value"),
    (((2.0, 1), (1.9, 1), (3.0, 1)), 0.5, "pairs must be sorted by descending value"),
    # non-finite values inside finite ends, alone or side by side
    (((5.0, 1), (np.nan, 1), (1.0, 1)), 0.0, "eigenvalues must be finite"),
    (((5.0, 1), (np.inf, 1), (np.inf, 1), (1.0, 1)), 0.0, "eigenvalues must be finite"),
    (((5.0, 1), (-np.inf, 1), (-np.inf, 1), (1.0, 1)), 0.0, "eigenvalues must be finite"),
    (((5.0, 1), (np.inf, 1), (-np.inf, 1), (1.0, 1)), 0.0, "eigenvalues must be finite"),
    (((np.nan, 1),), 0.0, "eigenvalues must be finite"),
])
def test_checks_keep_each_message_and_its_precedence(pairs, tol, message):
    assert _raised(pairs, tol) == [message]


def test_identity_eigenvalues():
    vals = symmetric_eigenvalues(np.eye(5))
    assert vals == pytest.approx([1.0] * 5)


def test_triangle_adjacency_eigenvalues():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    assert symmetric_eigenvalues(a) == pytest.approx([-1, -1, 2])


def test_k3_by_k3_distance_eigenvalues():
    sp = oracle_distance_spectrum(Kron(Complete(3), Complete(3)))
    assert sp.values() == pytest.approx([12, 0, -3], abs=1e-9)
    assert sp.multiplicities() == [1, 4, 4]


def test_c5_distance_spectrum():
    sp = oracle_distance_spectrum(Cycle(5))
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


def test_over_cap_matrix_is_refused_before_its_symmetry_scan(monkeypatch):
    import kronspectra.numeric as numeric

    def no_scan(a):
        raise AssertionError("symmetry scan ran on an over-cap matrix")

    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "10")
    monkeypatch.setattr(numeric, "max_asymmetry", no_scan)
    # asymmetric too: the cap is what is reported
    with pytest.raises(OrderCapError, match="^matrix order 11 exceeds dense cap 10$"):
        symmetric_eigenvalues(np.triu(np.ones((11, 11))))


def test_hermitian_input_supported():
    h = np.array([[2.0, 1j], [-1j, 2.0]])
    assert symmetric_eigenvalues(h) == pytest.approx([1.0, 3.0])


def shaped_families():
    """Every family of default_grid(400) with a translation shape, plus a
    long cycle and a cycle product."""
    specs = dict.fromkeys(spec for spec, _ in default_grid(400)
                          if translation_shape(spec) is not None)
    return [*specs, Cycle(97), Kron(Complete(4), Cycle(25))]


def distance_and_adjacency(spec):
    g = build_family(spec)
    return distance_matrix(g).astype(float), g.adjacency_matrix(np.float64)


def test_group_matrix_route_agrees_with_the_dense_solve():
    families = shaped_families()
    assert len(families) > 150
    for spec in families:
        oracle = FamilyOracle(spec)
        for kind, matrix in zip(("distance", "adjacency"), distance_and_adjacency(spec)):
            dense = np.linalg.eigvalsh(matrix)
            radius = max(1.0, float(np.abs(dense).max()))
            gap = np.abs(oracle.eigenvalues(kind) - dense).max()
            assert gap <= 1e-12 * radius, (family_to_string(spec), kind)


def refuse_dense_solve(monkeypatch):
    def no_solve(a):
        raise AssertionError("a shaped matrix fell back to the dense solve")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)


def graph_of_edges(n, edges):
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return from_edge_list_text(f"p {n} {len(edges)}\n"
                               + "".join(f"{u} {v}\n" for u, v in edges))


def two_switch(g):
    """g after one degree-preserving 2-switch on edges that avoid vertex 0:
    the first pair of edges a-b, c-d (in edge order) on four vertices whose
    replacements a-c and b-d are not edges yet."""
    edges = set(g.edges())
    for (a, b), (c, d) in itertools.combinations(sorted(e for e in edges if 0 not in e), 2):
        new = {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
        if len({a, b, c, d}) == 4 and not new & edges:
            return graph_of_edges(g.vertex_count, edges - {(a, b), (c, d)} | new)
    raise AssertionError("no 2-switch away from vertex 0")


def assert_graph_route_refuses(oracle, match):
    for kind in ("distance", "adjacency"):
        with pytest.raises(NonSymmetricMatrixError, match=match):
            oracle.eigenvalues(kind)


# the genuine atom builder, which a planted one falls back on
ATOM_TABLE = graphs._atom_table


def mutate_graph(oracle, monkeypatch, mutate):
    """Make ``oracle`` read ``mutate(graph)`` for its graph, as the atom
    builder ``graphs._atom_table`` makes it: the mutated graph's boolean
    adjacency rows go through the builders' ``_table_from_boolean_rows``,
    which tabulates a regular graph and refuses an irregular one.  A
    product's graph is never built, so the mutation goes into its right
    factor, whose proof and walk rows the product's rows are read from."""
    spec = oracle.spec
    target = spec.right if isinstance(spec, Kron) else spec
    monkeypatch.setattr(graphs, "_atom_table", ATOM_TABLE)  # no earlier planting
    original = build_family(target)
    mutated = mutate(original)

    def planted(other):
        if other != target:
            return ATOM_TABLE(other)
        rows = mutated.adjacency_matrix() > 0
        return graphs._table_from_boolean_rows([rows], translation_shape(target))

    monkeypatch.setattr(graphs, "_atom_table", planted)
    graphs._atom_walks.cache_clear()
    return original, mutated


@pytest.mark.parametrize("spec", [Cycle(9), Hamming(3, 3), Kron(Complete(4), Cycle(5)),
                                  Kron(Complete(3), Hamming(2, 3)),
                                  Kron(Complete(3), Cycle(7))])
def test_group_matrix_route_refuses_a_mutated_distance_matrix(spec, monkeypatch):
    # the switch keeps every degree and the edges at vertex 0, so A's row 0
    # and row sums stay, a product's as well as its factor's; D changes, and
    # the proof must see it off row 0
    refuse_dense_solve(monkeypatch)
    oracle = FamilyOracle(spec)
    original, switched = mutate_graph(oracle, monkeypatch, two_switch)
    assert np.array_equal(switched.degrees(), original.degrees())
    assert np.array_equal(switched.indices[:original.indptr[1]],
                          original.indices[:original.indptr[1]])
    assert_graph_route_refuses(oracle, "no translate of an edge at vertex 0")


def test_group_matrix_route_refuses_an_irregular_graph(monkeypatch):
    refuse_dense_solve(monkeypatch)
    edges = set(build_family(Cycle(5)).edges())
    away = min(e for e in edges if 0 not in e)
    assert (1, 3) not in edges
    # C5 itself, and C5 as the factor of a product
    for spec in (Cycle(5), Kron(Complete(4), Cycle(5))):
        for mutated in (edges - {away}, edges | {(1, 3)}):
            oracle = FamilyOracle(spec)
            mutate_graph(oracle, monkeypatch, lambda g, e=mutated: graph_of_edges(5, e))
            assert_graph_route_refuses(oracle, "not regular")


def prove_table(g, shape):
    """The translation proof on a regular graph's neighbour table."""
    return graphs._prove_translation_table(g.indices.reshape(g.vertex_count, -1), shape)


def test_group_matrix_route_checks_the_wrapped_translations():
    # the wrapping edges of C_n differ by 1 mod n, like every other edge
    for n in (5, 12):
        cycle = build_family(Cycle(n))
        assert np.array_equal(prove_table(cycle, (n,)), cycle.indices.reshape(n, 2))
    # over Z_3 x Z_4 the differences borrow across the axes: 3 - 4 is
    # (0, 3) - (1, 0) = (2, 3), vertex 11, a neighbour of 0 in C12; but
    # 4 - 3 is (1, 1), vertex 5, which is not
    for shape in ((3, 4), (4, 3)):
        with pytest.raises(NonSymmetricMatrixError, match="no translate"):
            prove_table(build_family(Cycle(12)), shape)


def test_group_matrix_route_checks_every_axis():
    # vertex (a, b) of Z_3 x Z_3 is 3a + b; swap = (1 0), fixing 2.  Each
    # graph is 2-regular and invariant under the translations of one axis
    # only: (a, b) ~ (a +- 1, swap(b)), and its transpose
    swap = [1, 0, 2]
    along_0 = [(3 * a + b, 3 * ((a + 1) % 3) + swap[b]) for a in range(3) for b in range(3)]
    along_1 = [(3 * b + a, 3 * swap[b] + (a + 1) % 3) for a in range(3) for b in range(3)]
    for edges in (along_0, along_1):
        g = graph_of_edges(9, edges)
        assert set(g.degrees().tolist()) == {2}
        with pytest.raises(NonSymmetricMatrixError, match="no translate"):
            prove_table(g, (3, 3))


def test_group_matrix_route_refuses_a_wrong_shape(monkeypatch):
    refuse_dense_solve(monkeypatch)
    g = build_family(Kron(Complete(4), Cycle(5)))
    with pytest.raises(NonSymmetricMatrixError, match="no translate"):
        prove_table(g, (5, 4))  # the factors swapped
    with pytest.raises(NonSymmetricMatrixError, match=r"not a Cayley graph over Z_\(3, 5\)"):
        prove_table(g, (3, 5))


def test_group_matrix_route_checks_the_cap_first(monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "10")
    oracle = FamilyOracle(Cycle(11))
    with pytest.raises(OrderCapError, match="^matrix order 11 exceeds dense cap 10$"):
        oracle.eigenvalues("adjacency")
    with pytest.raises(OrderCapError, match="^distance matrix order 11 exceeds dense cap 10$"):
        oracle.eigenvalues("distance")
    assert "orbits" not in vars(oracle)


def test_json_round_trip():
    sp = spectrum_from_values([6.0, -0.3819660113, -0.3819660113, -2.618, -2.618], 1e-6)
    back = Spectrum.from_json(sp.to_json())
    assert back.order == sp.order
    assert back.multiplicities() == sp.multiplicities()
    assert back.values() == pytest.approx(sp.values(), abs=1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_spectrum_rejects_nonfinite_grouping_tol(tol):
    # a NaN tolerance passed every gap check
    with pytest.raises(ValueError, match="group_tol must be finite and nonnegative"):
        Spectrum(((1.0, 1),), tol)


@pytest.mark.parametrize("tol", ["NaN", "Infinity", "-1e-09"])
def test_from_json_rejects_nonfinite_tol(tol):
    # json.loads reads NaN, and to_json then wrote it back, which is not JSON
    text = f'{{"order": 1, "pairs": [{{"value": 1.0, "multiplicity": 1}}], "tol": {tol}}}'
    with pytest.raises(ValueError, match="group_tol must be finite and nonnegative"):
        Spectrum.from_json(text)


def _gen0_collections(build):
    assert gc.isenabled()
    before = gc.get_stats()[0]["collections"]
    result = build()
    return gc.get_stats()[0]["collections"] - before, result


@pytest.mark.parametrize("spec", [Cycle(100001), Kron(Complete(3), Cycle(20001))])
def test_closed_form_spectrum_builds_no_object_per_group(spec):
    # one (value, multiplicity) tuple per group set off dozens of
    # collections here (63 for C100001, 26 for the product)
    collections, (sp, _) = _gen0_collections(lambda: closed_form_distance_spectrum(spec))
    assert len(sp.pairs) > 19_000
    assert collections <= 2


def test_pairs_view_reads_like_a_tuple_of_pairs():
    sp = Spectrum(((3.0, 2), (1.0, 5), (-4.0, 1)))
    pairs = sp.pairs
    assert len(pairs) == 3
    assert pairs[0] == (3.0, 2) and pairs[-1] == (-4.0, 1) and pairs[-3] == pairs[0]
    with pytest.raises(IndexError):
        pairs[3]
    (top, mult), *rest = pairs
    assert (top, mult) == (3.0, 2) and rest == [(1.0, 5), (-4.0, 1)]
    assert pairs == ((3.0, 2), (1.0, 5), (-4.0, 1))
    assert not pairs != ((3.0, 2), (1.0, 5), (-4.0, 1))
    assert pairs != ((3.0, 2), (1.0, 5))
    assert pairs != ((3.0, 2), (1.0, 4), (-4.0, 1))
    assert pairs != [(3.0, 2), (1.0, 5), (-4.0, 1)]  # a tuple compares with tuples only
    assert pairs == Spectrum(tuple(pairs)).pairs
    assert list(reversed(pairs)) == [(-4.0, 1), (1.0, 5), (3.0, 2)]
    for value, mult in [*pairs, pairs[1], pairs[-1]]:
        assert type(value) is float and type(mult) is int
    assert not sp.value_array.flags.writeable and not sp.multiplicity_array.flags.writeable
    assert sp.value_array.dtype == np.float64 and sp.multiplicity_array.dtype == np.int64


def test_spectrum_is_immutable_and_compares_by_value():
    sp = Spectrum(((3.0, 2), (1.0, 5)), 0.5)
    with pytest.raises(AttributeError):
        sp.order = 3
    with pytest.raises(ValueError):
        sp.value_array[0] = 4.0
    same = Spectrum(((3.0, 2), (1.0, 5)), 0.5)
    assert sp == same and hash(sp) == hash(same)
    assert sp != Spectrum(((3.0, 2), (1.0, 5)), 0.25)
    assert sp != Spectrum(((3.0, 2), (1.0, 4)), 0.5)
    assert sp != Spectrum(((3.0, 2), (1.5, 5)), 0.5)


def test_huge_multiplicity_round_trips_through_json():
    sp = Spectrum(((1.0, 1), (0.0, 2**70)))
    assert sp.multiplicity_array.dtype == object
    assert sp.order == 2**70 + 1
    back = Spectrum.from_json(sp.to_json())
    assert back == sp and back.pairs == ((1.0, 1), (0.0, 2**70))
    assert back.multiplicities() == [1, 2**70]
    assert type(back.pairs[1][1]) is int
    # int64 multiplicities whose sum does not fit still give the exact order
    big = 2**62
    assert Spectrum(((1.0, big), (0.0, big), (-1.0, big))).order == 3 * big


def test_benchmark_harness_spectrum_contract():
    # benchmarks/tracing.py wraps from_pairs through the class __dict__, and
    # benchmarks/test_harness.py rebuilds a spectrum with its top value moved
    assert isinstance(Spectrum.__dict__["from_pairs"], staticmethod)
    sp, _ = closed_form_distance_spectrum(Kron(Complete(3), Cycle(8)))
    (top, mult), *rest = sp.pairs
    moved = Spectrum(((top + 1.0, mult), *rest), sp.grouping_tol)
    assert moved.order == sp.order and moved.pairs[0] == (top + 1.0, mult)
    assert tuple(moved.pairs)[1:] == tuple(rest)


def _reference_match(a, b, tol):
    """The pair-by-pair loop spectra_match replaced, as (max_gap, problems)."""
    max_gap = 0.0
    problems = []
    for (va, ma), (vb, mb) in zip(a.pairs, b.pairs):
        gap = abs(va - vb)
        max_gap = max(max_gap, gap)
        if gap > tol:
            problems.append(f"value gap {gap:.3e} at {va:.6g} vs {vb:.6g}")
        if ma != mb:
            problems.append(f"multiplicity {ma} != {mb} at value {va:.6g}")
    return max_gap, tuple(problems)


@pytest.mark.parametrize("seed", range(4))
def test_match_agrees_with_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    values = np.unique(rng.uniform(-50, 50, 200))[::-1]
    mults = rng.integers(1, 4, values.size)
    a = Spectrum(zip(values.tolist(), mults.tolist()), 0.0)
    moved = np.sort(values + rng.choice([0.0, 1e-9, 3e-6], values.size))[::-1]
    b = Spectrum(zip(moved.tolist(), rng.permutation(mults).tolist()), 0.0)
    report = spectra_match(a, b, 1e-6)
    max_gap, problems = _reference_match(a, b, 1e-6)
    assert report.max_gap == max_gap and type(report.max_gap) is float
    assert report.mismatches == problems and report.matches == (not problems)
    assert any(p.startswith("value gap") for p in problems)
    assert any(p.startswith("multiplicity") for p in problems)


def test_trace_and_expanded_match_pairwise_loops():
    rng = np.random.default_rng(9)
    sp = spectrum_from_values(rng.normal(size=500).round(2), 0.0)
    assert sp.trace() == sum(v * m for v, m in tuple(sp.pairs))
    expanded = []
    for value, mult in reversed(tuple(sp.pairs)):
        expanded.extend([value] * mult)
    assert sp.expanded() == expanded and len(expanded) == sp.order
    assert sp.to_dict()["pairs"][0]["multiplicity"] == sp.pairs[0][1]
    assert Spectrum(()).trace() == 0 and Spectrum(()).expanded() == []


def _full_asymmetry(a):
    """The whole-matrix reference for max_asymmetry."""
    return float(np.max(np.abs(a - a.conj().T)))


@pytest.mark.parametrize("n", [1, 7, 300, 1000])
def test_symmetry_scan_finds_nonfinite_lower_triangle_entries(n):
    for bad in (np.nan, np.inf, -np.inf):
        m = np.ones((n, n))
        m[n - 1, n // 3] = bad  # lower triangle (the diagonal when n == 1)
        with warnings.catch_warnings(), \
                pytest.raises(NonSymmetricMatrixError, match="non-finite entries"):
            warnings.simplefilter("error")
            symmetric_eigenvalues(m)


def test_symmetry_scan_reports_the_full_matrix_deviation():
    rng = np.random.default_rng(3)
    for n in (2, 252, 1000):
        m = rng.normal(size=(n, n))
        m = m + m.T
        assert max_asymmetry(m) == 0.0
        m[n - 1, 0] += 1e-8  # an asymmetry below the diagonal only
        assert max_asymmetry(m) == _full_asymmetry(m) > 0.0
        with pytest.raises(NonSymmetricMatrixError,
                           match=r"symmetry deviation 1\.000e-08 exceeds tolerance 1\.0e-09"):
            symmetric_eigenvalues(m)
    assert max_asymmetry(np.zeros((0, 0))) == 0.0


def test_symmetry_scan_conjugates_complex_input():
    rng = np.random.default_rng(4)
    n = 300
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    assert max_asymmetry(h) == 0.0
    assert (symmetric_eigenvalues(h) == np.linalg.eigvalsh(h)).all()
    s = h + 1j * h.real  # complex symmetric, not Hermitian
    assert max_asymmetry(s) == _full_asymmetry(s) > 1.0
    off = h.copy()
    off[17, 17] += 1j  # an imaginary diagonal is not Hermitian
    assert max_asymmetry(off) == _full_asymmetry(off) == 2.0
