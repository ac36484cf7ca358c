"""Graph families, products, metric data and walk-length closure."""

import itertools
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

from kronspectra import graphs
from kronspectra.errors import (
    BipartiteGraphError,
    DisconnectedGraphError,
    FamilyDomainError,
    NonSymmetricMatrixError,
    OrderCapError,
)
from kronspectra.graphs import (
    Complete,
    Cycle,
    Graph,
    Hamming,
    Johnson,
    Kron,
    build_family,
    complete_multipartite_parts,
    diameter,
    distance_matrix,
    family_order,
    family_to_string,
    from_edge_list_text,
    gamma,
    has_odd_cycle,
    is_connected,
    kronecker_connectivity_predicted,
    kronecker_product,
    predicted_kron_diameter,
    product_blocks,
    to_edge_list_text,
    translation_shape,
    translation_table,
    walk_gamma,
)
from kronspectra.verify import FamilyOracle, default_grid


def naive_bfs_distances(g: Graph, sources=None) -> np.ndarray:
    """Reference per-source BFS, independent of the production code path:
    one row per source (every vertex by default)."""
    n = g.vertex_count
    sources = range(n) if sources is None else sources
    out = np.full((len(sources), n), -1, dtype=int)
    for i, s in enumerate(sources):
        out[i, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
                if out[i, v] < 0:
                    out[i, v] = out[i, u] + 1
                    queue.append(v)
    return out


def naive_component_depths(g: Graph) -> tuple[np.ndarray, int]:
    """Depth of every vertex from the lowest vertex of its component, read
    off naive_bfs_distances rows, and the number of components."""
    depth = np.full(g.vertex_count, -1, dtype=int)
    components = 0
    for s in range(g.vertex_count):
        if depth[s] < 0:
            row = naive_bfs_distances(g, [s])[0]
            depth[row >= 0] = row[row >= 0]
            components += 1
    return depth, components


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_complete_triangle():
    g = build_family(Complete(3))
    assert g.vertex_count == 3 and g.edge_count == 3


def test_johnson_4_2_is_octahedron():
    g = build_family(Johnson(4, 2))
    assert g.vertex_count == 6
    assert all(g.degrees()[v] == 4 for v in range(6))  # b_0 = r(m-r)


def test_hamming_2_2_is_four_cycle():
    g = build_family(Hamming(2, 2))
    assert g.vertex_count == 4 and g.edge_count == 4
    assert all(g.degrees()[v] == 2 for v in range(4))  # d(q-1) = 2
    assert not has_odd_cycle(g)  # girth 4, no triangles
    assert diameter(g) == 2


@pytest.mark.parametrize("spec, degree", [
    (Cycle(7), 2),
    (Complete(6), 5),
    (Johnson(6, 2), 8),
    (Johnson(7, 3), 12),
    (Hamming(3, 3), 6),
    (Hamming(2, 5), 8),
])
def test_family_regularity_and_handshake(spec, degree):
    g = build_family(spec)
    assert all(g.degrees()[v] == degree for v in range(g.vertex_count))
    assert sum(g.degrees()[v] for v in range(g.vertex_count)) == 2 * g.edge_count
    assert g.vertex_count == family_order(spec)


def test_family_domain_errors():
    with pytest.raises(FamilyDomainError):
        Johnson(3, 2)  # m < 2r
    with pytest.raises(FamilyDomainError):
        Cycle(2)
    with pytest.raises(FamilyDomainError):
        Hamming(0, 3)
    with pytest.raises(FamilyDomainError):
        Hamming(2, 1)


def test_family_to_string_round_trip_shapes():
    spec = Kron(Complete(3), Kron(Cycle(4), Johnson(4, 2)))
    assert family_to_string(spec) == "kron(K3,kron(C4,J(4,2)))"


def adjacency_by_definition(spec) -> np.ndarray:
    """A by the family's pairwise rule over its canonical vertex order,
    brute force over every pair: i - j = +-1 mod n; i != j; |S & T| = r - 1
    over the r-subsets in lexicographic order; Hamming distance 1 over the
    d-tuples in lexicographic order."""
    if isinstance(spec, Cycle):
        i = np.arange(spec.n)
        return np.isin((i[:, None] - i) % spec.n, (1, spec.n - 1))
    if isinstance(spec, Complete):
        return ~np.eye(spec.n, dtype=bool)
    if isinstance(spec, Johnson):
        members = np.array([[k in subset for k in range(spec.m)] for subset in
                            itertools.combinations(range(spec.m), spec.r)])
        common = (members[:, None, :] & members[None, :, :]).sum(axis=2)
        return common == spec.r - 1
    tuples = np.array(list(itertools.product(range(spec.q), repeat=spec.d)))
    return (tuples[:, None, :] != tuples[None, :, :]).sum(axis=2) == 1


def small_atoms():
    """C_n for n <= 12, K_n for n <= 10, J(m,r) for m <= 8 and H(d,q) for
    q^d <= 256."""
    return [*(Cycle(n) for n in range(3, 13)), *(Complete(n) for n in range(1, 11)),
            *(Johnson(m, r) for m in range(2, 9) for r in range(1, m // 2 + 1)),
            *(Hamming(d, q) for d in range(1, 9) for q in range(2, 257) if q ** d <= 256)]


def test_every_builder_gives_its_definition():
    # the builders' tables are not validated as graphs on the shaped route,
    # so each is checked against the definition it builds
    for spec in small_atoms():
        g = build_family(spec)
        expected = adjacency_by_definition(spec)
        assert np.array_equal(g.adjacency_matrix() == 1, expected), family_to_string(spec)
        table = graphs._atom_table(spec)
        assert table.dtype == np.int32 and table.shape[0] == family_order(spec)
        assert np.array_equal(table.ravel(), g.indices), family_to_string(spec)


# ---------------------------------------------------------------------------
# Kronecker product
# ---------------------------------------------------------------------------

def test_k2_by_k2_two_disjoint_edges():
    g = kronecker_product(build_family(Complete(2)), build_family(Complete(2)))
    assert g.vertex_count == 4 and g.edge_count == 2
    assert not is_connected(g)


def test_k3_by_c4_edge_count():
    g = build_family(Kron(Complete(3), Cycle(4)))
    assert g.vertex_count == 12 and g.edge_count == 24  # 2 * |E(K3)| * |E(C4)|


def test_k3_by_k3_regularity():
    g = build_family(Kron(Complete(3), Complete(3)))
    assert g.vertex_count == 9
    assert all(g.degrees()[v] == 4 for v in range(9))  # (n-1)^2


@pytest.mark.parametrize("left, right", [
    (Complete(3), Cycle(5)),
    (Cycle(4), Cycle(6)),
    (Johnson(4, 2), Complete(3)),
    (Hamming(2, 2), Complete(4)),
    (Complete(5), Hamming(2, 3)),
])
def test_product_adjacency_bit_exhaustive(left, right):
    g, h = build_family(left), build_family(right)
    p = kronecker_product(g, h)
    assert p.vertex_count <= 200
    nh = h.vertex_count
    ag, ah, ap = g.adjacency_matrix(), h.adjacency_matrix(), p.adjacency_matrix()
    for u in range(g.vertex_count):
        for v in range(nh):
            for x in range(g.vertex_count):
                for y in range(nh):
                    assert ap[u * nh + v, x * nh + y] == ag[u, x] * ah[v, y]


def test_product_cap():
    with pytest.raises(OrderCapError):
        kronecker_product(build_family(Complete(150)), build_family(Complete(150)))


@pytest.mark.parametrize("spec", [Cycle(101), Complete(101), Johnson(9, 4)])
def test_build_family_checks_the_cap_before_building(spec, monkeypatch):
    monkeypatch.setattr(graphs, "PRODUCT_VERTEX_CAP", 100)
    message = f"{family_to_string(spec)} has {family_order(spec)} vertices, cap is 100"
    with pytest.raises(OrderCapError, match=f"^{re.escape(message)}$"):
        build_family(spec)


def test_translation_shapes():
    assert translation_shape(Cycle(7)) == (7,)
    assert translation_shape(Complete(5)) == (5,)
    assert translation_shape(Johnson(6, 1)) == (6,)
    assert translation_shape(Hamming(3, 4)) == (4, 4, 4)
    assert translation_shape(Kron(Complete(3), Kron(Cycle(5), Hamming(2, 3)))) == (3, 5, 3, 3)
    assert translation_shape(Johnson(6, 2)) is None
    assert translation_shape(Kron(Complete(3), Johnson(6, 3))) is None
    assert translation_shape(Kron(Johnson(5, 2), Cycle(4))) is None


def unit_translation(shape, axis):
    """Flat index of x + e_axis for every flat (C-order) x of Z_shape."""
    coords = list(np.unravel_index(np.arange(math.prod(shape)), shape))
    coords[axis] = (coords[axis] + 1) % shape[axis]
    return np.ravel_multi_index(coords, shape)


def is_automorphism(g: Graph, perm: np.ndarray) -> bool:
    n = g.vertex_count
    rows = np.repeat(np.arange(n), g.degrees())
    keys = rows * n + g.indices
    return np.array_equal(np.sort(perm[rows] * n + perm[g.indices]), keys)


def test_unit_translations_are_automorphisms_of_the_built_graph():
    specs = dict.fromkeys(spec for spec, _ in default_grid(300)
                          if translation_shape(spec) is not None)
    assert any(isinstance(spec, Kron) for spec in specs)
    for spec in specs:
        g, shape = build_family(spec), translation_shape(spec)
        for axis in range(len(shape)):
            assert is_automorphism(g, unit_translation(shape, axis)), family_to_string(spec)
    # the check can fail: the factors of kron(K4,C5) in the wrong order
    g = build_family(Kron(Complete(4), Cycle(5)))
    assert not all(is_automorphism(g, unit_translation((5, 4), axis)) for axis in (0, 1))


def count_builds_and_proofs(monkeypatch):
    """Lists that record every ``Graph`` built, every atom table built and
    every translation proof, by the shape proven."""
    inits, tables, proven = [], [], []
    init, build = Graph.__init__, graphs._atom_table
    prove = graphs._prove_translation_table
    monkeypatch.setattr(Graph, "__init__", lambda self, *a: inits.append(1) or init(self, *a))
    monkeypatch.setattr(graphs, "_atom_table", lambda atom: tables.append(atom) or build(atom))
    monkeypatch.setattr(graphs, "_prove_translation_table",
                        lambda table, shape: proven.append(shape) or prove(table, shape))
    return inits, tables, proven


def test_product_factors_are_built_anew_and_proven_once(monkeypatch):
    graphs._atom_walks.cache_clear()
    inits, tables, proven = count_builds_and_proofs(monkeypatch)
    spec = Kron(Complete(4), Kron(Complete(3), Cycle(5)))
    for _ in range(2):
        inits.clear()
        build_family(spec)
        # K4, K3, C5, kron(K3,C5) and the product: no graph is kept
        assert len(inits) == 5
    inits.clear()
    tables.clear()
    for _ in range(2):
        for matrix in ("distance", "adjacency"):
            product_blocks(spec, matrix)
    # each distinct atom is tabulated and proven once, and no graph built
    assert sorted(proven) == [(3,), (4,), (5,)] and inits == []
    assert tables == [Complete(4), Complete(3), Cycle(5)]
    assert graphs._atom_walks.cache_info().currsize == 3  # K4, K3, C5
    # every product reads the memo's rows, so none may write to them
    for atom in (Complete(4), Complete(3), Cycle(5)):
        assert not any(row.flags.writeable for row in graphs._atom_walks(atom))


def shaped_products():
    """Every shaped product of the default grid, plus nested products and
    products of two multi-axis factors that no closed form covers."""
    specs = dict.fromkeys(spec for spec, _ in default_grid(1200)
                          if isinstance(spec, Kron) and translation_shape(spec) is not None)
    assert len(specs) == 199
    return [*specs, Kron(Complete(4), Kron(Complete(3), Cycle(5))),
            Kron(Kron(Cycle(5), Complete(3)), Hamming(2, 3)),
            Kron(Hamming(2, 3), Cycle(7)), Kron(Hamming(2, 3), Hamming(2, 4))]


def test_product_rows_are_the_built_products_rows():
    for spec in shaped_products():
        g, shape, name = build_family(spec), translation_shape(spec), family_to_string(spec)
        distances = product_blocks(spec, "distance").ravel()
        assert distances.dtype == np.int64, name
        assert np.array_equal(distances, graphs.distance_row(g)), name
        adjacency = product_blocks(spec, "adjacency").ravel()
        expected = np.zeros(g.vertex_count, dtype=np.int64)
        expected[g.indices[:g.indptr[1]]] = 1
        assert np.array_equal(adjacency, expected), name
        # the oracle's values are the DFT of those rows, with no graph built
        oracle = FamilyOracle(spec)
        for kind, row in (("distance", distances), ("adjacency", adjacency)):
            expected_values = np.sort(np.fft.fftn(row.reshape(shape)).real, axis=None)
            assert np.array_equal(oracle.eigenvalues(kind), expected_values), (name, kind)
        assert "orbits" not in vars(oracle)


def test_product_rows_keep_the_cases_the_bare_walk_lemma_gets_wrong():
    # K1 has walks of length 0 only, so none lengthens by 2 and a product
    # with a K1 atom has no edge; a bipartite atom has no walk of one
    # parity, so a product of two bipartite atoms splits in two
    for spec in (Kron(Complete(1), Cycle(5)), Kron(Cycle(4), Cycle(6)),
                 Kron(Complete(2), Complete(2)), Kron(Hamming(2, 2), Cycle(8))):
        g, name = build_family(spec), family_to_string(spec)
        assert not is_connected(g), name
        with pytest.raises(DisconnectedGraphError, match="^graph is disconnected$"):
            product_blocks(spec, "distance")
        with pytest.raises(DisconnectedGraphError, match="^graph is disconnected$"):
            FamilyOracle(spec).eigenvalues("distance")
        # A's eigenvalues do not need connectivity
        dense = np.linalg.eigvalsh(g.adjacency_matrix(np.float64))
        gap = np.abs(FamilyOracle(spec).eigenvalues("adjacency") - dense).max()
        assert gap <= 1e-12 * max(1.0, float(np.abs(dense).max())), name
    assert product_blocks(Kron(Complete(1), Complete(1)), "distance").ravel().tolist() == [0]
    # one bipartite atom and one with an odd cycle: connected
    for spec in (Kron(Complete(2), Cycle(5)), Kron(Cycle(4), Complete(3))):
        assert np.array_equal(product_blocks(spec, "distance").ravel(),
                              graphs.distance_row(build_family(spec)))


def test_product_row_allocates_no_product_table(monkeypatch):
    # kron(K20,H(3,10)) has 20000 vertices of degree 513, so its neighbour
    # table alone takes 41 MB (the parent's route peaked at 74.4 MB).  The
    # walk route holds the atoms' tables while they are built and proven
    # (H(3,10): 1000 x 27 int32, 0.1 MB, and the proof's int32 temporaries
    # of that size), their covers (H(3,10)'s is 2000 x 27 int32, 0.2 MB),
    # and a few int64 rows of length n (0.16 MB each).  That is about 1 MB;
    # it measures 0.7 MB (1.4 MB when each atom was built as a validated
    # CSR), and 8 MB is the bound.
    graphs._atom_walks.cache_clear()
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "20000")
    tracemalloc.start()
    try:
        row = FamilyOracle(Kron(Complete(20), Hamming(3, 10))).blocks("distance")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.size == 20000
    assert peak < 8_000_000, peak


def test_translation_table_proves_each_atom_graph_once(monkeypatch):
    graphs._atom_walks.cache_clear()
    proven = []
    prove = graphs._prove_translation_table
    monkeypatch.setattr(graphs, "_prove_translation_table",
                        lambda table, shape: proven.append(table) or prove(table, shape))
    products = [spec for spec, _ in default_grid(1200)
                if isinstance(spec, Kron) and translation_shape(spec) is not None]
    for spec in products:
        product_blocks(spec, "distance")
    # one proof per distinct atom table, however many products share it
    assert len({id(table) for table in proven}) == len(proven)
    atoms = set()
    for spec in products:
        atoms.update(factor for factor in (spec.left, spec.right) if not isinstance(factor, Kron))
    assert len(proven) == len(atoms)
    # a top-level atom is proven afresh on every call, and a product's atom
    # once the memo has dropped it
    translation_table(Cycle(7))
    assert len(proven) == len(atoms) + 1
    graphs._atom_walks.cache_clear()
    product_blocks(Kron(Complete(3), Cycle(7)), "distance")
    assert len(proven) == len(atoms) + 3


def test_translation_table_builds_no_graph_and_proves_once(monkeypatch):
    inits, tables, proven = count_builds_and_proofs(monkeypatch)
    for atom in (Cycle(7), Complete(4), Johnson(6, 1), Hamming(3, 3)):
        for log in (inits, tables, proven):
            log.clear()
        table = translation_table(atom)
        assert inits == [] and tables == [atom] and proven == [translation_shape(atom)]
        assert table.dtype == np.int32 and not table.flags.writeable


def planted_tables(n):
    """Tables for C_n (n >= 7), each with one fault that a CSR ``Graph``
    used to reject, or of the wrong order, which the translation proof
    must refuse, and the message it raises."""
    cycle = graphs._atom_table(Cycle(n))
    faults = {}
    for name, row, value in (("above", 3, (2, n)), ("below", 3, (-1, 4)),
                             ("repeated", 3, (4, 4)), ("unsorted", 3, (4, 2))):
        table = cycle.copy()
        table[row] = value
        faults[name] = table
    # N(x) = {x, x + 1}: every difference lies in N(0) = {0, 1}, a loop;
    # N(x) = {x + 1, x + 2}: every difference lies in N(0) = {1, 2}, which
    # has no -1, so the circulant is directed
    x = np.arange(n, dtype=np.int32)[:, None]
    faults["loop"] = np.sort((x + [0, 1]) % n, axis=1)
    faults["directed"] = np.sort((x + [1, 2]) % n, axis=1)
    faults["order"] = graphs._atom_table(Cycle(n + 1))
    messages = {
        "order": rf"^graph of order {n + 1} is not a Cayley graph over Z_\({n},\)$",
        "above": f"^neighbour {n} of 3 out of range$",
        "below": "^neighbour -1 of 3 out of range$",
        "repeated": "^neighbours of 3 not strictly increasing$",
        "unsorted": "^neighbours of 3 not strictly increasing$",
        "loop": rf"^self-loop at vertex 0 in Z_\({n},\)$",
        "directed": rf"^edge 0-1 has no reverse: its inverse {n - 1} is not a neighbour"
                    rf" of vertex 0 in Z_\({n},\)$",
    }
    return {name: (table, messages[name]) for name, table in faults.items()}


@pytest.mark.parametrize("fault", planted_tables(7))
def test_the_proof_refuses_a_planted_table(fault, monkeypatch):
    table, message = planted_tables(7)[fault]
    build = graphs._atom_table
    monkeypatch.setattr(graphs, "_atom_table",
                        lambda atom: table.copy() if atom == Cycle(7) else build(atom))
    graphs._atom_walks.cache_clear()
    with pytest.raises(NonSymmetricMatrixError, match=message):
        translation_table(Cycle(7))
    for spec in (Cycle(7), Kron(Complete(3), Cycle(7))):
        for matrix in ("distance", "adjacency"):
            with pytest.raises(NonSymmetricMatrixError, match=message):
                FamilyOracle(spec).eigenvalues(matrix)


def test_translation_table_refuses_an_atom_without_a_shape():
    with pytest.raises(NonSymmetricMatrixError,
                       match="^graph of order 10 is not a Cayley graph over Z_None$"):
        translation_table(Johnson(5, 2))


def test_every_johnson_graph_up_to_m_25_has_a_free_cyclic_group():
    # the cycle type's rule against brute force: no power below the order
    # fixes an r-subset, and the order is a point permutation's
    for m in range(4, 26):
        for r in range(2, m // 2 + 1):
            length, cycles = graphs._free_cycle_type(m, r)
            assert length > 1 and math.comb(m, r) % length == 0, (m, r)
            if m > 12:
                continue
            generator, k = graphs._johnson_generator(Johnson(m, r))
            assert k == length
            power = np.arange(math.comb(m, r))
            for j in range(1, k):
                power = generator[power]
                assert not (power == np.arange(power.size)).any(), (m, r, j)
            assert (generator[power] == np.arange(power.size)).all(), (m, r)
    # the largest fibre under the cap, J(14,7): a 13-cycle, one point fixed
    assert graphs._free_cycle_type(14, 7) == (13, 1)
    assert graphs._orbit_shape(Johnson(14, 7)) == (13, 264)
    # an m-cycle exactly when gcd(m, r) = 1; J(4,2) needs a 3-cycle
    assert graphs._free_cycle_type(16, 5) == (16, 1)
    assert graphs._free_cycle_type(4, 2) == (3, 1)


def test_orbit_table_numbers_every_vertex_once_by_proven_automorphisms():
    for atom in (Johnson(6, 3), Johnson(9, 4), Hamming(2, 3)):
        table, vertices = graphs.orbit_table(atom)
        n, b = family_order(atom), vertices.shape[-1]
        assert sorted(vertices.ravel().tolist()) == list(range(n))
        assert vertices.reshape(-1, b)[0, 0] == 0
        d = distance_matrix(build_family(atom))
        # M[(x, u), (y, v)] depends on y - x only, here over Z_k
        if translation_shape(atom) is None:
            k = vertices.shape[0]
            for x in range(k):
                for y in range(k):
                    assert np.array_equal(d[np.ix_(vertices[x], vertices[y])],
                                          d[np.ix_(vertices[0], vertices[(y - x) % k])])


def planted_generators() -> dict:
    """Vertex permutations of J(6,2) planted for the proof of its orbit
    numbering, each with the order it claims and the message the proof
    raises.  J(6,2) is Z_5, a 5-cycle of the points with 5 fixed, b = 3."""
    generator, k = graphs._johnson_generator(Johnson(6, 2))
    assert k == 5
    # the shift of the vertex numbers by 3 acts freely with order 5, but
    # does not move the neighbours of vertex 0 onto those of its image 3
    shift = (np.arange(15) + 3) % 15
    # the rotation of all six points is an automorphism, but its cube fixes
    # every pair of opposite points, first {0, 3}, vertex 2
    pairs = graphs._johnson_subsets(6, 2).tolist()
    rotation = np.array([pairs.index(sorted((p + 1) % 6 for p in pair)) for pair in pairs])
    return {
        "automorphism": ((shift, 5), "^vertex permutation is no automorphism: it maps the"
                                     " neighbours of 0 onto no neighbours of 3$"),
        "free": ((rotation, 6), "^power 3 of the vertex permutation fixes vertex 2,"
                                " so Z_6 does not act freely$"),
        "order": ((generator, 10), "^power 5 of the vertex permutation fixes vertex 0,"
                                   " so Z_10 does not act freely$"),
        "identity": ((generator, 4), "^power 4 of the vertex permutation is not the identity$"),
        "range": ((np.full(15, 15), 5), "^vertex permutation is no automorphism$"),
    }


@pytest.mark.parametrize("fault", ["automorphism", "free", "order", "identity", "range"])
def test_the_orbit_proof_refuses_a_planted_generator(fault, monkeypatch):
    spec = Johnson(6, 2)
    (generator, k), message = planted_generators()[fault]
    monkeypatch.setattr(graphs, "_johnson_generator",
                        lambda atom: (generator, k) if atom == spec else pytest.fail(atom))
    graphs._atom_walks.cache_clear()
    try:
        with pytest.raises(NonSymmetricMatrixError, match=message):
            graphs.orbit_table(spec)
        # the family, and the product whose atom it is
        for family in (spec, Kron(Complete(3), spec)):
            for matrix in ("distance", "adjacency"):
                with pytest.raises(NonSymmetricMatrixError, match=message):
                    FamilyOracle(family).eigenvalues(matrix)
    finally:
        graphs._atom_walks.cache_clear()


def test_boolean_rows_of_unequal_length_are_not_regular():
    # three rows with 2, 1 and 3 neighbours fill a 3 x 2 table exactly, so
    # only the count check tells; in a later block as in the first
    rows = np.array([[0, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1], [0, 1, 1, 0]], dtype=bool)
    for blocks in ([rows[:3]], [rows[3:], rows[:3]]):
        with pytest.raises(NonSymmetricMatrixError,
                           match=r"^graph is not regular, so not a Cayley graph over Z_\(4,\)$"):
            graphs._table_from_boolean_rows(blocks, (4,))
    assert graphs._table_from_boolean_rows([rows[:1], rows[3:]], (4,)).tolist() == [[1, 2]] * 2


def unshaped_products():
    """Every product of the default grid with an unshaped atom, plus one
    with it on the left, a nested one, one with no shaped atom and one with
    a bipartite shaped atom."""
    specs = dict.fromkeys(spec for spec, _ in default_grid(1200)
                          if isinstance(spec, Kron) and translation_shape(spec) is None)
    assert len(specs) == 27
    return [*specs, Kron(Johnson(5, 2), Complete(4)),
            Kron(Complete(3), Kron(Johnson(6, 2), Cycle(5))),
            Kron(Johnson(6, 2), Johnson(5, 2)), Kron(Hamming(2, 2), Johnson(6, 3))]


def orbit_numbering(spec) -> np.ndarray:
    """The built graph's vertex (x, u) of a family's blocks, an int array
    of shape G + (b,): an atom's ``orbit_table`` numbering, and for a
    product the canonical index of the tuple of its atoms' vertices
    ``V_i[x_i, u_i]``, the atoms' group axes first."""
    atoms = graphs._atoms(spec)
    numberings = [graphs.orbit_table(atom)[1] for atom in atoms]
    orders = [family_order(atom) for atom in atoms]
    group = sum((v.shape[:-1] for v in numberings), ())
    index = np.zeros(group + tuple(v.shape[-1] for v in numberings), dtype=np.int64)
    axis = 0
    for i, v in enumerate(numberings):
        dims = [1] * index.ndim
        dims[axis:axis + v.ndim - 1] = v.shape[:-1]
        dims[len(group) + i] = v.shape[-1]
        index += v.reshape(dims) * math.prod(orders[i + 1:])
        axis += v.ndim - 1
    return index.reshape(group + (-1,))


def built_blocks(full: np.ndarray, spec) -> np.ndarray:
    """A built family's full D or A at the rows of its representatives
    (0_G, u) and the columns (y, v) of ``orbit_numbering``, as a
    C-contiguous array of shape G + (b, b)."""
    index = orbit_numbering(spec)
    reps = index.reshape(-1, index.shape[-1])[0]
    return np.ascontiguousarray(np.moveaxis(full[reps][:, index], 0, -2))


def test_product_blocks_are_the_built_products_matrices():
    # the walk lemma, checked exactly in integers on the built product
    for spec in unshaped_products():
        g, name = build_family(spec), family_to_string(spec)
        for matrix, full in (("distance", distance_matrix(g)), ("adjacency", g.adjacency_matrix())):
            blocks = product_blocks(spec, matrix)
            assert blocks.dtype == np.int64, name
            assert np.array_equal(blocks, built_blocks(full, spec)), (name, matrix)
    with pytest.raises(ValueError, match="unknown matrix kind"):
        product_blocks(Kron(Complete(3), Johnson(5, 2)), "laplacian")


def test_product_blocks_refuse_a_bipartite_unshaped_atom(monkeypatch):
    # J(m, r >= 2) has a triangle; one built as C6 is refused by the proof
    # of its orbit numbering, as the rotation of J(4,2)'s points 0, 1, 2
    # moves the neighbours 1, 5 of vertex 0 to 0, 2, not to those of 3
    build = graphs.build_family
    monkeypatch.setattr(graphs, "build_family",
                        lambda spec: build(Cycle(6)) if spec == Johnson(4, 2) else build(spec))
    graphs._atom_walks.cache_clear()
    try:
        for matrix in ("distance", "adjacency"):
            with pytest.raises(NonSymmetricMatrixError,
                               match="^vertex permutation is no automorphism: it maps the"
                                     " neighbours of 0 onto no neighbours of 3$"):
                product_blocks(Kron(Complete(3), Johnson(4, 2)), matrix)
    finally:
        graphs._atom_walks.cache_clear()


def test_product_blocks_read_a_bipartite_atom_with_a_fibre(monkeypatch):
    # K_{3,3} between J(4,2)'s two orbits {0, 1, 3} and {2, 4, 5} is
    # invariant under their rotation, so it passes the proof; it has walks
    # of one parity only, which each representative's depths give
    parts = ([0, 1, 3], [2, 4, 5])
    bipartite = from_edge_list_text("p 6 9\n" + "".join(
        f"{min(u, v)} {max(u, v)}\n" for u in parts[0] for v in parts[1]))
    build = graphs.build_family
    monkeypatch.setattr(graphs, "build_family",
                        lambda spec: bipartite if spec == Johnson(4, 2) else build(spec))
    graphs._atom_walks.cache_clear()
    try:
        even, odd = graphs._atom_walks(Johnson(4, 2))
        assert even.shape == odd.shape == (3, 2, 2)
        assert (even[odd != graphs._NO_WALK] == graphs._NO_WALK).all()
        for left in (Complete(3), Cycle(4)):
            spec = Kron(left, Johnson(4, 2))
            g = kronecker_product(build(left), bipartite)
            if left == Cycle(4):  # two bipartite atoms: two components
                with pytest.raises(DisconnectedGraphError, match="^graph is disconnected$"):
                    product_blocks(spec, "distance")
                continue
            for matrix, full in (("distance", distance_matrix(g)),
                                 ("adjacency", g.adjacency_matrix())):
                assert np.array_equal(product_blocks(spec, matrix), built_blocks(full, spec))
    finally:
        graphs._atom_walks.cache_clear()


def test_product_blocks_with_a_k1_atom_read_no_fibre_walks(monkeypatch):
    # kron(K1, J(10,5)) has no edge, which its K1 atom tells before J(10,5)
    # is built, proven or walked; its blocks still have J(10,5)'s Z_9 axis
    # and its fibre of 28 representatives
    atom_table = graphs._atom_table
    monkeypatch.setattr(graphs, "_atom_table", lambda atom: (
        pytest.fail("J(10,5) was built") if atom == Johnson(10, 5) else atom_table(atom)))
    graphs._atom_walks.cache_clear()
    spec = Kron(Complete(1), Johnson(10, 5))
    with pytest.raises(DisconnectedGraphError, match="^graph is disconnected$"):
        product_blocks(spec, "distance")
    blocks = product_blocks(spec, "adjacency")
    assert blocks.shape == (1, 9, 28, 28) and blocks.dtype == np.int64 and not blocks.any()
    assert graphs._atom_walks.cache_info().currsize == 1  # K1 only


def test_unshaped_atom_walks_are_contiguous_read_only_matrices():
    # the all-pairs walks at the rows of the representatives, over the
    # orbit numbering: J(6,2) is Z_5 with b = 3
    graphs._atom_walks.cache_clear()
    g = build_family(Johnson(6, 2))
    walks = graphs._atom_walks(Johnson(6, 2))
    assert len(walks) == 2
    for array, want in zip(walks, graphs._shortest_walks(g)):
        assert array.shape == (5, 3, 3) and array.dtype == np.int64
        assert array.flags.c_contiguous and not array.flags.writeable
        assert np.array_equal(array, built_blocks(want, Johnson(6, 2)))


def test_every_grid_atom_keeps_two_walk_arrays_whose_walks_of_length_1_are_a():
    # an edge is exactly a walk of length 1, so A is odd == 1: row 0 of a
    # shaped atom's, the representatives' rows of a J(m, r >= 2)
    graphs._atom_walks.cache_clear()
    atoms = dict.fromkeys(atom for spec, _ in default_grid(1200) for atom in graphs._atoms(spec))
    assert len(atoms) == 125
    for atom in atoms:
        walks, name = graphs._atom_walks(atom), family_to_string(atom)
        assert isinstance(walks, tuple) and len(walks) == 2, name
        assert all(array.dtype == np.int64 and not array.flags.writeable
                   for array in walks), name
        adjacency = built_blocks(build_family(atom).adjacency_matrix(), atom)
        assert np.array_equal((walks[1] == 1).astype(np.int64), adjacency), name


def test_product_adjacency_blocks_build_no_adjacency_matrix(monkeypatch):
    specs = unshaped_products()[:27] + [Kron(Johnson(6, 2), Johnson(5, 2))]
    expected = {spec: built_blocks(build_family(spec).adjacency_matrix(), spec) for spec in specs}

    def refuse(*args, **kwargs):
        raise AssertionError("an adjacency matrix was built")

    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    graphs._atom_walks.cache_clear()
    for spec in specs:
        blocks = product_blocks(spec, "adjacency")
        assert blocks.dtype == np.int64, family_to_string(spec)
        assert np.array_equal(blocks, expected[spec]), family_to_string(spec)


# ---------------------------------------------------------------------------
# Connectivity and parity
# ---------------------------------------------------------------------------

def test_has_odd_cycle_examples():
    assert not has_odd_cycle(build_family(Cycle(4)))
    assert has_odd_cycle(build_family(Complete(3)))
    assert has_odd_cycle(build_family(Johnson(4, 2)))


def test_connectivity_examples():
    assert is_connected(build_family(Cycle(5)))
    assert is_connected(build_family(Kron(Complete(3), Cycle(4))))
    assert not is_connected(build_family(Kron(Complete(2), Complete(2))))


@pytest.mark.parametrize("left, right, expected", [
    (Complete(3), Cycle(4), True),
    (Cycle(4), Cycle(6), False),
    (Cycle(5), Cycle(5), True),
    (Complete(2), Cycle(5), True),
    (Complete(2), Complete(2), False),
])
def test_connectivity_prediction_examples(left, right, expected):
    g, h = build_family(left), build_family(right)
    assert kronecker_connectivity_predicted(g, h) is expected
    assert is_connected(kronecker_product(g, h)) is expected


def test_connectivity_prediction_rejects_disconnected_factor():
    broken = Graph([0, 1, 2, 2], [1, 0])
    with pytest.raises(DisconnectedGraphError):
        kronecker_connectivity_predicted(broken, build_family(Complete(3)))


def test_connectivity_prediction_agreement_grid():
    atoms = [Cycle(4), Cycle(5), Cycle(6), Complete(2), Complete(3),
             Complete(4), Johnson(4, 2), Hamming(2, 2), Hamming(2, 3)]
    for left in atoms:
        for right in atoms:
            g, h = build_family(left), build_family(right)
            predicted = kronecker_connectivity_predicted(g, h)
            assert predicted == is_connected(kronecker_product(g, h))


# ---------------------------------------------------------------------------
# Distance matrices and diameters
# ---------------------------------------------------------------------------

def test_distance_rows_cycles():
    assert distance_matrix(build_family(Cycle(4)))[0].tolist() == [0, 1, 2, 1]
    assert distance_matrix(build_family(Cycle(5)))[0].tolist() == [0, 1, 2, 2, 1]


def test_distance_complete():
    d = distance_matrix(build_family(Complete(4)))
    assert (d == 1 - np.eye(4)).all()


def test_distance_single_vertex():
    assert distance_matrix(build_family(Complete(1))).tolist() == [[0]]


def test_distance_disconnected_raises():
    disconnected = [
        build_family(Kron(Complete(2), Complete(2))),
        build_family(Kron(Complete(2), Cycle(200))),
        # vertex 1 has no neighbours: each of its neighbour slots gathers the
        # spare zero row and must not be handed another row's bitset
        Graph([0, 1, 1, 2], [2, 0]),
        # the last vertex has no neighbours
        Graph([0, 1, 2, 2], [1, 0]),
    ]
    for g in disconnected:
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(g)


@pytest.mark.parametrize("spec", [
    Cycle(9), Complete(5), Johnson(5, 2), Johnson(6, 3),
    Hamming(3, 2), Hamming(2, 4), Kron(Complete(3), Cycle(6)),
    Kron(Complete(4), Johnson(4, 2)),
    Cycle(301), Kron(Complete(4), Cycle(61)), Hamming(8, 2),
    Kron(Complete(9), Complete(8)),
    # orders 243, 243 and 126: bitsets end in a partly used byte and word
    Hamming(5, 3), Kron(Complete(3), Hamming(4, 3)), Johnson(9, 4),
])
def test_distance_matrix_against_naive_bfs(spec):
    g = build_family(spec)
    d = distance_matrix(g)
    assert d.dtype == np.int64
    assert (d == naive_bfs_distances(g)).all()
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    # triangle inequality
    n = g.vertex_count
    for i in range(n):
        assert (d[i, None, :] <= d[i, :, None] + d).all()


def test_bfs_stops_once_every_pair_has_a_distance(monkeypatch):
    # levels 2 .. diameter take one bitset step each; none is left to find
    # nothing
    step, calls = graphs._bitset_reach, []
    monkeypatch.setattr(graphs, "_bitset_reach",
                        lambda *args: calls.append(1) or step(*args))
    for spec in (Complete(5), Johnson(6, 3), Hamming(5, 3), Kron(Complete(4), Cycle(61)),
                 Kron(Complete(9), Complete(8))):
        calls.clear()
        levels = int(distance_matrix(build_family(spec)).max())
        assert len(calls) == levels - 1, spec


def uneven_graph(n: int, extra: int, seed: int) -> Graph:
    """A connected graph of uneven degrees: a random tree plus random chords."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    text = f"p {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
    return from_edge_list_text(text)


@pytest.mark.parametrize("n, extra", [(70, 10), (130, 60)])
def test_bitset_step_on_uneven_degrees(n, extra):
    # a vertex with fewer neighbours than the most gathers the spare zero
    # row in its last slots
    g = uneven_graph(n, extra, seed=n)
    assert len(set(g.degrees().tolist())) > 2
    assert (distance_matrix(g) == naive_bfs_distances(g)).all()


@pytest.mark.parametrize("spec", [
    Complete(1), Cycle(9), Johnson(6, 3), Hamming(5, 3), Kron(Complete(4), Cycle(61)),
    # queue steps only; a top-down step and then a bottom-up step
    Cycle(600), Kron(Complete(36), Complete(33)),
])
def test_distance_row_is_row_zero_of_the_distance_matrix(spec):
    g = build_family(spec)
    row = graphs.distance_row(g)
    assert row.dtype == np.int64
    assert row.tolist() == naive_bfs_distances(g, [0])[0].tolist()


def bfs_step_graphs():
    """Graphs whose BFS levels take every step at some narrow-level
    constant: deep, wide, regular, uneven and disconnected."""
    specs = [Cycle(9), Cycle(600), Kron(Complete(4), Cycle(61)),
             Kron(Complete(36), Complete(33)), Hamming(5, 3), Johnson(6, 3),
             # two bottom-up levels, the second of which sees vertices the
             # first found next to each other
             Johnson(10, 5),
             Kron(Complete(2), Cycle(8)), Kron(Complete(2), Complete(2)),
             # wide tables, whose narrow levels are their first and last few
             Hamming(10, 2), Kron(Complete(3), Hamming(4, 5))]
    return ([build_family(spec) for spec in specs]
            + [uneven_graph(70, 10, seed=70), uneven_graph(130, 60, seed=130),
               Graph([0, 1, 1, 2], [2, 0])])


def test_bfs_depths_at_every_narrow_level_constant(monkeypatch):
    # 0 runs every level that has an edge in numpy, and a constant above
    # every edge count runs every level in the queue
    for g in bfs_step_graphs():
        expected, components = naive_component_depths(g)
        for constant in (0, 10 ** 9, graphs._NARROW_LEVEL_EDGES):
            monkeypatch.setattr(graphs, "_NARROW_LEVEL_EDGES", constant)
            depth, count = graphs._bfs_depths(g)
            assert depth.dtype == np.int64
            assert depth.tolist() == expected.tolist(), (constant, g.vertex_count)
            assert count == components


def spy_on_bfs_steps(monkeypatch) -> list[str]:
    steps = []
    for name in ("_queue_level", "_top_down_level", "_bottom_up_level"):
        def spy(*args, _step=getattr(graphs, name), _name=name):
            steps.append(_name)
            return _step(*args)
        monkeypatch.setattr(graphs, name, spy)
    return steps


def test_bfs_steps_and_levels(monkeypatch):
    steps = spy_on_bfs_steps(monkeypatch)
    for spec in (Cycle(9), Cycle(600), Kron(Complete(4), Cycle(61)),
                 Kron(Complete(36), Complete(33)), Hamming(5, 3), Johnson(6, 3),
                 Johnson(10, 5)):
        steps.clear()
        depth = graphs.distance_row(build_family(spec))
        # one step a level, and none after the level reaching the last vertex
        assert len(steps) == depth.max(), spec
        if spec == Cycle(600):
            assert set(steps) == {"_queue_level"}
        if spec == Kron(Complete(36), Complete(33)):
            # 1120 neighbours of vertex 0, then the 67 vertices left find a parent
            assert steps == ["_top_down_level", "_bottom_up_level"]
        if spec == Johnson(10, 5):
            # levels of 25, 100, 100, 25 and 1 vertices: once 26 vertices are
            # left behind a frontier of 100, every wide level is bottom-up
            assert steps == ["_queue_level", "_top_down_level", "_top_down_level",
                             "_bottom_up_level", "_bottom_up_level"]


def cycle_rows(m: int) -> np.ndarray:
    """The (m, 2) sorted neighbour table of C_m, built by hand."""
    i = np.arange(m)
    return np.sort(np.stack([(i - 1) % m, (i + 1) % m], axis=1), axis=1)


def test_row_bfs_copies_no_neighbour_row():
    # The BFS keeps depth (int64) and owner (intp), 16 bytes a vertex, and
    # for a table also ends = degree * arange(n + 1), 8 more: 24 bytes a
    # vertex for a table and 16 for a graph, whose ends is its own indptr.
    # The bound, 32 bytes a vertex, leaves one more int64 array of margin
    # and no room for the neighbour rows as Python lists (about 159 bytes
    # a vertex for C20001 and 238 for kron(K3,C6667) when every row was
    # converted, as at 200001 vertices).  Both inputs are hand-built, the
    # product past PRODUCT_VERTEX_CAP, and both are deep, so nearly every
    # level is a queue step.
    n = 20001
    cycle = Graph(2 * np.arange(n + 1), cycle_rows(n).ravel())
    m = 6667
    k3 = np.array([[1, 2], [0, 2], [0, 1]])
    product = (k3[:, None, :, None] * m + cycle_rows(m)[None, :, None, :]).reshape(3 * m, 4)
    assert len(product) > graphs.PRODUCT_VERTEX_CAP
    for source, eccentricity in ((cycle, n // 2), (product, m // 2)):
        tracemalloc.start()
        try:
            depth = graphs.distance_row(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert depth.size == n and int(depth.max()) == eccentricity
        assert peak <= 32 * n, peak


def disjoint_copies(component: Graph, copies: int) -> Graph:
    """The disjoint union of ``copies`` copies of ``component``, copy k on
    vertices k * size .. k * size + size - 1."""
    size = component.vertex_count
    indptr = np.zeros(size * copies + 1, dtype=np.int64)
    np.cumsum(np.tile(component.degrees(), copies), out=indptr[1:])
    shifts = size * np.arange(copies)[:, None]
    return Graph(indptr, (component.indices[None, :] + shifts).ravel())


@pytest.mark.parametrize("component, copies", [
    (Graph([0, 0], []), 20000),        # isolated vertices
    (Graph([0, 1, 2], [1, 0]), 10000),  # a perfect matching
], ids=["isolated", "matching"])
def test_bfs_depths_on_many_components(component, copies):
    g = disjoint_copies(component, copies)
    depth, components = graphs._bfs_depths(g)
    assert components == copies
    assert depth.tolist() == np.tile(naive_bfs_distances(component)[0], copies).tolist()


def test_connectivity_and_parity_take_one_bfs_a_graph(monkeypatch):
    bfs, calls = graphs._bfs_depths, []
    monkeypatch.setattr(graphs, "_bfs_depths", lambda g: calls.append(g) or bfs(g))
    assert kronecker_connectivity_predicted(build_family(Cycle(4)), build_family(Cycle(5)))
    assert len(calls) == 2
    calls.clear()
    assert gamma(build_family(Cycle(5))) == 4
    assert len(calls) == 1


def test_connectivity_prediction_keeps_its_precedence():
    # disconnected beats bipartite, whichever factor is disconnected
    broken, even = Graph([0, 1, 2, 2], [1, 0]), build_family(Cycle(4))
    for g, h in ((broken, even), (even, broken)):
        with pytest.raises(DisconnectedGraphError, match="^both factors must be connected$"):
            kronecker_connectivity_predicted(g, h)
    with pytest.raises(DisconnectedGraphError, match="^walk-length closure needs a connected graph$"):
        gamma(Graph([0, 1, 2, 2, 2], [1, 0]))
    with pytest.raises(BipartiteGraphError, match="^bipartite graph"):
        gamma(even)


def test_distance_row_of_a_disconnected_graph_raises():
    # vertex 0 reaches only vertex 2, and the BFS from 1 finds a second part
    for g in (build_family(Kron(Complete(2), Cycle(8))), Graph([0, 1, 1, 2], [2, 0])):
        with pytest.raises(DisconnectedGraphError, match="^graph is disconnected$"):
            graphs.distance_row(g)


def test_diameter_examples():
    assert diameter(build_family(Complete(5))) == 1
    assert diameter(build_family(Kron(Complete(3), Complete(3)))) == 2
    assert diameter(build_family(Johnson(6, 3))) == 3


@pytest.mark.parametrize("m, r", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 4)])
def test_johnson_diameter_is_r(m, r):
    assert diameter(build_family(Johnson(m, r))) == min(r, m - r)


# ---------------------------------------------------------------------------
# Walk-length closure
# ---------------------------------------------------------------------------

def test_walk_gamma_examples():
    assert walk_gamma(build_family(Complete(3)), 0, 0) == 2
    assert walk_gamma(build_family(Complete(4)), 0, 1) == 1
    assert walk_gamma(build_family(Cycle(5)), 0, 0) == 4


def test_gamma_examples():
    assert gamma(build_family(Complete(3))) == 2
    assert gamma(build_family(Complete(4))) == 2
    assert gamma(build_family(Cycle(5))) == 4


def test_walk_gamma_bipartite_rejected():
    with pytest.raises(BipartiteGraphError):
        walk_gamma(build_family(Cycle(4)), 0, 0)
    with pytest.raises(BipartiteGraphError):
        gamma(build_family(Cycle(6)))


def test_walk_gamma_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        walk_gamma(Graph([0, 1, 2, 2], [1, 0]), 0, 1)


def reference_walk_gammas(g: Graph) -> np.ndarray:
    """One more than the last length up to 4n with no walk, per pair, from
    boolean powers of A; independent of the double-cover BFS."""
    n = g.vertex_count
    a = g.adjacency_matrix()
    reach = np.eye(n, dtype=bool)
    last_missing = np.where(reach, -1, 0)
    for k in range(1, 4 * n + 1):
        reach = (reach.astype(np.int64) @ a) > 0
        last_missing[~reach] = k
    assert reach.all()
    return last_missing + 1


@pytest.mark.parametrize("spec", [
    Cycle(5), Cycle(7), Cycle(9), Complete(3), Complete(4), Johnson(5, 2),
    Hamming(2, 3), Kron(Complete(3), Cycle(5)), Kron(Complete(3), Complete(4)),
])
def test_walk_closure_against_boolean_powers(spec):
    g = build_family(spec)
    expected = reference_walk_gammas(g)
    n = g.vertex_count
    got = [[walk_gamma(g, x, y) for y in range(n)] for x in range(n)]
    assert np.array_equal(got, expected)
    assert gamma(g) == expected.max()


def test_walk_closure_shares_the_dense_cap(monkeypatch):
    # the double cover of C_101 has 202 vertices
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "201")
    with pytest.raises(OrderCapError, match="order 202 exceeds dense cap 201"):
        gamma(build_family(Cycle(101)))
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "202")
    assert gamma(build_family(Cycle(101))) == 100


def test_adjacency_matrix_refuses_an_over_cap_order(monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "10")
    with pytest.raises(OrderCapError, match="^matrix order 11 exceeds dense cap 10$"):
        build_family(Cycle(11)).adjacency_matrix()
    assert build_family(Cycle(10)).adjacency_matrix().shape == (10, 10)


def test_walk_gamma_rejects_vertices_out_of_range():
    g = build_family(Kron(Complete(3), Cycle(5)))
    with pytest.raises(ValueError):
        walk_gamma(g, -1, 0)  # would wrap round to vertex 14
    with pytest.raises(ValueError):
        walk_gamma(g, 0, 15)


# ---------------------------------------------------------------------------
# Complete multipartite recognition and diameter prediction
# ---------------------------------------------------------------------------

def test_complete_multipartite_parts():
    parts = complete_multipartite_parts(build_family(Complete(5)))
    assert parts is not None and len(parts) == 5
    parts = complete_multipartite_parts(build_family(Johnson(4, 2)))
    assert parts is not None and len(parts) == 3  # octahedron = K_{2,2,2}
    assert complete_multipartite_parts(build_family(Cycle(5))) is None


def test_predicted_diameter_examples():
    k5 = build_family(Complete(5))
    assert predicted_kron_diameter(build_family(Complete(3)), k5) == 2
    assert predicted_kron_diameter(build_family(Cycle(7)), k5) == 3
    assert predicted_kron_diameter(build_family(Cycle(5)), k5) == 3


def test_predicted_diameter_rejects_three_parts():
    with pytest.raises(FamilyDomainError):
        predicted_kron_diameter(build_family(Cycle(5)), build_family(Complete(3)))
    with pytest.raises(FamilyDomainError):
        predicted_kron_diameter(build_family(Complete(3)), build_family(Johnson(4, 2)))


@pytest.mark.parametrize("g_spec", [
    Complete(3), Complete(6), Cycle(4), Cycle(5), Cycle(7), Cycle(8),
    Johnson(4, 2), Johnson(5, 2), Johnson(6, 3), Hamming(2, 2),
    Hamming(2, 3), Hamming(3, 2), Hamming(3, 3),
])
@pytest.mark.parametrize("n", [4, 5])
def test_predicted_diameter_agrees_with_bfs(g_spec, n):
    g = build_family(g_spec)
    h = build_family(Complete(n))
    assert predicted_kron_diameter(g, h) == diameter(kronecker_product(g, h))


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip():
    g = build_family(Johnson(5, 2))
    text = to_edge_list_text(g)
    head = text.splitlines()[0]
    assert head == f"p {g.vertex_count} {g.edge_count}"
    back = from_edge_list_text(text)
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


def test_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_list_text("q 3 1\n0 1\n")
    with pytest.raises(ValueError):
        from_edge_list_text("p 3 1\n1 0\n")  # u >= v
    with pytest.raises(ValueError):
        from_edge_list_text("p 3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        from_edge_list_text("p 2 2\n0 1\n0 1\n")  # duplicate


# ---------------------------------------------------------------------------
# Graph invariant enforcement
# ---------------------------------------------------------------------------

def test_graph_rejects_self_loop_and_asymmetry():
    with pytest.raises(ValueError):
        Graph([0, 1], [0])  # self-loop
    with pytest.raises(ValueError):
        Graph([0, 1, 1], [1])  # asymmetric
    bad = {
        "self-loop": ((0,),),
        "asymmetric": ((1,), ()),
        "unsorted": ((2, 1), (0,), (0,)),
        "duplicate": ((1, 1), (0,)),
        "out of range": ((1,), (0, 2)),
        "negative": ((-1,), (0,)),
    }
    for adjacency in bad.values():
        indptr = np.cumsum([0] + [len(nbrs) for nbrs in adjacency])
        indices = [v for nbrs in adjacency for v in nbrs]
        with pytest.raises(ValueError):
            Graph(indptr, indices)
    with pytest.raises(ValueError):
        Graph([0, 2, 1], [1, 0])  # indptr falls
    g = Graph([0, 1, 2], [1, 0])
    assert g.indptr.tolist() == [0, 1, 2] and g.indices.tolist() == [1, 0]
