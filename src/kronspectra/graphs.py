"""Graph families, Kronecker products and exact metric data.

Vertices are always 0-indexed with a canonical ordering per family:

* cycle C_n: 0..n-1 around the cycle;
* complete K_n: all pairs adjacent;
* Johnson J(m, r): r-subsets of {1..m} in lexicographic order, adjacent
  when the intersection has exactly r-1 elements;
* Hamming H(d, q): d-tuples over {0..q-1} in lexicographic order, adjacent
  when the Hamming distance is 1;
* Kronecker products: index(u, v) = u * |V(right)| + v, so the product is
  partitioned into |V(left)| consecutive blocks of right-factor vertices.

The block-by-left-factor ordering is what makes the distance matrices of
K_n (x) G literally block circulant, which downstream modules rely on.

Every atom is regular, and its builder gives one int32 (n, degree)
neighbour table with strictly increasing rows (``_atom_table``).
``build_family`` turns it into a CSR ``Graph``, which validates it, for
``J(m,r>=2)``, products and callers that want a graph.  A shaped atom's
table is never made a graph: ``translation_table``, the proof's one
entry, proves the builder's table exactly the simple undirected
``Cay(Z_shape, N(0))`` in one pass, which also owns the checks a
``Graph`` would make (range, order within a row, no loop, symmetry).

Every atom's D and A are block group matrices over a group of its
automorphisms that acts freely (``orbit_table``): a shaped atom's
translations, with 1 x 1 blocks, and for ``J(m,r>=2)`` the cyclic group
of a permutation of the m points (``_free_cycle_type``), proven on the
validated table (``_prove_free_action``), with b x b blocks over its b
orbit representatives.  An atom's blocks are read off its
representatives' rows (``atom_blocks``): of D one BFS from vertex 0 over
a shaped atom's table (``distance_row``), or one bitset BFS from all b
representatives (``_bitset_distances``), and of A their neighbours.  A
product is a block group matrix over the product of its atoms' groups,
with fibre the product of their representatives, and its blocks are read
off its atoms' shortest even and odd walk blocks (``product_blocks``),
with no product graph, neighbour table or BFS: an atom's walks come from
its double cover's BFS from its representatives.  An edge is a walk of
length 1, so the walks give A too, and no atom's A is kept.  So no family
builds an n x n matrix; the all-sources ``distance_matrix`` serves the
library's ``diameter`` and walk closure only.  The row BFS is a hybrid
(``_bfs_depths``): a Python queue step for narrow levels, a sort-free
top-down numpy step, and on regular graphs a bottom-up numpy step for the
last levels; it also serves ``is_connected`` and ``has_odd_cycle``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import (
    BipartiteGraphError,
    DisconnectedGraphError,
    FamilyDomainError,
    NonSymmetricMatrixError,
    OrderCapError,
)
from .numeric import refuse_past_dense_cap

__all__ = [
    "Graph",
    "Cycle",
    "Complete",
    "Johnson",
    "Hamming",
    "Kron",
    "FamilySpec",
    "family_order",
    "family_to_string",
    "translation_shape",
    "translation_table",
    "orbit_table",
    "atom_blocks",
    "product_blocks",
    "refuse_past_product_cap",
    "build_family",
    "kronecker_product",
    "is_connected",
    "has_odd_cycle",
    "kronecker_connectivity_predicted",
    "distance_matrix",
    "distance_row",
    "diameter",
    "walk_gamma",
    "gamma",
    "complete_multipartite_parts",
    "predicted_kron_diameter",
    "to_edge_list_text",
    "from_edge_list_text",
    "PRODUCT_VERTEX_CAP",
]

PRODUCT_VERTEX_CAP = 20_000


# ---------------------------------------------------------------------------
# Core graph type
# ---------------------------------------------------------------------------

class Graph:
    """Simple undirected graph in compressed sparse row (CSR) form.

    ``Graph(indptr, indices)``: the neighbours of vertex u are
    ``indices[indptr[u]:indptr[u + 1]]``, strictly increasing.  The graph
    keeps read-only copies, ``indptr`` as int64 and ``indices`` as int32,
    and nothing else: a vertex is its index.  One vectorized pass rejects a
    malformed ``indptr``, out-of-range neighbours, self-loops, unsorted or
    repeated neighbours and asymmetric edges.
    """

    def __init__(self, indptr, indices):
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if indptr.ndim != 1 or indptr.size == 0 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional, indptr nonempty")
        if indptr.dtype.kind not in "iu" or (indices.size and indices.dtype.kind not in "iu"):
            raise ValueError("indptr and indices must hold integers")
        n = indptr.size - 1
        counts = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != indices.size or (counts < 0).any():
            raise ValueError("indptr must rise from 0 to the number of stored neighbours")
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        cols = indices.astype(np.int64)
        bad = np.flatnonzero((cols < 0) | (cols >= n))
        if bad.size:
            raise ValueError(f"neighbor {cols[bad[0]]} of {rows[bad[0]]} out of range")
        loops = np.flatnonzero(cols == rows)
        if loops.size:
            raise ValueError(f"self-loop at vertex {rows[loops[0]]}")
        # row-major keys rise across rows whenever neighbours are in range, so
        # a key that fails to rise marks an unsorted or repeated neighbour
        keys = rows * n + cols
        unsorted = np.flatnonzero(np.diff(keys) <= 0)
        if unsorted.size:
            raise ValueError(f"adjacency of {rows[unsorted[0]]} not strictly sorted")
        # symmetric iff the transposed keys, sorted, are the keys themselves
        transposed = cols * n
        transposed += rows
        del rows, cols
        transposed.sort()
        asymmetric = np.flatnonzero(transposed != keys)
        if asymmetric.size:
            first = asymmetric[0]
            if keys[first] < transposed[first]:
                u, v = divmod(int(keys[first]), n)
            else:
                v, u = divmod(int(transposed[first]), n)
            raise ValueError(f"edge {u}-{v} not symmetric")
        # copies, so the graph alone holds its (read-only) arrays
        self.indptr = indptr.astype(np.int64)
        self.indices = indices.astype(np.int32)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @property
    def vertex_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _rows(self) -> np.ndarray:
        """Source vertex of every stored neighbour, aligned with ``indices``."""
        return np.repeat(np.arange(self.vertex_count), self.degrees())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted."""
        rows = self._rows()
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist())

    def adjacency_matrix(self, dtype=np.int64) -> np.ndarray:
        """Dense A; an order past the dense cap is refused before allocating."""
        n = self.vertex_count
        refuse_past_dense_cap(n)
        a = np.zeros((n, n), dtype=dtype)
        a[self._rows(), self.indices] = 1
        return a


def _gather(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``values[starts[k]:starts[k] + lengths[k]]`` over k."""
    ends = np.cumsum(lengths)
    positions = np.repeat(starts - ends + lengths, lengths)
    positions += np.arange(positions.size)
    return values[positions]


# ---------------------------------------------------------------------------
# Family specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise FamilyDomainError(f"cycle needs n >= 3, got {self.n}")


@dataclass(frozen=True)
class Complete:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise FamilyDomainError(f"complete graph needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class Johnson:
    m: int
    r: int

    def __post_init__(self):
        if not (self.m >= 2 * self.r >= 2):
            raise FamilyDomainError(
                f"Johnson needs m >= 2r >= 2, got m={self.m}, r={self.r}"
            )


@dataclass(frozen=True)
class Hamming:
    d: int
    q: int

    def __post_init__(self):
        if self.d < 1 or self.q < 2:
            raise FamilyDomainError(
                f"Hamming needs d >= 1 and q >= 2, got d={self.d}, q={self.q}"
            )


@dataclass(frozen=True)
class Kron:
    left: "FamilySpec"
    right: "FamilySpec"


FamilySpec = Union[Cycle, Complete, Johnson, Hamming, Kron]


def family_order(spec: FamilySpec) -> int:
    """Vertex count of the graph the spec describes, without building it."""
    if isinstance(spec, (Cycle, Complete)):
        return spec.n
    if isinstance(spec, Johnson):
        return math.comb(spec.m, spec.r)
    if isinstance(spec, Hamming):
        return spec.q ** spec.d
    if isinstance(spec, Kron):
        return family_order(spec.left) * family_order(spec.right)
    raise TypeError(f"not a family spec: {spec!r}")


def family_to_string(spec: FamilySpec) -> str:
    """Compact string form, e.g. 'kron(K3,C4)' or 'J(4,2)'."""
    if isinstance(spec, Cycle):
        return f"C{spec.n}"
    if isinstance(spec, Complete):
        return f"K{spec.n}"
    if isinstance(spec, Johnson):
        return f"J({spec.m},{spec.r})"
    if isinstance(spec, Hamming):
        return f"H({spec.d},{spec.q})"
    if isinstance(spec, Kron):
        return f"kron({family_to_string(spec.left)},{family_to_string(spec.right)})"
    raise TypeError(f"not a family spec: {spec!r}")


def translation_shape(spec: FamilySpec) -> tuple[int, ...] | None:
    """The group ``Z_{n_1} x ... x Z_{n_k}`` whose translations are
    automorphisms of the family's graph in its canonical vertex order, as
    ``(n_1, ..., n_k)``; vertex x is the mixed-radix (C-order) index of its
    group element, so the graph is a Cayley graph of that group.

    C_n, K_n and J(m, 1) = K_m are Cayley graphs of Z_n; H(d, q) of Z_q^d,
    one axis per coordinate; a Kronecker product of the groups of its
    factors, left axes first.  None for J(m, r >= 2) and every product with
    such a factor.  The shape is a claim about the builders, which
    ``translation_table`` proves exactly on an atom's table.
    """
    if isinstance(spec, (Cycle, Complete)):
        return (spec.n,)
    if isinstance(spec, Johnson):
        return (spec.m,) if spec.r == 1 else None
    if isinstance(spec, Hamming):
        return (spec.q,) * spec.d
    if isinstance(spec, Kron):
        left, right = translation_shape(spec.left), translation_shape(spec.right)
        return None if left is None or right is None else left + right
    raise TypeError(f"not a family spec: {spec!r}")


# ---------------------------------------------------------------------------
# Family construction
# ---------------------------------------------------------------------------

def refuse_past_product_cap(spec: FamilySpec) -> int:
    """The family's order; raises OrderCapError for one over
    PRODUCT_VERTEX_CAP vertices, before anything is built."""
    n = family_order(spec)
    if n > PRODUCT_VERTEX_CAP:
        raise OrderCapError(
            f"{family_to_string(spec)} has {n} vertices, cap is {PRODUCT_VERTEX_CAP}")
    return n


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph for a family spec in its canonical vertex order:
    an atom's is its neighbour table (``_atom_table``) as a CSR, a
    product's the Kronecker product of its factors'.  A spec over
    PRODUCT_VERTEX_CAP vertices is refused before any building."""
    n = refuse_past_product_cap(spec)
    if isinstance(spec, Kron):
        return kronecker_product(build_family(spec.left), build_family(spec.right))
    table = _atom_table(spec)
    return Graph(table.shape[1] * np.arange(n + 1), table.ravel())


def _atom_table(spec: FamilySpec) -> np.ndarray:
    """The (n, degree) int32 neighbour table of an atom's graph, every row
    strictly increasing: every atom is regular.  Nothing here checks the
    table; ``Graph`` does for ``build_family``, and the translation proof
    for ``translation_table``."""
    if isinstance(spec, Cycle):
        vertex = np.arange(spec.n, dtype=np.int32)
        table = np.stack([vertex - 1, vertex + 1], axis=1)
        table[0], table[-1] = (1, spec.n - 1), (0, spec.n - 2)
        return table
    if isinstance(spec, Complete):
        # row x is 0..n-1 without x
        slot = np.arange(spec.n - 1, dtype=np.int32)
        return slot + (slot >= np.arange(spec.n, dtype=np.int32)[:, None])
    if isinstance(spec, Johnson):
        return _johnson_table(spec)
    if isinstance(spec, Hamming):
        return _hamming_table(spec.d, spec.q)
    raise TypeError(f"not a family atom: {spec!r}")


def _johnson_subsets(m: int, r: int) -> np.ndarray:
    """The r-subsets of 0..m-1 in lexicographic order, one increasing row
    each: vertex x of J(m, r) is row x."""
    return np.array(list(itertools.combinations(range(m), r)))


def _johnson_table(spec: Johnson) -> np.ndarray:
    m, r = spec.m, spec.r
    verts = _johnson_subsets(m, r)
    n = len(verts)
    members = np.zeros((n, m), dtype=np.float32)
    members[np.repeat(np.arange(n), r), verts.ravel()] = 1
    # adjacent iff the intersection has r - 1 elements (exact in float32);
    # rows go in blocks of at most 2^22 intersections to bound memory
    step = max(1, (1 << 22) // n)
    blocks = (members[i:i + step] @ members.T == r - 1 for i in range(0, n, step))
    return _table_from_boolean_rows(blocks, translation_shape(spec))


def _table_from_boolean_rows(blocks, shape: tuple[int, ...] | None) -> np.ndarray:
    """The int32 neighbour table of the graph whose boolean adjacency
    matrix is the given blocks of consecutive rows, read one block at a
    time.  A table holds regular graphs only, so rows with fewer or more
    neighbours than row 0 raise NonSymmetricMatrixError, as the proof over
    Z_shape does."""
    tables = []
    for block in blocks:
        counts = np.count_nonzero(block, axis=1)
        degree = tables[0].shape[1] if tables else int(counts[0])
        if (counts != degree).any():
            raise _not_regular(shape)
        tables.append(np.nonzero(block)[1].astype(np.int32).reshape(-1, degree))
    return np.concatenate(tables)


def _hamming_table(d: int, q: int) -> np.ndarray:
    n = q ** d
    # vertex index is the base-q numeral of the tuple, so lexicographic order
    # is automatic and neighbors come from single-digit edits: slot j of
    # digit k sets it to j, or to j + 1 from its own value on
    weights = q ** np.arange(d - 1, -1, -1, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)
    digits = idx[:, None] // weights
    digits -= digits // q * q
    slot = np.arange(q - 1, dtype=np.int32)
    edits = slot + (slot >= digits[:, :, None])
    edits -= digits[:, :, None]
    edits *= weights[:, None]
    edits += idx[:, None, None]
    return np.sort(edits.reshape(n, d * (q - 1)), axis=1)


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """Kronecker (tensor) product: (u, v) ~ (u', v') iff u~u' and v~v'.

    Vertex (u, v) gets index u * |V(h)| + v: the product is laid out in
    |V(g)| blocks, one per left-factor vertex.
    """
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise FamilyDomainError("Kronecker product needs nonempty factors")
    n = g.vertex_count * h.vertex_count
    if n > PRODUCT_VERTEX_CAP:
        raise OrderCapError(f"product has {n} vertices, cap is {PRODUCT_VERTEX_CAP}")
    nh = h.vertex_count
    g_deg, h_deg = g.degrees(), h.degrees()
    u = np.repeat(np.arange(g.vertex_count), nh)
    v = np.tile(np.arange(nh), g.vertex_count)
    # The row of (u, v) is, for each neighbour u' of u in increasing order,
    # the row of v in h shifted into block u': one run per (u, v, u').
    run_block = _gather(g.indices, g.indptr[u], g_deg[u]) * nh
    run_v = np.repeat(v, g_deg[u])
    indices = _gather(h.indices, h.indptr[run_v], h_deg[run_v])
    indices += np.repeat(run_block, h_deg[run_v])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.outer(g_deg, h_deg).ravel(), out=indptr[1:])
    return Graph(indptr, indices)


# ---------------------------------------------------------------------------
# Connectivity and parity
# ---------------------------------------------------------------------------

# Frontier edge count at or below which a BFS level runs as a Python queue
# step rather than a numpy step.  It sits inside the measured crossovers
# (2-vCPU Xeon, Python 3.11, numpy 2.4, best of 200 a level on kron(K3,C400),
# kron(K9,C130) and kron(K30,C40)): a queue step on memoryview rows pays
# 120, 56 and 44 ns an edge (a row's slice costs about as much as a few of
# its edges, so degree 4 pays the most), a top-down numpy step 8-15 us a
# level plus about 10 ns an edge, and the two cost the same at about 70,
# 170 and 375 edges.  Every step writes the same depths, so no result
# depends on the value.
_NARROW_LEVEL_EDGES = 128


def _bfs_depths(g: Graph | np.ndarray) -> tuple[np.ndarray, int]:
    """BFS depth of every vertex from the lowest vertex of its component,
    and the number of components, for a graph or for the (n, degree)
    neighbour table of a regular one.

    Level-synchronous; each level takes one of three exact steps, which
    all write the same depths:

    * a queue step (``_queue_level``) in plain Python when the frontier has
      at most ``_NARROW_LEVEL_EDGES`` edges (128: a queue edge costs
      44-120 ns and a numpy level 8-15 us).  It reads each frontier
      vertex's neighbours as a slice ``flat[ends[x]:ends[x + 1]]`` of
      memoryviews of the graph's ``indices`` and ``indptr``, or of the
      flattened table and ``degree * arange(n + 1)``, so no row is copied;
    * on a regular graph, a bottom-up step (``_bottom_up_level``; Beamer,
      Asanovic and Patterson, "Direction-optimizing breadth-first search",
      SC 2012) from the first wider level whose unvisited vertices are no
      more than its frontier, and on every wider level after it: both
      numpy steps gather (k, degree) neighbour rows, so the smaller k wins
      and the rule needs no fitted constant;
    * otherwise a top-down numpy step (``_top_down_level``).

    Depths are read and written through a ``memoryview`` of the int64
    array, so a change of step copies nothing.  The unvisited count is
    kept level by level, and the search stops as soon as it reaches zero,
    so a connected graph runs exactly as many levels as vertex 0's
    eccentricity.  Each component starts at the next unvisited vertex,
    found by a scan forward from the previous start, so k components cost
    O(n), not O(k·n).
    """
    if isinstance(g, np.ndarray):
        table = g
        flat, ends = memoryview(g.reshape(-1)), memoryview(g.shape[1] * np.arange(len(g) + 1))
    else:
        table = _regular_table(g)
        flat, ends = memoryview(g.indices), memoryview(g.indptr)
    if table is not None:
        n, degree = table.shape
    else:
        n, degrees = g.vertex_count, g.degrees()
    depth = np.full(n, -1, dtype=np.int64)
    seen = memoryview(depth)
    owner = np.empty(n, dtype=np.intp)
    pending = None
    unvisited, components, start = n, 0, 0
    while unvisited:
        while seen[start] >= 0:
            start += 1
        components += 1
        seen[start] = level = 0
        unvisited -= 1
        frontier = [start]
        while unvisited and len(frontier):
            level += 1
            size = len(frontier)
            if table is not None:
                edges = size * degree
            else:
                edges = int(degrees[frontier].sum())
            if edges <= _NARROW_LEVEL_EDGES:
                if not isinstance(frontier, list):
                    frontier = frontier.tolist()
                frontier = _queue_level(flat, ends, frontier, seen, level)
            elif table is not None and (pending is not None or unvisited <= size):
                if pending is None:
                    pending = np.flatnonzero(depth < 0)
                pending, frontier = _bottom_up_level(table, depth, pending, level)
            else:
                frontier = _top_down_level(g, table, depth, owner, frontier, level)
            unvisited -= len(frontier)
    return depth, components


def _regular_table(g: Graph) -> np.ndarray | None:
    """The (n, degree) neighbour table of a regular graph, or None."""
    n = g.vertex_count
    degree = int(g.indptr[1]) if n else 0
    if (g.degrees() != degree).any():
        return None
    return g.indices.reshape(n, degree)


def _queue_level(flat: memoryview, ends: memoryview, frontier: list[int],
                 seen: memoryview, level: int) -> list[int]:
    """Queue step: the unvisited neighbours of the frontier, vertex x's
    read as ``flat[ends[x]:ends[x + 1]]``, in the order found, each given
    depth ``level``."""
    found = []
    for x in frontier:
        for v in flat[ends[x]:ends[x + 1]]:
            if seen[v] < 0:
                seen[v] = level
                found.append(v)
    return found


def _top_down_level(g: Graph, table: np.ndarray | None, depth: np.ndarray,
                    owner: np.ndarray, frontier, level: int) -> np.ndarray:
    """Top-down numpy step: gather the frontier's neighbours, drop the
    visited ones and keep one copy of each without sorting.  ``owner`` is
    scratch of length n: after ``owner[cand] = arange``, exactly one
    position of each vertex holds its own index, in whatever order numpy
    applies the writes."""
    frontier = np.asarray(frontier)
    if table is not None:
        cand = table[frontier].ravel()
    else:
        starts = g.indptr[frontier]
        cand = _gather(g.indices, starts, g.indptr[frontier + 1] - starts)
    cand = cand[depth[cand] < 0]
    positions = np.arange(cand.size)
    owner[cand] = positions
    cand = cand[owner[cand] == positions]
    depth[cand] = level
    return cand


def _bottom_up_level(table: np.ndarray, depth: np.ndarray, pending: np.ndarray,
                     level: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up step on a regular graph: every still unvisited vertex of
    ``pending`` with a neighbour at depth ``level - 1`` gets depth
    ``level``.  Returns the still unvisited vertices checked and those
    found."""
    pending = pending[depth[pending] < 0]
    found = pending[(depth[table[pending]] == level - 1).any(axis=1)]
    depth[found] = level
    return pending, found


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    return _bfs_depths(g)[1] <= 1


def has_odd_cycle(g: Graph) -> bool:
    """True iff the graph is non-bipartite."""
    return _connected_and_odd(g)[1]


def _connected_and_odd(g: Graph) -> tuple[bool, bool]:
    """``is_connected(g)`` and ``has_odd_cycle(g)`` from one BFS: the graph
    is non-bipartite iff some edge joins two vertices whose BFS depths have
    the same parity, so BFS 2-coloring fails."""
    depth, components = _bfs_depths(g)
    parity = depth % 2
    return components <= 1, bool((parity[g._rows()] == parity[g.indices]).any())


def kronecker_connectivity_predicted(g: Graph, h: Graph) -> bool:
    """Connectivity of g (x) h predicted from factor parity.

    For connected factors the product is connected iff at least one factor
    contains an odd cycle.  Agreement with a BFS on the actual product is a
    test obligation, not an assumption.
    """
    g_connected, g_odd = _connected_and_odd(g)
    h_connected, h_odd = _connected_and_odd(h)
    if not (g_connected and h_connected):
        raise DisconnectedGraphError("both factors must be connected")
    return g_odd or h_odd


# ---------------------------------------------------------------------------
# Translation shapes
# ---------------------------------------------------------------------------

# stored edges per block of the translation proof, so that its temporaries
# stay small at every order
_PROOF_BLOCK_EDGES = 1 << 16


def translation_table(spec: FamilySpec) -> np.ndarray:
    """The (n, degree) neighbour table of a shaped atom's graph, as its
    builder (``_atom_table``) makes it, read-only once proven
    ``Cay(Z_shape, N(0))`` for ``shape = translation_shape(spec)`` by
    ``_prove_translation_table``; no graph is built.  A product's blocks
    are read off its atoms instead (``product_blocks``).  A spec over
    PRODUCT_VERTEX_CAP vertices is refused before anything is built; an
    atom that has no shape or fails its proof raises
    NonSymmetricMatrixError.
    """
    refuse_past_product_cap(spec)
    table = _prove_translation_table(_atom_table(spec), translation_shape(spec))
    table.flags.writeable = False
    return table


def _refuse_order(n: int, shape: tuple[int, ...] | None) -> None:
    if not shape or min(shape) < 1 or math.prod(shape) != n:
        raise NonSymmetricMatrixError(
            f"graph of order {n} is not a Cayley graph over Z_{shape}")


def _not_regular(shape: tuple[int, ...] | None) -> NonSymmetricMatrixError:
    return NonSymmetricMatrixError(
        f"graph is not regular, so not a Cayley graph over Z_{shape}")


def _prove_translation_table(table: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``table``, once proven to be exactly the simple undirected Cayley
    graph ``Cay(Z_shape, N(0))`` with N(x) = ``table[x]``, vertex x the
    mixed-radix (C-order) numeral of its group element.

    The proof, in the table's own integers and on blocks of
    ``_PROOF_BLOCK_EDGES`` stored edges: the order is ``prod(shape)``;
    every row strictly increases and every entry lies in 0..n-1, so N(x)
    is a set of ``degree`` vertices; for every stored edge (x, y) the
    difference y - x, taken axis by axis modulo the shape, lies in N(0);
    and 0 is not in N(0) and N(0) = -N(0).  Then N(x) lies in x + N(0), a
    set of the same size, so N(x) = x + N(0) for every x: each translation
    is an automorphism, the graph has no loop (0 is not in N(0)) and is
    undirected (y - x in N(0) iff x - y is), and A and D are symmetric
    group matrices over ``Z_shape``, M[x, y] = m[y - x] (Babai, "Spectra
    of Cayley graphs", J. Combin. Theory B 27, 1979).  A table that fails
    any part raises NonSymmetricMatrixError.
    """
    n, degree = table.shape
    _refuse_order(n, shape)
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    connection = np.zeros(n, dtype=bool)
    block = max(1, _PROOF_BLOCK_EDGES // max(degree, 1))
    for start in range(0, n, block):
        y = table[start:start + block]
        x = np.arange(start, start + len(y), dtype=y.dtype)[:, None]
        descents = np.flatnonzero(y[:, 1:] <= y[:, :-1])
        if descents.size:
            raise NonSymmetricMatrixError(
                f"neighbours of {start + descents[0] // (degree - 1)} not strictly increasing")
        # an increasing row lies in range iff its first and last entries do
        ends = y[:, ::max(degree - 1, 1)]
        outside = np.flatnonzero((ends < 0) | (ends >= n))
        if outside.size:
            row, slot = divmod(int(outside[0]), ends.shape[1])
            raise NonSymmetricMatrixError(
                f"neighbour {ends[row, slot]} of {start + row} out of range")
        if start == 0:
            connection[y[0]] = True
        # y - x axis by axis modulo the shape, the last axis of stride 1 (a
        # floor modulo as a - a // size * size, which numpy runs faster than
        # %, and a gather as np.take, which needs no intp copy of the index)
        difference = y - x
        difference -= difference // shape[-1] * shape[-1]
        for size, stride in zip(shape[:-1], strides[:-1]):
            step = y // stride - x // stride
            step -= step // size * size
            step *= stride
            difference += step
        inside = np.take(connection, difference)
        if not inside.all():
            row, slot = divmod(int(np.flatnonzero(~inside)[0]), degree)
            raise NonSymmetricMatrixError(
                f"edge {start + row}-{y[row, slot]} is no translate of an edge"
                f" at vertex 0 in Z_{shape}")
    # N(0) holds no 0, so no loop, and the inverse of each of its elements
    nbrs = table[0]
    if degree and nbrs[0] == 0:
        raise NonSymmetricMatrixError(f"self-loop at vertex 0 in Z_{shape}")
    inverse = np.zeros_like(nbrs)
    for size, stride in zip(shape, strides):
        inverse += -(nbrs // stride) % size * stride
    missing = np.flatnonzero(~connection[inverse])
    if missing.size:
        k = missing[0]
        raise NonSymmetricMatrixError(
            f"edge 0-{nbrs[k]} has no reverse: its inverse {inverse[k]} is not a"
            f" neighbour of vertex 0 in Z_{shape}")
    return table


# ---------------------------------------------------------------------------
# Orbit numberings
# ---------------------------------------------------------------------------

def _free_cycle_type(m: int, r: int) -> tuple[int, int]:
    """(L, c) for the permutation sigma of the points 0..m-1 that cycles
    each of 0..L-1, L..2L-1, ..., (c-1)L..cL-1 and fixes the rest, with L
    as large as possible such that <sigma> = Z_L acts freely on the
    r-subsets; (1, 0), the identity, if no L > 1 does.

    A power of sigma of order l > 1 (l divides L) has cL/l cycles of
    length l and the f = m - cL fixed points of sigma, and fixes exactly
    the r-subsets made of t of its l-cycles and r - lt fixed points.  So
    the action is free iff no divisor l > 1 of L has a t <= cL/l with
    0 <= r - lt <= f (Brouwer, Cohen and Neumaier, *Distance-Regular
    Graphs*, 9.1; a free action is a semiregular automorphism group,
    Marusic 1981)."""
    for length in range(m, 1, -1):
        for cycles in range(1, m // length + 1):
            fixed = m - cycles * length
            if not any(0 <= r - l * t <= fixed
                       for l in range(2, length + 1) if length % l == 0
                       for t in range(cycles * length // l + 1)):
                return length, cycles
    return 1, 0


def _orbit_shape(atom: FamilySpec) -> tuple[int, ...]:
    """The shape ``G + (b,)`` of the atom's orbit numbering
    (``orbit_table``), known before anything is built."""
    shape = translation_shape(atom)
    if shape is not None:
        return shape + (1,)
    k = _free_cycle_type(atom.m, atom.r)[0]
    return (k, family_order(atom) // k)


def _johnson_generator(spec: Johnson) -> tuple[np.ndarray, int]:
    """(P, k): the permutation of J(m, r)'s vertices that the point
    permutation sigma of ``_free_cycle_type`` induces, P[x] the vertex of
    sigma(subset x), and k the order of sigma.  A subset's key, its points
    read as a base-m numeral, rises with the lexicographic order, so one
    ``searchsorted`` finds every image.  Nothing here checks P;
    ``_prove_free_action`` does."""
    m, r = spec.m, spec.r
    length, cycles = _free_cycle_type(m, r)
    sigma = np.arange(m)
    moved = sigma[:length * cycles]
    moved += 1
    moved[length - 1::length] -= length
    subsets = _johnson_subsets(m, r)
    weights = m ** np.arange(r - 1, -1, -1, dtype=np.int64)
    image = np.sort(sigma[subsets], axis=1) @ weights
    return np.searchsorted(subsets @ weights, image), length


def _prove_free_action(table: np.ndarray, generator: np.ndarray, k: int) -> np.ndarray:
    """The (k, b) orbit numbering ``V[y, u] = P^y(rep_u)``, rep_u the least
    vertex of its orbit in increasing order, once P = ``generator`` is
    proven exactly, on the neighbour table, to generate a group Z_k of
    automorphisms that acts freely: P maps 0..n-1 into itself and the
    neighbours of every x onto those of P(x), ``sort(P[table]) ==
    table[P]`` row by row; no P^j with 0 < j < k fixes a vertex; and P^k
    is the identity, so P is a permutation and every orbit has exactly k
    vertices.  Each failure raises its own NonSymmetricMatrixError."""
    n = len(table)
    vertex = np.arange(n)
    outside = generator.shape != (n,) or ((generator < 0) | (generator >= n)).any()
    moved = [] if outside else np.flatnonzero(
        (np.sort(generator[table], axis=1) != table[generator]).any(axis=1))
    if outside or len(moved):
        where = "" if outside else (f": it maps the neighbours of {moved[0]} onto"
                                    f" no neighbours of {generator[moved[0]]}")
        raise NonSymmetricMatrixError(f"vertex permutation is no automorphism{where}")
    powers = np.empty((k, n), dtype=np.intp)
    powers[0] = vertex
    for j in range(1, k):
        powers[j] = generator[powers[j - 1]]
        fixed = np.flatnonzero(powers[j] == vertex)
        if fixed.size:
            raise NonSymmetricMatrixError(
                f"power {j} of the vertex permutation fixes vertex {fixed[0]},"
                f" so Z_{k} does not act freely")
    if (generator[powers[-1]] != vertex).any():
        raise NonSymmetricMatrixError(f"power {k} of the vertex permutation is not the identity")
    return powers[:, powers.min(axis=0) == vertex]


def orbit_table(spec: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """An atom's proven neighbour table and a numbering of its vertices by
    a group ``Z_G`` of automorphisms acting freely: an int array V of
    shape ``G + (b,)``, vertex ``V[y, u] = y(rep_u)`` with the b orbit
    representatives ``rep_u = V[0, u]``, rep_0 = 0.

    A shaped atom is ``translation_table``, G its translation shape, b = 1
    and ``V[y, 0] = y``.  ``J(m,r>=2)`` is ``build_family``'s validated
    table, G = (k,) for the point permutation of ``_free_cycle_type`` and
    b = n / k, proven by ``_prove_free_action``.  Then M[(x, u), (y, v)] =
    M[rep_u, V[y - x, v]] for D and A, a block group matrix over Z_G whose
    blocks are read off the b representatives' rows (``atom_blocks``).
    Refused past PRODUCT_VERTEX_CAP before anything is built.
    """
    shape = translation_shape(spec)
    if shape is not None:
        table = translation_table(spec)
        return table, np.arange(len(table)).reshape(shape + (1,))
    if not isinstance(spec, Johnson):
        raise TypeError(f"not a family atom: {spec!r}")
    table = _regular_table(build_family(spec))
    generator, k = _johnson_generator(spec)
    return table, _prove_free_action(table, generator, k)


def _representatives(vertices: np.ndarray) -> np.ndarray:
    return vertices.reshape(-1, vertices.shape[-1])[0]


def _distance_columns(table: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Entry [w, u]: the distance from ``sources[u]`` to w over a regular
    graph's neighbour table; from vertex 0 alone by the hybrid BFS
    (``distance_row``), from several sources by the bitset BFS.  Raises
    DisconnectedGraphError unless every source reaches every vertex."""
    if sources.tolist() == [0]:
        return distance_row(table)[:, None]
    return _bitset_distances(np.ascontiguousarray(table.T), sources)


def _orbit_blocks(columns: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """``blocks[y][u, v] = M[rep_u, V[y, v]]`` from ``columns[w, u] =
    M[rep_u, w]``: a C-contiguous array of shape ``G + (b, b)``."""
    return np.ascontiguousarray(np.swapaxes(columns[vertices], -1, -2))


def atom_blocks(table: np.ndarray, vertices: np.ndarray, matrix: str) -> np.ndarray:
    """An atom's D (``"distance"``) or A (``"adjacency"``) as int64 blocks
    of shape ``G + (b, b)``, ``blocks[y][u, v] = M[rep_u, V[y, v]]``, over
    its proven table and numbering (``orbit_table``): of D one BFS from
    each representative, of A their neighbours.  A shaped atom's blocks
    are its row 0."""
    sources = _representatives(vertices)
    if matrix == "distance":
        columns = _distance_columns(table, sources)
    elif matrix == "adjacency":
        columns = np.zeros((len(table), len(sources)), dtype=np.int64)
        columns[table[sources], np.arange(len(sources))[:, None]] = 1
    else:
        raise ValueError(f"unknown matrix kind {matrix!r}")
    return _orbit_blocks(columns, vertices)


# Stands for "no walk of this parity" in an atom's walk blocks; np.maximum
# and np.minimum keep it, so a product's blocks hold it exactly where the
# product has no walk at all.
_NO_WALK = np.iinfo(np.int64).max


# The one memo of this module: the walks of products' atoms, so that the
# atoms a grid's products share are built and proven once per process.  An
# atom's entry is two int64 arrays of shape G + (b, b): a shaped atom's
# rows of its order, a J(m, r >= 2)'s b x n entries (J(13,6): Z_13, b =
# 132, 1.8 MB each); no graph, table, cover or A is kept.  A
# top-level atom's table is not kept either: a grid run builds it once per
# family anyway, as the family's checks share one oracle, so a memo would
# only serve repeated runs in one process, where the grid's 93 shaped base
# families take about 20 ms a pass to build and prove (2-vCPU Xeon, numpy
# 2.4, one BLAS thread); and keeping those tables (up to 1024 vertices)
# raised the peak RSS of a ``grid --max-order 1200`` run from 40.0 to 43.5
# MB (10 fresh runs each).
@functools.lru_cache(maxsize=128)
def _atom_walks(atom: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """Shortest even and odd walk lengths (``_NO_WALK`` where none) as
    read-only int64 blocks of shape ``G + (b, b)`` over the atom's orbit
    numbering (``orbit_table``): ``blocks[y][u, v]`` holds the walks from
    rep_u to ``V[y, v]``.  An edge is exactly a walk of length 1, so the
    atom's A blocks are ``odd == 1``.

    A walk of length k from x to y is a path from (x, 0) to (y, k mod 2)
    in the double cover G (x) K_2 (Weichsel, "The Kronecker product of
    graphs", Proc. AMS 13, 1962), vertex (x, p) numbered 2x + p, on which
    every automorphism of G acts on x alone.  With an odd cycle (an edge
    joining two BFS depths of one parity) the cover is connected, and one
    BFS of it from each representative gives both lengths; otherwise G is
    bipartite, and x's depth is its only shortest walk, of the depth's
    parity.
    """
    table, vertices = orbit_table(atom)
    sources = _representatives(vertices)
    depth = distance_row(table)
    parity = depth % 2
    if (parity[table] == parity[:, None]).any():
        cover = np.stack([2 * table + 1, 2 * table], axis=1).reshape(2 * len(table), -1)
        walks = _distance_columns(cover, 2 * sources)
        even, odd = walks[0::2], walks[1::2]
    else:
        depths = _distance_columns(table, sources)
        even = np.where(depths % 2 == 0, depths, _NO_WALK)
        odd = np.where(depths % 2 == 1, depths, _NO_WALK)
    blocks = _orbit_blocks(even, vertices), _orbit_blocks(odd, vertices)
    for array in blocks:
        array.flags.writeable = False
    return blocks


def _atoms(spec: FamilySpec) -> list[FamilySpec]:
    """The atoms of a Kronecker product, left first."""
    if isinstance(spec, Kron):
        return _atoms(spec.left) + _atoms(spec.right)
    return [spec]


def product_blocks(spec: Kron, matrix: str) -> np.ndarray:
    """A product's D (``"distance"``) or A (``"adjacency"``) as a block
    group matrix, an int64 array of shape ``G + (b, b)`` read off its
    atoms' shortest even and odd walks (``_atom_walks``), with no product
    graph, neighbour table or BFS.

    G is the concatenation of the atoms' groups (``orbit_table``), left
    first, and the fibre, of order b, the product of their
    representatives; a shaped atom has b = 1, so a shaped product's blocks
    are 1 x 1.  Vertex (x, u), x = (x_i) in Z_G and u = (u_i), is the
    tuple of the atoms' vertices ``V_i[x_i, u_i]``: one permutation of rows
    and columns alike, which leaves both spectra unchanged.  The atoms'
    groups act on their own coordinates as automorphisms of the product,
    so M[(x, u), (y, v)] = ``blocks[y - x][u, v]``.

    A walk in a Kronecker product is a tuple of walks of one length in its
    atoms, and going along an edge and back lengthens a walk by 2, so
    d((x_i), (y_i)) = min(max_i e_i, max_i o_i) over the atoms' shortest
    even and odd walk lengths (Hammack, Imrich and Klavzar, *Handbook of
    Product Graphs*, ch. 5): ``blocks[y][u, v] = min(max_i
    E_i[y_i][u_i, v_i], max_i O_i[y_i][u_i, v_i])`` over the atoms' walk
    blocks.  An edge is a walk of length 1, so A is the AND of the atoms'
    ``odd == 1``.  A K_1 atom has no walk to lengthen, so a product of
    order above 1 with one has no edge, which is known before a
    ``J(m,r>=2)`` atom's walks are read.  Raises DisconnectedGraphError
    for D if some vertex does not reach every vertex; the product cap and
    the atoms' proofs raise as in ``orbit_table``.
    """
    n = refuse_past_product_cap(spec)
    if matrix not in ("distance", "adjacency"):
        raise ValueError(f"unknown matrix kind {matrix!r}")
    atoms = _atoms(spec)
    walks = [_atom_walks(atom) if translation_shape(atom) is not None else None
             for atom in atoms]
    if n > 1 and not all(np.count_nonzero(odd == 1) for _, odd in filter(None, walks)):
        if matrix == "distance":
            raise DisconnectedGraphError("graph is disconnected")
        shapes = [_orbit_shape(atom) for atom in atoms]
        b = math.prod(shape[-1] for shape in shapes)
        return np.zeros(sum((shape[:-1] for shape in shapes), ()) + (b, b), dtype=np.int64)
    walks = [record or _atom_walks(atom) for record, atom in zip(walks, atoms)]
    b = math.prod(even.shape[-1] for even, _ in walks)
    shape = sum((even.shape[:-2] for even, _ in walks), ()) + (b, b)
    if matrix == "adjacency":
        # cast before the outer product, so that the blocks are written as
        # int64: a boolean n x b outer product cast afterwards raised the
        # peak of kron(J(6,2),J(10,5)) by 12 MB
        return _atom_outer(np.multiply, [(odd == 1).astype(np.int64) for _, odd in walks],
                           shape)
    blocks = _atom_outer(np.maximum, [even for even, _ in walks], shape)
    np.minimum(blocks, _atom_outer(np.maximum, [odd for _, odd in walks], shape), out=blocks)
    if (blocks == _NO_WALK).any():
        raise DisconnectedGraphError("graph is disconnected")
    return blocks


def _atom_outer(op: np.ufunc, arrays: list, shape: tuple[int, ...]) -> np.ndarray:
    """``op`` of the atoms' arrays of shape ``G_i + (b_i, b_i)``, as an
    array of ``shape``: each atom's group axes, and its u and v axes where
    b_i > 1, broadcast along axes of their own, in the order G_1, ...,
    G_a, then the u axes and the v axes, so that the broadcast ``op``s
    write the blocks in order, with no transposed copy (an axis of size 1
    would only slow the broadcast)."""
    sizes = [array.shape[-1] for array in arrays]
    fibre, fibres = len(shape) - 2, len(sizes) - sizes.count(1)
    width, broadcast, axis = fibre + 2 * fibres, [], 0
    for array, size in zip(arrays, sizes):
        dims = [1] * width
        end = axis + array.ndim - 2
        dims[axis:end] = array.shape[:-2]
        axis = end
        if size > 1:
            dims[fibre] = dims[fibre + fibres] = size
            fibre += 1
        broadcast.append(array.reshape(dims))
    return functools.reduce(op, broadcast).reshape(shape)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths as a dense symmetric integer matrix,
    by the bitset BFS from every vertex (``_bitset_distances``): D is
    symmetric, so the distances to each vertex are its row.  Raises
    DisconnectedGraphError if any pair is unreachable."""
    n = g.vertex_count
    refuse_past_dense_cap(n, "distance matrix")
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    # slot j holds the j-th neighbour of every vertex, or the spare zero
    # row n of the frontier for a vertex with fewer neighbours
    degrees = g.degrees()
    slots = np.full((int(degrees.max()), n), n, dtype=g.indices.dtype)
    slots[np.arange(g.indices.size) - np.repeat(g.indptr[:-1], degrees), g._rows()] = g.indices
    return _bitset_distances(slots, np.arange(n))


def _bitset_distances(slots: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Entry [w, i]: the distance from ``sources[i]`` to w, int64, over
    neighbour slots (slot j holds the j-th neighbour of every vertex, or
    the spare zero row n).

    Runs breadth-first search from all the sources at once, level by
    level, on bitsets (Then et al., "The More the Merrier: Efficient
    Multi-Source Graph Traversal", PVLDB 2014).  Row w of an (n, words)
    uint64 bitset holds the sources i of the pairs (sources[i], w).  Level
    1 is the sources' neighbours; each later level is the OR of the
    frontier rows of every vertex's neighbours (``_bitset_reach``) less
    the pairs already reached, and the search stops once every pair has a
    distance.  A pair reached at level L adds L + 1 to bit planes: plane p
    holds the pairs whose L + 1 has bit p set.  A distance is below the
    order, at most the dense cap 4000 or a cover's 2 x 20000 < 2^16, so
    the planes are summed in uint16 and added once to the distances,
    where those pairs hold -1.  Raises DisconnectedGraphError if any pair
    is unreachable.
    """
    n, count = slots.shape[1], len(sources)
    words = -(-count // 64)
    # level 1 is the sources' neighbours; the spare row n stands for none
    near = np.zeros((n + 1, count), dtype=bool)
    near[slots[:, sources], np.arange(count)] = True
    dist = np.full((n, count), -1, dtype=np.int64)
    dist[near[:n]] = 1
    dist[sources, np.arange(count)] = 0
    unvisited = _pack_rows(dist < 0, words)
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    frontier[:n] = _pack_rows(near[:n], words)
    del near
    planes: list[np.ndarray] = []
    level = 1
    while unvisited.any():
        found = _bitset_reach(frontier, slots)
        found &= unvisited
        if not found.any():
            break
        unvisited ^= found
        level += 1
        for p in range((level + 1).bit_length()):
            if p == len(planes):
                planes.append(np.zeros_like(found))
            if (level + 1) >> p & 1:
                planes[p] |= found
        frontier[:n] = found
    # add the planes into the distances in blocks of rows of about 2^17 pairs
    block = max(1, (1 << 17) // count)
    acc = np.empty((block, count), dtype=np.uint16)
    for first in range(0, n, block):
        acc_rows = acc[:min(block, n - first)]
        acc_rows.fill(0)
        for plane in reversed(planes):
            acc_rows += acc_rows
            acc_rows |= _unpack_rows(plane[first:first + block], count)
        dist[first:first + block] += acc_rows
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected")
    return dist


def _bitset_reach(frontier: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Row w: the OR of the frontier rows of w's neighbours, gathered one
    neighbour slot at a time."""
    reach = np.zeros((slots.shape[1], frontier.shape[1]), dtype=np.uint64)
    gathered = np.empty_like(reach)
    for slot in slots:
        np.take(frontier, slot, axis=0, out=gathered)
        reach |= gathered
    return reach


def _pack_rows(rows: np.ndarray, words: int) -> np.ndarray:
    """Rows of booleans as (rows, words) uint64 bitsets: bit j of a row is
    bit j % 8 of the row's byte j // 8, and bits past the row's end are
    clear."""
    out = np.zeros((rows.shape[0], words), dtype=np.uint64)
    packed = np.packbits(rows, axis=1, bitorder="little")
    out.view(np.uint8)[:, :packed.shape[1]] = packed
    return out


def _unpack_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each bitset row, as uint8 zeros and ones."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=n, bitorder="little")


def distance_row(g: Graph | np.ndarray) -> np.ndarray:
    """Row 0 of D, for a graph or for the (n, degree) neighbour table of a
    regular one: the BFS depth of every vertex from vertex 0, by the hybrid
    BFS of ``_bfs_depths``.  Raises DisconnectedGraphError unless that BFS
    reaches every vertex."""
    depth, components = _bfs_depths(g)
    if components > 1:
        raise DisconnectedGraphError("graph is disconnected")
    return depth


def diameter(g: Graph) -> int:
    """Maximum entry of the distance matrix."""
    d = distance_matrix(g)
    if d.size == 0:
        raise DisconnectedGraphError("diameter of empty graph is undefined")
    return int(d.max())


# ---------------------------------------------------------------------------
# Walk-length closure
# ---------------------------------------------------------------------------

def _shortest_walks(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Shortest even and shortest odd walk length between every pair, as
    contiguous int64 matrices.

    A walk of length k from x to y is a path from (x, 0) to (y, k mod 2)
    in the bipartite double cover g (x) K_2 (Weichsel, "The Kronecker
    product of graphs", Proc. AMS 13, 1962), where (x, p) has index 2x + p,
    so one BFS of the cover gives both lengths.  Defined for connected
    non-bipartite graphs, whose cover is connected.
    """
    connected, odd = _connected_and_odd(g)
    if not connected:
        raise DisconnectedGraphError("walk-length closure needs a connected graph")
    if not odd:
        raise BipartiteGraphError(
            "bipartite graph: walk lengths between a fixed pair have a fixed parity"
        )
    cover = distance_matrix(kronecker_product(g, Graph([0, 1, 2], [1, 0])))
    return np.ascontiguousarray(cover[::2, ::2]), np.ascontiguousarray(cover[::2, 1::2])


def walk_gamma(g: Graph, x: int, y: int) -> int:
    """Least k0 such that an (x, y)-walk of every length >= k0 exists.

    Going along an edge and back lengthens a walk by 2, so the walk lengths
    are e, e + 2, ... and o, o + 2, ... for the shortest even and odd walk
    lengths e and o, and k0 = max(e, o) - 1.  Defined for connected
    non-bipartite graphs and x, y in 0..vertex_count-1.
    """
    n = g.vertex_count
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"vertices {x}, {y} not both in range 0..{n - 1}")
    even, odd = _shortest_walks(g)
    return max(int(even[x, y]), int(odd[x, y])) - 1


def gamma(g: Graph) -> int:
    """Maximum of walk_gamma over all vertex pairs."""
    even, odd = _shortest_walks(g)
    return int(np.maximum(even, odd).max()) - 1


# ---------------------------------------------------------------------------
# Diameter prediction for products with complete multipartite graphs
# ---------------------------------------------------------------------------

def complete_multipartite_parts(g: Graph) -> list[list[int]] | None:
    """Partition into independent parts with all cross edges, or None.

    In a complete multipartite graph the non-neighbours of u, u included,
    are its part, so the smallest of them names the part.  The graph is
    complete multipartite iff no edge stays inside a part so named and every
    vertex is adjacent to all vertices outside its part.
    """
    n = g.vertex_count
    rows, degrees = g._rows(), g.degrees()
    # neighbours equal to their position in a sorted row form a prefix of
    # it, whose length is the smallest non-neighbour
    position = np.arange(g.indices.size) - np.repeat(g.indptr[:-1], degrees)
    part = np.bincount(rows[g.indices == position], minlength=n)
    sizes = np.bincount(part, minlength=n)
    if (part[rows] == part[g.indices]).any() or (degrees != n - sizes[part]).any():
        return None
    members = np.argsort(part, kind="stable")
    ends = np.cumsum(sizes[sizes > 0])
    return [members[end - size:end].tolist()
            for size, end in zip(sizes[sizes > 0].tolist(), ends.tolist())]


def predicted_kron_diameter(g: Graph, t_partite_h: Graph) -> int:
    """Diameter of g (x) h predicted without building the product.

    Requires h complete multipartite with more than 3 parts and g connected
    with diameter >= 1.  With d = diam(g): d when d >= 3; otherwise 2 when
    every pair of g-vertices admits walks of all lengths >= 2 (gamma <= 2)
    and 3 when some pair does not (gamma > 2; in particular bipartite g,
    where gamma is infinite).  The boundary case gamma == 2 maps to 2,
    which BFS agreement tests pin down.
    """
    parts = complete_multipartite_parts(t_partite_h)
    if parts is None or len(parts) <= 3:
        raise FamilyDomainError(
            "second factor must be complete multipartite with more than 3 parts"
        )
    connected, odd = _connected_and_odd(g)
    if not connected:
        raise DisconnectedGraphError("first factor must be connected")
    d = diameter(g)
    if d < 1:
        raise FamilyDomainError("first factor must have diameter >= 1")
    if d >= 3:
        return d
    if not odd:
        return 3
    return 2 if gamma(g) <= 2 else 3


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def to_edge_list_text(g: Graph) -> str:
    """Serialize as 'p <n> <e>' followed by sorted 'u v' lines, u < v."""
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format produced by :func:`to_edge_list_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p "):
        raise ValueError("first line must be 'p <vertex_count> <edge_count>'")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("malformed header line")
    n, e = int(header[1]), int(header[2])
    if n < 0 or e < 0:
        raise ValueError("vertex and edge counts must be nonnegative")
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < v < n):
            raise ValueError(f"edge {u} {v} violates 0 <= u < v < {n}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge {u} {v}")
        seen.add((u, v))
    if len(seen) != e:
        raise ValueError(f"header declares {e} edges, found {len(seen)}")
    upper = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    rows, cols = np.concatenate([upper, upper[:, ::-1]]).T
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(indptr, cols[order])
