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

Metric data comes in two forms.  ``distance_matrix`` is the all-sources
bitset BFS behind the dense D.  A family with a translation shape is
instead proven a Cayley graph (``translation_table``): an atom on its CSR
(``translation_neighbours``), a product through its factors' proofs, with
no product graph built.  Its D and A are then group matrices that row 0
determines: ``distance_row``, one BFS from vertex 0 over the proven
neighbour table, and the neighbours of vertex 0.  That BFS is a hybrid
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
    "translation_neighbours",
    "translation_table",
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


def _from_boolean_rows(blocks) -> Graph:
    """Graph whose symmetric boolean adjacency matrix is the given blocks of
    consecutive rows, read one block at a time."""
    counts, cols = [], []
    for block in blocks:
        counts.append(np.count_nonzero(block, axis=1))
        cols.append(np.nonzero(block)[1])
    counts = np.concatenate(counts)
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(indptr, np.concatenate(cols))


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
    ``translation_neighbours`` proves exactly on the graph.
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
    """Construct the graph for a family spec in its canonical vertex order;
    a spec over PRODUCT_VERTEX_CAP vertices is refused before any building."""
    n = refuse_past_product_cap(spec)
    if isinstance(spec, Kron):
        return kronecker_product(build_family(spec.left), build_family(spec.right))
    if isinstance(spec, Cycle):
        i = np.arange(n)
        nbrs = np.sort(np.stack([(i - 1) % n, (i + 1) % n], axis=1), axis=1)
        return Graph(2 * np.arange(n + 1), nbrs.ravel())
    if isinstance(spec, Complete):
        return _from_boolean_rows([~np.eye(spec.n, dtype=bool)])
    if isinstance(spec, Johnson):
        return _build_johnson(spec.m, spec.r)
    if isinstance(spec, Hamming):
        return _build_hamming(spec.d, spec.q)
    raise TypeError(f"not a family spec: {spec!r}")


def _build_johnson(m: int, r: int) -> Graph:
    verts = np.array(list(itertools.combinations(range(m), r)))
    n = len(verts)
    members = np.zeros((n, m), dtype=np.float32)
    members[np.repeat(np.arange(n), r), verts.ravel()] = 1
    # adjacent iff the intersection has r - 1 elements (exact in float32);
    # rows go in blocks of at most 2^22 intersections to bound memory
    step = max(1, (1 << 22) // n)
    blocks = (members[i:i + step] @ members.T == r - 1 for i in range(0, n, step))
    return _from_boolean_rows(blocks)


def _build_hamming(d: int, q: int) -> Graph:
    n = q ** d
    # vertex index is the base-q numeral of the tuple, so lexicographic order
    # is automatic and neighbors come from single-digit edits.
    weights = q ** np.arange(d - 1, -1, -1)
    idx = np.arange(n)
    digits = idx[:, None] // weights % q
    values = np.arange(q)
    edits = (values - digits[:, :, None]) * weights[:, None] + idx[:, None, None]
    changed = values != digits[:, :, None]
    nbrs = np.sort(edits[changed].reshape(n, d * (q - 1)), axis=1)
    return Graph(d * (q - 1) * np.arange(n + 1), nbrs.ravel())


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
# step rather than a numpy step.  It sits at the measured crossover (2-vCPU
# Xeon, Python 3.11, numpy 2.4, best of 200 on kron(K3,C400), kron(K9,C130)
# and kron(K30,C40)): a queue step pays 55-150 ns an edge, a top-down numpy
# step 9-12 us a level plus about 20 ns an edge, and the two cost the same
# between 128 and 256 edges.  Every step writes the same depths, so no
# result depends on the value.
_NARROW_LEVEL_EDGES = 128


def _bfs_depths(g: Graph | np.ndarray) -> tuple[np.ndarray, int]:
    """BFS depth of every vertex from the lowest vertex of its component,
    and the number of components, for a graph or for the (n, degree)
    neighbour table of a regular one.

    Level-synchronous; each level takes one of three exact steps, which
    all write the same depths:

    * a queue step (``_queue_level``) in plain Python when the frontier has
      at most ``_NARROW_LEVEL_EDGES`` edges (128: a queue edge costs
      55-150 ns and a numpy level 9-12 us, so the two meet between 128 and
      256 edges), on the frontier's neighbour rows as Python lists.  A
      level converts only its frontier's rows (``_frontier_rows``), at a
      fixed cost a call, until the levels pay for converting the whole
      table once (``_python_rows``): rated at ``_NARROW_LEVEL_EDGES``
      stored neighbours a level, either the narrow levels so far or, once
      the frontier has stopped growing, the ``unvisited / len(frontier)``
      levels of its width still to come reach the table's n * degree.  So
      a wide graph, whose narrow levels are its first few and its last
      few, never converts its table, and a cycle or a cycle product
      converts it as soon as its frontier stops growing;
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
    table = g if isinstance(g, np.ndarray) else _regular_table(g)
    if table is not None:
        n, degree = table.shape
    else:
        n, degrees = g.vertex_count, g.degrees()
    depth = np.full(n, -1, dtype=np.int64)
    seen = memoryview(depth)
    owner = np.empty(n, dtype=np.intp)
    rows = pending = None
    stored = n * degree if table is not None else g.indices.size
    unvisited, components, start, narrow = n, 0, 0, 0
    while unvisited:
        while seen[start] >= 0:
            start += 1
        components += 1
        seen[start] = level = width = 0
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
                narrow += 1
                if rows is None and (
                        narrow * _NARROW_LEVEL_EDGES >= stored
                        or size <= width and unvisited * _NARROW_LEVEL_EDGES >= stored * size):
                    rows = _python_rows(g, table)
                if not isinstance(frontier, list):
                    frontier = frontier.tolist()
                if rows is None:
                    frontier_rows = _frontier_rows(g, table, frontier)
                else:
                    frontier_rows = map(rows.__getitem__, frontier)
                frontier = _queue_level(frontier_rows, seen, level)
            elif table is not None and (pending is not None or unvisited <= size):
                if pending is None:
                    pending = np.flatnonzero(depth < 0)
                pending, frontier = _bottom_up_level(table, depth, pending, level)
            else:
                frontier = _top_down_level(g, table, depth, owner, frontier, level)
            width = size
            unvisited -= len(frontier)
    return depth, components


def _regular_table(g: Graph) -> np.ndarray | None:
    """The (n, degree) neighbour table of a regular graph, or None."""
    n = g.vertex_count
    degree = int(g.indptr[1]) if n else 0
    if (g.degrees() != degree).any():
        return None
    return g.indices.reshape(n, degree)


def _python_rows(g: Graph, table: np.ndarray | None) -> list[list[int]]:
    """Every vertex's neighbours as a Python list."""
    if table is not None:
        return table.tolist()
    flat, ends = g.indices.tolist(), g.indptr.tolist()
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def _frontier_rows(g: Graph, table: np.ndarray | None,
                   frontier: list[int]) -> list[list[int]]:
    """The neighbours of each frontier vertex as a Python list, in
    frontier order."""
    if table is not None:
        return table[frontier].tolist()
    starts, stops = g.indptr[frontier].tolist(), g.indptr[np.add(frontier, 1)].tolist()
    return [g.indices[a:b].tolist() for a, b in zip(starts, stops)]


def _queue_level(frontier_rows, seen: memoryview, level: int) -> list[int]:
    """Queue step: the unvisited neighbours of the frontier, given as its
    vertices' neighbour lists, in the order found, each given depth
    ``level``."""
    found = []
    for row in frontier_rows:
        for v in row:
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


def translation_neighbours(g: Graph, shape: tuple[int, ...]) -> np.ndarray:
    """The (n, degree) array of every vertex's neighbours, once ``g`` is
    proven to be exactly the Cayley graph ``Cay(Z_shape, N(0))``, vertex x
    the mixed-radix (C-order) numeral of its group element.

    The proof: the order is ``prod(shape)``, every vertex has the degree of
    vertex 0, and for every stored edge (x, y) the difference y - x, taken
    axis by axis modulo the shape, lies in N(0).  Then N(x) lies in
    x + N(0), a set of the same size, so N(x) = x + N(0) for every x: each
    translation is an automorphism, and A and D are symmetric group
    matrices over ``Z_shape``, M[x, y] = m[y - x] (Babai, "Spectra of
    Cayley graphs", J. Combin. Theory B 27, 1979).  A graph that fails any
    part of the proof raises NonSymmetricMatrixError.
    """
    n = g.vertex_count
    if not shape or min(shape) < 1 or math.prod(shape) != n:
        raise NonSymmetricMatrixError(
            f"graph of order {n} is not a Cayley graph over Z_{shape}")
    nbrs = _regular_table(g)
    if nbrs is None:
        raise NonSymmetricMatrixError(
            f"graph is not regular, so not a Cayley graph over Z_{shape}")
    degree = nbrs.shape[1]
    connection = np.zeros(n, dtype=bool)
    connection[nbrs[0]] = True
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    block = max(1, _PROOF_BLOCK_EDGES // max(degree, 1))
    for start in range(0, n, block):
        y = nbrs[start:start + block].astype(np.int64)
        x = np.arange(start, start + y.shape[0])[:, None]
        difference = np.zeros_like(y)
        for size, stride in zip(shape, strides):
            difference += (y // stride - x // stride) % size * stride
        outside = np.flatnonzero(~connection[difference])
        if outside.size:
            row, slot = divmod(int(outside[0]), degree)
            raise NonSymmetricMatrixError(
                f"edge {start + row}-{y[row, slot]} is no translate of an edge"
                f" at vertex 0 in Z_{shape}")
    return nbrs


def translation_table(spec: FamilySpec) -> np.ndarray:
    """The (n, degree) neighbour table of a shaped family's graph, proven
    ``Cay(Z_shape, N(0))`` for ``shape = translation_shape(spec)``, with no
    product graph built.

    An atom is built and proven on its CSR by ``translation_neighbours``.
    A product is read off its factors' proven tables: if G = Cay(Z_a, S)
    and H = Cay(Z_b, T), then (x, y) ~ (u, v) in G (x) H iff u - x is in S
    and v - y in T, so G (x) H = Cay(Z_a x Z_b, S x T) (Hammack, Imrich and
    Klavzar, *Handbook of Product Graphs*, ch. 5).  In the canonical order
    u * |V(H)| + v, the row of (x, y) is u * |V(H)| + v over u in row x of
    G and v in row y of H, already sorted since v < |V(H)|.  So the table
    is ``np.array_equal`` to, and has the dtype of,
    ``translation_neighbours(build_family(spec), shape)``.  A spec over
    PRODUCT_VERTEX_CAP vertices is refused before anything is built; a
    family or factor that has no shape or fails its proof raises
    NonSymmetricMatrixError.
    """
    refuse_past_product_cap(spec)
    if not isinstance(spec, Kron):
        return translation_neighbours(build_family(spec), translation_shape(spec))
    left, right = _factor_table(spec.left), _factor_table(spec.right)
    table = left[:, None, :, None] * len(right) + right[None, :, None, :]
    table = table.reshape(len(left) * len(right), left.shape[1] * right.shape[1])
    table.flags.writeable = False
    return table


# The one memo of this module: the proven tables of products' factors, so
# that the factors a grid's products share are built and proven once per
# process (the shaped products of the default grid at order 1200 have 58
# distinct factors).  No graph is kept: an atom's table is a read-only view
# of its graph's ``indices``, and an unshaped product builds its factors
# afresh.
# A top-level family is built once per grid family anyway, and keeping
# those too (the grid's base families reach 1024 vertices) raised the peak
# RSS of a ``grid --max-order 1200`` run from 40.0 to 43.5 MB (10 fresh
# runs each, 2-vCPU Xeon, numpy 2.4) for a few ms saved.
_factor_table = functools.lru_cache(maxsize=128)(translation_table)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths as a dense symmetric integer matrix.

    Runs breadth-first search from all sources at once, level by level, on
    bitsets (Then et al., "The More the Merrier: Efficient Multi-Source
    Graph Traversal", PVLDB 2014).  Row w of an (n, words) uint64 bitset
    holds the sources s of the pairs (s, w); the pairs of a level are
    symmetric, so row w equally holds the vertices of source w.  Level 1 is
    the edge set; each later level is the OR of the frontier rows of every
    vertex's neighbours (``_bitset_reach``) less the pairs already reached,
    and the search stops once every pair has a distance.  A pair reached at
    level L adds L + 1 to bit planes: plane p holds the pairs whose L + 1
    has bit p set.  Levels are below the dense cap 4000 < 2^16, so the
    planes are summed in uint16 and added once to D, where those pairs hold
    -1.  Raises DisconnectedGraphError if any pair is unreachable.
    """
    n = g.vertex_count
    refuse_past_dense_cap(n, "distance matrix")
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    rows = g._rows()
    dist[rows, g.indices] = 1
    words = -(-n // 64)
    unvisited = _pack_rows(dist < 0, words)
    # slot j holds the j-th neighbour of every vertex, or the spare zero
    # row n of the frontier for a vertex with fewer neighbours
    degrees = g.degrees()
    slots = np.full((int(degrees.max()), n), n, dtype=g.indices.dtype)
    slots[np.arange(g.indices.size) - np.repeat(g.indptr[:-1], degrees), rows] = g.indices
    del rows
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    frontier[:n] = _pack_rows(dist == 1, words)
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
    # add the planes into D in blocks of rows of about 2^17 pairs
    block = max(1, (1 << 17) // n)
    acc = np.empty((block, n), dtype=np.uint16)
    for start in range(0, n, block):
        acc_rows = acc[:min(block, n - start)]
        acc_rows.fill(0)
        for plane in reversed(planes):
            acc_rows += acc_rows
            acc_rows |= _unpack_rows(plane[start:start + block], n)
        dist[start:start + block] += acc_rows
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
    """Shortest even and shortest odd walk length between every pair.

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
    return cover[::2, ::2], cover[::2, 1::2]


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
