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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, Union

import numpy as np

from .errors import (
    BipartiteGraphError,
    DisconnectedGraphError,
    FamilyDomainError,
    OrderCapError,
)
from .numeric import dense_matrix_cap

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
    "build_family",
    "kronecker_product",
    "is_connected",
    "has_odd_cycle",
    "kronecker_connectivity_predicted",
    "distance_matrix",
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
        cap = dense_matrix_cap()
        if n > cap:
            raise OrderCapError(f"matrix order {n} exceeds dense cap {cap}")
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
        return comb(spec.m, spec.r)
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


# ---------------------------------------------------------------------------
# Family construction
# ---------------------------------------------------------------------------

def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph for a family spec in its canonical vertex order;
    a spec over PRODUCT_VERTEX_CAP vertices is refused before any building."""
    n = family_order(spec)
    if n > PRODUCT_VERTEX_CAP:
        raise OrderCapError(
            f"{family_to_string(spec)} has {n} vertices, cap is {PRODUCT_VERTEX_CAP}")
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
    if isinstance(spec, Kron):
        return kronecker_product(build_family(spec.left), build_family(spec.right))
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

def _bfs_depths(g: Graph) -> tuple[np.ndarray, int]:
    """BFS depth of every vertex from the lowest vertex of its component,
    and the number of components."""
    n = g.vertex_count
    degrees = g.degrees()
    depth = np.full(n, -1, dtype=np.int64)
    components = start = 0
    while start < n:
        components += 1
        depth[start] = level = 0
        frontier = np.array([start])
        while frontier.size:
            level += 1
            nbrs = _gather(g.indices, g.indptr[frontier], degrees[frontier])
            frontier = np.unique(nbrs[depth[nbrs] < 0])
            depth[frontier] = level
        unreached = np.flatnonzero(depth < 0)
        start = int(unreached[0]) if unreached.size else n
    return depth, components


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    return _bfs_depths(g)[1] <= 1


def has_odd_cycle(g: Graph) -> bool:
    """True iff the graph is non-bipartite: some edge joins two vertices
    whose BFS depths have the same parity, so BFS 2-coloring fails."""
    parity = _bfs_depths(g)[0] % 2
    return bool((parity[g._rows()] == parity[g.indices]).any())


def kronecker_connectivity_predicted(g: Graph, h: Graph) -> bool:
    """Connectivity of g (x) h predicted from factor parity.

    For connected factors the product is connected iff at least one factor
    contains an odd cycle.  Agreement with a BFS on the actual product is a
    test obligation, not an assumption.
    """
    if not is_connected(g) or not is_connected(h):
        raise DisconnectedGraphError("both factors must be connected")
    return has_odd_cycle(g) or has_odd_cycle(h)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

# Modelled seconds of one all-sources BFS level for each step, fitted per
# level on one core of a 2-vCPU x86-64 Xeon with single-threaded OpenBLAS
# (H(10,2), kron(K3,H(6,3)), kron(K30,K40), kron(K6,C200)):
# push about 30 ns per frontier edge, bitset about 1.5 ns per pair plus
# 12 ns per gathered 64-bit word, dense about 25 ps per multiply-add.
_PUSH_S_PER_EDGE = 30e-9
_BITSET_S_PER_PAIR = 1.5e-9
_BITSET_S_PER_WORD = 12e-9
_DENSE_S_PER_CUBE = 25e-12
# the bitset step gathers neighbour bitsets in row blocks of at most this
# many 64-bit words, the bound `_build_johnson` puts on its blocks
_BITSET_BLOCK_WORDS = 1 << 22


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths as a dense symmetric integer matrix.

    Runs breadth-first search from all sources at once, level by level.
    The frontier is the set of (source, vertex) pairs reached at the
    previous level; it is symmetric, since a pair's distance is.  Each
    level takes whichever of three steps has the lowest modelled cost:

    * push: expand every frontier pair along its vertex's edges, which pays
      while the frontier's edges are few (Beamer, Asanovic and Patterson,
      "Direction-Optimizing Breadth-First Search", SC 2012);
    * bitset: keep the frontier's sources of each vertex as one bitset of
      64-bit words and OR those of every vertex's neighbours (Then et al.,
      "The More the Merrier: Efficient Multi-Source Graph Traversal",
      PVLDB 2014), which pays while n * edges / 64 is small next to n^3;
    * dense: one float32 product of the frontier matrix with A.  It is
      exact, since an entry counts at most max-degree < 2^24 paths.

    Every step yields exactly the per-source BFS levels.  Raises
    DisconnectedGraphError if any pair is unreachable.
    """
    n = g.vertex_count
    cap = dense_matrix_cap()
    if n > cap:
        raise OrderCapError(f"distance matrix order {n} exceeds dense cap {cap}")
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    degrees = g.degrees()
    least_degree = int(degrees.min())
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    flat = dist.ravel()
    frontier = np.arange(n) * (n + 1)  # pairs as flat keys source * n + vertex
    adjacency = None
    level = 0
    while frontier.size:
        level += 1
        # the frontier has at least size * least-degree edges, so they are
        # counted only when push is the cheapest step at that bound
        step = _level_step(n, g.indices.size, frontier.size * least_degree)
        if step == "push":
            vertex = frontier % n
            lengths = degrees[vertex]
            step = _level_step(n, g.indices.size, int(lengths.sum()))
        if step == "push":
            frontier = _push_level(g, frontier, vertex, lengths, flat)
        elif step == "bitset":
            frontier = _bitset_level(g, frontier, dist)
        else:
            if adjacency is None:
                adjacency = g.adjacency_matrix(np.float32)
            frontier = _dense_level(adjacency, frontier, dist)
        flat[frontier] = level
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected")
    return dist


def _level_step(n: int, stored: int, frontier_edges: int) -> str:
    """The step with the lowest modelled cost for one level of an order-n
    graph with ``stored`` CSR neighbours; ties go to push, then bitset."""
    costs = {
        "push": _PUSH_S_PER_EDGE * frontier_edges,
        "bitset": _BITSET_S_PER_PAIR * n * n + _BITSET_S_PER_WORD * stored * -(-n // 64),
        "dense": _DENSE_S_PER_CUBE * n ** 3,
    }
    return min(costs, key=costs.get)


def _push_level(g: Graph, frontier: np.ndarray, vertex: np.ndarray,
                lengths: np.ndarray, flat_dist: np.ndarray) -> np.ndarray:
    """Unreached pairs next to the frontier, found edge by edge."""
    nbrs = np.repeat(frontier - vertex, lengths)
    nbrs += _gather(g.indices, g.indptr[vertex], lengths)
    fresh = nbrs[flat_dist[nbrs] < 0]
    # A pair reached along several edges appears once per edge.  Every copy
    # writes its own stamp into the pair's (still negative) entry; exactly one
    # write survives, and the copy that reads its own stamp back is kept.
    stamps = -2 - np.arange(fresh.size)
    flat_dist[fresh] = stamps
    return fresh[flat_dist[fresh] == stamps]


def _bitset_level(g: Graph, frontier: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Unreached pairs next to the frontier, by OR-ing source bitsets.

    Row v of ``bits`` holds the sources s with (s, v) in the frontier, so
    the OR over the neighbours v of w holds every source one step from w.
    """
    n = g.vertex_count
    words = -(-n // 64)
    front = np.zeros((n, n), dtype=bool)
    front.ravel()[frontier] = True
    bits = np.zeros((n, words), dtype=np.uint64)
    packed = bits.view(np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(front, axis=1, bitorder="little")
    del front
    reached = np.zeros_like(bits)
    indptr, degrees = g.indptr, g.degrees()
    # rows [start, stop) gather at most a block of words (a row that alone
    # exceeds it is a block of its own)
    budget = max(1, _BITSET_BLOCK_WORDS // words)
    start = 0
    while start < n:
        stop = int(np.searchsorted(indptr, indptr[start] + budget, side="right")) - 1
        stop = max(start + 1, stop)
        # reduceat hands a zero-degree row the next row's first bitset (or
        # fails past the end), so it runs over the rows with neighbours only
        rows = start + np.flatnonzero(degrees[start:stop])
        if rows.size:
            gathered = bits[g.indices[indptr[start]:indptr[stop]]]
            reached[rows] = np.bitwise_or.reduceat(
                gathered, indptr[rows] - indptr[start], axis=0)
        start = stop
    found = np.unpackbits(reached.view(np.uint8), axis=1, count=n,
                          bitorder="little").view(bool)
    del reached
    # found[w, s] marks the pair (s, w); the new pairs are symmetric, so the
    # keys of found are theirs
    found &= dist < 0
    return np.flatnonzero(found)


def _dense_level(adjacency: np.ndarray, frontier: np.ndarray,
                 dist: np.ndarray) -> np.ndarray:
    """Unreached pairs next to the frontier, by one product with A."""
    front = np.zeros(dist.shape, dtype=np.float32)
    front.ravel()[frontier] = 1
    found = (front @ adjacency) > 0
    del front
    found &= dist < 0
    return np.flatnonzero(found)


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
    if not is_connected(g):
        raise DisconnectedGraphError("walk-length closure needs a connected graph")
    if not has_odd_cycle(g):
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
    if not is_connected(g):
        raise DisconnectedGraphError("first factor must be connected")
    d = diameter(g)
    if d < 1:
        raise FamilyDomainError("first factor must have diameter >= 1")
    if d >= 3:
        return d
    if not has_odd_cycle(g):
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
