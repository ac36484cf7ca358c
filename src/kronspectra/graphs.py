"""The CSR graph library: graphs, Kronecker products and exact metric data.

``Graph`` is one simple undirected graph in CSR arrays, validated by the
oracle's neighbour validator (``atoms.validate_neighbours``), and
``build_family`` makes a family's graph in the canonical vertex order of
``atoms``: an atom's builder table as a CSR, a product the Kronecker
product of its factors'.  The CSR format is this module's alone:
``atoms`` reads neighbour tables (``Graph._table()``).  No oracle route
builds a ``Graph``; the library serves the commands, the acceptance
criteria and the tests: connectivity, parity and ``distance_row`` from
the row BFS, the all-sources ``distance_matrix`` by the bitset BFS,
diameter, walk-length closure, the diameter prediction for products with
complete multipartite graphs, and edge-list IO.  It re-exports the specs
of ``families`` and the public names of ``atoms``, so every earlier
import path still holds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import atoms
from .atoms import _atom_table, _bfs_depths, _bitset_distances, atom_blocks, orbit_table
from .atoms import product_blocks, translation_shape, translation_table, validate_neighbours
from .errors import BipartiteGraphError, DisconnectedGraphError, FamilyDomainError, OrderCapError
from .families import PRODUCT_VERTEX_CAP, Complete, Cycle, FamilySpec, Hamming, Johnson, Kron
from .families import family_order, family_to_string, refuse_past_product_cap
from .numeric import dense_matrix_cap, refuse_past_dense_cap

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


# ---------------------------------------------------------------------------
# Core graph type
# ---------------------------------------------------------------------------

class Graph:
    """Simple undirected graph in compressed sparse row (CSR) form.

    ``Graph(indptr, indices)``: the neighbours of vertex u are
    ``indices[indptr[u]:indptr[u + 1]]``, strictly increasing.  The graph
    keeps read-only copies, ``indptr`` as int64 and ``indices`` as int32,
    and nothing else: a vertex is its index.  ``validate_neighbours``
    checks them first, and raises ValueError on a malformed graph.
    """

    def __init__(self, indptr, indices):
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        validate_neighbours(indptr, indices)
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

    def _table(self) -> np.ndarray:
        """The (n, width) neighbour table that ``atoms`` reads: row u holds
        u's neighbours, then the spare vertex n up to the largest degree.
        A read-only view of ``indices`` if regular, else a padded copy of
        n x width slots, refused past the square of the dense cap: no
        larger than the largest dense matrix."""
        n, degrees = self.vertex_count, self.degrees()
        width = int(degrees.max()) if n else 0
        if (degrees == width).all():
            return self.indices.reshape(n, width)
        cap = dense_matrix_cap()
        if n * width > cap * cap:
            raise OrderCapError(f"padded neighbour table of {n} x {width} slots "
                                f"exceeds the dense cap {cap} squared")
        table = np.full((n, width), n, dtype=self.indices.dtype)
        table[np.arange(width) < degrees[:, None]] = self.indices
        return table

    def adjacency_matrix(self, dtype=np.int64) -> np.ndarray:
        """Dense A; an order past the dense cap is refused before allocating."""
        n = self.vertex_count
        refuse_past_dense_cap(n)
        a = np.zeros((n, n), dtype=dtype)
        a[self._rows(), self.indices] = 1
        return a


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph for a family spec in its canonical vertex order:
    an atom's is its builder's table (``atoms._atom_table``) as a CSR, a
    product's the Kronecker product of its factors'.  A spec over
    PRODUCT_VERTEX_CAP vertices is refused before any building."""
    n = refuse_past_product_cap(spec)
    if isinstance(spec, Kron):
        return kronecker_product(build_family(spec.left), build_family(spec.right))
    table = _atom_table(spec)
    return Graph(table.shape[1] * np.arange(n + 1), table.ravel())


def _gather(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``values[starts[k]:starts[k] + lengths[k]]`` over k."""
    ends = np.cumsum(lengths)
    positions = np.repeat(starts - ends + lengths, lengths)
    positions += np.arange(positions.size)
    return values[positions]


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

def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    return _bfs_depths(g._table())[1] <= 1


def has_odd_cycle(g: Graph) -> bool:
    """True iff the graph is non-bipartite."""
    return _connected_and_odd(g)[1]


def _connected_and_odd(g: Graph) -> tuple[bool, bool]:
    """``is_connected(g)`` and ``has_odd_cycle(g)`` from one BFS: the graph
    is non-bipartite iff some edge joins two vertices whose BFS depths have
    the same parity, so BFS 2-coloring fails."""
    depth, components = _bfs_depths(g._table())
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
    # slot j holds the j-th neighbour of every vertex, or the spare row n
    return _bitset_distances(np.ascontiguousarray(g._table().T), np.arange(n))


def distance_row(g: Graph | np.ndarray) -> np.ndarray:
    """Row 0 of D by the row BFS of ``atoms.distance_row``, for a Graph or
    a neighbour table as that BFS reads it: raises DisconnectedGraphError
    unless it reaches every vertex."""
    return atoms.distance_row(g if isinstance(g, np.ndarray) else g._table())


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
