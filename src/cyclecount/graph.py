"""Immutable bitset-backed simple graphs and exact codegree counts.

Vertices are dense integers 0..n-1. Each adjacency row is a Python int used
as a bitset, so neighborhood algebra is plain integer bit arithmetic and
popcounts, and all derived counts are exact.
"""

from __future__ import annotations

MAX_VERTICES = 1 << 16
MAX_EDGES = 1 << 22  # about 5 s of construction, one Python step per edge


def _check_order(n: int) -> None:
    """Refuse a vertex count outside [1, MAX_VERTICES]; constructions call
    it before they allocate anything of that size."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [1, {MAX_VERTICES}]")


def _check_edges(m: int) -> None:
    """Refuse more than MAX_EDGES edges; constructions count them from their
    parameters and call this after `_check_order`, before building a row."""
    if m > MAX_EDGES:
        raise ValueError(f"edge count {m} above the limit {MAX_EDGES}")


class Graph:
    """Undirected simple graph with one bitset adjacency row per vertex.

    Instances are immutable after construction (rows are stored as a tuple
    and never mutated), so they can be shared and hashed freely.
    Construction validates symmetry and irreflexivity; only `_trusted`, for
    rows derived from a valid graph, skips that. The slot `_open` caches
    the open neighborhood masks of `_open_masks`; it takes no part in
    equality or hashing.
    """

    __slots__ = ("n", "rows", "_open")

    def __init__(self, n: int, rows) -> None:
        _check_order(n)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise ValueError(f"adjacency row of vertex {v} leaves 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            row = rows[v]
            while row:
                low = row & -row
                row ^= low
                w = low.bit_length() - 1
                if not (rows[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, n: int, rows) -> Graph:
        """A graph from rows already known to be symmetric, loopless and in
        range, built without revalidation; for rows derived inside the
        package from a valid graph's, such as symmetrised, relabelled or
        toggled rows."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _open_masks(self) -> tuple[int, ...]:
        """Complements of the closed neighborhoods, one per vertex, computed
        on first use and kept: the rows never change, so they cannot go
        stale."""
        try:
            return self._open
        except AttributeError:
            masks = tuple(~(row | (1 << v)) for v, row in enumerate(self.rows))
            object.__setattr__(self, "_open", masks)
            return masks

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, w: int) -> bool:
        return bool((self.rows[u] >> w) & 1)

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in increasing order."""
        out = []
        row = self.rows[v]
        while row:
            low = row & -row
            row ^= low
            out.append(low.bit_length() - 1)
        return out

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, w) with u < w, lexicographically ordered."""
        return [(u, w) for u in range(self.n) for w in self.neighbors(u) if w > u]

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree_sequence(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def min_degree_vertex(self) -> int:
        """Lowest-index vertex of minimum degree."""
        degs = self.degree_sequence()
        return degs.index(min(degs))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, w) pairs; duplicates collapse.

    Raises ValueError on loops or endpoints outside 0..n-1.
    """
    _check_order(n)
    rows = [0] * n
    for u, w in edges:
        if u == w:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge ({u}, {w}) leaves 0..{n - 1}")
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    return Graph(n, rows)


def codegree(g: Graph, u: int, w: int) -> int:
    """Number of common neighbors of the distinct vertices u and w."""
    if u == w:
        raise ValueError("codegree needs two distinct vertices")
    return (g.rows[u] & g.rows[w]).bit_count()


def triple_codegree(g: Graph, u: int, v: int, w: int) -> int:
    """Number of common neighbors of three pairwise distinct vertices."""
    if u == v or u == w or v == w:
        raise ValueError("triple codegree needs three distinct vertices")
    return (g.rows[u] & g.rows[v] & g.rows[w]).bit_count()


def nonadjacent_neighbor_pairs(g: Graph, v: int) -> list[tuple[int, int]]:
    """Ordered pairs (u, w) of distinct neighbors of v with u, w non-adjacent.

    Both orders of each unordered pair are returned, so the list has even
    length; it is the rooted ground set for cherry-based counting.
    """
    row = g.rows[v]
    ncl = g._open_masks()
    out = []
    for u in g.neighbors(v):
        rest = row & ncl[u]  # the neighbors of v outside u's closed neighborhood
        while rest:
            low = rest & -rest
            rest ^= low
            out.append((u, low.bit_length() - 1))
    return out
