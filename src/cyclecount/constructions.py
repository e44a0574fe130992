"""Reference graph constructions: cycles, complete (bi)partite graphs,
blow-ups, nested balanced blow-ups, seeded random graphs, and the Kneser
graph on 2-subsets of a 5-set.
"""

from __future__ import annotations

import itertools

from .graph import Graph, _check_edges, _check_order, from_edge_list


def cycle(k: int) -> Graph:
    """The k-cycle 0-1-...-(k-1)-0; needs k >= 3."""
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    _check_order(k)
    return from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(n: int) -> Graph:
    _check_order(n)
    _check_edges(n * (n - 1) // 2)
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side A = 0..a-1 and side B = a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both sides of a complete bipartite graph need a vertex")
    _check_order(a + b)
    _check_edges(a * b)
    mask_a = (1 << a) - 1
    mask_b = ((1 << (a + b)) - 1) ^ mask_a
    return Graph(a + b, [mask_b] * a + [mask_a] * b)


def blow_up(base: Graph, parts) -> Graph:
    """Replace vertex i of base by parts[i]: a size t, which stands for an
    independent set of t vertices, or a Graph, which keeps its own edges
    inside its block. Parts of adjacent base vertices are completely joined.

    Parts are laid out contiguously in base-vertex order: part i occupies
    the indices just after those of parts 0..i-1.
    """
    parts = list(parts)
    if len(parts) != base.n:
        raise ValueError(f"need {base.n} parts, got {len(parts)}")
    sizes = [part if isinstance(part, int) else part.n for part in parts]
    if any(t < 1 for t in sizes):
        raise ValueError("every part needs at least one vertex")
    _check_order(sum(sizes))
    _check_edges(sum(sizes[u] * sizes[w] for u, w in base.edges())
                 + sum(part.num_edges for part in parts if not isinstance(part, int)))
    offsets = [0, *itertools.accumulate(sizes)]
    part_mask = [((1 << t) - 1) << offset for t, offset in zip(sizes, offsets)]
    rows = []
    for i, part in enumerate(parts):
        join = 0
        nbrs = base.rows[i]
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            join |= part_mask[low.bit_length() - 1]
        if isinstance(part, int):
            rows.extend([join] * part)
        else:
            rows.extend([(row << offsets[i]) | join for row in part.rows])
    return Graph(offsets[-1], rows)


def balanced_part_sizes(n: int, k: int) -> list[int]:
    """k part sizes summing to n, first n mod k parts one larger."""
    if n < k:
        raise ValueError(f"cannot split {n} vertices into {k} nonempty parts")
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def _nested_edges(n: int, k: int) -> int:
    """The edge count of nested_blow_up(n, k): each part's join to the next
    plus the edges inside it."""
    sizes = balanced_part_sizes(n, k)
    inner = {a: _nested_edges(a, k) for a in set(sizes) if a >= k}
    return sum(a * b + inner.get(a, 0) for a, b in zip(sizes, sizes[1:] + sizes[:1]))


def nested_blow_up(n: int, k: int) -> Graph:
    """Nested balanced blow-up of C_k on n >= k vertices: the blow-up of C_k
    over balanced_part_sizes(n, k), where a part of size a >= k is itself
    nested_blow_up(a, k) and a smaller part stays an independent set.

    For n <= k (k - 1) every part is smaller than k and this is the
    balanced blow-up; for n = k**m it is the depth-m iterated blow-up, each
    part a copy of the k**(m - 1) graph. For k >= 5, C_k is prime, so an
    induced k-cycle lies inside one part or meets every part once: the count
    is the product of the part sizes plus the counts inside the parts.
    """
    _check_order(n)
    base = cycle(k)
    _check_edges(_nested_edges(n, k))
    sizes = balanced_part_sizes(n, k)
    inner = {a: nested_blow_up(a, k) for a in set(sizes) if a >= k}
    return blow_up(base, [inner.get(a, a) for a in sizes])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from the pinned PCG64 generator.

    One uniform draw per vertex pair in row-major order ((0,1), (0,2), ...,
    (n-2,n-1)); the pair (u, w) becomes an edge iff its draw is < p. The
    generator family is fixed, so a (n, p, seed) triple names one graph on
    every platform. The draws come in chunks of 2^20, the same stream as
    one array of all n(n - 1)/2 of them, which would not fit in memory at
    the largest n. A negative seed is refused before numpy is imported.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_order(n)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    pairs = n * (n - 1) // 2
    _check_edges(round(p * pairs))
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    starts = np.cumsum(np.arange(n, 0, -1)) - n  # the index of the pair (u, u + 1)
    rows = [0] * n
    for lo in range(0, pairs, 1 << 20):
        hits = lo + np.flatnonzero(rng.random(min(1 << 20, pairs - lo)) < p)
        us = np.searchsorted(starts, hits, side="right") - 1
        for u, w in zip(us.tolist(), (hits - starts[us] + us + 1).tolist()):
            rows[u] |= 1 << w
            rows[w] |= 1 << u
    return Graph(n, rows)


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set: vertices are the 10 pairs in
    lexicographic order, adjacent iff disjoint. 3-regular, girth 5.
    """
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return from_edge_list(10, edges)
