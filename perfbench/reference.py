"""Independent references for the benchmark's output checks.

Nothing here imports cyclecount: induced cycles are enumerated with
networkx's chordless-cycle generator, and everything else is a closed form
or a value frozen from a verified exhaustive sweep. Checks compare values
(counts, per-vertex tallies, pass flags), never bytes or witness lists.
"""

from __future__ import annotations

import math

# Exact maxima of the induced k-cycle count over all n-vertex graphs, frozen
# from a full sweep of the labeled space.
FROZEN_MAX = {
    (4, 4): 1, (5, 4): 3, (6, 4): 9, (7, 4): 18,
    (5, 5): 1, (6, 5): 2, (7, 5): 4,
    (6, 6): 1, (7, 6): 2,
}

HEADLINE_CONSTANT = 128 * math.e / 81


def induced_cycles(n: int, edges, k: int) -> tuple[int, list[int]]:
    """Total and per-vertex number of induced k-cycles, by networkx."""
    # imported here so networkx stays out of the timed passes' peak memory
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    per_vertex = [0] * n
    total = 0
    for cyc in nx.chordless_cycles(g, length_bound=k):
        if len(cyc) == k:
            total += 1
            for v in cyc:
                per_vertex[v] += 1
    return total, per_vertex


def graph6_induced_cycles(text: str, k: int) -> tuple[int, list[int]]:
    import networkx as nx

    g = nx.from_graph6_bytes(text.encode("ascii"))
    return induced_cycles(g.number_of_nodes(), g.edges(), k)


def iterated_blowup_count(k: int, depth: int) -> int:
    """N(1) = 1, N(m) = (k^(m-1))^k + k N(m-1), valid for k >= 5."""
    count = 1
    for m in range(2, depth + 1):
        count = (k ** (m - 1)) ** k + k * count
    return count


def balanced_parts(n: int, k: int) -> list[int]:
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def blowup_count(parts: list[int]) -> int:
    """Induced k-cycles of the blow-up of C_k with the given part sizes.

    For k >= 5 a cycle takes one vertex per part (t^k when balanced); for
    k = 4 the blow-up is complete bipartite and every 2+2 choice is a cycle.
    """
    if len(parts) == 4:
        return math.comb(parts[0] + parts[2], 2) * math.comb(parts[1] + parts[3], 2)
    return math.prod(parts)
