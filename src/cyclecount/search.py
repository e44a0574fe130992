"""Extremal search for the maximum induced k-cycle count on n vertices.

exhaustive_max is exact: it searches isomorphism classes, built level by
level by vertex extension and deduplicated by a small partition-refinement
canonical labeller (isomorph-free generation in the sense of McKay,
J. Algorithms 26, 1998). local_search_max hill-climbs with exact integer
objectives from deterministic constructed starting points, so its best value
is a certified lower bound on the true maximum.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import io
from .bounds import density_sequence, DensityReport
from .constructions import (
    balanced_part_sizes,
    blow_up,
    cycle,
    iterated_blow_up,
    random_graph,
)
from .counting import (
    count_containing_pair,
    count_fast,
    count_oracle,
    count_rooted,
    cycles_through,
    symmetrise,
)
from .graph import Graph

EXHAUSTIVE_CEILING = 9
_WITNESS_LIMIT = 10


@dataclass
class SearchResult:
    """Outcome of one search run; witnesses are canonical graph6 strings,
    lexicographically smallest first.

    explored counts the candidates examined: for exhaustive search, the
    vertex extensions P + v scored, classes(n - 1) * 2^(n - 1); for local
    search, the move budget.
    """

    n: int
    k: int
    best_count: int
    witnesses: list[str]
    exhaustive: bool
    explored: int
    seed: int | None = None
    budget: int | None = None
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "best_count": self.best_count,
            "witnesses": list(self.witnesses),
            "exhaustive": self.exhaustive,
            "explored": self.explored,
            "seed": self.seed,
            "budget": self.budget,
            "runtime_ms": self.runtime_ms,
        }


def _refine(rows, cells: list[int], splitters: list[int]) -> list[int]:
    """Split the ordered cells until the partition is equitable.

    Each cell is split by its vertices' neighbor counts in one splitter cell,
    pieces in increasing count order. A split cell still queued as a splitter
    is replaced there by its pieces; otherwise all pieces but the first
    largest are queued, since counts into that one follow from the others.
    Every decision depends on counts and cell positions only, never on
    labels, so relabelling the graph relabels the result.
    """
    while splitters:
        splitter = splitters.pop()
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            pieces: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                d = (rows[low.bit_length() - 1] & splitter).bit_count()
                pieces[d] = pieces.get(d, 0) | low
            parts = [pieces[d] for d in sorted(pieces)]
            out.extend(parts)
            if len(parts) > 1:
                if cell in splitters:
                    splitters.remove(cell)
                else:
                    parts.remove(max(parts, key=int.bit_count))
                splitters.extend(parts)
        cells = out
    return cells


def _canonical(rows) -> tuple[int, ...]:
    """Certificate of the graph with these adjacency rows: the smallest
    relabelled row tuple over the leaves of the individualisation-refinement
    tree. Isomorphic graphs get equal certificates, and the certificate is
    itself the rows of an isomorphic graph.

    At each node one vertex of the first smallest non-singleton cell is
    individualised, skipping twins of vertices already tried there: the
    transposition of two twins is an automorphism fixing the node, so their
    subtrees hold the same leaves.
    """
    n = len(rows)
    full = (1 << n) - 1
    best = None
    stack = [_refine(rows, [full], [full])]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            # the leaf relabels the vertex of the p-th cell as p
            pos = {c: 1 << p for p, c in enumerate(cells)}
            leaf = []
            for c in cells:
                row, image = rows[c.bit_length() - 1], 0
                while row:
                    low = row & -row
                    row ^= low
                    image |= pos[low]
                leaf.append(image)
            leaf = tuple(leaf)
            if best is None or leaf < best:
                best = leaf
            continue
        target = min((c for c in cells if c & (c - 1)), key=int.bit_count)
        at = cells.index(target)
        tried = []
        for v in range(n):
            low = 1 << v
            if not target & low or any(
                rows[v] & ~t == rows[t.bit_length() - 1] & ~low for t in tried
            ):
                continue
            tried.append(low)
            split = cells[:at] + [low, target ^ low] + cells[at + 1:]
            stack.append(_refine(rows, split, [low]))
    return best


def _extend(rows, s: int) -> list[int]:
    """Rows of the graph plus one new vertex adjacent to the set s."""
    v = 1 << len(rows)
    return [row | v if s >> u & 1 else row for u, row in enumerate(rows)] + [s]


# kept for the process's life; the ceiling bounds it at 12,346 classes
@functools.cache
def _classes(m: int) -> tuple[tuple[int, ...], ...]:
    """One canonical representative per isomorphism class of m-vertex
    graphs, built by extending each (m - 1)-vertex class by a vertex with
    every neighborhood and deduplicating by certificate."""
    if m == 1:
        return ((0,),)
    return tuple(sorted({
        _canonical(_extend(rows, s))
        for rows in _classes(m - 1)
        for s in range(1 << (m - 1))
    }))


def exhaustive_max(n: int, k: int) -> SearchResult:
    """Exact maximum induced k-cycle count over all n-vertex graphs (n <= 9).

    Every n-vertex graph is isomorphic to P + v for some class representative
    P on n - 1 vertices and some neighborhood S of the new vertex v, so the
    maximum of count(P) + count(P + v through v) over all (P, S) is exact.
    Witnesses are the maximizing classes, one canonical graph6 each, each
    recounted by the subset oracle and the fast counter.
    """
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    if n > EXHAUSTIVE_CEILING:
        raise ValueError(f"exhaustive search needs n <= {EXHAUSTIVE_CEILING}, got n={n}")
    t0 = time.perf_counter()
    best = -1
    best_ext: list[tuple[tuple[int, ...], int]] = []
    for rows in _classes(n - 1):
        base = 0
        if n - 1 >= k:
            p = Graph(n - 1, rows)
            base = count_fast(p, k).total if k >= 4 else count_oracle(p, 3).total
        for s in range(1 << (n - 1)):
            if k == 3:
                # triangles through v are the edges inside its neighborhood
                through = sum((rows[u] & s).bit_count() for u in range(n - 1) if s >> u & 1)
                through //= 2
            elif s.bit_count() < 2:
                through = 0
            else:
                through = count_rooted(Graph._trusted(n, _extend(rows, s)), k, n - 1)
            score = base + through
            if score > best:
                best, best_ext = score, []
            if score == best:
                best_ext.append((rows, s))
    classes = {_canonical(_extend(rows, s)) for rows, s in best_ext}
    witnesses = sorted(io.to_graph6(Graph(n, c)) for c in classes)[:_WITNESS_LIMIT]
    # independent recount of every stored witness
    for g6 in witnesses:
        g = io.from_graph6(g6)
        if count_oracle(g, k).total != best or k >= 4 and count_fast(g, k).total != best:
            raise RuntimeError(f"witness {g6} recount disagrees with search result {best}")
    return SearchResult(
        n=n, k=k, best_count=best, witnesses=witnesses, exhaustive=True,
        explored=len(_classes(n - 1)) << (n - 1),
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def _starting_graphs(n: int, k: int) -> list[Graph]:
    """Deterministic starting points: the balanced cycle blow-up and, when
    n is a perfect power of k, the iterated balanced blow-up."""
    starts = [blow_up(cycle(k), balanced_part_sizes(n, k))]
    depth = 1
    size = k
    while size < n:
        size *= k
        depth += 1
    if size == n and depth > 1:
        starts.append(iterated_blow_up(cycle(k), depth))
    return starts


def _toggle_edge(g: Graph, u: int, w: int) -> Graph:
    rows = list(g.rows)
    rows[u] ^= 1 << w
    rows[w] ^= 1 << u
    return Graph._trusted(g.n, rows)


def local_search_max(n: int, k: int, budget: int = 1000, seed: int = 0) -> SearchResult:
    """Hill-climbing lower bound for the maximum induced k-cycle count.

    Moves: toggle a random vertex pair, or (k >= 5) replace the vertex of
    smallest rooted count by a non-adjacent twin of the vertex of largest
    rooted count. A move changes only the edges at one pair or one vertex,
    so only the cycles through that pair or vertex change: it is scored by
    one walk pinned there in the current graph and one in the candidate.
    For k >= 5 the walks credit every vertex, and an accepted move adds the
    difference of their vectors to the kept per-vertex counts, so full
    passes run only at the start, after each restart and once at the end,
    where the kept counts must equal a recount. k = 4 has no twin moves and
    keeps no vector. Strictly improving moves are always accepted,
    equal-value moves with probability 1/2; after budget//10 consecutive
    non-improving steps the walk restarts. The final witness is recounted
    independently.
    """
    if not 4 <= k <= n:
        raise ValueError(f"need 4 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def full_count(g: Graph) -> tuple[int, list[int] | None]:
        if k == 4:
            return count_fast(g, k).total, None
        rep = count_fast(g, k, rooted=True)
        return rep.total, list(rep.rooted.values())

    current, cur_count, rooted = None, -1, None
    for g in _starting_graphs(n, k):
        cnt, vec = full_count(g)
        if cnt > cur_count:
            current, cur_count, rooted = g, cnt, vec
    best, best_count = current, cur_count
    stale = 0
    restart_after = max(1, budget // 10)
    for _ in range(budget):
        use_twin_move = k >= 5 and rng.random() < 0.1
        if use_twin_move:
            v_minus = rooted.index(min(rooted))
            v_plus = rooted.index(max(rooted))
            if v_minus == v_plus:
                continue
            candidate = symmetrise(current, v_minus, v_plus)
            before = cycles_through(current, k, v_minus)
            after = cycles_through(candidate, k, v_minus)
            new_count = cur_count - before[v_minus] + after[v_minus]
        else:
            u = int(rng.integers(n))
            w = int(rng.integers(n - 1))
            if w >= u:
                w += 1
            candidate = _toggle_edge(current, u, w)
            if rooted is None:
                new_count = (cur_count - count_containing_pair(current, k, u, w)
                             + count_containing_pair(candidate, k, u, w))
            else:
                before = cycles_through(current, k, u, w)
                after = cycles_through(candidate, k, u, w)
                new_count = cur_count - before[u] + after[u]
        accept = new_count > cur_count or (
            new_count == cur_count and rng.random() < 0.5
        )
        if accept:
            current, cur_count = candidate, new_count
            if rooted is not None:
                rooted = [r - b + a for r, b, a in zip(rooted, before, after)]
        if cur_count > best_count:
            best, best_count = current, cur_count
            stale = 0
        else:
            stale += 1
            if stale >= restart_after:
                current = random_graph(n, 0.5, int(rng.integers(1 << 62)))
                cur_count, rooted = full_count(current)
                stale = 0
    if rooted is not None and full_count(current) != (cur_count, rooted):
        raise RuntimeError("incremental per-vertex counts drifted from a full recount")
    recount = (
        count_oracle(best, k).total if n <= 12 else count_fast(best, k).total
    )
    if recount != best_count:
        raise RuntimeError(
            f"incremental bookkeeping drifted: recount {recount} != {best_count}"
        )
    return SearchResult(
        n=n, k=k, best_count=best_count, witnesses=[io.to_graph6(best)],
        exhaustive=False, explored=budget, seed=seed, budget=budget,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def monotonicity_report(k: int, n_max: int) -> DensityReport:
    """Exact density sequence I(n)/C(n,k) for n = k..n_max from exhaustive
    search, with any monotonicity violation flagged."""
    if n_max < k:
        raise ValueError(f"need n_max >= k, got n_max={n_max}, k={k}")
    counts = {
        n: exhaustive_max(n, k).best_count
        for n in range(k, n_max + 1)
    }
    return density_sequence(k, counts)
