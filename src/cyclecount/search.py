"""Extremal search for the maximum induced k-cycle count on n vertices.

exhaustive_max is exact. It builds isomorphism classes level by level by
vertex extension, deduplicated by a small partition-refinement canonical
labeller (isomorph-free generation in the sense of McKay, J. Algorithms 26,
1998), and keeps at each level only the classes that can still grow into a
maximizer. Deleting a vertex keeps every k-cycle that avoids it, so
sum_v count(G - v) = (m - k) count(G) on m vertices (the averaging argument
of Pippenger and Golumbic, 1975): a graph with count >= t has a vertex
whose deletion leaves count >= ceil(t (m - k) / m). Starting from a lower
bound L on the maximum, the count of a concrete graph, these thresholds
descend to 1 at m = k, where the only class is C_k. local_search_max
anneals by in-place edge toggles, scored with exact integer pair counts,
from the constructed graph that gives exhaustive search its bound L; it
keeps the best graph seen, so its best value is a certified lower bound on
the true maximum and never below L.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from . import io
from .constructions import (
    balanced_part_sizes,
    blow_up,
    complete_graph,
    cycle,
    nested_blow_up,
)
from .counting import _through_pair, _through_root, count_fast, count_oracle
from .graph import Graph

# most vertex extensions one exhaustive search may score, over all levels
_WORK_LIMIT = 1 << 22
_WITNESS_LIMIT = 10
# local search's annealing temperature falls geometrically from _T_START to
# _T_END over its budget
_T_START = 1.0
_T_END = 0.3


@dataclass
class SearchResult:
    """Outcome of one search run; witnesses are canonical graph6 strings,
    lexicographically smallest first.

    explored counts the candidates examined: for exhaustive search, the
    vertex extensions P + v scored over all levels; for local search, the
    move budget. Exhaustive search also reports its lower bound L, the
    graph L was counted on, and per level m = k..n the threshold t_m, the
    classes kept (count >= t_m) and the extensions scored to find them.
    Local search also reports the count of its start graph, the moves it
    accepted, the proposals it scored by pair walks rather than by a gain
    kept from an earlier proposal of the same pair, and whether its best
    count beat the start's.
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
    lower_bound: int | None = None
    lower_bound_from: str | None = None
    levels: list[dict] | None = None
    start_count: int | None = None
    accepted: int | None = None
    scored: int | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if self.exhaustive:
            del out["start_count"], out["accepted"], out["scored"]
        else:
            del out["lower_bound"], out["lower_bound_from"], out["levels"]
            out["improved"] = self.best_count > self.start_count
        return out


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


def _start(n: int, k: int) -> tuple[Graph, str]:
    """The constructed graph both searches start from, and its name: K_n
    for k = 3; the balanced C_4 blow-up, K_{ceil(n/2),floor(n/2)}, for
    k = 4, where edges inside parts lose; else the nested balanced C_k
    blow-up, whose parts of size >= k are blown up in turn."""
    if k == 3:
        return complete_graph(n), f"K_{n}"
    sizes = balanced_part_sizes(n, k)
    g = blow_up(cycle(4), sizes) if k == 4 else nested_blow_up(n, k)
    nested = "nested " if k >= 5 and max(sizes) >= k else ""
    return g, f"{nested}blow-up of C{k} with parts {','.join(map(str, sizes))}"


def _lower_bound(n: int, k: int) -> tuple[int, str]:
    """The subset-oracle count of the start graph, and its name. A formula
    never sets the bound, since a bound above the maximum would prune the
    maximizers."""
    g, name = _start(n, k)
    return count_oracle(g, k).total, name


def _thresholds(n: int, k: int, bound: int) -> list[int]:
    """t_k, ..., t_n with t_n = bound and t_{m-1} = ceil(t_m (m - k) / m).

    t_n is raised to at least 1, a count every n >= k reaches (C_k plus
    isolated vertices), so every t_m is at least 1 and level k holds C_k
    alone.
    """
    t = [max(bound, 1)]
    for m in range(n, k, -1):
        t.append(-(-t[-1] * (m - k) // m))
    return t[::-1]


def _cascade(n: int, k: int, thresholds: list[int]) -> list[tuple[dict, int]]:
    """Per level m = k..n, the classes with count >= t_m, as canonical rows
    mapped to their counts, and the extensions scored to find them.

    Level m extends every kept class P of level m - 1 by a vertex v with
    every neighborhood S and scores P + v as count(P) plus the cycles
    through v, walked with P's own rows and open masks. Every graph with
    count >= t_m has a vertex whose deletion leaves count >= t_{m-1}, so it
    is an extension of a kept class. Raises ValueError as soon as the
    extensions scored so far and those the next level needs pass the work
    limit.
    """
    kept = {_canonical(cycle(k).rows): 1}
    levels = [(kept, 0)]
    explored = 0
    for m in range(k + 1, n + 1):
        width = 1 << (m - 1)
        scored = len(kept) * width
        explored += scored
        t = thresholds[m - k]
        grown: dict[tuple[int, ...], int] = {}
        for rows, base in kept.items():
            ncl = Graph._trusted(m - 1, rows)._open_masks()
            for s in range(width):
                through = _through_root(rows, ncl, s, (width - 1) & ~s, k)
                if base + through < t:
                    continue
                c = _canonical(_extend(rows, s))
                if c not in grown:
                    grown[c] = base + through
                    if m < n and explored + (len(grown) << m) > _WORK_LIMIT:
                        raise ValueError(
                            f"exhaustive search for n={n}, k={k} needs more than "
                            f"{_WORK_LIMIT} vertex extensions"
                        )
        kept = grown
        levels.append((kept, scored))
    return levels


def exhaustive_max(n: int, k: int) -> SearchResult:
    """Exact maximum induced k-cycle count over all n-vertex graphs.

    The lower bound L is the oracle count of a concrete n-vertex graph
    (`_lower_bound`), so L <= I(n) and every maximizing class survives the
    threshold cascade from t_n = L down to t_k. The search refuses, with
    ValueError, any n whose levels would score more than 2^22 vertex
    extensions: at once when the last level alone would (2^(n-1)
    neighborhoods of one class), else as soon as the kept classes show it.
    Witnesses are the maximizing classes, one canonical graph6 each, at
    most 10, each recounted by the subset oracle and the fast counter.
    """
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    # 2^(n-1) > _WORK_LIMIT, compared by exponent so that no huge n is built
    if n - 1 > _WORK_LIMIT.bit_length() - 1:
        raise ValueError(
            f"exhaustive search for n={n} needs more than {_WORK_LIMIT} vertex "
            f"extensions at its last level alone"
        )
    t0 = time.perf_counter()
    bound, source = _lower_bound(n, k)
    thresholds = _thresholds(n, k, bound)
    levels = _cascade(n, k, thresholds)
    final = levels[-1][0]
    best = max(final.values())
    witnesses = sorted(
        io.to_graph6(Graph(n, c)) for c, count in final.items() if count == best
    )[:_WITNESS_LIMIT]
    # independent recount of every stored witness
    for g6 in witnesses:
        g = io.from_graph6(g6)
        if count_oracle(g, k).total != best or count_fast(g, k).total != best:
            raise RuntimeError(f"witness {g6} recount disagrees with search result {best}")
    return SearchResult(
        n=n, k=k, best_count=best, witnesses=witnesses, exhaustive=True,
        explored=sum(scored for _, scored in levels),
        runtime_ms=(time.perf_counter() - t0) * 1000,
        lower_bound=bound, lower_bound_from=source,
        levels=[
            {"vertices": m, "threshold": t, "kept": len(kept), "scored": scored}
            for m, t, (kept, scored) in zip(range(k, n + 1), thresholds, levels)
        ],
    )


class _Draws:
    """The draws `Generator(PCG64(SeedSequence(seed)))` makes for scalar
    `integers(n)`, 2 <= n <= 2^32, and `random()`, computed from scalar
    `PCG64.random_raw()` words without numpy's per-call overhead.

    integers maps a 32-bit draw x to (x * n) >> 32 and rejects it when the
    low 32 bits of x * n fall below 2^32 mod n, which removes the bias
    (Lemire, ACM TOMACS 29, 2019); like numpy, it takes the low half of each
    64-bit word first and keeps the high half for the next 32-bit draw.
    random takes the top 53 bits of a whole word and leaves a kept half
    where it is. A negative seed is refused by SeedSequence.
    """

    __slots__ = ("_raw", "_half")

    def __init__(self, seed: int) -> None:
        import numpy as np  # kept off the import path

        self._raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw
        self._half = None

    def integers(self, n: int) -> int:
        while True:
            x = self._half
            if x is None:
                x = self._raw()
                self._half = x >> 32
                x &= 0xFFFFFFFF
            else:
                self._half = None
            m = x * n
            low = m & 0xFFFFFFFF
            if low >= n or low >= (1 << 32) % n:
                return m >> 32

    def random(self) -> float:
        return (self._raw() >> 11) * 2.0**-53


def _toggle(rows: list[int], ncl: list[int], u: int, w: int) -> None:
    """Toggle the pair uw in the rows and open masks, in place."""
    rows[u] ^= 1 << w
    rows[w] ^= 1 << u
    ncl[u] ^= 1 << w
    ncl[w] ^= 1 << u


def _toggle_gain(adj, ncl, k: int, u: int, w: int, memo: dict[int, int]) -> int:
    """The induced k-cycles a toggle of the pair uw adds to the graph with
    rows adj and open masks ncl, less those it removes: the cycles through
    u and w after the toggle less those before, two pair walks on adj.
    memo maps each pair already scored on this graph, as the bitset of its
    two vertices, to its gain, and is cleared by the caller whenever the
    graph changes."""
    key = (1 << u) | (1 << w)
    gain = memo.get(key)
    if gain is None:
        full = (1 << len(adj)) - 1
        gain = (_through_pair(adj, ncl, full, adj[u] ^ (1 << w), u, w, k)
                - _through_pair(adj, ncl, full, adj[u], u, w, k))
        memo[key] = gain
    return gain


def local_search_max(n: int, k: int, budget: int = 1000, seed: int = 0) -> SearchResult:
    """Simulated annealing on edge toggles: a lower bound for the maximum
    induced k-cycle count.

    The walk starts from the constructed graph of `_start`: the balanced
    C_4 blow-up for k = 4, else the nested balanced C_k blow-up. Each of the
    budget steps proposes the toggle of a random vertex pair uw. The walk
    holds its graph as two lists taken from the start, rows and open masks.
    A toggle of uw changes only the cycles through both u and w, so its
    gain is two total-only pair counts walked on those lists
    (`_toggle_gain`); an accepted toggle flips two bits of each in place
    (`_toggle`). Gains are kept per pair until a move is accepted, so a
    pair proposed again on an unchanged graph is not walked again. A move
    that loses nothing is accepted; one that loses d cycles is accepted
    with probability e^(-d/T), where T falls geometrically from _T_START to
    _T_END over the budget. The pairs and acceptance draws come from
    `_Draws(seed)`, the stream of numpy's PCG64 generator; a negative seed
    is refused before any draw. The rows of the best graph seen are kept,
    so the best count is never below the start's.
    One full count runs at the start; the one Graph built from the best
    rows at the end is recounted, by the subset oracle for n <= 12 and by
    count_fast above that, and a recount that disagrees with the kept
    count raises RuntimeError.
    """
    if not 4 <= k <= n:
        raise ValueError(f"need 4 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    draws = _Draws(seed)  # before the clock: it may import numpy
    t0 = time.perf_counter()
    start = _start(n, k)[0]
    start_count = cur_count = count_fast(start, k).total
    rows, ncl = list(start.rows), list(start._open_masks())
    best_rows, best_count = start.rows, cur_count
    accepted = scored = 0
    memo: dict[int, int] = {}
    temperature = _T_START
    cooling = (_T_END / _T_START) ** (1 / budget)
    for _ in range(budget):
        u = draws.integers(n)
        w = draws.integers(n - 1)
        if w >= u:
            w += 1
        gain = _toggle_gain(rows, ncl, k, u, w, memo)
        if gain >= 0 or draws.random() < math.exp(gain / temperature):
            _toggle(rows, ncl, u, w)
            cur_count += gain
            accepted += 1
            scored += len(memo)
            memo.clear()
            if cur_count > best_count:
                best_rows, best_count = tuple(rows), cur_count
        temperature *= cooling
    scored += len(memo)
    best = Graph._trusted(n, best_rows)
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
        start_count=start_count, accepted=accepted, scored=scored,
    )
