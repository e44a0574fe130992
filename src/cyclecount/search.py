"""Extremal search for the maximum induced k-cycle count on n vertices.

exhaustive_max sweeps every labeled graph (all 2^C(n,2) edge masks) with a
numpy-vectorized pattern lookup: for each k-subset of vertices the induced
edge pattern is extracted by shifts and looked up in a table of which
patterns form a cycle, built from the brute-force predicate. Full coverage
of the labeled space trivially includes a representative of every
isomorphism class. local_search_max hill-climbs with exact integer
objectives from deterministic constructed starting points, so its best value
is a certified lower bound on the true maximum.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import os
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
    symmetrise,
)
from .graph import Graph

EXHAUSTIVE_CEILING = 7       # guaranteed range
EXHAUSTIVE_OVERRIDE = 8      # reachable with allow_large=True
_CHUNK = 1 << 20
_WITNESS_LIMIT = 10


@dataclass
class SearchResult:
    """Outcome of one search run; witnesses are canonical graph6 strings,
    lexicographically smallest first."""

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


def _cache_path(cache_dir: str, n: int, k: int, mode: str) -> str:
    return os.path.join(cache_dir, f"{mode}_n{n}_k{k}.json")


def _cache_load(cache_dir: str | None, n: int, k: int, mode: str) -> SearchResult | None:
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, n, k, mode)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    return SearchResult(**data)

def _cache_store(cache_dir: str | None, result: SearchResult, mode: str) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, result.n, result.k, mode)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


@functools.lru_cache(maxsize=None)
def _cycle_pattern_table(k: int) -> np.ndarray:
    """table[pattern] = 1 iff the edge pattern on k labeled vertices is a
    k-cycle. Pattern bit ell encodes pair number ell in row-major order.
    """
    pairs = list(itertools.combinations(range(k), 2))
    table = np.zeros(1 << len(pairs), dtype=np.uint8)
    for pattern in range(1 << len(pairs)):
        if bin(pattern).count("1") != k:
            continue
        rows = [0] * k
        for ell, (a, b) in enumerate(pairs):
            if (pattern >> ell) & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        if any(r.bit_count() != 2 for r in rows):
            continue
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= rows[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        if seen == (1 << k) - 1:
            table[pattern] = 1
    return table


def _pair_positions(n: int) -> dict[tuple[int, int], int]:
    pos = {}
    q = 0
    for i in range(n):
        for j in range(i + 1, n):
            pos[(i, j)] = q
            q += 1
    return pos


def _mask_to_graph(n: int, mask: int, pos: dict[tuple[int, int], int]) -> Graph:
    rows = [0] * n
    for (i, j), q in pos.items():
        if (mask >> q) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, rows)


def _subset_counts(masks: np.ndarray, subset_positions: list[np.ndarray],
                   table: np.ndarray) -> np.ndarray:
    # edge masks fit in 31 bits up to the hard ceiling n = 8, so int32
    # halves the memory traffic of the sweep
    counts = np.zeros(masks.shape, dtype=np.int32)
    one = np.int32(1)
    for positions in subset_positions:
        patt = np.zeros(masks.shape, dtype=np.int32)
        for ell, q in enumerate(positions):
            patt |= ((masks >> np.int32(q)) & one) << np.int32(ell)
        counts += table[patt]
    return counts


def exhaustive_max(n: int, k: int, allow_large: bool = False,
                   cache_dir: str | None = None) -> SearchResult:
    """Exact maximum induced k-cycle count over all n-vertex graphs.

    Enumerates the full labeled space. n <= 7 is the guaranteed range;
    n = 8 requires allow_large=True (2^28 graphs, minutes of runtime).
    The reported best is re-verified on a witness with the subset oracle.
    """
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    ceiling = EXHAUSTIVE_OVERRIDE if allow_large else EXHAUSTIVE_CEILING
    if n > ceiling:
        raise ValueError(
            f"exhaustive search above n={EXHAUSTIVE_CEILING} needs allow_large=True "
            f"(hard ceiling {EXHAUSTIVE_OVERRIDE}), got n={n}"
        )
    cached = _cache_load(cache_dir, n, k, "exhaustive")
    if cached is not None:
        return cached
    t0 = time.perf_counter()
    pos = _pair_positions(n)
    table = _cycle_pattern_table(k)
    subset_positions = [
        np.array([pos[pair] for pair in itertools.combinations(subset, 2)], dtype=np.int64)
        for subset in itertools.combinations(range(n), k)
    ]
    total_masks = 1 << (n * (n - 1) // 2)
    best = -1
    best_masks: list[int] = []
    for start in range(0, total_masks, _CHUNK):
        stop = min(start + _CHUNK, total_masks)
        masks = np.arange(start, stop, dtype=np.int32)
        counts = _subset_counts(masks, subset_positions, table)
        chunk_best = int(counts.max())
        if chunk_best > best:
            best = chunk_best
            best_masks = []
        if chunk_best == best:
            best_masks.extend(int(v) for v in masks[counts == best])
    witnesses = heapq.nsmallest(
        _WITNESS_LIMIT, (io.to_graph6(_mask_to_graph(n, m, pos)) for m in best_masks)
    )
    # independent recount of every stored witness
    for g6 in witnesses:
        g = io.from_graph6(g6)
        if count_oracle(g, k).total != best:
            raise RuntimeError("witness recount disagrees with sweep result")
        if k >= 4 and count_fast(g, k).total != best:
            raise RuntimeError("witness fast recount disagrees with sweep result")
    result = SearchResult(
        n=n, k=k, best_count=best, witnesses=witnesses, exhaustive=True,
        explored=total_masks, runtime_ms=(time.perf_counter() - t0) * 1000,
    )
    _cache_store(cache_dir, result, "exhaustive")
    return result


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
    return Graph(g.n, rows)


def local_search_max(n: int, k: int, budget: int = 1000, seed: int = 0,
                     cache_dir: str | None = None) -> SearchResult:
    """Hill-climbing lower bound for the maximum induced k-cycle count.

    Moves: toggle a random vertex pair (evaluated incrementally through the
    pair-restricted count, since only cycles through both endpoints change),
    or replace the vertex of smallest rooted count by a non-adjacent twin of
    the vertex of largest rooted count. Strictly improving moves are always
    accepted, equal-value moves with probability 1/2; after budget//10
    consecutive non-improving steps the walk restarts. The final witness is
    recounted independently.
    """
    if not 4 <= k <= n:
        raise ValueError(f"need 4 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    cached = _cache_load(cache_dir, n, k, "local")
    if cached is not None and cached.seed == seed and cached.budget == budget:
        return cached
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    current = None
    cur_count = -1
    for g in _starting_graphs(n, k):
        cnt = count_fast(g, k).total
        if cnt > cur_count:
            current, cur_count = g, cnt
    best, best_count = current, cur_count
    stale = 0
    restart_after = max(1, budget // 10)
    for _ in range(budget):
        use_twin_move = k >= 5 and rng.random() < 0.1
        if use_twin_move:
            rooted = list(count_fast(current, k, rooted=True).rooted.values())
            v_minus = int(np.argmin(rooted))
            v_plus = int(np.argmax(rooted))
            if v_minus == v_plus:
                continue
            pair_cut = count_containing_pair(current, k, v_minus, v_plus)
            candidate = symmetrise(current, v_minus, v_plus)
            # exact update: drop all cycles at v_minus, copy those at v_plus,
            # minus the double-counted ones through both (valid for k >= 5)
            new_count = cur_count - rooted[v_minus] + rooted[v_plus] - pair_cut
        else:
            u = int(rng.integers(n))
            w = int(rng.integers(n - 1))
            if w >= u:
                w += 1
            before = count_containing_pair(current, k, u, w)
            candidate = _toggle_edge(current, u, w)
            after = count_containing_pair(candidate, k, u, w)
            new_count = cur_count - before + after
        accept = new_count > cur_count or (
            new_count == cur_count and rng.random() < 0.5
        )
        if accept:
            current, cur_count = candidate, new_count
        if cur_count > best_count:
            best, best_count = current, cur_count
            stale = 0
        else:
            stale += 1
            if stale >= restart_after:
                current = random_graph(n, 0.5, int(rng.integers(1 << 62)))
                cur_count = count_fast(current, k).total
                stale = 0
    recount = (
        count_oracle(best, k).total if n <= 12 else count_fast(best, k).total
    )
    if recount != best_count:
        raise RuntimeError(
            f"incremental bookkeeping drifted: recount {recount} != {best_count}"
        )
    result = SearchResult(
        n=n, k=k, best_count=best_count, witnesses=[io.to_graph6(best)],
        exhaustive=False, explored=budget, seed=seed, budget=budget,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )
    _cache_store(cache_dir, result, "local")
    return result


def monotonicity_report(k: int, n_max: int, allow_large: bool = False,
                        cache_dir: str | None = None) -> DensityReport:
    """Exact density sequence I(n)/C(n,k) for n = k..n_max from exhaustive
    search, with any monotonicity violation flagged."""
    if n_max < k:
        raise ValueError(f"need n_max >= k, got n_max={n_max}, k={k}")
    counts = {
        n: exhaustive_max(n, k, allow_large=allow_large, cache_dir=cache_dir).best_count
        for n in range(k, n_max + 1)
    }
    return density_sequence(k, counts)
