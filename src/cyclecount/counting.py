"""Exact induced k-cycle counting: a subset oracle, a canonical-path
enumerator, rooted variants, and the neighborhood-swap graph transform.

The path-extension counters share two walks. `_walk` counts: every total,
the pinned-root, pair and cherry counts and the exhaustive search's cascade
run on it. `_walk_weighted` weighs and credits: each completion counts the
product of its vertices' weights, and each vertex it adds is credited with
that product. Both keep their partial paths on an explicit stack, so a
k-cycle needs no recursion depth at any k. A path grows only through
neighbors of its tip that avoid the closed neighborhoods of the earlier
interior vertices and of the root. `_walk` gives the last three path
vertices, the closing one included, no stack frame: the vertex before them
counts its whole subtree as the induced 3-paths from its candidates through
a still-free vertex to the root neighbors that are still free to close
(`_paths3`), one popcount per vertex of the smaller side. `_walk_weighted`
gives the last two no frame: the vertex before them takes the edges between
its candidates for the penultimate vertex and the closers, one step per
edge.

`count_fast` roots each cycle at its first vertex in an order of the
vertices and breaks direction by requiring the second vertex to come before
the closing one in that order, so every induced k-cycle is generated exactly
once. For n >= 32 the order is the degeneracy order, where each vertex has
the fewest neighbours among the vertices after it (the reverse of Matula and
Beck's smallest-last order), so the walks from each root stay narrow; the
graph is relabelled into that order first, and the walks compare labels as
before. Below n = 32, where the ordering costs about what it saves, and for
triangles, which every order finds with one popcount per edge, the order is
the label order. For a total with k >= 5 on those same graphs (n >= 32),
`count_fast` first counts through modules (`cyclecount.modular`), so a
blow-up costs the count of its quotient, not one step per cycle;
`_count_kernel` is the kernel alone. With rooted=True the same roots are
walked by `_walk_weighted` with unit weights (`_credit_roots`), which
credits each path vertex with the completions below it and each closing
vertex with one, so the whole per-vertex vector costs one canonical pass.
The module path walks its quotients the same way, with the part sizes as
weights. `count_rooted` pins the root instead; the cherry count starts
from a pinned three-vertex path.
`count_containing_pair` walks each cycle through v and w once, from the side
on which w is nearer to v: a prefix v, ..., w of at most k // 2 edges, then
the walk from w closes the other side. Those are exactly the cycles that a
toggle of the pair vw can alter, so local search scores a toggle by two such
walks, both on the current graph's rows: the walks read v only through the
neighbour set passed in for it, and w's row and mask only away from bit v, so
passing v's neighbours with bit w flipped walks the toggled graph.

Two checks stay independent of `_walk_weighted`: the subset oracle
`count_oracle`, and the pinned-root enumeration by `_walk` behind
`count_rooted`, which the handshake identities compare with the credited
vector vertex by vertex. Blow-ups are checked by the kernel alone beside
`count_fast`, so a module path that agreed only with the blow-up
recurrence would not pass.

Python integers are arbitrary precision, so totals can never overflow.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .graph import Graph


@dataclass
class CountReport:
    """Exact counting result; the rooted vector is filled only on request."""

    k: int
    total: int
    rooted: dict[int, int] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"k": self.k, "total": self.total}
        if self.rooted is not None:
            out["rooted"] = {str(v): c for v, c in sorted(self.rooted.items())}
        return out


def _subset_is_cycle(rows, combo, mask) -> bool:
    # Induced subgraph on `mask` is a single cycle: all degrees 2, connected.
    for v in combo:
        if (rows[v] & mask).bit_count() != 2:
            return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= rows[low.bit_length() - 1]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def is_induced_cycle(g: Graph, vertices) -> bool:
    """True iff the given vertex set induces a cycle in g (needs |set| >= 3)."""
    vertices = list(vertices)
    vs = sorted(set(vertices))
    if len(vs) != len(vertices):
        raise ValueError("duplicate vertices in claimed cycle")
    if len(vs) < 3:
        raise ValueError("an induced cycle needs at least 3 vertices")
    _check_vertices(g, *vs)
    return _subset_is_cycle(g.rows, vs, sum(1 << v for v in vs))


def _check_k(g: Graph, k: int) -> None:
    if not 3 <= k <= g.n:
        raise ValueError(f"need 3 <= k <= n={g.n}, got k={k}")


def count_oracle(g: Graph, k: int, rooted: bool = False) -> CountReport:
    """Brute-force induced k-cycle count over all k-subsets (3 <= k <= n).

    Definitional reference implementation: no symmetry breaking, no pruning.
    """
    _check_k(g, k)
    rows = g.rows
    bit = [1 << v for v in range(g.n)]
    total = 0
    per_vertex = [0] * g.n if rooted else None
    for combo in itertools.combinations(range(g.n), k):
        mask = 0
        for v in combo:
            mask |= bit[v]
        if _subset_is_cycle(rows, combo, mask):
            total += 1
            if per_vertex is not None:
                for v in combo:
                    per_vertex[v] += 1
    report = CountReport(k=k, total=total)
    if per_vertex is not None:
        report.rooted = dict(enumerate(per_vertex))
    return report


def _paths3(adj, ncl, s, fk, t) -> int:
    """The induced 3-paths a-x-b with a in s, b in t, a and b distinct and
    non-adjacent, and x in fk.

    The count is symmetric in s and t, so the outer loop runs over the
    smaller set, as s; for each of its vertices z the edges between the far
    ends `t & ncl[z]` and the middles `adj[z] & fk` are counted, one
    popcount per vertex of the smaller of those two sides.
    """
    if s.bit_count() > t.bit_count():
        s, t = t, s
    total = 0
    while s:
        low = s & -s
        s ^= low
        z = low.bit_length() - 1
        ends = t & ncl[z]
        if ends:
            mids = adj[z] & fk
            if mids:
                if ends.bit_count() > mids.bit_count():
                    ends, mids = mids, ends
                while ends:
                    low = ends & -ends
                    ends ^= low
                    total += (adj[low.bit_length() - 1] & mids).bit_count()
    return total


def _walk(adj, ncl, cand, fk, ck, last) -> int:
    """Count the induced completions of partial cycle paths back to their root.

    The walk runs an explicit stack of levels. A level holds `cand`, the
    vertices that may come next after its tip, and the masks its children
    inherit: `fk`, the vertices still free to become interior path vertices,
    and `ck`, the vertices still free to close the cycle. Entering a vertex u
    clears its closed neighborhood `ncl[u]` (stored complemented) from both.
    The vertices chosen at levels `last - 1` and `last` are the last two
    before the closer. They get no level of their own: a vertex u at level
    `last - 2` closes its whole subtree at once, since its completions are
    the induced 3-paths from its candidates through a still-free vertex to
    its closers (`_paths3`). The caller passes the path's tip as the single
    candidate of level 0, with the masks of the path before it; for last = 1
    the tip's completions are those 3-paths, and for last = 0 the tip is
    itself penultimate.
    """
    if last == 0:
        return (adj[cand.bit_length() - 1] & ck).bit_count()
    if last == 1:
        return _paths3(adj, ncl, cand, fk, ck)
    ante = last - 2
    total = 0
    level = 0
    stack = []
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            nxt = adj[u] & fk
            nu = ncl[u]
            nck = ck & nu
            if nxt and nck:
                if level == ante:
                    total += _paths3(adj, ncl, nxt, fk & nu, nck)
                    continue
                stack.append((cand, fk, ck))
                cand = nxt
                fk &= nu
                ck = nck
                level += 1
        elif stack:
            cand, fk, ck = stack.pop()
            level -= 1
        else:
            return total


def _walk_weighted(adj, ncl, cand, fk, ck, last, w, prod, credit) -> int:
    """`_walk` with vertex weights w, crediting each vertex it adds.

    Each completion counts the product of the weights of its path's
    vertices instead of one: prod is the product for the path before the
    tip, and the walk multiplies in the weights of the vertices it adds,
    from the tip to the closer. Each of those vertices is credited in
    `credit` with the weights of the completions through it. With unit
    weights the total is `_walk`'s and a credit counts completions.
    """
    if last == 0:
        u = cand.bit_length() - 1
        pu = prod * w[u]
        closers = adj[u] & ck
        total = 0
        while closers:
            low = closers & -closers
            closers ^= low
            y = low.bit_length() - 1
            c = pu * w[y]
            credit[y] += c
            total += c
        credit[u] += total
        return total
    pen = last - 1
    total = 0
    level = 0
    stack = []
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            nxt = adj[u] & fk
            nu = ncl[u]
            nck = ck & nu
            if nxt and nck:
                if level == pen:
                    pu = prod * w[u]
                    sub = 0
                    while nck:
                        low = nck & -nck
                        nck ^= low
                        y = low.bit_length() - 1
                        xs = adj[y] & nxt
                        if xs:
                            py = pu * w[y]
                            c = 0
                            while xs:
                                low = xs & -xs
                                xs ^= low
                                x = low.bit_length() - 1
                                cx = py * w[x]
                                credit[x] += cx
                                c += cx
                            credit[y] += c
                            sub += c
                    total += sub
                    credit[u] += sub
                    continue
                stack.append((cand, fk, ck, u, total, prod))
                cand = nxt
                fk &= nu
                ck = nck
                prod *= w[u]
                level += 1
        elif stack:
            cand, fk, ck, u, before, prod = stack.pop()
            credit[u] += total - before
            level -= 1
        else:
            return total


def _check_vertices(g: Graph, *vertices: int) -> None:
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} leaves 0..{g.n - 1}")


def _through_root(adj, ncl, nbrs, free, k: int) -> int:
    """Induced k-cycles through a root whose other vertices lie in
    nbrs | free, where nbrs are the root's neighbors there and free its
    non-neighbors; the root lies in neither. Direction is broken by second
    vertex < closing vertex.

    The walks never enter the root, so its bit in the rows and open masks
    is never read: the cycles through a new vertex joined to a set s of a
    graph are counted with that graph's own rows and masks, nbrs = s and
    free = the rest of its vertices.
    """
    through = 0
    cand = nbrs
    while cand:
        low = cand & -cand
        cand ^= low
        close = nbrs & -(low << 1)
        if close:
            through += _walk(adj, ncl, low, free, close, k - 3)
    return through


def _count_roots(g: Graph, k: int, roots) -> int:
    """Induced k-cycles through each root whose other vertices all have
    labels above it, summed over `roots`: each cycle is found once, at its
    minimum label. Direction is broken by second vertex < closing vertex.
    """
    adj = g.rows
    ncl = g._open_masks()
    full = (1 << g.n) - 1
    total = 0
    for root in roots:
        above = full & -(2 << root)
        total += _through_root(adj, ncl, adj[root] & above, above & ncl[root], k)
    return total


def _credit_roots(g: Graph, k: int, roots, w, credit) -> int:
    """`_count_roots` with vertex weights w: the sum over the same cycles
    of the product of their vertices' weights, each cycle's vertices
    credited in `credit` with that product. Each root is walked as
    `_through_root` walks it, by `_walk_weighted`.
    """
    adj = g.rows
    ncl = g._open_masks()
    full = (1 << g.n) - 1
    total = 0
    for root in roots:
        above = full & -(2 << root)
        nbrs = adj[root] & above
        free = above & ncl[root]
        through = 0
        cand = nbrs
        while cand:
            low = cand & -cand
            cand ^= low
            close = nbrs & -(low << 1)
            if close:
                through += _walk_weighted(adj, ncl, low, free, close, k - 3, w, w[root], credit)
        credit[root] += through
        total += through
    return total


def _through_pair(adj, ncl, full, nbrs, v: int, w: int, k: int) -> int:
    """Induced k-cycles through both v and w, each walked once, from the
    side on which w is nearer to v, where v's neighbours are nbrs and
    every other row and open mask is that of adj and ncl; full is the
    vertex set.

    If w is in nbrs it is the second vertex and every other neighbor of v
    may close; this case is the count of the cycles through the edge vw,
    since adjacent vertices of an induced cycle are consecutive on it.
    Otherwise the prefix
    v, v1, ..., w of at most k // 2 edges is enumerated in either
    orientation: w is forced as the next vertex once it is a neighbor of the
    tip, and must come next at depth k // 2. The walk from w then closes the
    longer side. When both sides have k / 2 edges, v1 < closing vertex
    breaks the tie.

    The walks read v only through nbrs and the free mask, which is v's open
    mask with w's bit set whichever way the pair stands, and they read w's
    row and mask only away from bit v. So with nbrs = adj[v] ^ (1 << w) they
    count the cycles through v and w in the graph with the pair vw toggled,
    on the rows of the graph before the toggle.
    """
    wbit = 1 << w
    fk = (full & ncl[v]) | wbit
    if nbrs & wbit:
        return _walk(adj, ncl, wbit, fk, nbrs, k - 3)
    if k == 3:
        return 0
    # level `depth` picks the prefix vertex depth edges from v; fk and ck
    # exclude the closed neighborhoods of the vertices before it
    total = 0
    half = k // 2
    cand, ck, depth = nbrs, nbrs, 1
    stack = []
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            if depth == 1:
                above = -(low << 1)
            x = low.bit_length() - 1
            nxt = adj[x] & fk
            nu = ncl[x]
            nck = ck & nu
            if nxt & wbit:
                if 2 * depth + 2 == k:
                    nck &= above
                if nck:
                    total += _walk(adj, ncl, wbit, fk & nu, nck, k - 3 - depth)
            elif depth + 1 < half and nxt and nck:
                stack.append((cand, fk, ck))
                cand = nxt
                fk &= nu
                ck = nck
                depth += 1
        elif stack:
            cand, fk, ck = stack.pop()
            depth -= 1
        else:
            return total


# Below this order the degeneracy ordering costs about what it saves.
_ORDERED_FROM = 32


def _degeneracy_order(g: Graph) -> tuple[Graph, list[int], list[int]]:
    """g in degeneracy order, as (h, order, roots): order[i] of g is vertex i
    of h, and roots are the vertices of h with two neighbours after them.

    Vertex i of the order is the i-th one removed when each step removes a
    vertex of least degree among those left, the smallest label among ties,
    so each vertex has the fewest neighbours among the vertices after it.
    This is the smallest-last order of Matula and Beck (J. ACM 30, 1983)
    read backwards: they place the vertex removed first last. The bucket
    queue is one bitset of vertices per degree; a removal lowers the least
    degree by at most one, so the scan for the next nonempty bucket takes
    O(n + m) steps in all. The rows of h are built from integer ranks.

    A vertex removed with fewer than two neighbours left lies on no cycle of
    the vertices left, so h keeps only the vertices from the first root on;
    when there is none, g is a forest and h is the graph on no vertex. When
    the vertices kept are all of g in label order, as for the cycle 0, 1,
    ..., n - 1, h is g. The other vertices of h root no cycle either, so
    only the roots are counted from.
    """
    rows = g.rows
    degree = [row.bit_count() for row in rows]
    bucket = [0] * (max(degree) + 1)
    for v, d in enumerate(degree):
        bucket[d] |= 1 << v
    left = (1 << g.n) - 1
    order = []
    roots = []
    first, keep = g.n, 0
    d = 0
    for i in range(g.n):
        while not bucket[d]:
            d += 1
        if d >= 2:
            if not roots:
                first, keep = i, left
            roots.append(i - first)
        taken = bucket[d] & -bucket[d]
        bucket[d] ^= taken
        left ^= taken
        v = taken.bit_length() - 1
        order.append(v)
        later = rows[v] & left
        while later:
            low = later & -later
            later ^= low
            w = low.bit_length() - 1
            bucket[degree[w]] ^= low
            degree[w] -= 1
            bucket[degree[w]] |= low
        d = max(d - 1, 0)
    order = order[first:]
    if order == list(range(g.n)):
        return g, order, roots
    return Graph._trusted(len(order), _image(rows, order, keep)), order, roots


def _image(rows, verts, keep, rank=None) -> list[int]:
    """Rows of the graph whose vertex i stands for verts[i] and is joined to
    rank[w] for each neighbour w of verts[i] in keep; by default rank[w] is
    the position of w in verts, so the graph is the one verts induce."""
    if rank is None:
        rank = [0] * len(rows)
        for i, v in enumerate(verts):
            rank[v] = i
    image = []
    for v in verts:
        row = 0
        nbrs = rows[v] & keep
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row |= 1 << rank[low.bit_length() - 1]
        image.append(row)
    return image


def _ordered(g: Graph, k: int):
    """(h, order, roots) as `_degeneracy_order` gives them for n >= 32 and
    k > 3, else g itself in label order with every vertex a root."""
    if g.n >= _ORDERED_FROM and k > 3:
        return _degeneracy_order(g)
    return g, range(g.n), range(g.n)


def _count_kernel(g: Graph, k: int) -> int:
    """The induced k-cycles of g by the kernel alone, rooted as count_fast
    roots them: count_fast's total without the module path."""
    h, _, roots = _ordered(g, k)
    return _count_roots(h, k, roots)


def _count_roots_block(args) -> tuple[int, list[int] | None]:
    """One block of the pool: the total and, if rooted, the credit of its
    roots. It carries the rows, not a Graph, so only this module knows
    that processes exist."""
    n, rows, k, roots, rooted = args
    g = Graph._trusted(n, rows)
    if not rooted:
        return _count_roots(g, k, roots), None
    credit = [0] * n
    return _credit_roots(g, k, roots, [1] * n, credit), credit


def count_fast(g: Graph, k: int, rooted: bool = False, threads: int = 1) -> CountReport:
    """Induced k-cycle count via canonical path extension (3 <= k <= n).

    Each cycle is rooted at its first vertex in degeneracy order (each
    vertex has the fewest neighbours among the vertices after it) when
    n >= 32 and k >= 4, in label order otherwise, and walked in the one
    direction in which its second vertex comes before its closing one in
    that order. A total with k >= 5 and n >= 32 on one thread is counted
    through modules first (`modular._count_modular`): C_k is prime for
    k >= 5, so a blow-up's cycles are its quotient's, weighted by the part
    sizes, plus those inside its parts. Rooted counts, k <= 4 and n < 32
    take the kernel alone.
    With rooted=True the roots are walked by `_walk_weighted` with unit
    weights, which credits every vertex of every cycle in the same pass, so
    the per-vertex counts cost no extra enumeration. With threads > 1 the
    root loop is partitioned into `threads` blocks, run by at most one worker
    process per CPU; the reduction is integer addition, so results are
    identical regardless of thread count. threads < 1 is refused.
    """
    _check_k(g, k)
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if not rooted and threads == 1:
        if k >= 5 and g.n >= _ORDERED_FROM:
            from .modular import _count_modular  # kept off the import path

            return CountReport(k=k, total=_count_modular(g, k))
        return CountReport(k=k, total=_count_kernel(g, k))
    h, order, roots = _ordered(g, k)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept off the import path

        blocks = [(h.n, h.rows, k, roots[start::threads], rooted) for start in range(threads)]
        workers = min(threads, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_count_roots_block, blocks))
        total = sum(t for t, _ in parts)
        credit = [sum(c) for c in zip(*(c for _, c in parts))] if rooted else None
    else:
        credit = [0] * h.n
        total = _credit_roots(h, k, roots, [1] * h.n, credit)
    report = CountReport(k=k, total=total)
    if rooted:
        per_vertex = [0] * g.n
        for v, c in zip(order, credit):
            per_vertex[v] = c
        report.rooted = dict(enumerate(per_vertex))
    return report


def count_rooted(g: Graph, k: int, v: int) -> int:
    """Number of induced k-cycles containing the vertex v.

    Enumerates with v pinned as the root by `_walk`, independently of the
    crediting walk behind count_fast(rooted=True).
    """
    _check_k(g, k)
    _check_vertices(g, v)
    adj, ncl = g.rows, g._open_masks()
    return _through_root(adj, ncl, adj[v], ((1 << g.n) - 1) & ncl[v], k)


def count_cherry_rooted(g: Graph, k: int, u: int, v: int, w: int) -> int:
    """Number of induced k-cycles containing the induced 2-path u-v-w.

    Requires u, w to be distinct non-adjacent neighbors of v. Since u and w
    are adjacent to v, any induced cycle through all three must use u and w
    as the cycle neighbors of v, and no triangle holds a cherry: 4 <= k <= n.
    """
    if not 4 <= k <= g.n:
        raise ValueError(f"need 4 <= k <= n={g.n}, got k={k}")
    _check_vertices(g, u, v, w)
    if u == w:
        raise ValueError("cherry endpoints must be distinct")
    rows = g.rows
    if not ((rows[u] >> v) & 1 and (rows[v] >> w) & 1):
        raise ValueError(f"{u} and {w} must both be neighbors of {v}")
    if (rows[u] >> w) & 1:
        raise ValueError(f"cherry endpoints {u}, {w} must be non-adjacent")
    ncl = g._open_masks()
    free = ((1 << g.n) - 1) & ncl[u] & ncl[v]
    return _walk(rows, ncl, 1 << w, free, rows[u] & ncl[v], k - 4)


def count_containing_pair(g: Graph, k: int, v: int, w: int) -> int:
    """Number of induced k-cycles containing both v and w (any adjacency):
    for an edge vw, the cycles that traverse it."""
    if v == w:
        raise ValueError("pair count needs two distinct vertices")
    _check_k(g, k)
    _check_vertices(g, v, w)
    return _through_pair(g.rows, g._open_masks(), (1 << g.n) - 1, g.rows[v], v, w, k)


def symmetrise(g: Graph, v_minus: int, v_plus: int) -> Graph:
    """Replace v_minus by a non-adjacent twin of v_plus.

    All edges at v_minus are deleted and v_minus is reconnected to exactly
    the neighbors of v_plus (excluding v_plus itself), producing a
    non-adjacent pair with identical neighborhoods. For k >= 5 no induced
    k-cycle can contain such a twin pair, which yields the exact update
    identity for the global count; for k = 4 twins can share a cycle and the
    identity fails.
    """
    _check_vertices(g, v_minus, v_plus)
    if v_minus == v_plus:
        raise ValueError("symmetrise needs two distinct vertices")
    twin_row = g.rows[v_plus] & ~(1 << v_minus)
    rows = []
    for u in range(g.n):
        if u == v_minus:
            rows.append(twin_row)
        else:
            row = g.rows[u] & ~(1 << v_minus)
            if (twin_row >> u) & 1:
                row |= 1 << v_minus
            rows.append(row)
    return Graph._trusted(g.n, rows)
