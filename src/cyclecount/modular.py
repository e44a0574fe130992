"""Counting induced k-cycles for k >= 5 through modules, for `count_fast`.

A module is a vertex set that every vertex outside it sees all of or none
of. C_k is prime for k >= 5: its only modules are its single vertices and
the whole. So if the parts of a partition of a graph are modules, an induced
C_k meets each part in a module of the C_k: it lies inside one part or meets
every part at most once (Gallai 1967). The cycles of the second kind are the
induced k-cycles of the quotient, the graph with one vertex per part, joined
as the parts are, each counted with the product of its parts' sizes. A
blow-up of C_k is thus counted from its quotient, C_k itself, and its parts,
not cycle by cycle. This module finds the parts; the quotient is walked by
`counting._credit_roots`, the same weighted walk that gives `count_fast`'s
per-vertex vector, with the part sizes as weights, and its credits go
unused here.

`count_fast` imports this module only when it takes this path, a total with
k >= 5 on n >= 32 vertices on one thread, so the other counts do not load
it.
"""

from __future__ import annotations

from collections import Counter

from .counting import (
    _count_kernel,
    _count_roots,
    _credit_roots,
    _degeneracy_order,
    _image,
    _ordered,
)
from .graph import Graph


def _pivot(adj, s: int) -> int | None:
    """The first vertex of s that is neither isolated nor universal in G[s];
    None when G[s] is edgeless or complete."""
    size = s.bit_count()
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if 0 < (adj[v] & s).bit_count() < size - 1:
            return v
    return None


def _modules(adj, s: int, v: int, k: int):
    """The maximal modules of G[s] that do not contain v, and {v}, as
    (parts, sizes, index) with index[u] the position in parts of the part
    of each u in s; None once the parts cannot pay for a quotient: every
    part has fewer than k vertices and the parts outnumber half of s. Parts
    only split, so that state is final. It holds when every part is a
    single vertex, and when the only modules are a few small twin sets, as
    in sparse random graphs: then no part is worth pushing and the quotient
    is nearly G[s] itself, so the kernel counts G[s] whole.

    A module is a vertex set that every vertex outside it sees all of or
    none of. Partition refinement (Ehrenfeucht, Gabow, McConnell and
    Sullivan, J. Algorithms 16, 1994) starts from {v} and s - {v} and splits
    a part whenever a vertex outside it sees some but not all of it. Such a
    vertex lies outside every module inside that part, so a module without v
    never straddles two parts, and once no vertex splits another's part the
    parts are the maximal modules without v. A vertex must be re-run as a
    pivot only when its own part splits. Each split keeps the larger half in
    place and queues the vertices of the smaller half; the smaller half is at
    once cut into classes by their neighbours in the larger half, which is
    all that the larger half's vertices, left unqueued, could split there.
    So a vertex is queued at most log2 |s| times. A pivot reaches the parts
    through its neighbours, or scans the parts when they are fewer.
    """
    size = s.bit_count()
    parts, counts = [1 << v, s ^ (1 << v)], [1, size - 1]
    big = int(size - 1 >= k)  # the parts of at least k vertices
    index = [1] * len(adj)
    index[v] = 0
    pending = [v]
    while pending and (big or 2 * len(parts) <= size):
        y = pending.pop()
        cut = adj[y] & s
        # the parts y's neighbours lie in, with how many each, unless y has
        # more neighbours than there are parts
        touched: dict = {}
        rest = cut
        for _ in range(len(parts)):
            if not rest:
                break
            u = rest.bit_length() - 1
            rest ^= 1 << u
            touched[index[u]] = touched.get(index[u], 0) + 1
        if rest:
            touched = dict.fromkeys(range(len(parts)))
        touched.pop(index[y], None)
        for i, c in touched.items():
            part = parts[i]
            small = part & cut
            if c is None:
                c = small.bit_count()
            if not c or c == counts[i]:
                continue
            if 2 * c > counts[i]:
                small ^= part
                c = counts[i] - c
            large = part ^ small
            parts[i] = large
            if counts[i] >= k > counts[i] - c:
                big -= 1
            counts[i] -= c
            if c == 1:
                pieces = [small]
            else:
                classes: dict[int, int] = {}
                rest = small
                while rest:
                    low = rest & -rest
                    rest ^= low
                    key = adj[low.bit_length() - 1] & large
                    classes[key] = classes.get(key, 0) | low
                pieces = classes.values()
            for piece in pieces:
                j = len(parts)
                parts.append(piece)
                counts.append(0)
                while piece:
                    u = piece.bit_length() - 1
                    piece ^= 1 << u
                    index[u] = j
                    counts[j] += 1
                    pending.append(u)
                big += counts[j] >= k
    return (parts, counts, index) if big or 2 * len(parts) <= size else None


def _count_modular(g: Graph, k: int, work=None) -> int:
    """The induced k-cycles of g for k >= 5, counted through modules.

    A vertex with fewer than two neighbours lies on no cycle. If g has one,
    it is counted as h, its 2-core: g's degeneracy order drops such vertices
    and every vertex they strand, which keeps isolated vertices and pendant
    trees, with their many small modules, away from the screen. Otherwise h
    is g, and nothing is ordered up front. A worklist of vertex sets s, from
    all of h, splits each s at a pivot of `_pivot` into the modules of
    `_modules`, adds the weighted count of their quotient and pushes the
    parts of at least k vertices. When the parts cannot pay for a quotient,
    the kernel counts G[s]; when no pivot exists, G[s] is edgeless or
    complete and holds no induced k-cycle.

    work: if a Counter, it counts the quotients formed, the parts pushed
    and the kernel calls.
    """
    if work is None:
        work = Counter()
    h, roots = g, None
    if any(row.bit_count() < 2 for row in g.rows):
        h, _, roots = _degeneracy_order(g)
    adj = h.rows
    full = (1 << h.n) - 1
    total = 0
    todo = [full]
    while todo:
        s = todo.pop()
        v = _pivot(adj, s)
        if v is None:
            continue
        split = _modules(adj, s, v, k)
        if split is None:
            work["kernels"] += 1
            if s == full:
                total += _count_kernel(h, k) if roots is None else _count_roots(h, k, roots)
                continue
            verts = []
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                verts.append(low.bit_length() - 1)
            total += _count_kernel(Graph._trusted(len(verts), _image(adj, verts, s)), k)
            continue
        parts, sizes, index = split
        if len(parts) >= k:
            work["quotients"] += 1
            reps = [(part & -part).bit_length() - 1 for part in parts]
            rows = _image(adj, reps, s, index)
            quotient = Graph._trusted(len(parts), [row & ~(1 << i) for i, row in enumerate(rows)])
            q, order, roots = _ordered(quotient, k)
            total += _credit_roots(q, k, roots, [sizes[i] for i in order], [0] * q.n)
        for part, size in zip(parts, sizes):
            if size >= k:
                work["parts"] += 1
                todo.append(part)
    return total
