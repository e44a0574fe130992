"""The paper's local lemmas on every graph with at most 7 vertices, exactly.

For every isomorphism class and every k = 5..n the sweep checks the vertex
and edge ceilings, the cherry ceiling for k >= 6, the global ceiling
2e (n/k)^k, and, for k >= 6, the min-degree ceiling (128e/81)(n/k)^(k-1)
without the headline suite's (1 + 10/n) slack. The 12,346 classes on 8
vertices take about 30 s and run only with CYCLECOUNT_RUN_SLOW=1.
"""

import os
from fractions import Fraction

import pytest

from cyclecount.bounds import cherry_bound, edge_bound, vertex_bound
from cyclecount.counting import count_cherry_rooted, count_edge_rooted, count_fast
from cyclecount.graph import (
    Graph,
    codegree,
    nonadjacent_neighbor_pairs,
    triple_codegree,
)
from cyclecount.io import to_graph6
from cyclecount.suites import E_LOWER, RATIO_LOWER

from graph_classes import all_classes

SLOW = os.environ.get("CYCLECOUNT_RUN_SLOW") == "1"


def _instances(g: Graph, k: int):
    """(lemma, count, ceiling, low) for every instance of every lemma on g
    at k. With low None the ceiling is exact; otherwise the true ceiling is
    a constant times the rational `ceiling`, and low is a float proved to be
    at most that constant."""
    n = g.n
    degs = g.degree_sequence()
    report = count_fast(g, k, rooted=True)
    yield "global", report.total, 2 * Fraction(n, k) ** k, E_LOWER
    for v in range(n):
        yield "vertex", report.rooted[v], vertex_bound(n, k, degs[v]), None
    for u, w in g.edges():
        ceiling = edge_bound(n, k, degs[u], degs[w], codegree(g, u, w))
        yield "edge", count_edge_rooted(g, k, u, w), ceiling, None
    if k < 6:
        return
    for v in range(n):
        for u, w in nonadjacent_neighbor_pairs(g, v):
            ceiling = cherry_bound(
                n, k, degs[u], degs[v], degs[w],
                codegree(g, u, v), codegree(g, v, w), codegree(g, u, w),
                triple_codegree(g, u, v, w),
            )
            yield "cherry", count_cherry_rooted(g, k, u, v, w), ceiling, None
    low = min(degs)
    for v in range(n):
        if degs[v] == low:
            yield "min_degree", report.rooted[v], Fraction(n, k) ** (k - 1), RATIO_LOWER


def _sweep(n: int) -> dict[str, Fraction]:
    """Asserts every lemma on every n-vertex class; returns the largest
    count/ceiling ratio of each lemma, against the rational part for the
    ceilings that contain e."""
    peak = {}
    for rows in all_classes(n):
        g = Graph(n, rows)
        for k in range(5, n + 1):
            for lemma, count, ceiling, low in _instances(g, k):
                if low is None:
                    assert count <= ceiling, (lemma, k, count, str(ceiling), to_graph6(g))
                    if not ceiling:
                        continue
                ratio = Fraction(count) / ceiling
                assert low is None or ratio <= low, (lemma, k, count, str(ceiling), to_graph6(g))
                peak[lemma] = max(peak.get(lemma, ratio), ratio)
    return peak


def test_lemmas_hold_on_every_graph_up_to_7_vertices():
    peaks = {n: _sweep(n) for n in (5, 6, 7)}
    # the cherry ceiling is attained (by C_6 and C_7 among others), so it is
    # exactly where a rounded comparison could have decided the outcome
    assert peaks[6]["cherry"] == peaks[7]["cherry"] == 1
    assert all(set(peaks[n]) == {"global", "vertex", "edge", "cherry", "min_degree"}
               for n in (6, 7))


@pytest.mark.skipif(not SLOW, reason="about 30 s; set CYCLECOUNT_RUN_SLOW=1")
def test_lemmas_hold_on_every_graph_on_8_vertices():
    assert _sweep(8)["cherry"] == 1
