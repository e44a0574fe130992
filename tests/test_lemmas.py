"""The paper's local lemmas on every graph with at most 7 vertices, exactly.

For every isomorphism class and every k = 5..n the sweep checks the
instances the bounds suite checks on its corpus (the vertex and edge
ceilings, the cherry ceiling for k >= 6 and the global ceiling 2e (n/k)^k,
from the suite's own `_lemma_instances`), and, for k >= 6, the min-degree
ceiling (128e/81)(n/k)^(k-1) without the headline suite's (1 + 10/n)
slack. The 12,346 classes on 8 vertices take about 30 s and run only with
CYCLECOUNT_RUN_SLOW=1.
"""

import os
from fractions import Fraction

import pytest

from cyclecount.counting import count_rooted
from cyclecount.graph import Graph
from cyclecount.io import to_graph6
from cyclecount.suites import RATIO_LOWER, _exceeds, _lemma_instances

from graph_classes import all_classes

SLOW = os.environ.get("CYCLECOUNT_RUN_SLOW") == "1"

# the largest count/ceiling ratio of each lemma over every class, against the
# rational part for the ceilings that contain e
PEAKS = {
    5: {"vertex": Fraction(1, 2), "edge": Fraction(1, 4), "global": Fraction(1, 2)},
    6: {"vertex": Fraction(1, 2), "edge": Fraction(1, 3), "global": Fraction(1, 2),
        "cherry": 1, "min_degree": 1},
    7: {"vertex": Fraction(1, 2), "edge": Fraction(4, 9), "global": Fraction(1, 2),
        "cherry": 1, "min_degree": 1},
}


def _instances(g: Graph, k: int):
    """The bounds suite's instances of g at k, then for k >= 6 the min-degree
    ceiling at each vertex of minimum degree, which no suite checks without
    its (1 + 10/n) slack."""
    yield from _lemma_instances(g, k)
    if k < 6:
        return
    degs = g.degree_sequence()
    low = min(degs)
    for v in range(g.n):
        if degs[v] == low:
            yield ("min_degree", (v,), count_rooted(g, k, v),
                   Fraction(g.n, k) ** (k - 1), ("128e/81", RATIO_LOWER))


def _sweep(n: int) -> dict[str, Fraction]:
    """Asserts every lemma on every n-vertex class; returns the peak ratio
    of each lemma."""
    peak = {}
    for rows in all_classes(n):
        g = Graph(n, rows)
        for k in range(5, n + 1):
            for lemma, vertices, count, ceiling, constant in _instances(g, k):
                assert not _exceeds(count, ceiling, constant), (
                    lemma, vertices, k, count, str(ceiling), to_graph6(g))
                if ceiling:
                    ratio = Fraction(count) / ceiling
                    peak[lemma] = max(peak.get(lemma, ratio), ratio)
    return peak


def test_lemmas_hold_on_every_graph_up_to_7_vertices():
    # the cherry and min-degree ceilings are attained (by C_6 and C_7 among
    # others), so they are exactly where a rounded comparison could have
    # decided the outcome
    assert {n: _sweep(n) for n in PEAKS} == PEAKS


@pytest.mark.skipif(not SLOW, reason="about 30 s; set CYCLECOUNT_RUN_SLOW=1")
def test_lemmas_hold_on_every_graph_on_8_vertices():
    assert _sweep(8)["cherry"] == 1
