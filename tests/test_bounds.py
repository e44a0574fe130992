"""Closed-form ceilings and the density bracket."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecount.bounds import (
    PG_CONSTANT,
    RATIO_UPPER,
    REL_EPS,
    cherry_bound,
    density_sequence,
    edge_bound,
    global_pg_bound,
    inducibility_bracket,
    vertex_bound,
    vertex_bound_relaxed,
)
from cyclecount.constructions import cycle, petersen, random_graph
from cyclecount.counting import (
    count_cherry_rooted,
    count_edge_rooted,
    count_fast,
    count_rooted,
)
from cyclecount.graph import codegree, nonadjacent_neighbor_pairs, triple_codegree


def test_constants():
    assert RATIO_UPPER == 128 * math.e / 81
    assert PG_CONSTANT == 2 * math.e
    assert 4.2955 < RATIO_UPPER < 4.2956


def test_vertex_bound_worked_example():
    # degree-2 vertex of C_6: (1/2)*4*((6-2-1)/3)^3 = 2
    assert vertex_bound(6, 6, 2) == 2.0
    assert count_rooted(cycle(6), 6, 0) == 1 <= 2.0
    assert vertex_bound(9, 6, 0) == 0.0


def test_edge_bound_worked_example():
    # edge of C_6, degrees 2 and 2, codegree 0: 4*(2/2)^2 = 4
    assert edge_bound(6, 6, 2, 2, 0) == 4.0
    assert count_edge_rooted(cycle(6), 6, 0, 1) == 1 <= 4.0
    # codegree swallows one endpoint's free choices
    assert edge_bound(10, 6, 3, 5, 3) == 0.0


def test_cherry_bound_worked_example():
    # cherry of C_7: left = right = 1, ground (7-6)/1 = 1 -> bound 1, count 1
    assert cherry_bound(7, 7, 2, 2, 2, 0, 0, 0, 0) == 1.0
    assert count_cherry_rooted(cycle(7), 7, 6, 0, 1) == 1
    assert cherry_bound(10, 6, 2, 3, 4, 1, 0, 1, 0) == 0.0  # first factor 0


def test_global_bound_worked_example():
    assert abs(global_pg_bound(10, 5) - 64 * math.e) < 1e-9
    for k in (4, 5, 8):
        assert abs(global_pg_bound(k, k) - PG_CONSTANT) < 1e-12


def test_relaxed_vertex_bound_maximizer():
    # d (n-d)^(k-3) style product peaks at d* = 2n/(k-1)
    n, k = 30, 7
    dstar = 2 * n / (k - 1)
    peak = vertex_bound_relaxed(n, k, dstar)
    assert abs(peak - 2 * (n / (k - 1)) ** (k - 1)) < 1e-8
    for d in (dstar - 0.5, dstar + 0.5, 1.0, n - 1.0):
        assert vertex_bound_relaxed(n, k, d) <= peak + 1e-12
    # relaxed dominates the exact form at integer degrees
    for d in range(n):
        assert vertex_bound(n, k, d) <= vertex_bound_relaxed(n, k, d) + 1e-12
    # and the peak itself sits below 2e n^(k-1)/k^(k-1)
    chain_top = 2 * math.e * n ** (k - 1) / k ** (k - 1)
    assert peak <= chain_top
    for d in range(n):
        assert vertex_bound(n, k, d) <= chain_top * (1 + 1e-12)


@given(
    st.integers(min_value=9, max_value=14),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([5, 6, 7]),
)
def test_bounds_hold_on_random_graphs(n, seed, k):
    g = random_graph(n, 0.45, seed)
    if k > g.n:
        return
    rep = count_fast(g, k, rooted=True)
    assert rep.total <= global_pg_bound(g.n, k) * (1 + REL_EPS)
    for v in range(g.n):
        assert rep.rooted[v] <= vertex_bound(g.n, k, g.degree(v)) * (1 + REL_EPS)
        if k >= 5:
            for w in g.neighbors(v):
                b = edge_bound(g.n, k, g.degree(v), g.degree(w), codegree(g, v, w))
                assert count_edge_rooted(g, k, v, w) <= b * (1 + REL_EPS)
        if k >= 6:
            for u, w in nonadjacent_neighbor_pairs(g, v):
                b = cherry_bound(
                    g.n, k, g.degree(u), g.degree(v), g.degree(w),
                    codegree(g, u, v), codegree(g, v, w), codegree(g, u, w),
                    triple_codegree(g, u, v, w),
                )
                assert count_cherry_rooted(g, k, u, v, w) <= b * (1 + REL_EPS)


def test_petersen_vertex_bound():
    rep = count_fast(petersen(), 5, rooted=True)
    ceiling = vertex_bound(10, 5, 3)
    assert all(rep.rooted[v] <= ceiling for v in range(10))


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        vertex_bound(6, 3, 2)
    with pytest.raises(ValueError):
        vertex_bound(6, 6, 6)
    with pytest.raises(ValueError):
        edge_bound(6, 4, 2, 2, 0)  # needs k >= 5
    with pytest.raises(ValueError):
        edge_bound(6, 6, 2, 2, 3)  # codegree above min degree
    with pytest.raises(ValueError):
        cherry_bound(7, 5, 2, 2, 2, 0, 0, 0, 0)  # needs k >= 6
    with pytest.raises(ValueError):
        global_pg_bound(4, 5)


def test_cherry_bound_rejects_negative_terms():
    with pytest.raises(ValueError, match="negative inclusion-exclusion"):
        cherry_bound(10, 6, 1, 5, 1, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="ground"):
        cherry_bound(6, 6, 5, 5, 5, 2, 2, 2, 0)


def test_inducibility_bracket():
    lo, hi = inducibility_bracket(5)
    assert lo == Fraction(1, 26)
    assert math.isclose(hi, RATIO_UPPER * 120 / 3125, rel_tol=1e-15)
    assert float(lo) < hi
    for k in (5, 6, 7, 9):
        lo, hi = inducibility_bracket(k)
        fact = math.factorial(k)
        assert lo == Fraction(fact, k**k - k)
        assert math.isclose(hi / (fact / k**k), RATIO_UPPER, rel_tol=1e-12)
        assert float(lo) < hi
    # upper/lower = RATIO_UPPER * (1 - k^(1-k)): converges fast from below
    lo10, hi10 = inducibility_bracket(10)
    ratio = hi10 / float(lo10)
    assert abs(ratio - RATIO_UPPER) / RATIO_UPPER < 0.01
    assert math.isclose(ratio / (1 - 10 ** (1 - 10)), RATIO_UPPER, rel_tol=1e-9)
    with pytest.raises(ValueError):
        inducibility_bracket(4)


def test_density_sequence():
    rep = density_sequence(4, {4: 1, 5: 3, 6: 9, 7: 18})
    assert rep.densities == [
        (4, Fraction(1, 1)),
        (5, Fraction(3, 5)),
        (6, Fraction(3, 5)),
        (7, Fraction(18, 35)),
    ]
    assert rep.monotone and rep.violations == []
    bad = density_sequence(4, {4: 1, 5: 6})
    assert not bad.monotone and bad.violations == [5]
    with pytest.raises(ValueError):
        density_sequence(4, {4: 1, 6: 9})
    with pytest.raises(ValueError):
        density_sequence(5, {4: 1, 5: 1})
