"""Closed-form ceilings."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecount.bounds import (
    RATIO_UPPER,
    cherry_bound,
    edge_bound,
    vertex_bound,
)
from cyclecount.constructions import cycle, petersen, random_graph
from cyclecount.counting import (
    count_cherry_rooted,
    count_containing_pair,
    count_fast,
    count_rooted,
)
from cyclecount.suites import _exceeds, _lemma_instances


def test_constants():
    assert RATIO_UPPER == 128 * math.e / 81
    assert 4.2955 < RATIO_UPPER < 4.2956


def test_vertex_bound_worked_example():
    # degree-2 vertex of C_6: (1/2)*4*((6-2-1)/3)^3 = 2
    assert vertex_bound(6, 6, 2) == 2.0
    assert count_rooted(cycle(6), 6, 0) == 1 <= 2.0
    assert vertex_bound(9, 6, 0) == 0.0


def test_edge_bound_worked_example():
    # edge of C_6, degrees 2 and 2, codegree 0: 4*(2/2)^2 = 4
    assert edge_bound(6, 6, 2, 2, 0) == 4.0
    assert count_containing_pair(cycle(6), 6, 0, 1) == 1 <= 4.0
    # codegree swallows one endpoint's free choices
    assert edge_bound(10, 6, 3, 5, 3) == 0.0


def test_cherry_bound_worked_example():
    # cherry of C_7: left = right = 1, ground (7-6)/1 = 1 -> bound 1, count 1
    assert cherry_bound(7, 7, 2, 2, 2, 0, 0, 0, 0) == 1.0
    assert count_cherry_rooted(cycle(7), 7, 6, 0, 1) == 1
    assert cherry_bound(10, 6, 2, 3, 4, 1, 0, 1, 0) == 0.0  # first factor 0


@given(
    st.integers(min_value=9, max_value=14),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([5, 6, 7]),
)
def test_bounds_hold_on_random_graphs(n, seed, k):
    g = random_graph(n, 0.45, seed)
    for lemma, vertices, count, ceiling, constant in _lemma_instances(g, k):
        assert not _exceeds(count, ceiling, constant), (lemma, vertices)


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


def test_cherry_bound_rejects_negative_terms():
    with pytest.raises(ValueError, match="negative inclusion-exclusion"):
        cherry_bound(10, 6, 1, 5, 1, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="ground"):
        cherry_bound(6, 6, 5, 5, 5, 2, 2, 2, 0)
