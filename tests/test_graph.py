"""Graph container invariants, mostly property-based."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecount.graph import (
    Graph,
    codegree,
    from_edge_list,
    nonadjacent_neighbor_pairs,
    triple_codegree,
)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                 else st.just([]))
    return from_edge_list(n, picks)


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges


@given(graphs())
def test_edges_match_adjacency(g):
    es = g.edges()
    assert es == sorted(es)
    assert len(es) == g.num_edges
    for u, w in es:
        assert u < w and g.has_edge(u, w) and g.has_edge(w, u)


@given(graphs(max_n=9))
def test_codegree_bounds(g):
    for u, w in itertools.combinations(range(g.n), 2):
        x = codegree(g, u, w)
        assert 0 <= x <= min(g.degree(u), g.degree(w))
        both = set(g.neighbors(u)) & set(g.neighbors(w))
        assert x == len(both)


@given(graphs(max_n=9))
def test_triple_codegree_matches_sets(g):
    for u, v, w in itertools.combinations(range(g.n), 3):
        z = triple_codegree(g, u, v, w)
        expect = set(g.neighbors(u)) & set(g.neighbors(v)) & set(g.neighbors(w))
        assert z == len(expect)


@given(graphs(max_n=10))
def test_nonadjacent_neighbor_pairs_are_cherries(g):
    for v in range(g.n):
        pairs = nonadjacent_neighbor_pairs(g, v)
        assert len(pairs) % 2 == 0
        for u, w in pairs:
            assert u != w and g.has_edge(u, v) and g.has_edge(v, w)
            assert not g.has_edge(u, w)
        assert set(pairs) == {(w, u) for u, w in pairs}
        nbrs = g.neighbors(v)
        assert pairs == [(u, w) for u in nbrs for w in nbrs if u != w and not g.has_edge(u, w)]


def test_codegree_worked_examples():
    from cyclecount.constructions import complete_graph, cycle

    c4 = cycle(4)
    assert codegree(c4, 0, 2) == 2  # opposite vertices
    c5 = cycle(5)
    assert codegree(c5, 0, 1) == 0  # adjacent pair of a girth-5 graph
    k5 = complete_graph(5)
    assert codegree(k5, 1, 3) == 3
    assert triple_codegree(complete_graph(4), 0, 1, 2) == 1
    c6 = cycle(6)
    for u, v, w in itertools.combinations(range(6), 3):
        assert triple_codegree(c6, u, v, w) == 0
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert triple_codegree(star, 1, 2, 3) == 1  # the center
    assert len(nonadjacent_neighbor_pairs(star, 0)) == 6
    assert nonadjacent_neighbor_pairs(complete_graph(4), 0) == []
    assert len(nonadjacent_neighbor_pairs(cycle(5), 2)) == 2


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [0b10])  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b00])  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0b000])  # row bit out of range
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_graph_is_immutable_and_hashable():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
    assert hash(g) == hash(from_edge_list(3, [(0, 1)]))


def test_trusted_constructor_builds_an_equal_immutable_graph():
    g = from_edge_list(4, [(0, 1), (1, 2)])
    t = Graph._trusted(4, list(g.rows))
    assert t == g and hash(t) == hash(g) and isinstance(t.rows, tuple)
    with pytest.raises(AttributeError):
        t.n = 5


@given(graphs())
def test_open_masks_are_cached_outside_equality_and_hashing(g):
    fresh = Graph(g.n, g.rows)
    masks = g._open_masks()
    assert masks == tuple(~(row | (1 << v)) for v, row in enumerate(g.rows))
    assert g._open_masks() is masks
    # a filled cache changes neither equality nor hashing
    assert g == fresh and hash(g) == hash(fresh)
    with pytest.raises(AttributeError):
        g._open = ()


def test_min_degree_vertex_breaks_ties_low():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert g.min_degree_vertex() == 0
    assert g.degree_sequence() == [1, 1, 1, 1]
