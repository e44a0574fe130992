"""Constructions: blow-ups, iterated blow-ups, random graphs, Petersen."""

from fractions import Fraction
from math import comb

import pytest

from cyclecount.constructions import (
    balanced_part_sizes,
    blow_up,
    complete_bipartite,
    complete_graph,
    cycle,
    iterated_blow_up,
    iterated_blowup_cycle_count,
    petersen,
    random_graph,
)
from cyclecount.counting import count_fast, count_oracle
from cyclecount.graph import codegree


def test_cycle_basic():
    g = cycle(5)
    assert g.n == 5 and g.num_edges == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_graphs():
    assert complete_graph(5).num_edges == 10
    g = complete_bipartite(2, 5)
    assert g.n == 7 and g.num_edges == 10
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_blowup_count_is_t_to_the_5(t):
    g = blow_up(cycle(5), [t] * 5)
    assert g.n == 5 * t
    want = t**5
    assert count_oracle(g, 5).total == want
    assert count_fast(g, 5).total == want


def test_blowup_count_general_k():
    # one vertex per part in every way; holds for any k >= 5 blow-up
    for k in (5, 6, 7):
        g = blow_up(cycle(k), [2] * k)
        assert count_fast(g, k).total == 2**k


def test_identity_blowup_is_the_base_graph():
    assert blow_up(cycle(5), [1] * 5) == cycle(5)
    assert iterated_blow_up(cycle(5), 1) == cycle(5)


def test_small_bipartite_and_cycle_counts():
    assert count_oracle(complete_bipartite(2, 2), 4).total == 1
    assert count_oracle(cycle(6), 4).total == 0


def test_blowup_uneven_parts():
    g = blow_up(cycle(5), [1, 2, 1, 2, 1])
    assert count_fast(g, 5).total == 1 * 2 * 1 * 2 * 1


def test_blowup_rejects_bad_sizes():
    with pytest.raises(ValueError):
        blow_up(cycle(5), [1, 1, 1, 1])
    with pytest.raises(ValueError):
        blow_up(cycle(5), [0, 1, 1, 1, 1])


def test_blowup_keeps_the_edges_of_graph_parts():
    base = cycle(4)
    parts = [complete_graph(2), 1, cycle(3), petersen()]
    g = blow_up(base, parts)
    orders = [2, 1, 3, 10]
    assert g.n == sum(orders)
    # vertex v of the blow-up is vertex v - start[i] of part i
    where = [(i, x) for i, size in enumerate(orders) for x in range(size)]
    for v in range(g.n):
        for w in range(g.n):
            (i, x), (j, y) = where[v], where[w]
            if i != j:
                want = base.has_edge(i, j)
            else:
                want = not isinstance(parts[i], int) and parts[i].has_edge(x, y)
            assert g.has_edge(v, w) == want, (v, w)


def test_blowup_of_graph_parts_is_one_iteration():
    c5 = cycle(5)
    assert blow_up(c5, [c5] * 5) == iterated_blow_up(c5, 2)
    assert blow_up(c5, [iterated_blow_up(c5, 2)] * 5) == iterated_blow_up(c5, 3)
    assert blow_up(c5, [complete_graph(1), 2, 1, 2, 1]) == blow_up(c5, [1, 2, 1, 2, 1])


def test_balanced_part_sizes():
    assert balanced_part_sizes(11, 5) == [3, 2, 2, 2, 2]
    assert balanced_part_sizes(10, 5) == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        balanced_part_sizes(4, 5)


def test_iterated_blowup_depth2_frozen():
    g = iterated_blow_up(cycle(5), 2)
    assert g.n == 25
    want = iterated_blowup_cycle_count(5, 2)
    assert want == 3130
    assert count_fast(g, 5).total == want
    assert count_oracle(g, 5).total == want


def test_iterated_blowup_density_beats_1_over_26():
    total = iterated_blowup_cycle_count(5, 2)
    assert Fraction(total, comb(25, 5)) > Fraction(1, 26)


def test_iterated_blowup_recursion():
    assert iterated_blowup_cycle_count(5, 1) == 1
    assert iterated_blowup_cycle_count(5, 3) == 5**10 + 5 * 3130
    g6 = iterated_blow_up(cycle(6), 2)
    assert g6.n == 36
    assert count_fast(g6, 6).total == iterated_blowup_cycle_count(6, 2)


def test_iterated_count_formula_breaks_at_k4():
    # two vertices from each of two adjacent parts give a K_{2,2}: an induced
    # 4-cycle outside the one-per-part decomposition, so no closed form here
    with pytest.raises(ValueError):
        iterated_blowup_cycle_count(4, 2)
    g2 = iterated_blow_up(cycle(4), 2)
    naive = 4**4 + 4 * 1
    assert count_fast(g2, 4).total == 404 > naive


def test_iterated_blowup_needs_cycle_base():
    with pytest.raises(ValueError):
        iterated_blow_up(complete_graph(4), 2)
    with pytest.raises(ValueError):
        iterated_blow_up(cycle(5), 0)


def test_random_graph_is_deterministic():
    a = random_graph(20, 0.5, 42)
    b = random_graph(20, 0.5, 42)
    assert a == b
    c = random_graph(20, 0.5, 43)
    assert a != c
    # frozen from the pinned generator family
    assert a.num_edges == 98


def test_random_graph_extremes():
    assert random_graph(10, 0.0, 1).num_edges == 0
    assert random_graph(10, 1.0, 1).num_edges == 45
    with pytest.raises(ValueError):
        random_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 1)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.num_edges == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # girth 5: adjacent vertices share no neighbor, nonadjacent share exactly one
    for u in range(10):
        for w in range(u + 1, 10):
            assert codegree(g, u, w) == (0 if g.has_edge(u, w) else 1)


def test_blowup_spec():
    # the blowup:CK:t and iterated-blowup:CK:depth=M specs call these directly
    assert count_fast(blow_up(cycle(5), (2,) * 5), 5).total == 32
    assert iterated_blow_up(cycle(5), 2).n == 25
    with pytest.raises(ValueError):
        blow_up(cycle(5), (1, 1))
    for depth in (0, -2):
        with pytest.raises(ValueError, match="depth"):
            iterated_blow_up(cycle(5), depth)
