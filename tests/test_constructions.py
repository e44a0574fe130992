"""Constructions: blow-ups, nested blow-ups, random graphs, Petersen."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cyclecount import constructions
from cyclecount.constructions import (
    _nested_edges,
    balanced_part_sizes,
    blow_up,
    complete_bipartite,
    complete_graph,
    cycle,
    nested_blow_up,
    petersen,
    random_graph,
)
from cyclecount.cli import parse_construct
from cyclecount.counting import _count_kernel, count_fast, count_oracle
from cyclecount.graph import MAX_EDGES, codegree, from_edge_list

from blowup_recurrence import recurrence


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
    assert nested_blow_up(5, 5) == cycle(5)


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
    assert blow_up(c5, [c5] * 5) == nested_blow_up(25, 5)
    assert blow_up(c5, [complete_graph(1), 2, 1, 2, 1]) == blow_up(c5, [1, 2, 1, 2, 1])


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_nested_blowup_of_a_power_is_iterated(k):
    for d in (2, 3):
        inner = nested_blow_up(k ** (d - 1), k)
        assert nested_blow_up(k**d, k) == blow_up(cycle(k), [inner] * k)


def test_nested_blowup_with_parts_below_k_is_flat():
    # every part is smaller than k exactly when n <= k (k - 1)
    for k in range(3, 9):
        for n in range(k, k * (k - 1) + 1):
            assert nested_blow_up(n, k) == blow_up(cycle(k), balanced_part_sizes(n, k))
    assert nested_blow_up(21, 5) != blow_up(cycle(5), [5, 4, 4, 4, 4])


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_nested_blowup_counts_the_recurrence(k):
    # count_fast counts blow-ups from n = 32 through their quotients, the
    # recurrence's own method, so the kernel alone is checked beside it
    for n in range(k, 61):
        g = nested_blow_up(n, k)
        assert g.n == n
        assert count_fast(g, k).total == _count_kernel(g, k) == recurrence(n, k), n
        if n <= 14:
            assert count_oracle(g, k).total == recurrence(n, k), n


def test_nested_edges_follow_the_construction():
    for k in range(3, 8):
        for n in range(k, 120):
            assert _nested_edges(n, k) == nested_blow_up(n, k).num_edges, (n, k)


def test_constructions_over_the_edge_limit_build_nothing(monkeypatch):
    # one edge over the limit or less is refused before any row is built;
    # the largest of each shape within it is 2^22 edges or just under
    assert comb(2896, 2) <= MAX_EDGES < comb(2897, 2) and 2048 * 2048 == MAX_EDGES
    assert _nested_edges(3**7, 3) <= MAX_EDGES < _nested_edges(3**8, 3)

    def no_graph(n, rows):
        raise AssertionError(f"built a {n}-vertex graph")

    monkeypatch.setattr(constructions, "Graph", no_graph)
    for build in (
        lambda: complete_graph(2897),
        lambda: complete_bipartite(2048, 2049),
        lambda: blow_up(cycle(4), [1024, 1024, 1024, 1025]),
        lambda: nested_blow_up(3**8, 3),
        lambda: random_graph(2897, 1.0, 0),
    ):
        with pytest.raises(ValueError, match=f"^edge count [0-9]+ above the limit {MAX_EDGES}$"):
            build()


def test_balanced_part_sizes():
    assert balanced_part_sizes(11, 5) == [3, 2, 2, 2, 2]
    assert balanced_part_sizes(10, 5) == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        balanced_part_sizes(4, 5)


def test_iterated_blowup_depth2_frozen():
    g = nested_blow_up(25, 5)
    assert g.n == 25
    want = recurrence(25, 5)
    assert want == 3130
    assert count_fast(g, 5).total == want
    assert count_oracle(g, 5).total == want


def test_iterated_blowup_density_beats_1_over_26():
    total = recurrence(25, 5)
    assert Fraction(total, comb(25, 5)) > Fraction(1, 26)


def test_iterated_blowup_recursion():
    assert recurrence(5, 5) == 1
    assert recurrence(125, 5) == 5**10 + 5 * 3130


def test_iterated_count_formula_breaks_at_k4():
    # two vertices from each of two adjacent parts give a K_{2,2}: an induced
    # 4-cycle outside the one-per-part decomposition, so no recurrence here;
    # the edges inside parts lose to the flat blow-up, which local search
    # therefore starts from at k = 4
    g2 = nested_blow_up(16, 4)
    assert count_fast(g2, 4).total == 404 > recurrence(16, 4) == 4**4 + 4 * 1
    assert count_fast(blow_up(cycle(4), [4] * 4), 4).total == 784


def test_iterated_blowup_needs_cycle_base():
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        nested_blow_up(4, 2)
    with pytest.raises(ValueError, match="cannot split"):
        nested_blow_up(4, 5)


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


def _one_array_random_graph(n, p, seed):
    """G(n, p) from one array of all n(n - 1)/2 draws, walked pair by pair:
    the construction as first written, kept as the reference."""
    draws = np.random.Generator(np.random.PCG64(seed)).random(n * (n - 1) // 2)
    edges = [pair for pair, x in zip(itertools.combinations(range(n), 2), draws) if x < p]
    return from_edge_list(n, edges)


@pytest.mark.parametrize("n,p,seed", [(1, 0.5, 0), (2, 1.0, 1), (17, 0.1, 7), (64, 0.5, 0),
                                      (300, 0.0, 1), (1500, 0.1, 7)])
def test_random_graph_equals_the_one_array_draw(n, p, seed):
    # 1500 vertices give 1,124,250 pairs, past the first 2^20 chunk
    assert random_graph(n, p, seed) == _one_array_random_graph(n, p, seed)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.num_edges == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # girth 5: adjacent vertices share no neighbor, nonadjacent share exactly one
    for u in range(10):
        for w in range(u + 1, 10):
            assert codegree(g, u, w) == (0 if g.has_edge(u, w) else 1)


def test_blowup_spec():
    # the blowup:CK:t spec calls blow_up directly, and iterated-blowup:CK:depth=M
    # builds the nested blow-up on K**M vertices
    assert count_fast(blow_up(cycle(5), (2,) * 5), 5).total == 32
    assert parse_construct("iterated-blowup:C5:depth=2") == nested_blow_up(25, 5)
    with pytest.raises(ValueError):
        blow_up(cycle(5), (1, 1))
    for depth in (0, -2):
        with pytest.raises(ValueError, match=f"^depth must be >= 1, got {depth}$"):
            parse_construct(f"iterated-blowup:C5:depth={depth}")
