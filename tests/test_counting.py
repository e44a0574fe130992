"""Counting kernel: frozen values, oracle equivalence, rooted identities."""

import concurrent.futures
import itertools
import math
import os
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecount import modular, suites
from cyclecount.bounds import cherry_bound
from cyclecount.constructions import (
    balanced_part_sizes,
    blow_up,
    complete_bipartite,
    complete_graph,
    cycle,
    nested_blow_up,
    petersen,
    random_graph,
)
from cyclecount.counting import (
    _count_kernel,
    _credit_roots,
    _degeneracy_order,
    _ordered,
    _paths3,
    _through_pair,
    count_cherry_rooted,
    count_containing_pair,
    count_fast,
    count_oracle,
    count_rooted,
    is_induced_cycle,
    symmetrise,
)
from cyclecount.graph import (
    Graph,
    codegree,
    from_edge_list,
    nonadjacent_neighbor_pairs,
    triple_codegree,
)
from cyclecount.modular import _count_modular, _modules

# values below were frozen from the subset-enumeration oracle
FROZEN = [
    (cycle(5), 5, 1),
    (complete_graph(6), 4, 0),
    (petersen(), 5, 12),
    (petersen(), 6, 10),
    (petersen(), 7, 0),
    (complete_bipartite(3, 3), 4, 9),
    (complete_bipartite(3, 3), 6, 0),
    (complete_bipartite(4, 4), 4, 36),
    (complete_graph(8), 4, 0),
    (cycle(7), 7, 1),
    (cycle(7), 5, 0),
    (blow_up(cycle(5), [2] * 5), 5, 32),
    (blow_up(cycle(5), [3] * 5), 5, 243),
]


@pytest.mark.parametrize("g,k,want", FROZEN)
def test_frozen_counts(g, k, want):
    assert count_oracle(g, k).total == want
    assert count_fast(g, k).total == want


def test_k33_rooted_counts_are_uniform():
    g = complete_bipartite(3, 3)
    rep = count_oracle(g, 4, rooted=True)
    assert rep.total == 9
    assert rep.rooted == {v: 6 for v in range(6)}
    fast = count_fast(g, 4, rooted=True)
    assert fast.rooted == rep.rooted


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(
            n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        )


@pytest.mark.parametrize("n", [4, 5])
def test_fast_equals_oracle_on_all_small_graphs(n):
    for g in _all_graphs(n):
        for k in range(4, n + 1):
            a = count_fast(g, k, rooted=True)
            b = count_oracle(g, k, rooted=True)
            assert a.total == b.total
            assert a.rooted == b.rooted


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=8, max_value=14),
    st.sampled_from([0.2, 0.35, 0.5, 0.65]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=4, max_value=7),
)
def test_fast_equals_oracle_on_random_graphs(n, p, seed, k):
    g = random_graph(n, p, seed)
    assert count_fast(g, k).total == count_oracle(g, k).total


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_paths3_counts_the_induced_3_paths(data):
    # s and t are drawn independently, so either may be the larger and the
    # helper loops over each; f avoids both, as the walk's free set does
    n = data.draw(st.integers(min_value=3, max_value=14))
    g = random_graph(n, data.draw(st.sampled_from([0.2, 0.4, 0.6, 0.8])),
                     data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    s, t, f = (data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in "stf")
    f &= ~(s | t)
    adj = g.rows
    brute = sum(1 for a, x, b in itertools.product(range(n), repeat=3)
                if s >> a & 1 and t >> b & 1 and f >> x & 1 and a != b
                and not adj[a] >> b & 1 and adj[x] >> a & 1 and adj[x] >> b & 1)
    assert _paths3(adj, g._open_masks(), s, f, t) == brute


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=8, max_value=13),
    st.sampled_from([0.25, 0.4, 0.55, 0.7]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=4, max_value=7),
)
def test_rooted_vector_equals_oracle_and_pinned(n, p, seed, k):
    g = random_graph(n, p, seed)
    credited = count_fast(g, k, rooted=True).rooted
    assert credited == count_oracle(g, k, rooted=True).rooted
    assert [credited[v] for v in range(n)] == [count_rooted(g, k, v) for v in range(n)]


@pytest.mark.parametrize("n", [31, 32, 40])
def test_rooted_vector_follows_relabelling_across_the_order_cut(n):
    # from n = 32 and k = 4 on, count_fast counts in degeneracy order and
    # maps the credited vector back; count_rooted pins the root in label order
    rng = random.Random(n)
    g = random_graph(n, 0.3, n)
    for k in range(3, 8):
        base = count_fast(g, k, rooted=True)
        assert base.total > 0
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            h = from_edge_list(n, [(perm[u], perm[w]) for u, w in g.edges()])
            rep = count_fast(h, k, rooted=True)
            assert rep.total == base.total
            assert rep.rooted == {perm[v]: c for v, c in base.rooted.items()}
            assert rep.rooted == {v: count_rooted(h, k, v) for v in range(n)}


@pytest.mark.parametrize("n, p", [(32, 0.1), (40, 0.08), (60, 0.05)])
def test_degeneracy_order(n, p):
    g = random_graph(n, p, n)
    h, order, roots = _degeneracy_order(g)
    assert 0 < h.n < n and len(set(order)) == len(order) == h.n
    # h is g's subgraph on the vertices kept, with order[i] renamed to i
    assert all(h.has_edge(i, j) == g.has_edge(order[i], order[j])
               for i in range(h.n) for j in range(h.n))
    later = [(h.rows[i] >> (i + 1)).bit_count() for i in range(h.n)]
    assert roots == [i for i in range(h.n) if later[i] >= 2] and roots[0] == 0
    # each vertex has the least degree among the vertices from it on
    for i in range(h.n):
        assert later[i] == min((h.rows[j] >> i).bit_count() for j in range(i, h.n))
    # the vertices dropped lie on no cycle, and the rest are credited back
    for k in range(3, 7):
        assert count_fast(g, k, rooted=True).rooted == {
            v: count_rooted(g, k, v) for v in range(n)
        }


def test_degeneracy_order_of_a_label_ordered_cycle_is_the_graph():
    g = cycle(40)
    h, order, roots = _degeneracy_order(g)
    assert h is g and (order, roots) == (list(range(40)), [0])
    assert count_fast(g, 40, rooted=True).rooted == dict.fromkeys(range(40), 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_degeneracy_order_keeps_no_vertex_of_a_forest(threads):
    path = from_edge_list(40, [(v, v + 1) for v in range(39)])
    h, order, roots = _degeneracy_order(path)
    assert (h.n, order, roots) == (0, [], [])
    rep = count_fast(path, 5, rooted=True, threads=threads)
    assert (rep.total, rep.rooted) == (0, dict.fromkeys(range(40), 0))


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=8, max_value=13),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=5, max_value=7),
)
def test_handshake_identities(n, seed, k):
    assert suites._handshake_failures(random_graph(n, 0.4, seed), k) == []


@pytest.mark.parametrize("counter, kind", [
    ("count_rooted", "vertex"),
    ("count_containing_pair", "edge"),
    ("count_cherry_rooted", "cherry"),
])
def test_handshakes_name_a_counter_one_too_high(monkeypatch, counter, kind):
    # every vertex of this graph lies on an edge and in the middle of an
    # induced 2-path, so each handshake fails at every vertex
    g = random_graph(10, 0.4, 0)
    assert all(list(nonadjacent_neighbor_pairs(g, v)) for v in range(g.n))
    real = getattr(suites, counter)
    monkeypatch.setattr(suites, counter, lambda *args: real(*args) + 1)
    assert suites._handshake_failures(g, 6) == [f"{kind}@{v}" for v in range(g.n)]


def test_handshakes_name_a_total_one_too_high(monkeypatch):
    real = suites.count_fast

    def count(g, k, rooted=False):
        report = real(g, k, rooted=rooted)
        report.total += 1
        return report

    monkeypatch.setattr(suites, "count_fast", count)
    assert suites._handshake_failures(random_graph(10, 0.4, 0), 6) == ["vertex"]


def test_rooted_counts_on_transitive_graphs():
    g = cycle(5)
    for v in range(5):
        assert count_rooted(g, 5, v) == 1
    p = petersen()
    # 12 cycles, 5 vertices each, 10 vertices: 6 through each by transitivity
    for v in range(10):
        assert count_rooted(p, 5, v) == 6
    # and 4 through each edge: 2 * 12 * 5 / (10 * 3)
    for v, w in p.edges():
        assert count_containing_pair(p, 5, v, w) == 4
    for v, w in cycle(6).edges():
        assert count_containing_pair(cycle(6), 6, v, w) == 1


def test_cherry_rooted_with_pendant_vertex():
    # C_5 on 0..4 plus a pendant 5 hanging off vertex 0
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    assert count_cherry_rooted(g, 5, 0, 1, 2) == 1


def test_pair_count_on_nonadjacent_pair():
    # brute force: how many induced 5-cycles contain both 0 and 2 of C_5?
    g = cycle(5)
    assert not g.has_edge(0, 2)
    assert count_containing_pair(g, 5, 0, 2) == 1
    g2 = blow_up(cycle(5), [2] * 5)
    # vertices 0 and 1 are twins in the same part: no 5-cycle uses both
    assert count_containing_pair(g2, 5, 0, 1) == 0


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=8, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([5, 6]),
    st.data(),
)
def test_symmetrise_identity(n, seed, k, data):
    g = random_graph(n, 0.45, seed)
    v_minus = data.draw(st.integers(min_value=0, max_value=n - 1))
    v_plus = data.draw(
        st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != v_minus)
    )
    g2 = symmetrise(g, v_minus, v_plus)
    assert g2.degree(v_minus) == len(set(g.neighbors(v_plus)) - {v_minus})
    assert not g2.has_edge(v_minus, v_plus)
    # nonadjacent twins share both cycle neighbors, which would force a
    # chordless 4-cycle inside the k-cycle: impossible once k >= 5
    assert count_containing_pair(g2, k, v_minus, v_plus) == 0
    lhs = count_fast(g2, k).total
    assert lhs == suites._twin_update(g, k, v_minus, v_plus, count_fast(g, k).total)


def test_symmetrise_suite_checks_distinct_samples(monkeypatch):
    # every instance the suite reports must be its own (graph, k, v-, v+)
    samples = []
    real = suites._twin_update

    def logged(g, k, v_minus, v_plus, total):
        if k >= 5:
            samples.append((g.rows, k, v_minus, v_plus))
        return real(g, k, v_minus, v_plus, total)

    monkeypatch.setattr(suites, "_twin_update", logged)
    check = next(c for c in suites.identities_suite()["checks"]
                 if c["name"] == "symmetrise_identity_k_ge_5")
    assert check["passed"] and check["instances"] == suites.SYMMETRISE_SAMPLES == 500
    assert len(samples) == len(set(samples)) == 500


def test_suites_walk_each_edge_and_each_cherry_once(monkeypatch):
    # an edge and an induced 2-path u-v-w are unordered: the handshake and
    # the bounds suite walk each once, and the bounds suite still yields
    # both orders of a cherry, each with the count and ceiling of its own
    calls = Counter()

    def logged(name, key):
        real = getattr(suites, name)

        def call(*args):
            calls[name, key(*args)] += 1
            return real(*args)
        monkeypatch.setattr(suites, name, call)

    logged("count_containing_pair", lambda g, k, v, w: (min(v, w), max(v, w)))
    logged("count_cherry_rooted", lambda g, k, u, v, w: (min(u, w), v, max(u, w)))
    logged("cherry_bound", lambda n, k, du, dv, dw, xuv, xvw, xuw, z: (du, dv, dw))
    g = random_graph(10, 0.4, 0)
    ordered = [(u, v, w) for v in range(g.n) for u, w in nonadjacent_neighbor_pairs(g, v)]
    cherries = {(min(u, w), v, max(u, w)) for u, v, w in ordered}
    once = Counter([("count_containing_pair", e) for e in g.edges()]
                   + [("count_cherry_rooted", c) for c in cherries])

    assert suites._handshake_failures(g, 6) == []
    assert calls == once
    calls.clear()
    instances = [i for i in suites._lemma_instances(g, 6) if i[0] == "cherry"]
    assert sum(calls.pop(key) for key in list(calls) if key[0] == "cherry_bound") == len(cherries)
    assert calls == once
    degs = g.degree_sequence()
    assert instances == [
        ("cherry", (u, v, w), count_cherry_rooted(g, 6, u, v, w), cherry_bound(
            g.n, 6, degs[u], degs[v], degs[w], codegree(g, u, v), codegree(g, v, w),
            codegree(g, u, w), triple_codegree(g, u, v, w)), None)
        for u, v, w in ordered
    ]
    assert len(ordered) == 2 * len(cherries) > 0


def test_symmetrise_structure_and_edge_cases():
    # vertex 0 becomes a nonadjacent twin of 2: both see exactly {1, 3},
    # so 3 picks up an edge and 4 drops to degree 1
    g2 = symmetrise(cycle(5), 0, 2)
    assert set(g2.neighbors(0)) == set(g2.neighbors(2)) == {1, 3}
    assert not g2.has_edge(0, 2)
    assert [g2.degree(v) for v in range(5)] == [2, 2, 2, 3, 1]
    empty = from_edge_list(4, [])
    assert symmetrise(empty, 1, 3).edges() == []


def test_symmetrise_identity_exact_on_c7_all_pairs():
    g = cycle(7)
    base = count_fast(g, 7).total
    for v_minus, v_plus in itertools.permutations(range(7), 2):
        g2 = symmetrise(g, v_minus, v_plus)
        assert count_fast(g2, 7).total == suites._twin_update(g, 7, v_minus, v_plus, base)


def test_symmetrise_identity_fails_for_k4():
    # path 1-2-3 plus isolated 0; replacing 0 by a twin of 2 closes a C_4,
    # so the count moves by more than the replacement bookkeeping predicts
    g = from_edge_list(4, [(1, 2), (2, 3)])
    g2 = symmetrise(g, 0, 2)
    lhs = count_fast(g2, 4).total
    rhs = suites._twin_update(g, 4, 0, 2, count_fast(g, 4).total)
    assert lhs == 1 and rhs == 0
    assert is_induced_cycle(g2, [1, 2, 3, 0])


def test_threads_agree_with_single():
    # n = 24 counts in label order, n = 40 in degeneracy order
    for n, p in ((24, 0.4), (40, 0.3)):
        g = random_graph(n, p, 5)
        a = count_fast(g, 6, rooted=True)
        b = count_fast(g, 6, rooted=True, threads=2)
        assert a.total == b.total
        assert a.rooted == b.rooted


@pytest.mark.parametrize("threads,cpus,workers", [(2, 4, 2), (40, 4, 4), (3, None, 1)])
def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, threads, cpus, workers):
    # the stand-in maps in-process, so no worker process is ever started
    made = []

    class InlinePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            # a block carries rows, so the pool never needs a Graph pickled
            items = list(items)
            assert not any(isinstance(x, Graph) for item in items for x in item)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    g = random_graph(14, 0.4, 5)
    assert count_fast(g, 5, rooted=True, threads=threads) == count_fast(g, 5, rooted=True)
    assert made == [workers]
    for bad in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            count_fast(g, 5, threads=bad)
    assert made == [workers]


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=3, max_value=12),
    st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fast_counters_equal_oracle_at_k3(n, p, seed):
    g = random_graph(n, p, seed)
    want = count_oracle(g, 3, rooted=True)
    got = count_fast(g, 3, rooted=True)
    assert got.total == want.total and got.rooted == want.rooted
    for v in range(n):
        assert count_rooted(g, 3, v) == want.rooted[v]
    for v, w in itertools.combinations(range(n), 2):
        through = _oracle_through(g, 3, {v, w})
        assert count_containing_pair(g, 3, v, w) == through


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_complete_graph_triangles(n):
    assert count_fast(complete_graph(n), 3).total == math.comb(n, 3)


def test_pair_count_equals_oracle_pairs():
    g = random_graph(11, 0.45, 17)
    for k in (4, 5, 6):
        want = {}
        for combo in itertools.combinations(range(g.n), k):
            if is_induced_cycle(g, combo):
                for pair in itertools.combinations(combo, 2):
                    want[pair] = want.get(pair, 0) + 1
        for v, w in itertools.combinations(range(g.n), 2):
            assert count_containing_pair(g, k, v, w) == want.get((v, w), 0)
            assert count_containing_pair(g, k, w, v) == want.get((v, w), 0)


def _oracle_through(g, k, must):
    # the subset oracle's cycles that contain `must`
    return sum(1 for combo in itertools.combinations(range(g.n), k)
               if must <= set(combo) and is_induced_cycle(g, combo))


@st.composite
def _graph_and_k(draw):
    # half the draws plant an induced k-cycle on randomly labelled vertices,
    # so that over all ordered pairs w sits at every position of a cycle
    # through the root v: second, interior, penultimate and closing
    k = draw(st.integers(min_value=3, max_value=8))
    n = draw(st.integers(min_value=k, max_value=12))
    g = random_graph(n, draw(st.sampled_from([0.2, 0.4, 0.6, 0.8])),
                     draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        on = set(order[:k])
        edges = [(u, w) for u, w in g.edges() if not (u in on and w in on)]
        edges += [(order[i], order[(i + 1) % k]) for i in range(k)]
        g = from_edge_list(n, edges)
    return g, k


@settings(deadline=None, max_examples=80)
@given(_graph_and_k())
def test_pair_counts_equal_oracle_on_random_graphs(gk):
    g, k = gk
    cycles = [set(c) for c in itertools.combinations(range(g.n), k)
              if is_induced_cycle(g, c)]
    for v, w in itertools.permutations(range(g.n), 2):
        through = sum(1 for c in cycles if {v, w} <= c)
        assert count_containing_pair(g, k, v, w) == through, (k, v, w)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=3, max_value=12),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pair_walk_on_the_rows_before_a_toggle(n, p, seed):
    # local search scores the toggle of uw on the rows before it, passing
    # u's toggled neighbours; each pair of g, adjacent or not, must count
    # what the oracle finds through u and w in the toggled graph
    g = random_graph(n, p, seed)
    rows, masks, full = g.rows, g._open_masks(), (1 << n) - 1
    for u, w in itertools.combinations(range(n), 2):
        toggled = list(rows)
        toggled[u] ^= 1 << w
        toggled[w] ^= 1 << u
        h = Graph(n, toggled)
        for k in range(3, min(n, 8) + 1):
            want = _oracle_through(h, k, {u, w})
            for a, b in ((u, w), (w, u)):
                assert _through_pair(rows, masks, full, rows[a] ^ (1 << b), a, b, k) == want


def _planted(n, k, seed):
    # G(n, 0.4) with an induced k-cycle planted on randomly chosen vertices
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    on = set(order[:k])
    edges = [(u, w) for u, w in random_graph(n, 0.4, seed).edges()
             if not (u in on and w in on)]
    return from_edge_list(n, edges + [(order[i], order[(i + 1) % k]) for i in range(k)])


@pytest.mark.parametrize("k", range(3, 9))
def test_pair_walk_equals_oracle_on_every_ordered_pair(k):
    # the cycles through v and w are the oracle's per-vertex count of v in g
    # less that in g with w isolated; C_k puts w opposite v for even k (the
    # tie), and the blow-ups and the planted cycle add non-adjacent pairs at
    # k = 3
    for g in (cycle(k), blow_up(cycle(k), balanced_part_sizes(min(k + 4, 12), k)),
              _planted(k + 3, k, k)):
        rooted = {}

        def oracle(*drop):
            if drop not in rooted:
                rows = [0 if u in drop else row & ~sum(1 << x for x in drop)
                        for u, row in enumerate(g.rows)]
                rooted[drop] = count_oracle(Graph(g.n, rows), k, rooted=True).rooted
            return rooted[drop]

        for v, w in itertools.permutations(range(g.n), 2):
            through = oracle()[v] - oracle(w)[v]
            assert count_containing_pair(g, k, v, w) == through, (k, v, w)


def test_pair_walk_breaks_the_tie_once():
    # in the C_6 blow-up with parts of 2, each cycle through 0 and the
    # opposite part's 6 has two sides of 3 edges and picks one vertex from
    # each of the other four parts; walking both sides would give 32
    g = blow_up(cycle(6), [2] * 6)
    assert count_containing_pair(g, 6, 0, 6) == 16
    # adjacent pairs share 2^4 cycles, and no triangle holds two vertices
    # of one part of K_{2,2,2}
    assert count_containing_pair(g, 6, 0, 2) == 16
    k222 = blow_up(cycle(3), [2] * 3)
    assert count_containing_pair(k222, 3, 0, 1) == 0


def test_long_cycle_counts_without_recursion():
    limit = sys.getrecursionlimit()
    g = cycle(1200)
    assert count_fast(g, 1200).total == 1
    assert count_rooted(g, 1200, 17) == 1
    assert count_containing_pair(g, 1200, 0, 1) == 1
    assert count_cherry_rooted(g, 1200, 0, 1, 2) == 1
    assert count_containing_pair(g, 1200, 3, 600) == 1
    assert sys.getrecursionlimit() == limit


def test_is_induced_cycle():
    g = cycle(6)
    assert is_induced_cycle(g, [0, 1, 2, 3, 4, 5])
    assert not is_induced_cycle(g, [0, 1, 2, 3])
    assert not is_induced_cycle(g, [0, 2, 4])  # independent set
    k4 = complete_graph(4)
    assert not is_induced_cycle(k4, [0, 1, 2, 3])  # chords
    with pytest.raises(ValueError):
        is_induced_cycle(g, [0, 1])
    with pytest.raises(ValueError):
        is_induced_cycle(g, [0, 0, 1, 2])
    with pytest.raises(ValueError):
        is_induced_cycle(g, [0, 1, 99])


def test_argument_validation():
    g = cycle(6)
    with pytest.raises(ValueError):
        count_fast(g, 2)  # no cycle has fewer than 3 vertices
    with pytest.raises(ValueError):
        count_fast(g, 7)  # k > n
    with pytest.raises(ValueError):
        count_oracle(g, 2)
    assert count_oracle(g, 3).total == 0  # oracle handles triangles
    with pytest.raises(ValueError):
        count_rooted(g, 6, 6)
    assert count_cherry_rooted(g, 6, 0, 1, 2) == 1  # the 0-1-2 cherry of C_6
    with pytest.raises(ValueError):
        count_cherry_rooted(g, 6, 1, 1, 3)
    with pytest.raises(ValueError):
        count_cherry_rooted(g, 3, 0, 1, 2)  # no triangle holds a cherry
    with pytest.raises(ValueError):
        symmetrise(g, 1, 1)


@pytest.mark.parametrize("v,w", [(0, -1), (-1, 0), (0, 6), (9, 0)])
def test_vertices_outside_the_graph_are_refused(v, w):
    # -1 once wrapped round to vertex 5 in symmetrise and in the cherry
    # count, and the pair count reported 0 for a vertex the graph does not
    # have
    g = cycle(6)
    for call in (
        lambda: symmetrise(g, v, w),
        lambda: count_containing_pair(g, 5, v, w),
        lambda: count_cherry_rooted(g, 5, v, w, 1),
    ):
        with pytest.raises(ValueError, match="leaves 0..5"):
            call()


def test_cherry_rooted_requires_real_cherry():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="^cherry endpoints 0, 2 must be non-adjacent$"):
        count_cherry_rooted(g, 4, 0, 1, 2)  # u,w adjacent
    g = cycle(6)
    for args, message in [
        ((3, 0, 1, 2), "need 4 <= k <= n=6, got k=3"),
        ((6, 0, 1, 0), "cherry endpoints must be distinct"),
        ((6, 0, 1, 3), "0 and 3 must both be neighbors of 1"),
        ((6, 2, 1, 4), "2 and 4 must both be neighbors of 1"),
        ((6, 3, 1, 2), "3 and 2 must both be neighbors of 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            count_cherry_rooted(g, *args)


def test_iterated_blowup_frozen():
    # the kernel alone is checked too, so the module path is not the only
    # side that meets the frozen values
    g = nested_blow_up(25, 5)
    assert count_fast(g, 5).total == _count_kernel(g, 5) == 3130
    g = _shuffled(nested_blow_up(125, 5), random.Random(125))
    assert count_fast(g, 5).total == _count_kernel(g, 5) == 9781275


def test_count_report_json_shape():
    rep = count_fast(petersen(), 5, rooted=True)
    d = rep.to_json_dict()
    assert d["k"] == 5 and d["total"] == 12
    assert set(d["rooted"]) == {str(v) for v in range(10)}


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def _substituted(rng, n):
    """A graph on at most n vertices built by substitution: a random base
    whose vertices become single vertices, independent sets, cliques or
    random graphs, themselves substituted again now and then."""
    if n < 3 or rng.random() < 0.2:
        return random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng.randrange(2**32))
    base = random_graph(rng.randint(2, min(n, 7)), rng.choice((0.3, 0.5, 0.7)),
                        rng.randrange(2**32))
    room = n - base.n
    parts = []
    for _ in range(base.n):
        extra = rng.randint(0, room // 2)
        room -= extra
        kind = rng.choice(("one", "free", "clique", "graph"))
        if extra == 0 or kind == "one":
            parts.append(1)
        elif kind == "free":
            parts.append(extra + 1)
        elif kind == "clique":
            parts.append(complete_graph(extra + 1))
        else:
            parts.append(_substituted(rng, extra + 1))
    return blow_up(base, parts)


def _module_cases():
    """Graphs on at most 16 vertices with modules of every kind, relabelled."""
    rng = random.Random(31)

    def rand(n):
        return random_graph(n, rng.choice((0.2, 0.4, 0.6, 0.8)), rng.randrange(2**32))

    graphs = [_substituted(rng, rng.randint(5, 16)) for _ in range(240)]
    for _ in range(20):
        g = rand(rng.randint(4, 13))
        twins = [1] * g.n
        for v in rng.sample(range(g.n), 2):
            twins[v] = rng.choice((2, complete_graph(2)))  # false or true twins
        graphs.append(blow_up(g, twins))
    for _ in range(20):
        a, b = rand(rng.randint(2, 8)), rand(rng.randint(3, 8))
        graphs.append(blow_up(Graph(2, [0, 0]), [a, b]))  # disconnected
        graphs.append(blow_up(complete_graph(2), [a, b]))  # its complement too
    for n in range(5, 17):
        graphs += [Graph(n, [0] * n), complete_graph(n), rand(n)]
    graphs += [rand(rng.randint(6, 11)) for _ in range(150)]
    return [(_shuffled(g, rng), k) for g in graphs for k in range(5, min(g.n, 9) + 1)]


def _closure(rows, s, x):
    """The smallest module of G[s] that holds the vertex set x: add any
    vertex that sees some but not all of it until none is left."""
    while True:
        for z in range(len(rows)):
            if (s >> z) & 1 and not (x >> z) & 1 and rows[z] & x not in (0, x):
                x |= 1 << z
                break
        else:
            return x


def test_modules_are_the_maximal_modules_without_the_pivot():
    # u and w share a maximal module without v exactly when the smallest
    # module holding both leaves v out, on all of a graph and on a subset
    rng = random.Random(7)
    graphs = [g for g, k in _module_cases() if k == 5 and g.n <= 11][::3]
    assert len(graphs) >= 100
    for g in graphs:
        full = (1 << g.n) - 1
        for s in (full, full ^ (1 << rng.randrange(g.n))):
            verts = [u for u in range(g.n) if (s >> u) & 1]
            pair = {(u, w): _closure(g.rows, s, 1 << u | 1 << w) for u in verts for w in verts}
            for v in verts:
                want = {1 << v} | {
                    sum(1 << w for w in verts if w != v and not (pair[u, w] >> v) & 1)
                    for u in verts if u != v
                }
                # with k = 1 every part can pay, so the refinement runs out
                parts, sizes, index = _modules(g.rows, s, v, 1)
                assert set(parts) == want, (g.rows, s, v)
                assert sizes == [part.bit_count() for part in parts]
                assert all(parts[index[u]] >> u & 1 for u in verts)
                # with k = 5 it stops where no quotient can pay
                split = _modules(g.rows, s, v, 5)
                pays = any(c >= 5 for c in sizes) or 2 * len(parts) <= len(verts)
                assert (split is not None) == pays, (g.rows, s, v)
                if split:
                    assert set(split[0]) == want


@pytest.mark.parametrize("forced", [False, True])
def test_module_path_equals_oracle_on_small_graphs(monkeypatch, forced):
    # forced: the screen never declines a quotient, so every set with a
    # pivot is counted through one, even a set of single vertices
    if forced:
        screen = modular._modules
        monkeypatch.setattr(modular, "_modules", lambda adj, s, v, k: screen(adj, s, v, 1))
    cases = _module_cases()
    assert len(cases) >= 1000
    work = Counter()
    for g, k in cases:
        assert _count_modular(g, k, work) == count_oracle(g, k).total, (g.rows, k)
    # the sweep reaches every branch: quotients, pushed parts and kernel calls
    assert min(work["quotients"], work["parts"]) >= 20, work
    assert work["quotients" if forced else "kernels"] >= 500, work


def test_weighted_kernel_counts_the_blow_up_by_its_weights():
    # for k >= 5 an induced k-cycle of a blow-up by independent sets meets
    # each part at most once, so the weighted count of the base is the
    # plain count of the blow-up, and a base vertex's weighted credit is
    # its part's size times the cycles through any one vertex of that
    # part; n = 34 puts the base in degeneracy order
    rng = random.Random(5)
    for n, p in [(9, 0.4), (12, 0.5), (34, 0.15)]:
        base = random_graph(n, p, n)
        sizes = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
        blown = blow_up(base, sizes)
        first = [0, *itertools.accumulate(sizes)]
        for k in range(5, 8):
            h, order, roots = _ordered(base, k)
            credit = [0] * h.n
            total = _credit_roots(h, k, roots, [sizes[v] for v in order], credit)
            assert total == _count_kernel(blown, k), (n, k)
            per_vertex = [0] * n
            for v, c in zip(order, credit):
                per_vertex[v] = c
            want = [sizes[v] * count_rooted(blown, k, first[v]) for v in range(n)]
            assert per_vertex == want, (n, k)


@pytest.mark.parametrize("seed", range(3))
def test_module_path_equals_kernel_from_n_32(seed):
    rng = random.Random(seed)
    graphs = [nested_blow_up(n, k) for n, k in [(32, 5), (45, 6), (50, 7)]]
    # a planted module in a graph with none, and substitutions at every size
    base = random_graph(36, 0.3, seed)
    graphs.append(blow_up(base, [random_graph(6, 0.5, seed)] + [1] * 35))
    while len(graphs) < 8:
        g = _substituted(rng, 60)
        if g.n >= 32:
            graphs.append(g)
    for g in graphs:
        g = _shuffled(g, rng)
        for k in range(5, 8):
            assert count_fast(g, k).total == _count_kernel(g, k), (g.n, k)


def test_module_path_work():
    # a graph with no module, or whose only module is a twin pair: one
    # kernel call; a blow-up: one quotient and its parts, which hold no
    # edge, or none if they are below k; a complete graph: no pivot at all
    for g, want in [(petersen(), 12), (blow_up(cycle(40), [2] + [1] * 39), 0)]:
        work = Counter()
        assert _count_modular(g, 5, work) == want
        assert work == {"kernels": 1}
    work = Counter()
    assert _count_modular(blow_up(cycle(12), [3] * 12), 5, work) == 0
    assert _count_modular(blow_up(cycle(12), [3] * 12), 12, work) == 3**12
    assert work == {"quotients": 2}
    # the module of 6 is split off the pivot's part as a new part, and it
    # alone makes the quotient pay
    work = Counter()
    assert _count_modular(blow_up(cycle(12), [1, 6] + [1] * 10), 5, work) == 0
    assert work == {"quotients": 1, "parts": 1}
    work = Counter()
    assert _count_modular(blow_up(cycle(5), [100] * 5), 5, work) == 10**10
    assert work == {"quotients": 1, "parts": 5}
    work = Counter()
    assert _count_modular(complete_graph(200), 5, work) == 0
    assert not work
