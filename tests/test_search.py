"""Exhaustive search over isomorphism classes and stochastic local search."""

import functools
import hashlib
import os
from fractions import Fraction
from math import comb, factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecount import search
from cyclecount.constructions import random_graph
from cyclecount.counting import count_oracle, symmetrise
from cyclecount.graph import Graph, from_edge_list
from cyclecount.io import from_graph6
from cyclecount.search import _toggle_edge, exhaustive_max, local_search_max

from blowup_recurrence import recurrence
from graph_classes import all_classes

SLOW = os.environ.get("CYCLECOUNT_RUN_SLOW") == "1"

# frozen after the first verified sweep of the full labeled space; the n = 8
# values were cross-checked against the labeled 2^28 sweep, (9, 5) against
# the sweep of all 12,346 eight-vertex classes, and the other n >= 9 values
# froze after lowering the search's bound to L - 1 and to L // 2 left them
# as they were (test_lowered_bound_changes_nothing and its gated variant)
FROZEN_MAX = {
    (4, 4): 1,
    (5, 4): 3,
    (6, 4): 9,
    (7, 4): 18,
    (8, 4): 36,
    (9, 4): 60,
    (10, 4): 100,
    (12, 4): 225,
    (5, 5): 1,
    (6, 5): 2,
    (7, 5): 4,
    (8, 5): 8,
    (9, 5): 16,
    (10, 5): 32,
    (11, 5): 48,
    (6, 6): 1,
    (7, 6): 2,
    (10, 6): 16,
    (11, 6): 32,
    (12, 6): 64,
    (7, 7): 1,
    (12, 7): 32,
    (11, 8): 8,
}

# (n, k, budget, seed) -> (best_count, witness), frozen from the local search
# that recounted all n rooted counts for every twin move
FROZEN_LOCAL = {
    (8, 5, 120, 9): (8, "G]Ko]C"),
    (7, 5, 200, 0): (4, "F]KMG"),
    (12, 6, 500, 4): (64, "K]KoWWB?u@wE"),
    (16, 7, 800, 5): (288, "OFz_wwB?o@_E?B?B[?^?E"),
    (20, 5, 1000, 6): (1024, "S?~vf_NBo]@w?N?N?F_@w{?~oBv_Ff_F_"),
}

# (n, k, budget, seed) -> (best_count, witness, move digest), frozen from the
# local search that scored every move by two credited pair or vertex walks;
# the digest (see _move_digest) covers every proposed move and the graph it
# was proposed on, so it pins the whole trajectory, not only the best graph;
# (30, 5) starts from the nested blow-up, whose parts of 6 are C_5 blow-ups
FROZEN_MOVES = {
    (30, 5, 2000, 1): (
        7786,
        "]XFN~z~~Nw~x?~?~?^wFx?~CB~G?Fw?Fw?B~??~G?Fw_?^x~??~~??~^_?^~w?Fx~??~F{?B~G",
        "1619eecdbe080a92",
    ),
    (28, 6, 1500, 1): (
        10000,
        "[?B~vrw}?N_}@{@{?}??^?Bw?N_?^??^???^??Fo??}??Bw}??N}??N^??Ffo?@w",
        "9d8f1284b4e29ce6",
    ),
    (30, 4, 2000, 1): (
        11025,
        "]????B~~v}^w~o~o^wF}??N{?~o@~_@~_?~o?N{?@~_^w@~~oB}~oB}^w@~F}?^o~oB}B~?Nw?",
        "78bf1d65dea9b0e2",
    ),
    (21, 7, 1000, 1): (2187, "TFz_ww[?wF?[?F?F?B_?F??w?Bf??~??z_?[", "0ff713250dc01629"),
}

# graphs on n unlabeled vertices, OEIS A000088
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _nx_graph(g6):
    return nx.from_graph6_bytes(g6.encode("ascii"))


@functools.cache
def _oracle_counts(m: int, k: int) -> dict[tuple[int, ...], int]:
    return {rows: count_oracle(Graph(m, rows), k).total for rows in all_classes(m)}


def _assert_levels_add_up(r):
    # each level scores every neighborhood of every class kept one level down
    assert r.levels[0]["scored"] == 0
    for below, level in zip(r.levels, r.levels[1:]):
        assert level["scored"] == below["kept"] << (level["vertices"] - 1)
    assert r.explored == sum(level["scored"] for level in r.levels)


@pytest.mark.parametrize("n,k", sorted(FROZEN_MAX))
def test_exhaustive_frozen_values(n, k):
    r = exhaustive_max(n, k)
    assert r.best_count == FROZEN_MAX[(n, k)]
    assert r.exhaustive
    assert [level["vertices"] for level in r.levels] == list(range(k, n + 1))
    _assert_levels_add_up(r)


def test_cascade_keeps_exactly_the_classes_above_threshold():
    # the full level sweep, scored by the subset oracle alone, is the
    # independent side: at every level the cascade must keep exactly the
    # classes whose oracle count reaches the threshold, with those counts
    for n in range(3, 8):
        for k in range(3, n + 1):
            bound, source = search._lower_bound(n, k)
            assert source.startswith("K_" if k == 3 else f"blow-up of C{k} ")
            thresholds = search._thresholds(n, k, bound)
            assert thresholds[-1] == bound <= max(_oracle_counts(n, k).values())
            levels = search._cascade(n, k, thresholds)
            for m, t, (kept, _) in zip(range(k, n + 1), thresholds, levels):
                want = {rows: c for rows, c in _oracle_counts(m, k).items() if c >= t}
                assert kept == want, (n, k, m)


def _lowered_bound_check(monkeypatch, n, k):
    reference = exhaustive_max(n, k)
    real = search._lower_bound
    for lower in (lambda b: b - 1, lambda b: b // 2):
        monkeypatch.setattr(
            search, "_lower_bound", lambda n, k: (lower(real(n, k)[0]), "lowered")
        )
        r = exhaustive_max(n, k)
        assert (r.best_count, r.witnesses) == (reference.best_count, reference.witnesses)
        assert r.lower_bound < reference.lower_bound


@pytest.mark.parametrize("n,k", [(n, k) for k in (4, 5, 6) for n in range(k, 10)])
def test_lowered_bound_changes_nothing(monkeypatch, n, k):
    # any valid bound gives the same answer: L - 1 and L // 2 only keep more
    _lowered_bound_check(monkeypatch, n, k)


@pytest.mark.skipif(not SLOW, reason="minutes per case; set CYCLECOUNT_RUN_SLOW=1")
@pytest.mark.parametrize("n,k", sorted(nk for nk in FROZEN_MAX if nk[0] >= 10))
def test_lowered_bound_changes_nothing_gated(monkeypatch, n, k):
    # L // 2 keeps far more classes than the work limit admits at n >= 11;
    # the limit guards run time, not exactness, so it is lifted here
    monkeypatch.setattr(search, "_WORK_LIMIT", 1 << 28)
    _lowered_bound_check(monkeypatch, n, k)


def test_exhaustive_matches_graph_atlas():
    # networkx's atlas lists every graph on at most 7 vertices and shares no
    # code with the class generator or the labeller
    atlas = {}
    for h in nx.graph_atlas_g()[1:]:
        atlas.setdefault(h.number_of_nodes(), []).append(h)
    for n in range(1, 8):
        assert len(atlas[n]) == len(all_classes(n)) == CLASS_COUNTS[n]
        graphs = [from_edge_list(n, h.edges()) for h in atlas[n]]
        for k in range(3, n + 1):
            r = exhaustive_max(n, k)
            assert r.best_count == max(count_oracle(g, k).total for g in graphs), (n, k)
            assert 1 <= len(r.witnesses) <= 10
            assert r.witnesses == sorted(r.witnesses)
            for g6 in r.witnesses:
                assert count_oracle(from_graph6(g6), k).total == r.best_count
            wits = [_nx_graph(g6) for g6 in r.witnesses]
            for i, a in enumerate(wits):
                for b in wits[i + 1:]:
                    assert not nx.is_isomorphic(a, b), (n, k, r.witnesses)
    # K_n alone has C(n, 3) triangles; C_n alone is an induced n-cycle
    assert exhaustive_max(7, 3).best_count == comb(7, 3)
    assert exhaustive_max(7, 7).best_count == 1


def test_exhaustive_witnesses_attain_best():
    # one witness per class: the (6, 4) maximum is attained by K_{3,3} alone
    r = exhaustive_max(6, 4)
    assert len(r.witnesses) == 1
    assert count_oracle(from_graph6(r.witnesses[0]), 4).total == r.best_count
    assert nx.is_isomorphic(_nx_graph(r.witnesses[0]), nx.complete_bipartite_graph(3, 3))


def test_exhaustive_refuses_large_n_without_override():
    # one fixed work limit, 2^22 extensions, with no override: n = 24 needs
    # 2^23 at its last level alone
    with pytest.raises(ValueError, match="extensions"):
        exhaustive_max(24, 5)
    with pytest.raises(ValueError):
        exhaustive_max(5, 6)


def test_exhaustive_refuses_once_kept_classes_pass_the_limit(monkeypatch):
    # a lowered limit is passed mid-cascade: the search stops with the same
    # clean error instead of building the level it cannot afford
    monkeypatch.setattr(search, "_WORK_LIMIT", 1 << 12)
    r = exhaustive_max(8, 5)
    assert r.explored <= 1 << 12
    with pytest.raises(ValueError, match="extensions"):
        exhaustive_max(9, 5)


def test_exhaustive_dominates_constructed_candidates():
    # the exhaustive maximum can never sit below any feasible point we can build
    from cyclecount.constructions import (
        balanced_part_sizes,
        blow_up,
        complete_bipartite,
        cycle,
        random_graph,
    )
    from cyclecount.counting import count_fast

    for n, k in ((6, 4), (7, 4), (6, 5), (7, 5)):
        best = FROZEN_MAX[(n, k)]
        candidates = [
            blow_up(cycle(k), balanced_part_sizes(n, k)),
            complete_bipartite(n // 2, n - n // 2),
            random_graph(n, 0.5, 7),
        ]
        for g in candidates:
            assert count_fast(g, k).total <= best


def test_monotonicity_of_max_density():
    # every density sits at or above the balanced blow-up feasible point and
    # at or above the limit it decreases to: 3/8 for k = 4 (complete
    # bipartite graphs), the iterated blow-up's k!/(k^k - k) for k >= 5
    from cyclecount.constructions import balanced_part_sizes, blow_up, cycle
    from cyclecount.counting import count_fast

    for k in (4, 5, 6):
        densities = [
            (n, Fraction(exhaustive_max(n, k).best_count, comb(n, k)))
            for n in range(k, 11)
        ]
        rises = [n for (_, before), (n, dens) in zip(densities, densities[1:])
                 if dens > before]
        assert not rises, rises
        assert [n for n, _ in densities] == list(range(k, 11))
        floor = Fraction(3, 8) if k == 4 else Fraction(factorial(k), k**k - k)
        for n, dens in densities:
            feasible = count_fast(blow_up(cycle(k), balanced_part_sizes(n, k)), k)
            assert dens >= Fraction(feasible.total, comb(n, k))
            assert dens >= floor, (k, n)


def test_local_search_reaches_exhaustive_optimum():
    r = local_search_max(6, 4, budget=400, seed=2)
    assert r.best_count == 9
    assert not r.exhaustive


def test_local_search_at_n_equals_k():
    # the only way to score is to be a C_k: any decent run finds one
    for n in (5, 6):
        r = local_search_max(n, n, budget=300, seed=3)
        assert r.best_count == 1


def test_local_search_never_beats_exhaustive():
    for seed in range(3):
        r = local_search_max(7, 5, budget=200, seed=seed)
        assert r.best_count <= 4
        g = from_graph6(r.witnesses[0])
        assert count_oracle(g, 5).total == r.best_count


def test_local_search_seeded_at_iterated_blowup():
    # for k >= 5 the walk starts from the nested balanced blow-up, which at
    # n = 25 is the depth-2 iterated one, so even a tiny budget cannot fall
    # below its exact count
    r = local_search_max(25, 5, budget=30, seed=0)
    assert r.best_count >= 3130


@pytest.mark.parametrize("n,flat", [(26, 6 * 5**4), (30, 6**5)])
def test_local_search_never_reports_less_than_the_recurrence(n, flat):
    # the nested start beats the flat balanced blow-up at these n
    r = local_search_max(n, 5, budget=40, seed=3)
    assert r.best_count >= recurrence(n, 5) > flat


def test_recurrence_attains_every_frozen_maximum():
    for (n, k), best in FROZEN_MAX.items():
        if k >= 5:
            assert recurrence(n, k) == best, (n, k)


def test_local_search_is_deterministic_per_seed():
    a = local_search_max(8, 5, budget=120, seed=9)
    b = local_search_max(8, 5, budget=120, seed=9)
    assert a.best_count == b.best_count
    assert a.witnesses == b.witnesses


@pytest.mark.parametrize("args", sorted(FROZEN_LOCAL))
def test_local_search_frozen_results(args):
    r = local_search_max(*args)
    assert (r.best_count, r.witnesses) == (FROZEN_LOCAL[args][0], [FROZEN_LOCAL[args][1]])


def _move_digest(monkeypatch):
    # hashes each toggle or symmetrisation with the rows it is proposed on
    digest = hashlib.sha256()

    def logged(tag, real):
        def move(g, a, b):
            digest.update(f"{tag}{a},{b}:{g.rows}".encode())
            return real(g, a, b)

        return move

    monkeypatch.setattr(search, "_toggle_edge", logged("t", search._toggle_edge))
    monkeypatch.setattr(search, "symmetrise", logged("s", search.symmetrise))
    return digest


@pytest.mark.parametrize("args", sorted(FROZEN_MOVES))
def test_local_search_frozen_moves(monkeypatch, args):
    digest = _move_digest(monkeypatch)
    r = local_search_max(*args)
    best, witness, moves = FROZEN_MOVES[args]
    assert (r.best_count, r.witnesses, digest.hexdigest()[:16]) == (best, [witness], moves)


def test_local_search_full_passes(monkeypatch):
    # one full pass per start and per restart, the drift check and, for
    # n > 12, the final recount of the witness; twin moves run none
    calls = {"count_fast": 0, "random_graph": 0, "symmetrise": 0}

    def counted(name):
        real = getattr(search, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(search, name, wrapper)

    for name in calls:
        counted(name)
    local_search_max(16, 7, budget=800, seed=5)
    assert calls["symmetrise"] > 0
    assert calls["count_fast"] == 1 + calls["random_graph"] + 2


def test_local_search_raises_when_kept_counts_drift(monkeypatch):
    # every second walk is the candidate's; skewing only those walks at a
    # vertex off the pinned one leaves the scores alone but drifts the kept
    # vector by one on each accepted move
    real = search.cycles_through
    walks = []

    def skewed(g, k, v, w=None):
        vec = real(g, k, v, w)
        walks.append(v)
        if len(walks) % 2 == 0:
            vec[next(x for x in range(g.n) if x not in (v, w))] += 1
        return vec

    monkeypatch.setattr(search, "cycles_through", skewed)
    with pytest.raises(RuntimeError, match="drifted"):
        local_search_max(8, 5, budget=120, seed=9)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=2, max_value=14),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_derived_graphs_pass_validation(n, p, seed, data):
    # toggled and symmetrised graphs skip revalidation, so each must equal
    # the graph that validated construction builds from its rows
    g = random_graph(n, p, seed)
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    w = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
    for h in (_toggle_edge(g, u, w), symmetrise(g, u, w)):
        assert h == Graph(n, h.rows)
        assert isinstance(h.rows, tuple)


def test_local_search_validates_args():
    with pytest.raises(ValueError):
        local_search_max(5, 8)
    with pytest.raises(ValueError):
        local_search_max(6, 5, budget=0)


def test_exhaustive_n8_k5():
    r = exhaustive_max(8, 5)
    # density must not rise from the n=7 value
    prev = exhaustive_max(7, 5)
    assert Fraction(r.best_count, comb(8, 5)) <= Fraction(prev.best_count, comb(7, 5))


def test_exhaustive_n8_k4():
    r = exhaustive_max(8, 4)
    dens = Fraction(r.best_count, comb(8, 4))
    # squeeze: cannot rise from n=7, cannot dip under the limit 3/8
    assert Fraction(3, 8) <= dens <= Fraction(FROZEN_MAX[(7, 4)], comb(7, 4))


def test_exhaustive_n9_k5():
    r = exhaustive_max(9, 5)
    assert r.best_count == 16
    _assert_levels_add_up(r)
    # the full sweep scored all 12,346 eight-vertex classes at the last level
    assert r.levels[-1]["scored"] < CLASS_COUNTS[8] << 8
    assert Fraction(r.best_count, comb(9, 5)) <= Fraction(FROZEN_MAX[(8, 5)], comb(8, 5))
