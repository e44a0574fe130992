"""Verification suites shared by the CLI and the acceptance tests.

Each suite returns a JSON-ready dict {"suite", "passed", "checks": [...]}
where every check carries a name, a passed flag, and enough detail to see
what was compared. All randomness is seeded, so suite output is
deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from . import analytic, io
from .bounds import cherry_bound, edge_bound, vertex_bound
from .corpus import random_instances, standard_corpus
from .counting import (
    count_cherry_rooted,
    count_containing_pair,
    count_fast,
    count_rooted,
    is_induced_cycle,
    symmetrise,
)
from .graph import (
    codegree,
    from_edge_list,
    nonadjacent_neighbor_pairs,
    triple_codegree,
)
from .interval import Interval

IDENTITY_SEED = 20240801
SYMMETRISE_SEED = 20240802
IDENTITY_GRAPHS = 100
IDENTITY_KS = (5, 6, 7)
SYMMETRISE_SAMPLES = 500
BOUND_KS = (5, 6, 7)
HEADLINE_KS = (6, 7, 8)

# floats proved to be at most e and 128e/81: a count passes a ceiling of e or
# 128e/81 times a rational r only if count / r is at most one of them
E_LOWER = Interval(-1.0).exp_neg()[0]
RATIO_LOWER = analytic.RATIO[0]


def _suite(name: str, checks: list[dict]) -> dict:
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _twin_update(g, k: int, v_minus: int, v_plus: int, total: int) -> int:
    """The count of symmetrise(g, v_minus, v_plus) that the neighborhood-swap
    identity predicts from g alone, given g's count `total`."""
    return (
        total
        - count_rooted(g, k, v_minus)
        + count_rooted(g, k, v_plus)
        - count_containing_pair(g, k, v_minus, v_plus)
    )


def _handshake_failures(g, k: int) -> list[str]:
    """The handshakes that fail on g at k: `vertex` for k * total against
    the credited vector's sum, and `vertex@v`, `edge@v` and `cherry@v` for
    vertex v's pinned-root, edge and cherry sums against its credit.

    Each edge is walked once, its count added to both endpoints, and each
    induced 2-path u-v-w once, as u < w: a cycle through v passes through
    exactly one unordered cherry centred at v, so the cherry sum is v's
    credit and the edge sum twice it."""
    failures = []
    report = count_fast(g, k, rooted=True)
    if k * report.total != sum(report.rooted.values()):
        failures.append("vertex")
    edge_sums = [0] * g.n
    for u, w in g.edges():
        count = count_containing_pair(g, k, u, w)
        edge_sums[u] += count
        edge_sums[w] += count
    for v in range(g.n):
        # the one-pass vector sums to k * total by construction, so it is
        # checked vertex by vertex against the pinned-root enumeration
        if report.rooted[v] != count_rooted(g, k, v):
            failures.append(f"vertex@{v}")
        if edge_sums[v] != 2 * report.rooted[v]:
            failures.append(f"edge@{v}")
        cherry_sum = sum(
            count_cherry_rooted(g, k, u, v, w)
            for u, w in nonadjacent_neighbor_pairs(g, v) if u < w
        )
        if cherry_sum != report.rooted[v]:
            failures.append(f"cherry@{v}")
    return failures


def identities_suite() -> dict:
    """Exact combinatorial identities: vertex/edge/cherry handshakes on
    random graphs and the neighborhood-swap count identity (k >= 5),
    including its explicit k = 4 failure witness."""
    checks = []
    graphs = random_instances(IDENTITY_GRAPHS, 8, 14, IDENTITY_SEED)
    handshake_fail = []
    for i, (name, g) in enumerate(graphs):
        k = IDENTITY_KS[i % len(IDENTITY_KS)]
        handshake_fail += [(name, k, label, io.to_graph6(g))
                           for label in _handshake_failures(g, k)]
    checks.append({
        "name": "handshake_identities",
        "passed": not handshake_fail,
        "graphs": IDENTITY_GRAPHS,
        "ks": list(IDENTITY_KS),
        "failures": handshake_fail,
    })

    sym_fail = []
    graphs = random_instances(SYMMETRISE_SAMPLES // 10, 8, 12, SYMMETRISE_SEED)
    for j, (name, g) in enumerate(graphs):
        k = (5, 6)[j % 2]
        total = count_fast(g, k).total
        # graph j takes samples r = 0..9, the ordered pairs (v-, v- + step + 1)
        # with (step, v-) = divmod(r, n): distinct, as r < n (n - 1) for n >= 8
        for r in range(10):
            step, v_minus = divmod(r, g.n)
            v_plus = (v_minus + step + 1) % g.n
            lhs = count_fast(symmetrise(g, v_minus, v_plus), k).total
            rhs = _twin_update(g, k, v_minus, v_plus, total)
            if lhs != rhs:
                sym_fail.append((name, k, v_minus, v_plus, lhs, rhs, io.to_graph6(g)))
    checks.append({
        "name": "symmetrise_identity_k_ge_5",
        "passed": not sym_fail,
        "instances": SYMMETRISE_SAMPLES,
        "failures": sym_fail,
    })

    # k = 4 counterexample: an isolated vertex turned into a twin of the
    # middle of a path closes a brand-new 4-cycle through both twins
    g = from_edge_list(4, [(1, 2), (2, 3)])
    g2 = symmetrise(g, 0, 2)
    lhs = count_fast(g2, 4).total
    rhs = _twin_update(g, 4, 0, 2, count_fast(g, 4).total)
    twin_cycle = is_induced_cycle(g2, [0, 1, 2, 3])
    checks.append({
        "name": "symmetrise_identity_fails_at_k4",
        "passed": lhs != rhs and twin_cycle and lhs == 1 and rhs == 0,
        "lhs": lhs,
        "rhs": rhs,
        "twin_pair_shares_k4_cycle": twin_cycle,
    })
    return _suite("identities", checks)


def _lemma_instances(g, k: int, heavy: bool = False):
    """(lemma, vertices, count, ceiling, constant) for every instance of the
    paper's ceilings on g at k: the global one, each vertex, and unless heavy
    each edge and, for k >= 6, each induced 2-path u-v-w (cherry), in both
    orders of u and w from one walk and one ceiling. With constant None the
    ceiling is the exact `Fraction`; otherwise constant is (name, low) and
    the ceiling is that constant times `ceiling`."""
    n = g.n
    report = count_fast(g, k, rooted=True)
    yield "global", (), report.total, 2 * Fraction(n, k) ** k, ("e", E_LOWER)
    degs = g.degree_sequence()
    for v in range(n):
        yield "vertex", (v,), report.rooted[v], vertex_bound(n, k, degs[v]), None
    if heavy:
        return
    for u, w in g.edges():
        ceiling = edge_bound(n, k, degs[u], degs[w], codegree(g, u, w))
        yield "edge", (u, w), count_containing_pair(g, k, u, w), ceiling, None
    if k < 6:
        return
    for v in range(n):
        # (u, w) comes before (w, u), and the count and the ceiling are
        # symmetric in u and w: both are taken once, at u < w
        cherries = {}
        for u, w in nonadjacent_neighbor_pairs(g, v):
            if u < w:
                cherries[u, w] = count_cherry_rooted(g, k, u, v, w), cherry_bound(
                    n, k, degs[u], degs[v], degs[w],
                    codegree(g, u, v), codegree(g, v, w), codegree(g, u, w),
                    triple_codegree(g, u, v, w),
                )
            count, ceiling = cherries[min(u, w), max(u, w)]
            yield "cherry", (u, v, w), count, ceiling, None


def _exceeds(count: int, ceiling, constant) -> bool:
    """Whether count is above the ceiling: exactly when constant is None,
    else as count / ceiling against constant[1], a float proved to be at
    most the constant."""
    if constant is None:
        return count > ceiling
    return Fraction(count) / ceiling > constant[1]


def bounds_suite() -> dict:
    """Zero tolerance soundness sweep of all four count ceilings over the
    corpus: per-vertex for every vertex, per-edge for every edge, cherry for
    every induced 2-path (skipped on heavy entries), and the global bound.
    Every comparison is exact; a violation names the instance's graph6 and
    writes its ceiling as a fraction string.
    """
    violations = []
    evaluated = {"vertex": 0, "edge": 0, "cherry": 0, "global": 0}
    for entry in standard_corpus():
        for k in BOUND_KS:
            if k > entry.graph.n:
                continue
            for lemma, vertices, count, ceiling, constant in _lemma_instances(
                    entry.graph, k, entry.heavy):
                evaluated[lemma] += 1
                if _exceeds(count, ceiling, constant):
                    where = f"{lemma}@{','.join(map(str, vertices))}" if vertices else lemma
                    text = str(ceiling) if constant is None else f"{constant[0]}*{ceiling}"
                    violations.append((entry.name, k, where, count, text,
                                       io.to_graph6(entry.graph)))
    return _suite("bounds", [{
        "name": "bound_soundness_zero_violations",
        "passed": not violations,
        "evaluated": evaluated,
        "violations": violations,
    }])


def headline_suite() -> dict:
    """Per-vertex ceiling at the minimum-degree vertex over the corpus.

    For each graph and k, the scaled degree c = k d / n of the minimum
    degree vertex is classified into the proof's case split (c < 1, the
    bracket 1 <= c < 2, or c >= 2) and the exact rooted count is checked
    against (128e/81)(n/k)^(k-1) (1 + 10/n), exactly as count over the
    rational part against a float proved to be at most 128e/81.
    """
    failures = []
    cases = {"low": 0, "bracket": 0, "high": 0}
    for entry in standard_corpus():
        g = entry.graph
        n = g.n
        v = g.min_degree_vertex()
        d = g.degree(v)
        for k in HEADLINE_KS:
            if k > n:
                continue
            c = Fraction(k * d, n)
            case = "low" if c < 1 else "bracket" if c < 2 else "high"
            cases[case] += 1
            actual = count_rooted(g, k, v)
            scale = Fraction(n, k) ** (k - 1) * Fraction(n + 10, n)
            if _exceeds(actual, scale, ("128e/81", RATIO_LOWER)):
                failures.append((entry.name, k, str(c), case, actual,
                                 f"128e/81*{scale}", io.to_graph6(g)))
    return _suite("headline", [{
        "name": "min_degree_vertex_ceiling",
        "passed": not failures,
        "case_counts": cases,
        "failures": failures,
    }])


def analytic_suite() -> dict:
    """All scalar optimization verifications, each proved once over its
    whole parameter range, except solve_A for c < 1.5, which is sampled.
    A check with a closed form reports it and its distance from max_value;
    each function proves that distance within its own tolerance."""
    checks = []

    def run(name, fn):
        try:
            res = fn()
        except analytic.VerificationError as exc:
            checks.append({"name": name, "passed": False, "error": str(exc)})
            return
        entry = {"name": name, "passed": True, "max_value": res.max_value,
                 "argmax": list(res.argmax), "on_boundary": res.on_boundary,
                 "certified_upper": res.certified_upper, "boxes": res.info["boxes"]}
        if "closed_form" in res.info:
            entry["closed_form"] = res.info["closed_form"]
            entry["abs_err"] = abs(res.max_value - res.info["closed_form"])
        checks.append(entry)

    run("f_shape", analytic.f_properties)
    run("degree_ratio_ranges", analytic.verify_rangec)
    run("slack_product_c2_to_4", analytic.maximize_g_c)
    run("two_ended_slack_c1_to_2", analytic.maximize_g_uw)
    # solve_A(2.0) proves every c in [1.5, 2]
    for name, c in (("c1.0", 1.0), ("c1.2", 1.2), ("c1.5_to_2.0", 2.0)):
        run(f"product_sum_{name}", lambda c=c: analytic.solve_A(c))
    run("headline_constant", analytic.final_constant)
    run("mindeg_chain", analytic.verify_mindeg_chain)
    return _suite("analytic", checks)


# the suites in the run order of `verify --suite all`; name runs name_suite,
# looked up when it runs, so a wrapped or patched suite function is the one run
_SUITES = ("analytic", "identities", "bounds", "headline")


def run_suites(which: str = "all") -> list[dict]:
    if which != "all" and which not in _SUITES:
        raise ValueError(f"unknown suite {which!r}; choose from {_SUITES} or 'all'")
    return [globals()[f"{name}_suite"]() for name in _SUITES if which in ("all", name)]
