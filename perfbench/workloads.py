"""The three workloads: their generated inputs, the `cyclecount` command
lines of one pass, and the check each command's JSON report must pass.

Inputs come only from the benchmark seed, through `random.Random` seeded by
strings, so a seed names the same files on every machine. Graph files are
written in graph6 by the encoder below, not by cyclecount.

The seed relabels graphs and orders operations but does not change how much
work a pass is: the random graph structures and the local-search seeds are
drawn once from STRUCTURE_SEED. Drawn from the benchmark seed, they changed
the work of a pass by up to about a tenth from seed to seed: one local
search made 5,340 to 6,780 rooted counts over six seeds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
import speed

WHY = {
    "count": "a few large canonical-path enumerations dominate; Graph, io, the "
             "analytic solvers and the numpy sweep do almost nothing",
    "certify": "the paper-checking job: analytic solvers, the numpy sweep and many "
               "tiny rooted, edge and cherry counts on graphs with n <= 16",
    "local-search": "thousands of small pinned and pair counts between graph "
                    "rebuilds, the writes here beside the reads",
}

STRUCTURE_SEED = 0

# The kind of work each workload's time is mostly made of; its times are
# scaled by the speed of a load of that kind (see speed.py).
SPEED = {"count": speed.INTERPRETED, "certify": speed.VECTORISED,
         "local-search": speed.INTERPRETED}

# (n, p, k) of the random graphs counted whole in `count`. Each is drawn
# with exactly round(p * C(n, 2)) edges, so the work does not swing with the
# edge count the way it does in G(n, p).
COUNT_RANDOM = [(52, 0.30, 6), (60, 0.20, 7), (68, 0.15, 8), (80, 0.12, 8)]
ROOTS_ALL = (60, 0.20, 7)
CHECKED = (14, 0.40, 5)
ITERATED = (5, 3)          # C5 blown up to depth 3: n = 125, counted at k = 5
BALANCED = (7, 3)          # C7 with parts of 3: n = 21, counted at k = 7
LONG_CYCLE = 700
VERY_LONG_CYCLE = 1200     # a path deeper than the default recursion limit of 1000

CERTIFY_SEARCHES = [(n, k) for k in (4, 5, 6) for n in range(k, 8)]
LOCAL_SEARCHES = [(30, 5, 2000), (28, 6, 1500), (30, 4, 2000)]


@dataclass
class Op:
    """One CLI call of a pass; `check` maps its JSON report to None when
    the report agrees with the reference, else to the reason it does not."""

    name: str
    argv: list[str]
    check: Callable[[dict], str | None]


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def graph6(n: int, edges) -> str:
    """graph6 text of a graph on 0..n-1 (upper triangle, column-major)."""
    adjacent = {(min(u, w), max(u, w)) for u, w in edges}
    bits = [int((r, c) in adjacent) for c in range(1, n) for r in range(c)]
    bits += [0] * (-len(bits) % 6)
    head = [n + 63] if n <= 62 else [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    body = [
        63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)
    ]
    return bytes(head + body).decode("ascii")


def random_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    return rng.sample(pairs, round(p * len(pairs)))


def permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(edges, perm: list[int]) -> list[tuple[int, int]]:
    return [(perm[u], perm[w]) for u, w in edges]


def cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def iterated_blowup_edges(k: int, depth: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertices are depth-digit words in base k; two words are adjacent iff
    at their first differing digit the digits are adjacent on C_k."""
    words = [tuple(w) for w in _words(k, depth)]
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for a in words:
        for b in words:
            if a < b:
                i = next(j for j in range(depth) if a[j] != b[j])
                if (a[i] - b[i]) % k in (1, k - 1):
                    edges.append((index[a], index[b]))
    return len(words), edges


def _words(k: int, depth: int):
    if depth == 0:
        yield ()
        return
    for head in range(k):
        for tail in _words(k, depth - 1):
            yield (head, *tail)


def blowup_edges(k: int, t: int) -> tuple[int, list[tuple[int, int]]]:
    """C_k with every vertex replaced by t independent copies."""
    edges = [
        (i * t + a, ((i + 1) % k) * t + b)
        for i in range(k) for a in range(t) for b in range(t)
    ]
    return k * t, edges


def _write(directory: Path, name: str, n: int, edges) -> tuple[str, str]:
    """Write the graph to <name>.g6; returns the path and the graph6 text."""
    text = graph6(n, edges)
    path = directory / f"{name}.g6"
    path.write_text(text + "\n", encoding="ascii")
    return str(path), text


def _count_op(name, path, k, expected, extra=()) -> Op:
    """expected() -> (total, per-vertex tallies or None); run once, lazily."""
    ref = functools.cache(expected)

    def check(report):
        total, per_vertex = ref()
        if report["total"] != total:
            return f"total {report['total']} != reference {total}"
        if "--roots" in extra:
            got = [report["rooted"][str(v)] for v in range(len(per_vertex))]
            if got != per_vertex:
                return "per-vertex tallies disagree with the reference"
        if "--check" in extra and not (report["check_agrees"] and report["check_total"] == total):
            return "oracle cross-check disagrees"
        return None

    return Op(name, ["count", "--input", path, "--k", str(k), *extra], check)


def _nx(cache: Path, text: str, k: int):
    """networkx reference for a graph6 text, kept on disk under a key of the
    text, k and reference.py, since it can take many seconds."""
    key = hashlib.sha256(
        f"{text}\0{k}\0".encode() + Path(reference.__file__).read_bytes()
    ).hexdigest()[:24]
    path = cache / f"{key}.json"

    def expected():
        if path.exists():
            return tuple(json.loads(path.read_text(encoding="ascii")))
        total, per_vertex = reference.graph6_induced_cycles(text, k)
        cache.mkdir(exist_ok=True)
        path.write_text(json.dumps([total, per_vertex]), encoding="ascii")
        return total, per_vertex

    return expected


def _relabelled(expected, perm: list[int]):
    """The reference of a graph, carried over to its relabelled copy."""
    def mapped():
        total, base = expected()
        per_vertex = [0] * len(perm)
        for v, tally in enumerate(base):
            per_vertex[perm[v]] = tally
        return total, per_vertex

    return mapped


def _known(total):
    return lambda: (total, None)


def random_graph(seed: int, label: str, n: int, p: float):
    """The fixed random structure named by label, relabelled by the seed:
    (edges of the structure, the relabelling, edges of the relabelled copy)."""
    edges = random_edges(n, p, _rng(STRUCTURE_SEED, label))
    perm = permutation(n, _rng(seed, label))
    return edges, perm, relabel(edges, perm)


def largest_random_graph(seed: int) -> tuple[int, list[tuple[int, int]], int]:
    n, p, k = COUNT_RANDOM[-1]
    return n, random_graph(seed, f"gnp{len(COUNT_RANDOM) - 1}", n, p)[2], k


def count_ops(seed: int, directory: Path) -> list[Op]:
    cache = directory.parent / "reference"
    randoms = [(f"gnp{i}", spec, ()) for i, spec in enumerate(COUNT_RANDOM)]
    randoms += [("roots", ROOTS_ALL, ("--roots", "all")), ("checked", CHECKED, ("--check",))]
    ops = []
    for label, (n, p, k), extra in randoms:
        edges, perm, relabelled = random_graph(seed, label, n, p)
        path, _ = _write(directory, label, n, relabelled)
        # networkx counts the structure once per checkout, not once per seed
        expected = _relabelled(_nx(cache, graph6(n, edges), k), perm)
        ops.append(_count_op(f"{label}_n{n}_k{k}", path, k, expected, extra))

    base, depth = ITERATED
    n, edges = iterated_blowup_edges(base, depth)
    path, _ = _write(directory, "iterated", n,
                     relabel(edges, permutation(n, _rng(seed, "iterated"))))
    ops.append(_count_op(f"iterated_C{base}_depth{depth}", path, base,
                         _known(reference.iterated_blowup_count(base, depth))))

    base, t = BALANCED
    n, edges = blowup_edges(base, t)
    path, _ = _write(directory, "balanced", n,
                     relabel(edges, permutation(n, _rng(seed, "balanced"))))
    ops.append(_count_op(f"blowup_C{base}_t{t}", path, base, _known(t ** base)))

    for k in (LONG_CYCLE, VERY_LONG_CYCLE):
        path, _ = _write(directory, f"cycle{k}", k,
                         relabel(cycle_edges(k), permutation(k, _rng(seed, f"c{k}"))))
        ops.append(_count_op(f"cycle_{k}", path, k, _known(1)))
    return ops


@functools.cache
def _recount(g6: str, k: int) -> int:
    return reference.graph6_induced_cycles(g6, k)[0]


def certify_ops(seed: int, directory: Path) -> list[Op]:
    def check_verify(report):
        if report["passed"] is not True:
            return "verify reports passed = false"
        suites = sorted(s["suite"] for s in report["suites"])
        if suites != ["analytic", "bounds", "headline", "identities"]:
            return "verify did not run all four suites"
        analytic = next(s for s in report["suites"] if s["suite"] == "analytic")
        value = next(c["max_value"] for c in analytic["checks"]
                     if c["name"] == "headline_constant")
        if not math.isclose(value, reference.HEADLINE_CONSTANT, rel_tol=1e-9):
            return f"headline constant {value} != 128e/81"
        return None

    def search_check(n, k):
        def check(report):
            want = reference.FROZEN_MAX[(n, k)]
            if report["best_count"] != want or not report["exhaustive"]:
                return f"exhaustive max {report['best_count']} != frozen {want}"
            if not report["witnesses"]:
                return "no witness reported"
            bad = [w for w in report["witnesses"] if _recount(w, k) != want]
            return f"witnesses {bad} do not reach {want}" if bad else None
        return check

    ops = [Op("verify_all", ["verify", "--suite", "all"], check_verify)]
    ops += [
        Op(f"search_{n}_{k}", ["search", "--n", str(n), "--k", str(k)], search_check(n, k))
        for n, k in CERTIFY_SEARCHES
    ]
    # the seed only orders the operations; their inputs are fixed by the paper
    _rng(seed, "certify").shuffle(ops)
    return ops


def local_search_ops(seed: int, directory: Path) -> list[Op]:
    def make(n, k, budget, search_seed):
        floor = reference.blowup_count(reference.balanced_parts(n, k))

        def check(report):
            best = report["best_count"]
            if best < floor:
                return f"best {best} below the balanced blow-up start {floor}"
            got = _recount(report["witnesses"][0], k)
            return None if got == best else f"witness has {got} cycles, report says {best}"

        argv = ["search", "--mode", "local", "--n", str(n), "--k", str(k),
                "--budget", str(budget), "--seed", str(search_seed)]
        return Op(f"local_{n}_{k}_{budget}", argv, check)

    rng = _rng(STRUCTURE_SEED, "local")
    ops = [make(n, k, b, rng.randrange(1 << 31)) for n, k, b in LOCAL_SEARCHES]
    _rng(seed, "local").shuffle(ops)
    return ops


BUILDERS = {"count": count_ops, "certify": certify_ops, "local-search": local_search_ops}
