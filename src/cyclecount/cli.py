"""Command-line front end.

Machine-readable JSON goes to stdout, human-readable summaries to stderr.
Every run emits a manifest (command, arguments, seed, version, input digest,
timestamps); with identical arguments the numeric payload is byte-identical
across runs, timestamps and runtimes aside. --seed goes unchanged to the one
seeded routine a command runs: `random_graph` for a random construct, or
`local_search_max`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__, io
from .constructions import (
    blow_up,
    complete_bipartite,
    cycle,
    nested_blow_up,
    petersen,
    random_graph,
)
from .counting import _check_k, _check_vertices, count_fast, count_oracle, count_rooted
from .graph import Graph, _check_order
from .search import exhaustive_max, local_search_max
from .suites import _SUITES, run_suites


# the most k-subsets `--mode oracle` and `--check` may examine, about two
# seconds of the subset oracle
_ORACLE_LIMIT = 1 << 22


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z"


def _iterated_blow_up(k: int, depth: int) -> Graph:
    """The depth-M blow-up of C_K, the nested blow-up on K**M vertices; K
    and M are checked first, so a huge depth never computes the power."""
    cycle(k)  # refuses K < 3 with the cycle's own message
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    _check_order(k ** min(depth, 17))  # 3**17 > MAX_VERTICES already
    return nested_blow_up(k**depth, k)


def parse_construct(spec: str, seed: int | None = None) -> Graph:
    """Build a graph from the construct mini-language.

    cycle:K | kbipartite:A,B | blowup:CK:t | iterated-blowup:CK:depth=M |
    random:N,P | petersen

    P is a decimal or a fraction A/B. A spec whose shape or numbers do not
    parse is refused as a whole; the builders' own errors (an order, an
    edge count or a depth out of range) keep their text.
    """
    kind, *fields = spec.split(":")
    shape = (kind, len(fields))
    try:
        if shape == ("cycle", 1):
            build, args = cycle, [int(fields[0])]
        elif shape == ("kbipartite", 1):
            a, b = fields[0].split(",")
            build, args = complete_bipartite, [int(a), int(b)]
        elif shape == ("blowup", 2):
            build = lambda base_k, t: blow_up(cycle(base_k), [t] * base_k)
            args = [int(fields[0].removeprefix("C")), int(fields[1])]
        elif shape == ("iterated-blowup", 2) and fields[1].startswith("depth="):
            build = _iterated_blow_up
            args = [int(fields[0].removeprefix("C")), int(fields[1].removeprefix("depth="))]
        elif shape == ("random", 1):
            n_text, p_text = fields[0].split(",")
            p = float(Fraction(p_text)) if "/" in p_text else float(p_text)
            build, args = random_graph, [int(n_text), p, seed]
        elif shape == ("petersen", 0):
            build, args = petersen, []
        else:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse construct spec {spec!r}") from None
    if build is random_graph and seed is None:
        raise ValueError("random construct needs --seed")
    return build(*args)


def _load_input(path: str) -> tuple[Graph, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = {path: hashlib.sha256(raw).hexdigest()}
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"input byte {raw[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from None
    return io.loads(text), digest


def _emit(manifest: dict, report: dict, out_path: str | None) -> None:
    manifest["finished_at"] = _now()
    payload = json.dumps(
        {"manifest": manifest, "report": report},
        indent=2, sort_keys=True,
    )
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
    print(payload)


def _get_graph(args, seed: int | None) -> tuple[Graph, dict]:
    if bool(args.input) == bool(args.construct):
        raise ValueError("exactly one of --input and --construct is required")
    if args.input:
        return _load_input(args.input)
    return parse_construct(args.construct, seed), {}


def cmd_count(args, manifest: dict) -> int:
    g, manifest["input_digest"] = _get_graph(args, args.seed)
    every_root = args.roots == "all"
    roots = []
    if args.roots is not None and not every_root:
        try:
            roots = [int(t) for t in args.roots.split(",")]
        except ValueError:
            raise ValueError(
                f"--roots takes 'all' or comma-separated vertices, got {args.roots!r}"
            ) from None
        _check_vertices(g, *roots)
        seen = set()
        for v in roots:
            if v in seen:
                raise ValueError(f"root {v} listed twice")
            seen.add(v)
    if args.mode == "oracle" or args.check:
        _check_k(g, args.k)
        subsets = math.comb(g.n, args.k)
        if subsets > _ORACLE_LIMIT:
            raise ValueError(f"the subset oracle would examine C({g.n}, {args.k}) = "
                             f"{subsets} subsets, more than {_ORACLE_LIMIT}")
    t0 = time.perf_counter()
    if args.mode == "oracle":
        report = count_oracle(g, args.k, rooted=bool(args.roots))
    else:
        report = count_fast(g, args.k, rooted=every_root)
    payload = report.to_json_dict()
    payload["n"] = g.n
    payload["m"] = g.num_edges
    payload["mode"] = args.mode
    payload["runtime_ms"] = (time.perf_counter() - t0) * 1000
    if roots:
        payload["rooted"] = {
            str(v): report.rooted[v] if args.mode == "oracle" else count_rooted(g, args.k, v)
            for v in roots
        }
    if args.check:
        other = count_oracle(g, args.k) if args.mode == "fast" else count_fast(g, args.k)
        payload["check_total"] = other.total
        payload["check_agrees"] = other.total == report.total
        if not payload["check_agrees"]:
            _emit(manifest, payload, args.out)
            print("count check FAILED: modes disagree", file=sys.stderr)
            return 1
    _emit(manifest, payload, args.out)
    print(
        f"induced {args.k}-cycles: {report.total} (n={g.n}, mode={args.mode})",
        file=sys.stderr,
    )
    return 0


def cmd_search(args, manifest: dict) -> int:
    if args.mode == "exhaustive":
        result = exhaustive_max(args.n, args.k)
    else:
        result = local_search_max(args.n, args.k, budget=args.budget, seed=args.seed or 0)
    _emit(manifest, result.to_json_dict(), args.out)
    if result.exhaustive:
        how = f"exact; {len(result.levels)} levels, {result.explored} extensions scored"
    else:
        how = "lower bound"
    print(
        f"best induced {args.k}-cycle count on n={args.n}: {result.best_count} ({how})",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args, manifest: dict) -> int:
    suites = run_suites(args.suite)
    report = {"suites": suites, "passed": all(s["passed"] for s in suites)}
    _emit(manifest, report, args.out)
    for s in suites:
        status = "ok" if s["passed"] else "FAILED"
        print(f"suite {s['suite']}: {status} ({len(s['checks'])} checks)", file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_construct(args, manifest: dict) -> int:
    g = parse_construct(args.construct, args.seed)
    text = io.to_graph6(g) if args.format == "graph6" else io.to_edge_list_text(g)
    report = {"n": g.n, "m": g.num_edges, "format": args.format, "graph": text.strip()}
    _emit(manifest, report, args.out)
    print(f"constructed {args.construct}: n={g.n}, m={g.num_edges}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecount",
        description="Exact induced k-cycle counting, search, and verification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", help="count induced k-cycles in one graph")
    p_count.add_argument("--k", type=int, required=True, help="cycle length")
    p_count.add_argument("--input", help="graph file (graph6 or edge list, autodetected)")
    p_count.add_argument("--construct", help="construct mini-language spec")
    p_count.add_argument("--mode", choices=("fast", "oracle"), default="fast")
    p_count.add_argument("--roots", help="comma-separated roots or 'all'")
    p_count.add_argument("--check", action="store_true",
                         help="run both modes and compare")
    p_count.add_argument("--seed", type=int, help="seed for random constructs")
    p_count.add_argument("--out", help="also write the JSON report here")
    p_count.set_defaults(func=cmd_count)

    p_search = sub.add_parser("search", help="extremal search for the max count")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p_search.add_argument("--budget", type=int, default=1000)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("construct", help="emit a constructed graph")
    p_con.add_argument("--construct", required=True)
    p_con.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_con.add_argument("--seed", type=int)
    p_con.add_argument("--out")
    p_con.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = {
        "command": args.subcommand,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started_at": _now(),
        "input_digest": {},
    }
    try:
        return args.func(args, manifest)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
