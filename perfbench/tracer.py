"""Spans around cyclecount's public functions, installed from outside.

`Tracer.install` wraps every public function of every cyclecount module,
plus `Graph.__init__`, and rebinds each wrapper in every cyclecount
namespace that imported the original, so calls between modules are seen.
Private functions are never wrapped. Spans are kept in memory as
(name, start, end, parent, work, raised) and turned into per-layer metrics
by `layer_metrics`; `work` is the cycle total of a count_fast call or the
graphs explored by an exhaustive_max call.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

WORK = {
    "counting.count_fast": lambda report: report.total,
    "search.exhaustive_max": lambda result: result.explored,
}

ANALYTIC = ("f_properties", "verify_rangec", "maximize_g_c", "maximize_g_uw",
            "solve_A", "final_constant", "verify_mindeg_chain")
COUNTING = ("count_rooted", "count_containing_pair", "symmetrise",
            "count_edge_rooted", "count_cherry_rooted", "count_oracle")
SUITES = ("analytic", "identities", "bounds", "headline")
LOCAL = "search.local_search_max"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._last_raised: BaseException | None = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # counted where it was first raised, not in every caller
                origin = exc is not self._last_raised
                self._last_raised = exc
                spans[idx] = (name, start, perf_counter(), parent, None, origin)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, perf_counter(), parent,
                          work_of(result) if work_of else None, False)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("cyclecount.") and m is not None]
        namespaces = modules + [sys.modules["cyclecount"]]
        for module in modules:
            layer = module.__name__.removeprefix("cyclecount.")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for other, obj in list(vars(ns).items()):
                        if obj is fn:
                            setattr(ns, other, traced)
        graph_cls = sys.modules["cyclecount.graph"].Graph
        graph_cls.__init__ = self._wrap("graph.Graph", graph_cls.__init__)

    def take(self) -> list[tuple]:
        """Hand over the spans recorded since the last call; call it only
        between top-level calls, when no span is open."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and times of one pass. Self time is a span's
    duration minus the durations of its direct child spans."""
    n = len(spans)
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    work: dict[str, int] = {}
    errors: dict[str, int] = {}
    # under_local[i]: span i runs inside local_search_max; io_root[i]: the
    # outermost io span of the unbroken chain of io spans that holds span i
    under_local = [False] * n
    io_root = list(range(n))
    local_children: dict[str, int] = {}
    local_s: dict[str, float] = {}
    for i, (name, start, end, parent, w, raised) in enumerate(spans):
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + end - start
        if w is not None:
            work[name] = work.get(name, 0) + w
        if raised:
            errors[layer] = errors.get(layer, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            under_local[i] = pname == LOCAL or under_local[parent]
            if layer == "io" and pname.startswith("io."):
                io_root[i] = io_root[parent]
            if pname == LOCAL:
                local_children[name] = local_children.get(name, 0) + 1
        if under_local[i]:
            local_s[name] = local_s.get(name, 0.0) + end - start

    def by_layer(layer, table, zero=0.0):
        return sum((v for k, v in table.items() if k.startswith(layer + ".")), zero)

    m: dict[str, float] = {}
    m["cli.main.self_s"] = by_layer("cli", self_s)
    m["graph.Graph.calls"] = calls.get("graph.Graph", 0)
    m["graph.Graph.self_s"] = self_s.get("graph.Graph", 0.0)
    m["io.to_graph6.calls"] = calls.get("io.to_graph6", 0)
    m["io.to_graph6.self_s"] = self_s.get("io.to_graph6", 0.0)
    m["io.loads.self_s"] = sum(
        (own[i] for i in range(n) if spans[io_root[i]][0] == "io.loads"), 0.0
    )
    m["constructions.self_s"] = by_layer("constructions", self_s)
    m["corpus.standard_corpus.calls"] = calls.get("corpus.standard_corpus", 0)
    m["corpus.self_s"] = by_layer("corpus", self_s)
    m["counting.count_fast.calls"] = calls.get("counting.count_fast", 0)
    m["counting.count_fast.self_s"] = self_s.get("counting.count_fast", 0.0)
    m["counting.count_fast.cycles"] = work.get("counting.count_fast", 0)
    m["counting.kernel_cycles_per_s"] = (
        m["counting.count_fast.cycles"] / m["counting.count_fast.self_s"]
        if m["counting.count_fast.self_s"] > 0 else 0.0
    )
    for fn in COUNTING:
        m[f"counting.{fn}.calls"] = calls.get(f"counting.{fn}", 0)
        m[f"counting.{fn}.self_s"] = self_s.get(f"counting.{fn}", 0.0)
    m["counting.errors"] = errors.get("counting", 0)
    m["bounds.calls"] = by_layer("bounds", calls, 0)
    m["bounds.self_s"] = by_layer("bounds", self_s)
    for fn in ANALYTIC:
        m[f"analytic.{fn}.self_s"] = self_s.get(f"analytic.{fn}", 0.0)
    for suite in SUITES:
        m[f"suites.{suite}.s"] = total_s.get(f"suites.{suite}_suite", 0.0)
    m["search.exhaustive_max.s"] = total_s.get("search.exhaustive_max", 0.0)
    m["search.exhaustive_max.self_s"] = self_s.get("search.exhaustive_max", 0.0)
    m["search.exhaustive_max.explored"] = work.get("search.exhaustive_max", 0)
    m["search.local_search_max.s"] = total_s.get(LOCAL, 0.0)
    # direct children of local_search_max: symmetrise is a twin move, a
    # bare Graph is a toggled copy, random_graph is a restart
    m["search.local.twin_moves"] = local_children.get("counting.symmetrise", 0)
    m["search.local.toggle_moves"] = local_children.get("graph.Graph", 0)
    m["search.local.restarts"] = local_children.get("constructions.random_graph", 0)
    m["search.local.rooted_s"] = local_s.get("counting.count_rooted", 0.0)
    m["search.local.pair_s"] = local_s.get("counting.count_containing_pair", 0.0)
    m["search.local.graph_s"] = local_s.get("graph.Graph", 0.0)
    return m
