"""The benchmark's contract with the CLI: every operation of every workload
exits 0 with exactly one JSON document on stdout, and that report passes
the operation's own check.

perfbench/run.py parses each operation's stdout as one JSON document and
hands the report to the check in perfbench/workloads.py; an exception in
either aborts the benchmark before it prints its result line. The count
operations whose reference is a networkx enumeration of a graph with 52 to
80 vertices (about 19 s together) are checked here only for the keys their
check reads.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from cyclecount import cli
from cyclecount.counting import _count_kernel, count_fast
from cyclecount.graph import from_edge_list

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

# operations named so are checked only for the keys their check reads
SLOW_REFERENCE = ("gnp", "roots_")


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_op_gives_one_checked_report(workload, tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for op in workloads.BUILDERS[workload](1, inputs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(op.argv)
        assert status == 0, op.name
        # raw_decode stops after one document; anything after it is an error
        text = out.getvalue()
        document, end = json.JSONDecoder().raw_decode(text)
        assert not text[end:].strip(), op.name
        report = document["report"]
        if not op.name.startswith(SLOW_REFERENCE):
            assert op.check(report) is None, op.name
            continue
        assert isinstance(report["total"], int) and not isinstance(report["total"], bool)
        if "--roots" in op.argv:
            n = workloads.ROOTS_ALL[0]
            assert sorted(report["rooted"], key=int) == [str(v) for v in range(n)]


# The totals networkx gives for the benchmark's random count graphs, which
# the test above checks only for their keys: deep walks on n >= 52.
RANDOM_TOTALS = [("gnp0", 37_656), ("gnp1", 81_019), ("gnp2", 176_337),
                 ("gnp3", 249_823), ("roots", 81_618)]


@pytest.mark.parametrize("label, total", RANDOM_TOTALS)
def test_random_count_graphs_keep_their_totals(label, total):
    specs = {f"gnp{i}": spec for i, spec in enumerate(workloads.COUNT_RANDOM)}
    n, p, k = specs.get(label, workloads.ROOTS_ALL)
    g = from_edge_list(n, workloads.random_graph(1, label, n, p)[2])
    assert count_fast(g, k).total == total
    assert _count_kernel(g, k) == total


# One small operation of each kind the traced benchmark runs.
TRACED_OPS = [
    ["count", "--construct", "petersen", "--k", "5"],
    ["verify", "--suite", "headline"],
    ["search", "--n", "6", "--k", "5"],
    ["search", "--n", "10", "--k", "5", "--mode", "local", "--budget", "50"],
]

# Runs in a fresh interpreter, since the tracer rebinds module functions for
# the whole process; prints the per-layer metrics (and the pool speedup,
# while perfbench/run.py measures one) as one JSON object.
TRACED_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from cyclecount import cli
import run, tracer

extra = {{}}
if hasattr(run, "pool_speedup"):
    extra["counting.pool_speedup"] = run.pool_speedup(1)
trace = tracer.Tracer()
trace.install()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in {ops!r}:
        assert cli.main(argv) == 0, argv
print(json.dumps({{**tracer.layer_metrics(trace.take()), **extra}}))
"""


def test_traced_ops_give_finite_layer_metrics():
    # a traced metric that comes out null or non-finite leaves the
    # benchmark's result without a number for it
    script = TRACED_SCRIPT.format(perfbench=str(PERFBENCH), ops=TRACED_OPS,
                                  src=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])
    bad = {name: value for name, value in metrics.items()
           if isinstance(value, bool) or not isinstance(value, (int, float))
           or not math.isfinite(value)}
    assert metrics and not bad
