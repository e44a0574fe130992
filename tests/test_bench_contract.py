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
import sys
from pathlib import Path

import pytest

from cyclecount import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
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
