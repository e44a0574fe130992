"""Benchmark of the cyclecount CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in one process as a closed loop with one caller: passes
over its operations, each a call of `cyclecount.cli.main(argv)` in-process
on inputs generated from --seed. Times are scaled to a reference host
speed measured between operations (see speed.py); the unscaled ones are
printed beside them. Set-up time is the wall time of fresh interpreters
importing `cyclecount.cli`, scaled by ticks taken on the CPU they ran on.
Every report is checked against an independent reference after the timed
passes. An operation fails if it raises, exits nonzero or disagrees with
the reference.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
separate traced phase (see tracer.py). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give context, and a fuller report (quartiles, sample counts, failures,
spans) goes to .bench_build/perfbench/<workload>-seed<seed>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import inspect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_TICK_S = 0.05
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
UNSCALED = "unscaled."         # printed for context, not results
COUNT_SUFFIXES = (".calls", ".cycles", ".explored", "_moves", ".restarts", ".errors")

UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "success_rate": "ratio", "counting.kernel_cycles_per_s": "1/s",
    "counting.pool_speedup": "ratio", "trace.overhead": "ratio",
}


def unit_of(name: str) -> str:
    name = name.removeprefix(UNSCALED)
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(COUNT_SUFFIXES) else "s"


def summary(values: list, unit: str) -> dict:
    """Median, quartiles and sample count; a metric measured as None (not
    applicable to this build) stays None with no samples."""
    if None in values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "unit": unit}
    if len(set(values)) == 1:       # exact counts stay integers
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values), "unit": unit}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit}


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so that
    speed ticks around a fresh interpreter measure the CPU it ran on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def fresh_import(importtime: bool) -> tuple[float, dict]:
    """Wall time of a new interpreter importing cyclecount.cli; with
    importtime, also the cumulative import times of cyclecount.cli and numpy."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import cyclecount.cli"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    elapsed = time.perf_counter() - start
    found = {}
    for line in proc.stderr.splitlines() if importtime else ():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].strip()
            if name == "cyclecount.cli" and fields[2].startswith("  "):
                continue
            if name in ("cyclecount.cli", "numpy") and name not in found:
                found[name] = int(fields[1]) / 1e6
    return elapsed, {"cli.import_s": found.get("cyclecount.cli", 0.0),
                     "cli.import_numpy_s": found.get("numpy", 0.0)}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call(cli, argv: list[str]) -> tuple[bool, str]:
    """(True, stdout) on exit status 0, else (False, what went wrong)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    # an operation that raises is a failed operation; the pass goes on
    except (Exception, SystemExit) as exc:
        return False, "".join(traceback.format_exception_only(exc)).strip()
    return (True, out.getvalue()) if status == 0 else (False, f"exit status {status}")


@dataclass
class Pass:
    """Wall and CPU time of one pass as measured, the speed ticks taken
    after each of its operations, and the outcomes."""

    wall: float
    cpu: float
    ticks: list[tuple[float, int]]
    outcomes: list[tuple[bool, str]]


def run_pass(cli, ops, load: speed.Load) -> Pass:
    """Each operation is timed alone, so the ticks stay out of the times."""
    one = Pass(0.0, 0.0, [], [])
    for op in ops:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        one.outcomes.append(call(cli, op.argv))
        wall = time.perf_counter() - wall0
        one.wall += wall
        one.cpu += cpu_seconds() - cpu0
        one.ticks.append(load.tick(speed.TICK_SHARE * wall))
    return one


def scaled(load: speed.Load, passes: list[Pass], field: str) -> list[float]:
    """The passes' wall or CPU times at the reference speed, each scaled
    by its own ticks."""
    return [load.scale(getattr(p, field), p.ticks) for p in passes]


def run_until(cli, ops, load, deadline: float, minimum: int) -> list[Pass]:
    """Passes until the deadline, at least `minimum`. The first pass is
    kept: a CLI user fills the lazy caches on every call too."""
    passes = [run_pass(cli, ops, load)]
    while len(passes) < minimum or time.perf_counter() < deadline:
        passes.append(run_pass(cli, ops, load))
    return passes


def check_outcomes(ops, passes) -> tuple[int, int, int, list[str]]:
    """attempted, failed, how many of the failures disagreed with the
    reference, and one line per distinct failure."""
    attempted = failed = wrong = 0
    lines: dict[str, None] = {}
    for one in passes:
        for op, (ok, text) in zip(ops, one.outcomes):
            attempted += 1
            reason = op.check(json.loads(text)["report"]) if ok else None
            if ok and reason is None:
                continue
            failed += 1
            wrong += ok
            lines[f"wrong {op.name}: {reason}" if ok else f"failed {op.name}: {text}"] = None
    return attempted, failed, wrong, list(lines)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cyclecount").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def pool_speedup(seed: int) -> float | None:
    """count_fast with threads=1 over threads=2 on the largest count graph;
    None once count_fast has no process pool."""
    from cyclecount.counting import count_fast
    from cyclecount.graph import from_edge_list

    if "threads" not in inspect.signature(count_fast).parameters:
        return None
    n, edges, k = workloads.largest_random_graph(seed)
    g = from_edge_list(n, edges)
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(2):
        for threads in (1, 2):
            start = time.perf_counter()
            count_fast(g, k, threads=threads)
            times[threads].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def traced_metrics(cli, ops, load, seconds, seed, work: Path):
    """Untraced passes over the first half of the window, traced passes
    over the second; returns (metric samples, passes, problems)."""
    speedup = pool_speedup(seed)
    deadline = time.perf_counter() + seconds
    plain = run_until(cli, ops, load, deadline - seconds / 2, 1)
    trace = tracer.Tracer()
    trace.install()
    traced, per_pass = [], []
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        traced.append(run_pass(cli, ops, load))
        per_pass.append(trace.take())
    with open(work / "spans.jsonl", "w", encoding="ascii") as fh:
        for i, spans in enumerate(per_pass):
            for span in spans:
                fh.write(json.dumps([i, *span]) + "\n")

    layers = [tracer.layer_metrics(spans) for spans in per_pass]
    problems = []
    values: dict[str, list[float]] = {}
    for name in layers[0]:
        column = [m[name] for m in layers]
        if name.endswith(COUNT_SUFFIXES) and len(set(column)) != 1:
            problems.append(f"count {name} differs between passes: {column}")
        values[name] = column
    values["counting.pool_speedup"] = [speedup]
    values["trace.overhead"] = [
        statistics.median(scaled(load, traced, "wall"))
        / statistics.median(scaled(load, plain, "wall"))
    ]
    counts = {k: v[0] for k, v in values.items() if k.endswith(COUNT_SUFFIXES)}
    record = work / f"counts-{source_digest()}.json"
    if record.exists():
        before = json.loads(record.read_text(encoding="ascii"))
        problems += [f"count {k} was {before[k]} in an earlier run, now {counts[k]}"
                     for k in counts if before.get(k) != counts[k]]
    else:
        record.write_text(json.dumps(counts, sort_keys=True), encoding="ascii")
    return values, plain + traced, problems


def plain_metrics(cli, ops, load, seconds):
    passes = run_until(cli, ops, load, time.perf_counter() + seconds, MIN_PASSES)
    values = {
        "wall_s": scaled(load, passes, "wall"),
        "cpu_s": scaled(load, passes, "cpu"),
        "unscaled.wall_s": [p.wall for p in passes],
        "unscaled.cpu_s": [p.cpu for p in passes],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    return values, passes


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "cyclecount" / "cli.py").is_file():
        print(f"perfbench: no cyclecount sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.BUILDERS[name](seed, work)
    load = workloads.SPEED[name]
    fresh_import(False)             # compiles bytecode before anything is timed
    imports, ticks = [], []
    with one_cpu():
        for _ in range(SETUP_REPEATS):
            imports.append(fresh_import(trace))
            ticks.append(speed.INTERPRETED.tick(SETUP_TICK_S))
    setup = [speed.INTERPRETED.scale(elapsed, ticks) for elapsed, _ in imports]
    sys.path.insert(0, str(SRC))
    from cyclecount import cli

    if trace:
        values, passes, problems = traced_metrics(cli, ops, load, seconds, seed, work)
        for key in ("cli.import_s", "cli.import_numpy_s"):
            values[key] = [found[key] for _, found in imports]
    else:
        values, passes = plain_metrics(cli, ops, load, seconds)
        values["setup_s"] = setup
        values["unscaled.setup_s"] = [elapsed for elapsed, _ in imports]
        problems = []
    attempted, failed, wrong, failures = check_outcomes(ops, passes)
    if not trace:
        values["success_rate"] = [(attempted - failed) / attempted]
    correct = not problems and not wrong

    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": workloads.WHY[name], "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(), "operations": [op.argv for op in ops],
        "loop": "closed, one caller, one process",
    }
    stats = {k: summary(v, unit_of(k)) for k, v in sorted(values.items())}
    report = {"context": context, "metrics": stats, "samples": values, "correct": correct,
              "attempted": attempted, "failed": failed,
              "failures": failures, "problems": problems,
              "ticks": [p.ticks for p in passes]}
    detail = work / f"result-trace{int(trace)}.json"
    detail.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")

    print(f"perfbench {name} seed={seed} trace={int(trace)}: nproc={context['nproc']} "
          f"python={context['python']} numpy={context['numpy']}")
    print(f"  why: {context['why']}")
    def fmt(x):
        return f"{x:.6g}" if isinstance(x, float) else str(x)

    for key, s in stats.items():
        print(f"  {key:40s} {fmt(s['median'])} {s['unit']} "
              f"(q1 {fmt(s['q1'])}, q3 {fmt(s['q3'])}, n={s['n']})")
    print(f"  checks: {attempted} operations, {failed} failed, error_rate "
          f"{failed / attempted:.4f}, correct={correct}")
    for line in failures + problems:
        print(f"  {line}")
    print(f"  details: {detail.relative_to(ROOT)}")
    metrics = {k: {"value": s["median"], "unit": s["unit"]} for k, s in stats.items()
               if not k.startswith(UNSCALED)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own child process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
