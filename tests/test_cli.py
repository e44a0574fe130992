"""CLI behavior: JSON reports on stdout, summaries on stderr, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from cyclecount import cli, constructions, io, search, suites
from cyclecount.constructions import petersen, random_graph
from cyclecount.counting import count_rooted
from cyclecount.io import to_graph6


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_count_cycle7(capsys):
    code, payload, err = run_cli(capsys, "count", "--construct", "cycle:7", "--k", "7")
    assert code == 0
    assert payload["report"]["total"] == 1
    assert payload["manifest"]["command"] == "count"
    assert "induced 7-cycles: 1" in err


def test_count_iterated_blowup(capsys):
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "iterated-blowup:C5:depth=2", "--k", "5"
    )
    assert code == 0
    assert payload["report"]["total"] == 3130
    assert payload["report"]["n"] == 25


def test_count_check_mode_agrees(capsys):
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "random:11,0.4", "--k", "5",
        "--seed", "3", "--check",
    )
    assert code == 0
    assert payload["report"]["check_agrees"] is True


def test_count_from_file_records_digest(capsys, tmp_path):
    path = tmp_path / "pet.g6"
    path.write_text(to_graph6(petersen()) + "\n", encoding="ascii")
    code, payload, _ = run_cli(capsys, "count", "--input", str(path), "--k", "5")
    assert code == 0
    assert payload["report"]["total"] == 12
    digest = payload["manifest"]["input_digest"]
    assert list(digest.values())[0].isalnum()


def test_count_rooted_output(capsys):
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "petersen", "--k", "5", "--roots", "all"
    )
    assert code == 0
    assert payload["report"]["rooted"] == {str(v): 6 for v in range(10)}


@pytest.mark.parametrize("construct,n", [("petersen", 10), ("random:16,0.4", 16)])
def test_count_roots_all_matches_explicit_list(capsys, construct, n):
    base = ["count", "--construct", construct, "--k", "5", "--seed", "7"]
    _, credited, _ = run_cli(capsys, *base, "--roots", "all")
    listed_roots = ",".join(str(v) for v in range(n))
    _, pinned, _ = run_cli(capsys, *base, "--roots", listed_roots)
    assert credited["report"]["rooted"] == pinned["report"]["rooted"]
    assert len(pinned["report"]["rooted"]) == n


def test_count_long_cycle(capsys):
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "cycle:1500", "--k", "1500"
    )
    assert code == 0
    assert payload["report"]["total"] == 1


@pytest.mark.parametrize("mode", ["fast", "oracle"])
def test_count_triangles_checked_in_both_modes(capsys, mode):
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "random:9,0.5", "--k", "3", "--seed", "4",
        "--mode", mode, "--check", "--roots", "all",
    )
    assert code == 0
    report = payload["report"]
    assert report["check_agrees"] is True and report["total"] > 0
    assert sum(report["rooted"].values()) == 3 * report["total"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_count_refuses_threads_below_one(capsys, threads):
    code, payload, err = run_cli(
        capsys, "count", "--construct", "petersen", "--k", "5", "--threads", threads
    )
    assert code == 1 and payload is None
    assert err.startswith("error:") and "threads" in err


def test_count_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "count", "--construct", "cycle:3", "--k", "9")
    assert code == 1
    assert "error:" in err


def test_count_refuses_a_zero_denominator(capsys):
    code, payload, err = run_cli(
        capsys, "count", "--construct", "random:5,1/0", "--seed", "1", "--k", "3"
    )
    assert code == 1 and payload is None
    assert err.startswith("error:") and "1/0" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("second", ["0 1", "1 0"])
def test_count_refuses_an_edge_listed_twice(capsys, tmp_path, second):
    path = tmp_path / "dup.txt"
    path.write_text(f"3 2\n0 1\n{second}\n", encoding="ascii")
    code, payload, err = run_cli(capsys, "count", "--input", str(path), "--k", "3")
    assert code == 1 and payload is None
    assert err.startswith("error:") and f"({second.replace(' ', ', ')})" in err
    assert len(err.strip().splitlines()) == 1


def test_count_needs_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        cli.main(["count", "--k", "5"])


def test_search_exhaustive(capsys):
    code, payload, err = run_cli(capsys, "search", "--n", "6", "--k", "4")
    assert code == 0
    report = payload["report"]
    assert report["best_count"] == 9
    assert report["exhaustive"] is True
    assert report["lower_bound"] == 9
    assert report["lower_bound_from"] == "blow-up of C4 with parts 2,2,1,1"
    assert [level["vertices"] for level in report["levels"]] == [4, 5, 6]
    assert report["explored"] == sum(level["scored"] for level in report["levels"])
    assert f"(exact; 3 levels, {report['explored']} extensions scored)" in err


def test_search_exhaustive_refuses_n_above_ceiling(capsys, monkeypatch):
    # 2^23 neighborhoods at the last level alone pass the work limit, so the
    # search is refused before it computes a bound or builds a level
    def no_work(*args):
        raise AssertionError("refused search did work")

    monkeypatch.setattr(search, "_lower_bound", no_work)
    monkeypatch.setattr(search, "_cascade", no_work)
    code, _, err = run_cli(capsys, "search", "--n", "24", "--k", "5")
    assert code == 1
    assert err.startswith("error:")


def test_search_local(capsys):
    code, payload, _ = run_cli(
        capsys, "search", "--n", "8", "--k", "5", "--mode", "local",
        "--budget", "100", "--seed", "1",
    )
    assert code == 0
    assert payload["report"]["exhaustive"] is False
    assert payload["report"]["best_count"] >= 1


def test_verify_analytic_exit_zero(capsys):
    code, payload, err = run_cli(capsys, "verify", "--suite", "analytic")
    assert code == 0
    assert payload["report"]["passed"] is True
    assert "suite analytic: ok" in err


def test_verify_bounds_failure_still_reports(capsys, monkeypatch):
    # a vertex ceiling one unit low is violated; the violations, with their
    # rational ceilings, must still make one JSON report and exit 1
    real = suites.vertex_bound
    monkeypatch.setattr(suites, "vertex_bound", lambda n, k, d: real(n, k, d) - 1)
    code, payload, err = run_cli(capsys, "verify", "--suite", "bounds")
    assert code == 1
    assert "suite bounds: FAILED" in err
    (check,) = payload["report"]["suites"][0]["checks"]
    assert check["passed"] is False and check["violations"]
    name, k, where, count, ceiling, witness = next(
        v for v in check["violations"] if v[2].startswith("vertex@")
    )
    assert Fraction(ceiling) < count
    g = io.from_graph6(witness)
    assert count_rooted(g, k, int(where.removeprefix("vertex@"))) == count


def test_construct_round_trip(capsys):
    code, payload, _ = run_cli(capsys, "construct", "--construct", "petersen")
    assert code == 0
    assert payload["report"]["graph"] == to_graph6(petersen())
    code, payload, _ = run_cli(
        capsys, "construct", "--construct", "kbipartite:3,4",
        "--format", "edgelist",
    )
    assert code == 0
    assert payload["report"]["m"] == 12


def test_construct_random_needs_seed(capsys):
    code, _, err = run_cli(capsys, "construct", "--construct", "random:10,0.5")
    assert code == 1 and "seed" in err


def test_construct_rejects_unknown_spec(capsys):
    code, _, err = run_cli(capsys, "construct", "--construct", "moebius:5")
    assert code == 1 and "cannot parse" in err


def test_parse_construct_specs():
    assert cli.parse_construct("cycle:6").n == 6
    assert cli.parse_construct("blowup:C5:2").n == 10
    assert cli.parse_construct("iterated-blowup:C5:depth=2").n == 25
    assert cli.parse_construct("random:9,1/4", seed=5) == random_graph(9, 0.25, 5)
    with pytest.raises(ValueError):
        cli.parse_construct("blowup:C5")
    with pytest.raises(ValueError):
        cli.parse_construct("iterated-blowup:C5:m=2")
    with pytest.raises(ValueError, match="depth"):
        cli.parse_construct("iterated-blowup:C5:depth=0")


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_iterated_blowup_below_depth_one_is_an_error(capsys, depth):
    # depth < 1 used to fall back to the base cycle and exit 0
    code, payload, err = run_cli(
        capsys, "construct", "--construct", f"iterated-blowup:C5:depth={depth}"
    )
    assert code == 1 and payload is None
    assert "error:" in err and "depth" in err


def test_oversize_constructs_are_refused_before_allocating(capsys, monkeypatch):
    class NoDraws:
        def __init__(self, *args):
            pass

        def random(self, size):
            raise AssertionError(f"asked for {size} draws")

    def no_graph(n, rows):
        raise AssertionError(f"built a {n}-vertex level")

    monkeypatch.setattr(np.random, "Generator", NoDraws)
    monkeypatch.setattr(constructions, "Graph", no_graph)
    for spec in ("random:70000,0.5", "iterated-blowup:C5:depth=7", "blowup:C5:20000",
                 "cycle:70000", "kbipartite:40000,40000"):
        code, payload, err = run_cli(
            capsys, "count", "--construct", spec, "--k", "5", "--seed", "1"
        )
        assert code == 1 and payload is None
        assert "error: vertex count" in err


def test_reports_are_deterministic(capsys):
    def strip(payload):
        payload["manifest"].pop("started_at")
        payload["manifest"].pop("finished_at")
        payload["report"].pop("runtime_ms", None)
        return payload

    a = strip(run_cli(capsys, "count", "--construct", "random:12,0.4",
                      "--k", "5", "--seed", "7")[1])
    b = strip(run_cli(capsys, "count", "--construct", "random:12,0.4",
                      "--k", "5", "--seed", "7")[1])
    assert a == b


def test_out_flag_writes_identical_payload(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "cycle:6", "--k", "6", "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text()) == payload


def test_cli_import_does_not_load_numpy():
    # numpy serves only the seeded generators, and concurrent.futures only the
    # threads > 1 pool of count_fast; each is imported when it runs
    code = ("import sys, cyclecount.cli; "
            "print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "[]"


# Reports of eleven commands recorded from the CLI before the run manifest
# became a plain dict and `--roots all` took its vector from the selected
# mode's own counter; "{input}" stands for the path of a graph6 file of the
# Petersen graph. Runtimes and timestamps are left out of the comparison.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_matches_recorded_report(capsys, tmp_path, name):
    path = tmp_path / "pet.g6"
    path.write_text(to_graph6(petersen()) + "\n", encoding="ascii")
    argv = [a.replace("{input}", str(path)) for a in GOLDEN[name]["argv"]]
    code, payload, _ = run_cli(capsys, *argv)
    assert code == 0
    manifest = payload["manifest"]
    del manifest["started_at"], manifest["finished_at"]
    payload["report"].pop("runtime_ms", None)
    if manifest["args"].get("input") == str(path):
        manifest["args"]["input"] = "{input}"
    manifest["input_digest"] = {
        "{input}" if key == str(path) else key: digest
        for key, digest in manifest["input_digest"].items()
    }
    assert payload == GOLDEN[name]["payload"]
