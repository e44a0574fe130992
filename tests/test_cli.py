"""CLI behavior: JSON reports on stdout, summaries on stderr, exit codes."""

import contextlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cyclecount import cli, constructions, corpus, io, search, suites
from cyclecount.constructions import petersen, random_graph
from cyclecount.counting import count_rooted
from cyclecount.graph import MAX_EDGES
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


@pytest.mark.parametrize("spec,k,total", [("blowup:C5:100", 5, 10**10), ("blowup:C6:100", 6, 10**12)])
def test_count_of_a_blow_up_takes_its_quotient(capsys, spec, k, total):
    # the fuzz below can reach these specs; cycle by cycle they took 36 s
    # and over 45 s, through their quotient they take milliseconds
    start = time.perf_counter()
    code, payload, _ = run_cli(capsys, "count", "--construct", spec, "--k", str(k))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and payload["report"]["total"] == total


def test_count_has_no_threads_option(capsys):
    # the process pool stays a parameter of count_fast alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--construct", "petersen", "--k", "5", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


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
    for sources in [(), ("--construct", "petersen", "--input", "pet.g6")]:
        code, payload, err = run_cli(capsys, "count", "--k", "5", *sources)
        assert code == 1 and payload is None
        assert err == "error: exactly one of --input and --construct is required\n"


def test_oracle_roots_list_takes_its_tallies_from_the_oracle(capsys, monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("oracle mode asked the kernel")

    monkeypatch.setattr(cli, "count_rooted", kernel)
    monkeypatch.setattr(cli, "count_fast", kernel)
    golden = GOLDEN["count_roots_list"]["payload"]["report"]
    code, payload, _ = run_cli(
        capsys, "count", "--construct", "random:12,0.4", "--seed", "7", "--k", "5",
        "--mode", "oracle", "--roots", "0,3",
    )
    assert code == 0
    assert payload["report"]["rooted"] == golden["rooted"]
    assert payload["report"]["total"] == golden["total"]


@pytest.mark.parametrize("mode", ["fast", "oracle"])
@pytest.mark.parametrize("roots, message", [
    ("0,12", "error: vertex 12 leaves 0..11"),
    ("-1", "error: vertex -1 leaves 0..11"),
    (",", "error: --roots takes 'all' or comma-separated vertices, got ','"),
])
def test_bad_roots_are_clean_errors(capsys, mode, roots, message):
    code, payload, err = run_cli(
        capsys, "count", "--construct", "random:12,0.4", "--seed", "7", "--k", "5",
        "--mode", mode, "--roots", roots,
    )
    assert code == 1 and payload is None
    assert err == message + "\n"


def test_empty_roots_are_refused(capsys):
    # an empty --roots is a malformed list, not an absent one
    code, payload, err = run_cli(
        capsys, "count", "--construct", "cycle:5", "--k", "5", "--roots", "",
    )
    assert (code, payload) == (1, None)
    assert err == "error: --roots takes 'all' or comma-separated vertices, got ''\n"


@pytest.mark.parametrize("mode", ["fast", "oracle"])
@pytest.mark.parametrize("roots, root", [("3,3", 3), ("0,3,7,0", 0)])
def test_repeated_roots_are_refused(capsys, mode, roots, root):
    # a root listed twice used to be merged silently; an edge listed twice
    # is refused, and so is this
    code, payload, err = run_cli(
        capsys, "count", "--construct", "petersen", "--k", "5",
        "--mode", mode, "--roots", roots,
    )
    assert (code, payload) == (1, None)
    assert err == f"error: root {root} listed twice\n"


def test_non_ascii_input_names_its_byte(capsys, tmp_path):
    # the bare codec error of Python is replaced by one line naming the byte
    path = tmp_path / "bad.g6"
    path.write_bytes(b"B?\xff")
    code, payload, err = run_cli(capsys, "count", "--input", str(path), "--k", "3")
    assert (code, payload) == (1, None)
    assert err == "error: input byte 0xff at offset 2 is not ASCII\n"


@pytest.mark.parametrize("mode", ["fast", "oracle"])
@pytest.mark.parametrize("roots, message", [
    ("0,x", "error: --roots takes 'all' or comma-separated vertices, got '0,x'"),
    ("0,999", "error: vertex 999 leaves 0..124"),
])
def test_bad_roots_are_refused_before_counting(capsys, monkeypatch, mode, roots, message):
    # the 125-vertex blow-up used to be counted in full before its roots
    # were read
    def count(*args, **kwargs):
        raise AssertionError("counted before the roots were checked")

    monkeypatch.setattr(cli, "count_fast", count)
    monkeypatch.setattr(cli, "count_oracle", count)
    code, payload, err = run_cli(
        capsys, "count", "--construct", "iterated-blowup:C5:depth=3", "--k", "5",
        "--mode", mode, "--roots", roots,
    )
    assert code == 1 and payload is None
    assert err == message + "\n"


@pytest.mark.parametrize("flags", [["--mode", "oracle"], ["--check"]])
def test_oracle_is_refused_above_its_subset_limit(capsys, monkeypatch, flags):
    # C(125, 5) subsets once took the oracle about 100 s
    def count(*args, **kwargs):
        raise AssertionError("counted before the subset limit was checked")

    monkeypatch.setattr(cli, "count_oracle", count)
    monkeypatch.setattr(cli, "count_fast", count)
    code, payload, err = run_cli(
        capsys, "count", "--construct", "iterated-blowup:C5:depth=3", "--k", "5", *flags
    )
    assert code == 1 and payload is None
    assert err == ("error: the subset oracle would examine C(125, 5) = 234531275 "
                   "subsets, more than 4194304\n")


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
    for n in ("24", str(2**64)):  # a huge n is refused by its exponent alone
        code, _, err = run_cli(capsys, "search", "--n", n, "--k", "5")
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_search_local(capsys):
    code, payload, _ = run_cli(
        capsys, "search", "--n", "8", "--k", "5", "--mode", "local",
        "--budget", "100", "--seed", "1",
    )
    assert code == 0
    assert payload["report"]["exhaustive"] is False
    assert payload["report"]["best_count"] >= 1


def test_search_local_refuses_a_negative_seed(capsys):
    code, payload, err = run_cli(
        capsys, "search", "--n", "8", "--k", "5", "--mode", "local", "--seed", "-1",
    )
    assert (code, payload) == (1, None)
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["count", "construct"])
def test_random_construct_refuses_a_negative_seed(capsys, command):
    code, payload, err = run_cli(
        capsys, command, "--construct", "random:5,0.5", "--seed", "-1",
        *(["--k", "5"] if command == "count" else []),
    )
    assert (code, payload) == (1, None)
    assert err == "error: seed must be >= 0, got -1\n"


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


@pytest.mark.parametrize("counter,check_name", [
    ("count_rooted", "handshake_identities"),
    ("count_containing_pair", "symmetrise_identity_k_ge_5"),
])
def test_verify_identities_failures_name_their_witness(capsys, monkeypatch, counter, check_name):
    # a counter one unit high breaks the identity; every failure must end
    # with the graph6 of the very instance it names
    real = getattr(suites, counter)
    monkeypatch.setattr(suites, counter, lambda *args: real(*args) + 1)
    code, payload, err = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 1
    assert "suite identities: FAILED" in err
    checks = {c["name"]: c for c in payload["report"]["suites"][0]["checks"]}
    failures = checks[check_name]["failures"]
    assert checks[check_name]["passed"] is False and failures
    instances = dict(
        corpus.random_instances(suites.IDENTITY_GRAPHS, 8, 14, suites.IDENTITY_SEED)
        + corpus.random_instances((suites.SYMMETRISE_SAMPLES + 9) // 10, 8, 12,
                                  suites.SYMMETRISE_SEED)
    )
    for failure in failures:
        assert io.from_graph6(failure[-1]) == instances[failure[0]], failure


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


@pytest.mark.parametrize("argv", [
    ["count", "--construct", "kbipartite:4", "--k", "4"],
    ["construct", "--construct", "random:5", "--seed", "1"],
    ["construct", "--construct", "blowup:C5:x"],
    ["construct", "--construct", "random:5,1/0", "--seed", "1"],
    ["construct", "--construct", "random:5,x", "--seed", "1"],
    ["construct", "--construct", "cycle:6:7"],
])
def test_unparsable_construct_specs_name_the_spec(capsys, argv):
    # these printed Python's own messages, such as "not enough values to
    # unpack (expected 2, got 1)" and "invalid literal for int()"
    code, payload, err = run_cli(capsys, *argv)
    assert code == 1 and payload is None
    assert err == f"error: cannot parse construct spec {argv[2]!r}\n"


@pytest.mark.parametrize("spec,message", [
    ("iterated-blowup:C5:depth=0", "depth must be >= 1, got 0"),
    ("cycle:2", "cycle needs at least 3 vertices, got 2"),
    ("random:5,2", "edge probability 2.0 outside [0, 1]"),
])
def test_construct_domain_errors_keep_their_text(capsys, spec, message):
    code, payload, err = run_cli(capsys, "construct", "--construct", spec, "--seed", "1")
    assert code == 1 and payload is None
    assert err == f"error: {message}\n"


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
    # specs over both limits name the vertex count, which is checked first
    vertices = "error: vertex count"
    edges = f"error: edge count [0-9]+ above the limit {MAX_EDGES}$"
    for spec, message in [
        ("random:70000,0.5", vertices), ("iterated-blowup:C5:depth=7", vertices),
        ("blowup:C5:20000", vertices), ("cycle:70000", vertices),
        ("kbipartite:40000,40000", vertices), ("iterated-blowup:C3:depth=10", edges),
        ("blowup:C6:1000", edges), ("kbipartite:3000,3000", edges), ("random:3000,1", edges),
    ]:
        code, payload, err = run_cli(
            capsys, "count", "--construct", spec, "--k", "5", "--seed", "1"
        )
        assert code == 1 and payload is None
        assert err.count("error:") == 1 and re.search(message, err, re.M), err


def test_large_random_graph_fits_a_limited_address_space():
    # drawing all n(n - 1)/2 doubles at once needs 1.49 GiB at n = 20000
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GiB

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "cyclecount.cli", "count", "--construct",
         "random:20000,1/10000", "--seed", "1", "--k", "3"],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=limit,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["report"]["n"] == 20000


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


@pytest.mark.parametrize("argv", [
    ("count", "--construct", "petersen", "--k", "5"),
    ("construct", "--construct", "cycle:6"),
])
def test_out_to_a_missing_directory_prints_no_payload(capsys, tmp_path, argv):
    # the file is written before the payload is printed, so a failed write
    # leaves nothing on stdout that reads as a success
    out = tmp_path / "missing" / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.parent.exists()


def test_cli_import_does_not_load_numpy():
    # numpy serves only the seeded generators, and concurrent.futures only the
    # threads > 1 pool of the library's count_fast; each is imported when it runs
    code = ("import sys, cyclecount.cli; "
            "print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "[]"


# Reports of eleven commands recorded from the CLI before the run manifest
# became a plain dict and `--roots all` took its vector from the selected
# mode's own counter, of which `search --mode local` was recorded again
# when it began to report its start count, its accepted moves and whether
# it improved on the start, and again when it began to report the
# proposals it scored by pair walks; `verify --suite analytic` recorded
# when each slack product became one proof over its whole parameter range;
# and `verify --suite bounds` and `verify --suite headline` recorded before
# the bounds suite took its instances from `_lemma_instances`, whose
# `evaluated` and `case_counts` catch an instance skipped on the corpus;
# the six count reports were recorded again when `count --threads` went;
# and `verify --suite analytic` was recorded again when concave boxes took
# a tangent-plane bound, which moved only the boxes and the certified upper
# bound of product_sum_c1.5_to_2.0.
# "{input}" stands for the path of a graph6 file of the Petersen graph.
# Runtimes and timestamps are left out of the comparison.
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


# Pieces the CLI fuzz below assembles into arguments and input files. Every
# graph they can build has at most 64 vertices, or is refused for its order
# or edge count, except where a spec cut short turns "1000000" into "100" or
# "1000": then the fuzz can build, say, cycle:1000 or blowup:C5:100 (500
# vertices). Their counts at k >= 5 go through the quotient and are quick;
# at k = 3 and 4 the kernel counts them cycle by cycle, which need not be.
# "1000000" stays out of range when a digit is dropped.
BIG = "1000000"
INTS = ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "9", BIG, str(2**64), "x", ""]


def _opt(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


@st.composite
def construct_specs(draw):
    """A spec of each kind, then maybe cut short or edited by one character."""
    small = st.sampled_from(["-1", "0", "1", "2", "3", "4", BIG, "x", ""])
    base = st.sampled_from(["C3", "C4", "C5", "C6", "C2", "5", "C", "C" + BIG])
    order = st.sampled_from(["1", "2", "8", "16", "0", "-1", BIG])
    prob = st.sampled_from(["0", "0.5", "1", "1/3", "1/0", "2", "nan", "-0.1"])
    spec = draw(st.one_of(
        order.map("cycle:{}".format),
        st.tuples(small, small).map("kbipartite:{0[0]},{0[1]}".format),
        st.tuples(base, small).map("blowup:{0[0]}:{0[1]}".format),
        st.tuples(base, st.sampled_from(["-1", "0", "1", "2", BIG, ""])).map(
            "iterated-blowup:{0[0]}:depth={0[1]}".format),
        st.tuples(order, prob).map("random:{0[0]},{0[1]}".format),
        st.just("petersen"),
    ))
    at = draw(st.integers(0, len(spec)))
    edit = draw(st.sampled_from(["keep", "keep", "cut", "insert", "drop"]))
    if edit == "cut":
        spec = spec[:at]
    elif edit == "insert":
        spec = spec[:at] + draw(st.sampled_from(":,=C-x ")) + spec[at:]
    elif edit == "drop":
        spec = spec[:at] + spec[at + 1:]
    return spec


@st.composite
def graph6_bytes(draw):
    """Random bytes, or a valid string maybe put in long form, truncated or
    given a header or a stray first character."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=30))
    n = draw(st.integers(1, 12))
    text = to_graph6(random_graph(n, 0.5, draw(st.integers(0, 9))))
    if draw(st.booleans()):
        text = "~??" + chr(63 + n) + text[1:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    prefix = draw(st.sampled_from(["", "", "", ">>graph6<<", "~", "~~", "é", "\x00"]))
    return (prefix + text).encode("utf-8")


@st.composite
def edge_list_bytes(draw):
    """An edge list on 8 vertices with at most one fault: a loop, an edge
    listed twice, an endpoint out of range, a malformed line, a wrong m or
    a bad n."""
    pairs = st.tuples(st.integers(0, 6), st.integers(1, 7)).filter(lambda e: e[0] < e[1])
    edges = [f"{u} {w}" for u, w in draw(st.sets(pairs, max_size=12))]
    n, m = "8", len(edges)
    fault = draw(st.sampled_from(["none", "none", "loop", "twice", "range", "line", "m", "n"]))
    if fault == "loop":
        edges.append("3 3")
    elif fault == "twice" and edges:
        edges.append(" ".join(reversed(edges[0].split())))
    elif fault == "range":
        edges.append(draw(st.sampled_from(["0 8", "-1 2", f"0 {BIG}"])))
    elif fault == "line":
        edges.append(draw(st.sampled_from(["0", "0 1 2", "a b"])))
    elif fault == "m":
        m += draw(st.sampled_from([-1, 1]))
    elif fault == "n":
        n = draw(st.sampled_from(["0", "-1", "1", BIG, "x"]))
    if fault in ("loop", "twice", "range", "line"):
        m = len(edges)
    return "\n".join([f"{n} {m}", *edges]).encode("ascii")


@st.composite
def cli_cases(draw):
    """An argv list and the bytes of the file that {input} in it names."""
    kind = draw(st.sampled_from(["construct", "count-construct", "count-input", "search"]))
    data = b""
    if kind == "construct":
        argv = ["construct", "--construct", draw(construct_specs())]
        argv += draw(_opt("--format", ["graph6", "edgelist", "dot"]))
        argv += draw(_opt("--seed", INTS))
    elif kind == "count-construct":
        argv = ["count", "--construct", draw(construct_specs()), "--k", draw(st.sampled_from(INTS))]
        argv += draw(_opt("--seed", INTS))
        argv += draw(_opt("--roots", ["all", "0", "0,3", ",", "-1", "99", "x"]))
    elif kind == "count-input":
        data = draw(st.one_of(graph6_bytes(), edge_list_bytes()))
        argv = ["count", "--k", draw(st.sampled_from(INTS)), *draw(st.sampled_from(
            [["--input", "{input}"], [], ["--input", "{input}", "--construct", "petersen"]]
        ))]
        argv += draw(_opt("--mode", ["fast", "oracle"])) + draw(st.sampled_from([[], ["--check"]]))
        argv += draw(_opt("--roots", ["all", "0,1", "-1", "99"]))
    else:
        n = draw(st.sampled_from(["-1", "0", "3", "4", "5", "6", "7", str(2**64), "x"]))
        argv = ["search", "--n", n, "--k", draw(st.sampled_from(["-1", "0", "3", "4", "5", "6", "8"]))]
        if draw(st.booleans()):
            argv += ["--mode", "local", "--n", draw(st.sampled_from(["-1", "3", "4", "8", "12"]))]
            argv += draw(_opt("--budget", ["-1", "0", "1", "50"])) + draw(_opt("--seed", ["-1", "0", "1"]))
    return argv, data


@settings(deadline=None, max_examples=300)
@given(case=cli_cases())
def test_cli_fuzz_exits_cleanly(case, tmp_path_factory):
    # every case exits 0 with one JSON document, exits 1 with exactly one
    # error line and nothing on stdout, or is refused by argparse
    argv, data = case
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    argv = [str(path) if a == "{input}" else a for a in argv]
    out, err = StringIO(), StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, data, err.getvalue())
        return
    if code == 0:
        json.loads(out.getvalue())
        return
    lines = err.getvalue().splitlines()
    assert code == 1 and not out.getvalue(), (argv, data, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, data, lines)
