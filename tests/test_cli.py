"""Command-line interface: outputs, exit codes, CSV schema, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xorsat_reduce import cli
from xorsat_reduce.cli import build_parser, main
from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.hamcycle import emit_graph
from xorsat_reduce.instances import check_generator_parameters, clause_count, parse_instance

from conftest import limit_address_space, petersen_graph

CHAIN_TEXT = """\
p occ 5 3 1
1 -2 3 0
2 -3 4 0
3 4 5 0
"""

XOR_INFEASIBLE_TEXT = """\
p occ 2 2 1
1 2 0
q=2 1 2 0
"""

UNSAT_FEASIBLE_TEXT = """\
p occ 2 2 2
1 2 0
-1 -2 0
"""

K4_TEXT = """\
p edge 4 6
e 1 2
e 1 3
e 1 4
e 2 3
e 2 4
e 3 4
"""


# Inputs of the golden transcript, by the name that stands for their path there.
GOLDEN_INPUTS = {
    "chain": CHAIN_TEXT,
    "xor-infeasible": XOR_INFEASIBLE_TEXT,
    "unsat-feasible": UNSAT_FEASIBLE_TEXT,
    "k4": K4_TEXT,
    "petersen": emit_graph(petersen_graph()),
}


def golden_transcript():
    """(command line, exact stdout) pairs from cli_golden.txt; each entry starts with '$ '."""
    text = (Path(__file__).parent / "cli_golden.txt").read_text()
    for entry in re.split(r"^\$ ", text, flags=re.MULTILINE)[1:]:
        command, _, output = entry.partition("\n")
        yield pytest.param(command, output, id=command)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.occ"
    path.write_text(CHAIN_TEXT)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(K4_TEXT)
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> dict:
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize(("command", "expected"), golden_transcript())
def test_record_output_matches_the_golden_transcript(capsys, tmp_path, command, expected):
    name, *argv = command.split()
    path = tmp_path / argv[0]
    path.write_text(GOLDEN_INPUTS[argv[0]])
    argv[0] = str(path)
    code, out = run(capsys, name, *argv)
    assert code == 0
    assert out == expected


class TestGen:
    def test_output_is_parseable_and_solvable(self, capsys, tmp_path):
        out_file = tmp_path / "inst.occ"
        code, _ = run(capsys, "gen", "--n", "30", "--alpha", "0.789", "--p", "3",
                      "--q", "1", "--seed", "7", "--out", str(out_file))
        assert code == 0
        inst = parse_instance(out_file.read_text())
        assert inst.n == 30 and inst.m == 23
        code, _ = run(capsys, "solve", str(out_file))
        assert code == 0

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.occ", tmp_path / "b.occ"
        run(capsys, "gen", "--n", "12", "--alpha", "1.0", "--seed", "3", "--out", str(a))
        run(capsys, "gen", "--n", "12", "--alpha", "1.0", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_exit_code(self, capsys):
        code = main(["gen", "--n", "10", "--m", "3", "--p", "3", "--q", "1"])
        assert code == 4


class TestSolveCount:
    def test_chain_solve(self, capsys, chain_file):
        record = run_json(capsys, "solve", chain_file, "--json")
        assert record["status"] == "SAT"
        assert record["k"] == 2 and record["m_prime"] == 3 and record["delta_k"] == 0
        assert tuple(record["assignment"]) in {(0, 0, 0, 0, 1), (0, 1, 1, 0, 0)}

    def test_chain_count(self, capsys, chain_file):
        record = run_json(capsys, "count", chain_file, "--json")
        assert record["count"] == 2
        assert record["status"] == "COUNT=2"

    def test_xor_certified_unsat_with_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.occ"
        path.write_text(XOR_INFEASIBLE_TEXT)
        record = run_json(capsys, "solve", str(path), "--json")
        assert record["status"] == "UNSAT (XOR-certified)"
        assert record["witness"] == [1, 2]
        assert record["queries"] == 0

    def test_human_and_json_report_identical_numbers(self, capsys, chain_file):
        record = run_json(capsys, "solve", chain_file, "--json")
        code, human = run(capsys, "solve", chain_file)
        assert code == 0
        lines = dict(line.split(": ", 1) for line in human.strip().splitlines())
        for key in ("queries", "k", "m_prime", "delta_k", "n", "m"):
            assert lines[key] == str(record[key])
        assert lines["assignment"] == "".join(str(b) for b in record["assignment"])

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.occ"
        path.write_text("p occ 2 1 1\n2 2 0\n")
        code = main(["solve", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_guard_exit_code(self, capsys, tmp_path):
        path = tmp_path / "wide.occ"
        path.write_text("p occ 31 0 1\n")
        code = main(["solve", str(path)])
        assert code == 3
        assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "count", "backtrack", "grover", "grover-cost"])
def test_oversized_header_exits_3_under_a_memory_limit(tmp_path, command):
    """k = 199,999 free variables of n = 200,000: the dense basis (37 GiB) is refused, not built.

    Each command runs in a child process limited to 2 GiB of address space.
    """
    path = tmp_path / "wide.occ"
    path.write_text("p occ 200000 1 1\n1 2 3 0\n")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "xorsat_reduce.cli", command, str(path)],
        capture_output=True, text=True, preexec_fn=limit_address_space, timeout=60,
    )
    assert result.returncode == 3, result.stderr
    assert "exceeds guard" in result.stderr and "Traceback" not in result.stderr
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("command", ["solve", "count", "backtrack", "grover", "grover-cost", "hc"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_exits_2_with_reason(capsys, tmp_path, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"p occ 1 1 1\n\xff 0\n")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    reason = {"missing": "No such file or directory", "directory": "Is a directory",
              "not-utf8": "can't decode byte 0xff"}[kind]
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert reason in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(("argv", "work"), [
    (["gen", "--n", "9"], "gen_locked_random"),
    (["sweep-kernel", "--n-list", "9", "--alpha", "1.0", "--samples", "1"], "kernel_sweep"),
    (["sweep-tree", "--n-list", "9", "--alpha", "0.8", "--samples", "1"], "tree_sweep"),
], ids=["gen", "sweep-kernel", "sweep-tree"])
@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
def test_unwritable_output_exits_2_with_reason(capsys, monkeypatch, tmp_path, argv, work, kind):
    """--out is opened before the command generates an instance or computes a sample."""
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was opened")

    monkeypatch.setattr(cli, work, never)
    path = tmp_path / "absent" / "out.txt" if kind == "missing-directory" else tmp_path
    code = main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    reason = {"missing-directory": "No such file or directory", "directory": "Is a directory"}[kind]
    assert captured.err == f"error: cannot write {path}: {reason}\n"


def test_interrupt_exits_130_without_a_traceback(capsys, monkeypatch, tmp_path):
    """A SIGINT during a command (KeyboardInterrupt in the solver) ends in one line on stderr."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "count_enumerate", interrupted)
    path = tmp_path / "chain.occ"
    path.write_text(CHAIN_TEXT)
    code = main(["count", str(path)])
    captured = capsys.readouterr()
    assert code == 130 and captured.out == ""
    assert captured.err == "error: interrupted\n" and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "3", "--p", "1", "--q", "1", "--m", "100000000000"],
    ["gen", "--n", "3", "--p", "1", "--q", "1", "--alpha", "1e300"],
    ["gen", "--n", "1000000000", "--alpha", "1"],
    ["sweep-kernel", "--n-list", "1000000000", "--alpha", "1", "--samples", "1"],
], ids=" ".join)
def test_oversized_generation_exits_3_under_a_memory_limit(argv):
    """More than GENERATE_MAX_SLOTS literal slots is refused before anything is drawn.

    Each command runs in a child process limited to 2 GiB of address space.
    """
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "xorsat_reduce.cli", *argv],
        capture_output=True, text=True, preexec_fn=limit_address_space, timeout=60,
    )
    assert result.returncode == 3, result.stderr
    assert result.stdout == "" and result.stderr.startswith("error: generated literal slots p*m = ")
    assert "Traceback" not in result.stderr
    assert time.perf_counter() - start < 10


def test_kernel_sweep_past_its_matrix_guard_exits_3_within_a_second():
    """n = M = 50,000 passes the generator guard, but one rank of it takes seconds: the kernel
    sweep refuses n*M above KERNEL_MAX_CELLS before its first sample.

    The child runs limited to 2 GiB of address space; the second is its own CPU time, which the
    machine's other load does not stretch.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run(
        [sys.executable, "-m", "xorsat_reduce.cli", "sweep-kernel", "--n-list", "50000", "--alpha", "1",
         "--samples", "1"],
        capture_output=True, text=True, preexec_fn=limit_address_space, timeout=10,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == "error: kernel-sweep parity matrix size n*M = 2500000000 exceeds guard 268435456\n"
    assert (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime) < 1


def test_guard_message_abbreviates_a_value_past_20_digits(capsys):
    """p*m = floor(3 * 1e300) has 301 digits: the message shows two, the exception keeps them all."""
    assert main(["gen", "--n", "3", "--p", "1", "--q", "1", "--alpha", "1e300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generated literal slots p*m = 3.0e+300 exceeds guard 1048576\n"
    with pytest.raises(GuardExceeded) as raised:
        check_generator_parameters(3, clause_count(3, 1e300), 1, 1, 0.5)
    assert raised.value.value == clause_count(3, 1e300) and len(str(raised.value.value)) == 301
    assert str(GuardExceeded("v", 10**20 - 1, 7)) == "v = 99999999999999999999 exceeds guard 7"
    assert str(GuardExceeded("v", 10**20, 7)) == "v = 1.0e+20 exceeds guard 7"


class TestBacktrack:
    def test_chain(self, capsys, chain_file):
        record = run_json(capsys, "backtrack", chain_file, "--json")
        assert record["status"] == "SAT"
        assert record["tree_nodes"] <= 7

    def test_count_mode(self, capsys, chain_file):
        record = run_json(capsys, "backtrack", chain_file, "--count", "--json")
        assert record["count"] == 2
        assert sum(record["nodes_per_depth"]) == record["tree_nodes"]

    def test_with_permutation_optimization(self, capsys, chain_file):
        record = run_json(capsys, "backtrack", chain_file, "--count",
                          "--perm-trials", "10", "--json")
        assert record["count"] == 2

    @pytest.mark.parametrize("value", ["-1", "-5", "x"])
    def test_perm_trials_must_be_a_non_negative_int(self, capsys, chain_file, value):
        with pytest.raises(SystemExit) as err:
            main(["backtrack", chain_file, "--perm-trials", value])
        assert err.value.code == 2
        assert "--perm-trials" in capsys.readouterr().err


class TestGrover:
    def test_chain_sat(self, capsys, chain_file):
        record = run_json(capsys, "grover", chain_file, "--seed", "11", "--json")
        assert record["status"] == "SAT"
        assert record["seed"] == 11
        assert "iterations" not in record
        assert tuple(record["assignment"]) in {(0, 0, 0, 0, 1), (0, 1, 1, 0, 0)}

    def test_deterministic(self, capsys, chain_file):
        a = run_json(capsys, "grover", chain_file, "--seed", "5", "--json")
        b = run_json(capsys, "grover", chain_file, "--seed", "5", "--json")
        assert a == b

    def test_search_certified_unsat(self, capsys, tmp_path):
        path = tmp_path / "unsat.occ"
        path.write_text(UNSAT_FEASIBLE_TEXT)
        record = run_json(capsys, "grover", str(path), "--seed", "2", "--json")
        assert record["status"] == "UNSAT (search-certified)"
        assert record["queries"] > 0

    def test_xor_certified_short_circuit(self, capsys, tmp_path):
        path = tmp_path / "bad.occ"
        path.write_text(XOR_INFEASIBLE_TEXT)
        record = run_json(capsys, "grover", str(path), "--json")
        assert record["status"] == "UNSAT (XOR-certified)"
        assert record["queries"] == 0
        assert "iterations" not in record


class TestGroverCost:
    def test_chain_costs(self, capsys, chain_file):
        record = run_json(capsys, "grover-cost", chain_file, "--json")
        assert record["query_cost_decision"] == 2.0  # sqrt(2^(5-3))
        assert record["query_cost_count_worst_case"] == 4.0
        assert record["total_gates"] == (
            record["gates_module_i"] + record["gates_module_ii"]
            + record["gates_module_iii"] + record["gates_module_iv"]
        )

    def test_exact_count_mode(self, capsys, chain_file):
        record = run_json(capsys, "grover-cost", chain_file, "--count-solutions", "--json")
        assert record["count"] == 2
        assert record["query_cost_count"] == pytest.approx(2.0 ** 0.5 * 2.0)

    # k = 1023: sqrt(2^k) and the worst-case count cost 2^k are still finite floats.
    WIDEST_FINITE_RECORD = """\
n: 1023
m: 0
k: 1023
m_prime: 0
delta_k: 0
query_cost_decision: 9.480751908109177e+153
query_cost_count_worst_case: 8.988465674311582e+307
ancillas: 0
gates_module_i: 1023
gates_module_ii: 0
gates_module_iii: 0
gates_module_iv: 0
total_gates: 1023
"""

    @pytest.mark.parametrize("count", [False, True], ids=["worst-case", "count-solutions"])
    @pytest.mark.parametrize("n", [1023, 1024, 2047, 2048])
    def test_cost_past_the_largest_float_is_a_guard(self, capsys, tmp_path, n, count):
        """k = n free variables: a query cost past the largest finite float exits 3, not with a traceback.

        The worst-case count cost 2^k overflows from k = 1024 on, the
        decision cost sqrt(2^k) from k = 2048 on. With --count-solutions
        the scan's guard (k > 30) refuses first.
        """
        path = tmp_path / "wide.occ"
        path.write_text(f"p occ {n} 0 1\n")
        code = main(["grover-cost", str(path), *(["--count-solutions"] if count else [])])
        captured = capsys.readouterr()
        if n == 1023 and not count:
            assert code == 0 and captured.out == self.WIDEST_FINITE_RECORD
        else:
            assert code == 3 and captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestHc:
    def test_k4_cycle(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(K4_TEXT)
        record = run_json(capsys, "hc", str(path), "--json")
        assert record["status"] == "HC-FOUND"
        assert len(record["edges"]) == 4
        touched = sorted({u for u, v in record["edges"]} | {v for u, v in record["edges"]})
        assert touched == [1, 2, 3, 4]

    def test_petersen_no_hc(self, capsys, tmp_path):
        path = tmp_path / "petersen.graph"
        path.write_text(emit_graph(petersen_graph()))
        record = run_json(capsys, "hc", str(path), "--json")
        assert record["status"] == "NO-HC"


class TestSweeps:
    def test_kernel_csv_schema_and_consistency(self, capsys, tmp_path):
        out = tmp_path / "kernel.csv"
        code, _ = run(capsys, "sweep-kernel", "--n-list", "12,16", "--alpha", "1.0",
                      "--samples", "5", "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# xorsat-reduce v0.1.0 schema=1"
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        samples = [r for r in rows if r["kind"] == "sample"]
        assert len(samples) == 10
        for r in samples:
            assert int(r["delta_k"]) == int(r["m"]) - int(r["m_prime"])
            assert int(r["k"]) == int(r["n"]) - int(r["m_prime"])
            assert int(r["delta_k"]) >= 0
        summaries = [r for r in rows if r["kind"] == "summary"]
        assert [int(r["n"]) for r in summaries] == [12, 16]

    def test_single_sample_gives_one_row_per_n(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        run(capsys, "sweep-kernel", "--n-list", "9,12,15", "--alpha", "1.0",
            "--samples", "1", "--seed", "1", "--out", str(out))
        lines = out.read_text().splitlines()
        samples = [l for l in lines[2:] if l.startswith("sample")]
        assert len(samples) == 3

    def test_tree_csv_deterministic_and_parallel_identical(self, capsys, tmp_path):
        args = ["sweep-tree", "--n-list", "10,12", "--alpha", "0.8", "--samples", "4",
                "--seed", "9", "--perm-trials", "5"]
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        run(capsys, *args, "--threads", "2", "--out", str(c))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize(("command", "reason"), [
        ("sweep-tree", "must be >= 0"),
        ("sweep-kernel", "unrecognized arguments"),  # the kernel sweep builds no tree
    ], ids=["sweep-tree", "sweep-kernel"])
    def test_negative_perm_trials_is_a_usage_error(self, capsys, tmp_path, command, reason):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as err:
            main([command, "--n-list", "10", "--alpha", "0.8", "--samples", "1",
                  "--perm-trials", "-3", "--out", str(out)])
        assert err.value.code == 2 and not out.exists()
        assert reason in capsys.readouterr().err

    def test_tree_csv_has_gamma_summary(self, capsys, tmp_path):
        out = tmp_path / "tree.csv"
        run(capsys, "sweep-tree", "--n-list", "10", "--alpha", "0.8", "--samples", "6",
            "--seed", "2", "--perm-trials", "3", "--out", str(out))
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        summary = dict(zip(header, lines[-1].split(",")))
        assert summary["kind"] == "summary"
        assert float(summary["gamma"]) >= 0.0
        assert float(summary["mean_sqrt_t"]) >= 1.0


# sha256 of sweep CSVs recorded before the generator's one-pass repair; any worker count gives these bytes.
SWEEP_DIGESTS = [
    pytest.param(["sweep-kernel", "--problem", "occ1in3", "--n-list", "30,60,120,240", "--alpha", "1.0"],
                 "1b510b8d7c5304ea289b950e1e3639fbfeba3157ef15f2794a5659bb58b4ee62", id="kernel-occ1in3"),
    pytest.param(["sweep-tree", "--problem", "occ2in4", "--n-list", "21", "--alpha", "0.707"],
                 "61fe1b596602289fa360a7a9d8eb31ea4405b37c1082df928bd47632fbd848b7", id="tree-occ2in4"),
    pytest.param(["sweep-tree", "--problem", "occ1in3", "--n-list", "24", "--alpha", "0.789"],
                 "72755447469a7812e64d754a1c4e314767d9dcf2dc5c91664527d8e9604aeede", id="tree-occ1in3"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(("argv", "digest"), SWEEP_DIGESTS)
def test_sweep_csv_bytes_are_pinned(capsys, tmp_path, argv, digest, threads):
    out = tmp_path / "sweep.csv"
    code, _ = run(capsys, *argv, "--samples", "5", "--threads", threads, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of sweep CSVs whose rows are the edge cases: generation failures with all-nan
# summaries, guard skips, and an XOR-infeasible tree sample (n = 12, sample 0 of the second).
# Recorded before the two sweeps shared one sample path.
SWEEP_EDGE_DIGESTS = [
    pytest.param(["sweep-kernel", "--n-list", "12", "--alpha", "0.5", "--samples", "2"],
                 {"failure", "summary"}, "12a959dc1a8a0ecc78c509d5109aaa3bc13367cb88d476c839aa82928e3c907c",
                 id="kernel-failures"),
    pytest.param(["sweep-tree", "--n-list", "12,150", "--alpha", "0.7", "--samples", "2", "--perm-trials", "2"],
                 {"sample", "guard_skip", "summary"},
                 "90efe99e1efadeb1522dca290ac5a5f454e9efcbfeaf4d6a5f16b8fa22dfe575", id="tree-infeasible-skips"),
    pytest.param(["sweep-tree", "--problem", "custom", "--p", "4", "--q", "2", "--n-list", "10", "--alpha", "0.4",
                  "--samples", "2"],
                 {"failure", "summary"}, "0fc605fdaecae8a330de25e383b12ac7de4678163637c9d1aa83fe9ed7bf9deb",
                 id="tree-failures"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(("argv", "kinds", "digest"), SWEEP_EDGE_DIGESTS)
def test_sweep_edge_rows_are_pinned(capsys, tmp_path, argv, kinds, digest, threads):
    out = tmp_path / "sweep.csv"
    code, _ = run(capsys, *argv, "--threads", threads, "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    assert {row.split(",")[0] for row in rows} == kinds and "nan" in rows[-1]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of sweep CSVs for an unsorted and a repeated --n-list, recorded while the sweeps still keep
# every row in memory: sample rows come out sorted by (n, sample) while the summaries keep the --n-list
# order, and a repeated n writes each of its sample rows twice, then two summaries that each count both.
SWEEP_N_LIST_DIGESTS = [
    pytest.param(["sweep-kernel", "--n-list", "15,12", "--alpha", "1.0"], [("15", "3"), ("12", "3")],
                 "a79ae5fe53fe68f3326bf1fec225047c0acc84b9dec2a8dccdcef7ae026e2902", id="kernel-unsorted"),
    pytest.param(["sweep-kernel", "--n-list", "12,12", "--alpha", "1.0"], [("12", "6"), ("12", "6")],
                 "88a8699d81deca6b04000e113232896be124172d3925943f043dbecd2c514815", id="kernel-repeated"),
    pytest.param(["sweep-tree", "--n-list", "15,12", "--alpha", "0.8", "--perm-trials", "3"],
                 [("15", "3"), ("12", "3")],
                 "e9e09211307959b397c7231db1a610f9ca8c7dc3c11329a9f4a4931b81042404", id="tree-unsorted"),
    pytest.param(["sweep-tree", "--n-list", "12,12", "--alpha", "0.8", "--perm-trials", "3"],
                 [("12", "6"), ("12", "6")],
                 "f2c061c29ba18c3462ff7b5b8736686b8e828f753715244d36c9dc7166c17536", id="tree-repeated"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(("argv", "summaries", "digest"), SWEEP_N_LIST_DIGESTS)
def test_sweep_n_list_order_is_pinned(capsys, tmp_path, argv, summaries, digest, threads):
    out = tmp_path / "sweep.csv"
    code, _ = run(capsys, *argv, "--samples", "3", "--threads", threads, "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    samples = [(int(r["n"]), int(r["sample"])) for r in rows if r["kind"] == "sample"]
    assert samples == sorted(samples) and len(samples) == 6
    assert [(r["n"], r["samples"]) for r in rows if r["kind"] == "summary"] == summaries
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["sweep-tree", "--n-list", "10", "--alpha", "0.8", "--samples", "0"],
    ["sweep-tree", "--n-list", "10", "--alpha", "-1"],
    ["sweep-tree", "--n-list", "10,x", "--alpha", "0.8"],
    ["sweep-tree", "--n-list", "-3", "--alpha", "0.8"],
    ["sweep-kernel", "--n-list", "10", "--alpha", "0.8", "--problem", "custom"],
    ["sweep-tree", "--n-list", "10", "--alpha", "0.8", "--problem", "custom", "--p", "3", "--q", "5"],
    ["sweep-kernel", "--problem", "occ1in3", "--n-list", "9", "--alpha", "1.0", "--samples", "1", "--p", "5",
     "--q", "2"],
    ["sweep-tree", "--n-list", "10", "--alpha", "0.8", "--samples", "1", "--q", "2"],
    ["sweep-tree", "--n-list", "2", "--alpha", "1.0"],
    ["gen", "--n", "0"],
    ["gen", "--n", "5", "--neg-prob", "2"],
    ["gen", "--n", "5", "--p", "9"],
    ["gen", "--n", "9", "--seed", "-1"],
    ["sweep-tree", "--n-list", "10", "--alpha", "0.8", "--samples", "1", "--seed", "-1"],
    ["sweep-kernel", "--n-list", "10", "--alpha", "1.0", "--samples", "1", "--seed", "-1"],
    ["grover", "CHAIN", "--seed", "-1"],
    ["backtrack", "CHAIN", "--perm-trials", "2", "--seed", "-1"],
    ["sweep-kernel", "--n-list", "10", "--alpha", "1.0", "--samples", "1", "--threads", "0"],
    ["sweep-tree", "--n-list", "10", "--alpha", "0.8", "--samples", "1", "--threads", "-3"],
    ["gen", "--n", "9", "--m", "6", "--alpha", "1.0"],
    ["solve", "CHAIN", "--seed", "1"],
    ["count", "CHAIN", "--seed", "1"],
    ["grover-cost", "CHAIN", "--seed", "1"],
    ["hc", "K4", "--seed", "1"],
    ["sweep-kernel", "--n-list", "10", "--alpha", "1.0", "--samples", "1", "--perm-trials", "5"],
], ids=" ".join)
def test_invalid_argument_is_a_usage_error(capsys, chain_file, k4_file, argv):
    """CHAIN and K4 stand for the paths of a readable instance and graph file."""
    paths = {"CHAIN": chain_file, "K4": k4_file}
    try:
        code = main([paths.get(arg, arg) for arg in argv])
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("command", [["gen", "--n", "10"], ["sweep-kernel", "--n-list", "10", "--samples", "1"],
                                     ["sweep-tree", "--n-list", "10", "--samples", "1"]], ids=" ".join)
@pytest.mark.parametrize("alpha", ["inf", "1e308", "nan"])
def test_non_finite_alpha_is_a_usage_error(capsys, command, alpha):
    """alpha * n is the clause count's rule; a product that is not finite names alpha, with no traceback."""
    code = main(command + ["--alpha", alpha])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: alpha * n must be finite")


def test_clause_count_beyond_float_range_is_a_usage_error(capsys):
    """A 401-digit n overflows the float product alpha * n."""
    code = main(["gen", "--n", "1" + "0" * 400, "--alpha", "1.0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: alpha * n must be finite")


class ReadRecorder(argparse.Namespace):
    """Parsed arguments that remember which of them a command reads."""

    def __init__(self, **values):
        super().__init__(**values)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# One run per command with every option it accepts; CHAIN, K4 and OUT stand for file paths.
# --m is left out of gen because it and --alpha exclude each other.
EVERY_OPTION = [
    ["gen", "--n", "9", "--alpha", "1.0", "--p", "3", "--q", "1", "--neg-prob", "0.5",
     "--seed", "1", "--out", "OUT"],
    ["solve", "CHAIN", "--json"],
    ["count", "CHAIN", "--json"],
    ["backtrack", "CHAIN", "--count", "--perm-trials", "2", "--seed", "1", "--json"],
    ["grover", "CHAIN", "--seed", "1", "--json"],
    ["grover-cost", "CHAIN", "--count-solutions", "--json"],
    ["hc", "K4", "--json"],
    ["sweep-kernel", "--problem", "custom", "--n-list", "9", "--alpha", "1.0", "--samples", "1",
     "--neg-prob", "0.5", "--p", "3", "--q", "1", "--threads", "1", "--seed", "1", "--out", "OUT"],
    ["sweep-tree", "--problem", "custom", "--n-list", "9", "--alpha", "0.8", "--samples", "1",
     "--neg-prob", "0.5", "--perm-trials", "2", "--p", "3", "--q", "1", "--threads", "1",
     "--seed", "1", "--out", "OUT"],
]


def test_every_command_is_run_with_every_option():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(argv[0] for argv in EVERY_OPTION) == sorted(commands)
    for name, *argv in EVERY_OPTION:
        flags = {a.option_strings[-1] for a in commands[name]._actions if a.option_strings and a.dest != "help"}
        assert flags - set(argv) == ({"--m"} if name == "gen" else set()), name


@pytest.mark.parametrize("argv", EVERY_OPTION, ids=lambda argv: argv[0])
def test_every_option_a_command_parses_is_read(capsys, chain_file, k4_file, tmp_path, argv):
    paths = {"CHAIN": chain_file, "K4": k4_file, "OUT": str(tmp_path / "out.txt")}
    parsed = build_parser().parse_args([paths.get(arg, arg) for arg in argv])
    args = ReadRecorder(**vars(parsed))
    assert parsed.func(args) == 0
    capsys.readouterr()
    unread = set(vars(parsed)) - {"command", "func"} - object.__getattribute__(args, "_reads")
    assert not unread, f"{argv[0]} parses but never reads {sorted(unread)}"


@pytest.mark.parametrize("command", ["solve", "count", "backtrack", "grover", "grover-cost"])
def test_threads_is_only_a_sweep_option(capsys, chain_file, command):
    with pytest.raises(SystemExit) as err:
        main([command, chain_file, "--threads", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["solve", "count", "backtrack", "grover", "grover-cost", "hc"])
def test_out_is_only_a_file_output_option(capsys, chain_file, tmp_path, command):
    out = tmp_path / "ignored.txt"
    with pytest.raises(SystemExit) as err:
        main([command, chain_file, "--out", str(out)])
    assert err.value.code == 2 and not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "9"],
    ["sweep-kernel", "--n-list", "9", "--alpha", "1.0", "--samples", "1"],
    ["sweep-tree", "--n-list", "9", "--alpha", "0.8", "--samples", "1"],
])
def test_json_is_only_a_record_option(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--json"])
    assert err.value.code == 2


def test_single_threaded_commands_never_import_the_process_pool():
    code = ("import sys, xorsat_reduce.sweeps, xorsat_reduce.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "xorsat_reduce.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "0.1.0" in result.stdout
