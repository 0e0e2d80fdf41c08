"""Tests of the benchmark itself: inputs, metric names, tracing and the checker.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from speed import SpeedLog

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")

# Per-layer metrics the benchmark's layer table promises.
LAYER_METRICS = {
    "gf2.standard_form_s", "gf2.standard_form_calls", "solvers.optimize_permutation_self_s",
    "solvers.climb_rebuilds_per_op", "gf2.rank_s", "gf2.rank_calls", "instances.gen_s",
    "instances.gen_calls", "gf2.self_s", "reduction.reduce_s", "reduction.reduce_calls",
    "reduction.xor_unsat_ratio", "solvers.backtrack_s", "solvers.tree_nodes", "solvers.nodes_per_s",
    "solvers.solutions_per_node", "solvers.scan_s", "solvers.candidates", "solvers.candidates_per_s",
    "solvers.hit_ratio", "grover.mask_s", "grover.search_s", "grover.queries", "grover.statevector_s",
    "hamcycle.solve_s", "instances.parse_s", "trace.overhead",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.make_deck(workload, 5)[:30]
    assert first == workloads.make_deck(workload, 5)[:30]
    assert first != workloads.make_deck(workload, 6)[:30]


def test_deck_matches_known_answers_length():
    known = checks.KnownAnswers()
    for workload in workloads.WORKLOADS:
        assert len(known.digests[workload]) == workloads.DECK_SIZE[workload]


def test_spec_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert UNIT.fullmatch(metric["unit"]) and len(metric["unit"]) <= 16
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert LAYER_METRICS <= {m["name"] for m in SPEC["per_layer"]}


def _run_cli(trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "sweep-kernel",
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_with_its_unit(trace, section):
    lines, result = _run_cli(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1])


def _traced(deck):
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run.run_pass(deck, SpeedLog(), ops=len(deck), tracer=tracer)
    return tracer, traced


def test_traced_run_produces_every_layer_metric_and_same_outputs():
    decks = {w: workloads.make_deck(w, 2) for w in workloads.WORKLOADS}
    mixed = (decks["sweep-tree"][:2] + decks["sweep-kernel"][:2]
             + decks["scan"][:20] + decks["backtrack"][:6])
    plain = run.run_pass(mixed, SpeedLog(), ops=len(mixed))
    tracer, traced = _traced(mixed)
    assert [checks.digest(r) for r in plain.records] == [checks.digest(r) for r in traced.records]
    metrics = tracer.layer_metrics(len(mixed), 1.0, traced.busy_s, plain.busy_s)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in LAYER_METRICS - {"reduction.xor_unsat_ratio"}:
        assert metrics[name][0] > 0, name
    # Tracing leaves the library as it found it.
    from xorsat_reduce import gf2, grover, solvers
    assert not hasattr(gf2.standard_form, "__wrapped__")
    assert not hasattr(solvers.backtrack_count, "__wrapped__")
    assert not hasattr(grover.OracleSpec.__dict__["solution_mask"].func, "__wrapped__")


def test_climb_rebuilds_are_standard_forms_under_the_optimizer():
    deck = workloads.make_deck("sweep-tree", 4)[:2]
    tracer, _ = _traced(deck)
    metrics = tracer.layer_metrics(len(deck), 1.0, 1.0, 1.0)
    rebuilds = metrics["solvers.climb_rebuilds_per_op"][0]
    assert 0 < rebuilds <= metrics["gf2.standard_form_calls"][0]


def _first_record(workload, kind, predicate=lambda r: True):
    for op in workloads.make_deck(workload, 0)[:60]:
        if op.kind == kind:
            record = workloads.run_op(op)
            if predicate(record):
                return op, record
    raise AssertionError(f"no {kind} op found")


@pytest.mark.parametrize("workload,kind,field", [
    ("scan", "count_enumerate", "count"),
    ("backtrack", "backtrack_count", "tree_nodes"),
    ("backtrack", "backtrack_solve", "tree_nodes"),
])
def test_checker_flags_a_corrupted_count_or_tree_size(workload, kind, field):
    op, record = _first_record(workload, kind, lambda r: field in r)
    checks.check(op, record)
    record[field] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check(op, record)


@pytest.mark.parametrize("field", ["solutions", "tree_nodes_unoptimized"])
def test_checker_flags_a_corrupted_tree_sweep_row(field):
    op, record = _first_record("sweep-tree", "tree", lambda r: r["row"]["tree_nodes"] > 0)
    checks.check(op, record)
    record["row"][field] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check(op, record)


def _rechecked_backtrack_record(kind, predicate):
    for op in workloads.make_deck("backtrack", 0)[:200]:
        if op.kind == kind and (op.index // 2) % checks.BACKTRACK_RECHECK_PERIOD == 0:
            record = workloads.run_op(op)
            if predicate(record):
                return op, record
    raise AssertionError(f"no rechecked {kind} op found")


def test_checker_flags_a_backtrack_count_that_disagrees_with_the_scan():
    op, record = _rechecked_backtrack_record("backtrack_count", lambda r: r.get("count", 0) >= 1)
    checks.check(op, record)
    record["count"] -= 1  # still no more solutions than leaves
    with pytest.raises(checks.CheckFailed, match="count_enumerate"):
        checks.check(op, record)


def test_checker_flags_a_backtrack_unsat_that_has_solutions():
    op, record = _rechecked_backtrack_record("backtrack_solve", lambda r: r.get("sat"))
    checks.check(op, record)
    record.update(sat=False, assignment=None)
    with pytest.raises(checks.CheckFailed, match="count_enumerate"):
        checks.check(op, record)


def test_known_answers_fail_an_op_whose_tree_is_wrong_but_consistent():
    known = checks.KnownAnswers()
    op, record = _first_record("backtrack", "backtrack_count",
                               lambda r: r["nodes_per_depth"][-1] < 2 * r["nodes_per_depth"][-2])
    record["nodes_per_depth"][-1] += 1
    record["tree_nodes"] += 1
    checks.check(op, record)  # the any-seed checks cannot see this one
    traced = run.Pass()
    traced.ops, traced.records = [op], [record]
    assert run.check_pass("backtrack", known.seed, traced, known) == ([False], 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_raising_solver_makes_the_run_incorrect(trace, monkeypatch, capsys):
    from xorsat_reduce import solvers

    def broken(*args, **kwargs):
        raise IndexError("injected")

    monkeypatch.setattr(solvers, "count_enumerate", broken)
    assert run.main(["--workload", "scan", "--seed", "3", "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_known_answer_digest_flags_a_corrupted_optimized_tree_size():
    known = checks.KnownAnswers()
    deck = workloads.make_deck("sweep-tree", known.seed)
    record = workloads.run_op(deck[0])
    assert checks.digest(record) == known.expected("sweep-tree", known.seed, 0)
    record["row"]["tree_nodes"] += 1
    assert checks.digest(record) != known.expected("sweep-tree", known.seed, 0)


def test_checker_flags_a_wrong_witness_and_a_violating_assignment():
    # The backtrack deck holds few XOR-infeasible instances; with n = 3j about half are.
    ops = (workloads.Op(i, "backtrack_solve", text=workloads._random_1in3(42, i)) for i in range(20))
    op, record = next((op, r) for op in ops if "xor_witness" in (r := workloads.run_op(op)))
    checks.check(op, record)
    with pytest.raises(checks.CheckFailed):
        checks.check(op, dict(record, xor_witness=record["xor_witness"][1:]))
    op, record = _first_record("scan", "solve_enumerate", lambda r: r.get("sat"))
    flipped = "".join("1" if c == "0" else "0" for c in record["assignment"])
    with pytest.raises(checks.CheckFailed):
        checks.check(op, dict(record, assignment=flipped))


def test_tail_quantile_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]
    q, value = run.tail_quantile(samples)
    assert q == 0.9 and 178 < value < 183
    q, value = run.tail_quantile(samples[:50])
    assert q == pytest.approx(0.8) and 38 < value < 43
    assert run.quantile(samples, 0.5) == pytest.approx(100.5)


def test_exits_nonzero_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "known_answers.json").write_text((ROOT / "bench" / "known_answers.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
