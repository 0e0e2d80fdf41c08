"""Workload decks and the operations the benchmark times.

A deck is the list of inputs one run cycles through, derived only from
the workload name and the run seed. An operation receives one deck
entry, calls into the library through module attributes (so the traced
run can wrap them where they are bound) and returns a record of its
exact outputs: plain JSON values, never timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xorsat_reduce import grover, hamcycle, instances, reduction, solvers, sweeps
from xorsat_reduce.reduction import XorInfeasible

WORKLOADS = ("sweep-tree", "scan", "backtrack", "sweep-kernel")

# Deck lengths: about the ops one run completes at the seed commit's
# speed. A run that gets further cycles the deck (see op_at), which the
# library cannot notice: it keeps no cache across calls.
DECK_SIZE = {"sweep-tree": 400, "scan": 500, "backtrack": 1200, "sweep-kernel": 2500}

TREE_CLASSES = (("occ2in4", 0.707, 21), ("occ1in3", 0.789, 21),
                ("occ2in4", 0.707, 24), ("occ1in3", 0.789, 24))
TREE_PERM_TRIALS = 100
# Two n=120 ops per n=240 op, so neither quantile sits on the boundary
# between the two sizes' op times: p50 falls among n=120 ops, p90 among n=240.
KERNEL_SIZES = (120, 120, 240)
SCAN_KINDS = ("count_enumerate", "solve_enumerate", "grover_unknown", "grover_known", "hc")
# n = 3j is left out of the scan: with M = 2n/3 exactly every variable
# has degree 2, the parity rows always sum to zero and half the instances
# are XOR-infeasible, which makes the per-op cost bimodal (1 ms or 2^k
# candidates).
SCAN_N = (40, 41, 43, 44, 46, 47)
# V = 30 and 32 (k 16, 17) are left out: those ops take ~0.2 s against
# <= 0.1 s for everything else, made up ~9% of the latency samples, and
# put the 0.9 quantile on the gap (10-seed spread 0.14). The 1/3 steps
# k 13, 14, 15 keep both quantiles inside a class.
HC_NODES = (24, 26, 28)
# n = 3j + 1 only (k 13 and 15): about 1 instance in 600 is XOR-infeasible,
# so nearly every op searches. With n = 3j about half end after reduce in
# 2 ms, and their share of the first 800 ops ranged from 46% to 55% over
# three seeds, which moved ops_per_s by up to a fifth.
BACKTRACK_N = (40, 46)


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    text: str = ""  # instance or graph file contents
    config: sweeps.SweepConfig | None = None
    rng_seed: int = 0


def op_at(deck: list[Op], i: int) -> Op:
    """Op number i of a run: the deck in order, cycling."""
    return deck[i % len(deck)]


def derived_seed(seed: int, workload: str, index: int) -> int:
    """Independent 32-bit seed for deck entry `index` of a workload."""
    tag = WORKLOADS.index(workload)
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def clause_count(n: int) -> int:
    """M = ceil(2n/3), the fewest 3-literal clauses that lock every variable."""
    return -(-2 * n // 3)


def make_deck(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return [deck_entry(workload, seed, i) for i in range(DECK_SIZE[workload])]


def deck_entry(workload: str, seed: int, i: int) -> Op:
    """Entry i of the deck make_deck(workload, seed) returns."""
    return _ENTRY_MAKERS[workload](i, derived_seed(seed, workload, i))


def _tree_entry(i: int, s: int) -> Op:
    problem, alpha, n = TREE_CLASSES[i % len(TREE_CLASSES)]
    config = sweeps.SweepConfig(problem=problem, n_list=(n,), alpha=alpha, samples=1,
                                seed=s, perm_trials=TREE_PERM_TRIALS, threads=1)
    return Op(i, "tree", config=config)


def _kernel_entry(i: int, s: int) -> Op:
    n = KERNEL_SIZES[i % len(KERNEL_SIZES)]
    config = sweeps.SweepConfig(problem="occ1in3", n_list=(n,), alpha=1.0, samples=1,
                                seed=s, threads=1)
    return Op(i, "kernel", config=config)


def _random_1in3(n: int, s: int) -> str:
    return instances.emit_instance(instances.gen_locked_random(n, clause_count(n), 3, 1, seed=s))


def _scan_entry(i: int, s: int) -> Op:
    kind = SCAN_KINDS[i % len(SCAN_KINDS)]
    if kind == "hc":
        nodes = HC_NODES[(i // len(SCAN_KINDS)) % len(HC_NODES)]
        return Op(i, kind, text=hamcycle.emit_graph(hamcycle.random_regular_graph(nodes, 3, seed=s)))
    return Op(i, kind, text=_random_1in3(SCAN_N[i % len(SCAN_N)], s), rng_seed=s)


def _backtrack_entry(i: int, s: int) -> Op:
    kind = ("backtrack_count", "backtrack_solve")[i % 2]
    return Op(i, kind, text=_random_1in3(BACKTRACK_N[(i // 2) % len(BACKTRACK_N)], s))


_ENTRY_MAKERS = {"sweep-tree": _tree_entry, "sweep-kernel": _kernel_entry,
                  "scan": _scan_entry, "backtrack": _backtrack_entry}


def bitstring(values) -> str:
    return "".join(str(int(v)) for v in values)


def _clean(value):
    """Numpy scalars and floats as exact JSON values (repr keeps every digit)."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def _reduction_fields(inst, red) -> dict:
    if isinstance(red, XorInfeasible):
        return {"xor_witness": list(red.witness)}
    return {"k": red.free_count, "m_prime": red.m_prime, "delta_k": inst.m - red.m_prime}


def run_op(op: Op) -> dict:
    """Execute one operation and return its exact outputs."""
    if op.kind == "tree":
        rows, summaries = sweeps.tree_sweep(op.config)
        return {"row": _clean(rows[0]), "summary": _clean(summaries[0])}
    if op.kind == "kernel":
        rows, _ = sweeps.kernel_sweep(op.config)
        return {"row": _clean(rows[0])}
    if op.kind == "hc":
        found = hamcycle.solve_hc(hamcycle.parse_graph(op.text))
        return {"hc": None if found is None else bitstring(found)}
    inst = instances.parse_instance(op.text)
    red = reduction.reduce_instance(inst)
    record = _reduction_fields(inst, red)
    if isinstance(red, XorInfeasible):
        return record
    if op.kind == "count_enumerate":
        record["count"] = solvers.count_enumerate(inst, red)
    elif op.kind == "solve_enumerate":
        record.update(_outcome(solvers.solve_enumerate(inst, red)))
    elif op.kind == "backtrack_count":
        count, stats = solvers.backtrack_count(inst, red)
        record.update(count=count, **_tree(stats))
    elif op.kind == "backtrack_solve":
        outcome, stats = solvers.backtrack_solve(inst, red)
        record.update(_outcome(outcome), **_tree(stats))
    elif op.kind == "grover_unknown":
        spec = grover.OracleSpec(reduction=red, instance=inst)
        record["mask_count"] = int(spec.solution_mask.sum())
        record.update(_outcome(grover.grover_search_unknown(spec, rng=op.rng_seed)))
    elif op.kind == "grover_known":
        spec = grover.OracleSpec(reduction=red, instance=inst)
        record["mask_count"] = v_count = int(spec.solution_mask.sum())
        if v_count:
            measured, marked, iterations = grover.grover_search_known(spec, v_count, rng=op.rng_seed)
            record.update(measured=measured, marked=marked, queries=iterations)
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    return record


def _tree(stats) -> dict:
    return {"tree_nodes": stats.total_nodes, "nodes_per_depth": list(stats.nodes_per_depth)}


def _outcome(outcome) -> dict:
    return {"sat": outcome.satisfiable, "queries": outcome.queries,
            "assignment": None if outcome.assignment is None else bitstring(outcome.assignment)}


def reached_search(record: dict) -> bool:
    """False for an op whose parity system was inconsistent, so it ended after reduce."""
    if "xor_witness" in record:
        return False
    row = record.get("row")
    return not (row and row["kind"] == "sample" and row.get("tree_nodes") == 0)
