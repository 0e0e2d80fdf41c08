"""Result checks run after the timed region.

`check(op, record)` holds for any seed: it cross-checks each output
against another solver or an independent computation and raises
CheckFailed on a mismatch. `KnownAnswers` adds, for the recorded seed,
an exact digest of every op's outputs (k, m_prime, delta_k, counts, T,
T_unoptimized, nodes_per_depth, Grover queries, witnesses), taken from
the seed commit, so any change to an exact result fails the op.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from xorsat_reduce.hamcycle import is_hamiltonian_cycle, parse_graph
from xorsat_reduce.instances import eval_instance, gen_locked_random, parse_instance
from xorsat_reduce.reduction import XorInfeasible, reduce_instance
from xorsat_reduce.solvers import backtrack_count, backtrack_solve, count_enumerate

KNOWN_ANSWERS_PATH = Path(__file__).with_name("known_answers.json")

# The kernel sweep op is a generator call plus one rank; recomputing the
# rank independently costs as much as the op, so it is done on every
# KERNEL_RECHECK_PERIOD-th op and the cheap identities on all of them.
KERNEL_RECHECK_PERIOD = 8
# A backtrack op's count or Unsat is checked against a full 2^k scan,
# which costs several times the op; it is done for every
# BACKTRACK_RECHECK_PERIOD-th pair of deck entries (one count op and one
# solve op) and the tree-shape identities on all of them.
BACKTRACK_RECHECK_PERIOD = 8


class CheckFailed(Exception):
    """An op's output disagrees with a cross-check or its known answer."""


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class KnownAnswers:
    """Per-op digests recorded for one seed, indexed by deck position."""

    def __init__(self, path: Path = KNOWN_ANSWERS_PATH):
        data = json.loads(path.read_text())
        self.seed = int(data["seed"])
        self.digests: dict[str, list[str]] = data["workloads"]

    def expected(self, workload: str, seed: int, index: int) -> str | None:
        """Recorded digest, or None for another seed."""
        known = self.digests.get(workload)
        if seed != self.seed or not known:
            return None
        return known[index % len(known)]


def check(op, record: dict) -> None:
    """Raise CheckFailed unless the record is consistent for any seed."""
    if op.kind == "tree":
        _check_tree(op.config, record)
    elif op.kind == "kernel":
        _check_kernel(op, record["row"])
    elif op.kind == "hc":
        if record["hc"] is not None:
            _require(is_hamiltonian_cycle(parse_graph(op.text), _bits(record["hc"])),
                     "solve_hc returned a non-Hamiltonian edge set")
    else:
        _check_instance_op(op, record)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _bits(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def gf2_rank(rows: list[int]) -> int:
    """Rank of GF(2) rows given as int bitsets; independent of the library's elimination."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def parity_rank(instance) -> int:
    return gf2_rank([sum(1 << lit.var for lit in c.literals) for c in instance.clauses])


def _check_witness(instance, witness) -> None:
    variables, parity = 0, 0
    for a in witness:
        clause = instance.clauses[a]
        variables ^= sum(1 << lit.var for lit in clause.literals)
        parity ^= (clause.negation_count + clause.q) & 1
    _require(bool(witness) and variables == 0 and parity == 1,
             "XOR witness rows do not sum to the contradiction 0 = 1")


def _check_reduction_fields(instance, record) -> None:
    m_prime = parity_rank(instance)
    _require(record["m_prime"] == m_prime, f"m_prime {record['m_prime']} != rank {m_prime}")
    _require(record["k"] == instance.n - m_prime, "k != n - m_prime")
    _require(record["delta_k"] == instance.m - m_prime, "delta_k != M - m_prime")


def _check_tree_shape(record, k: int) -> None:
    per_depth = record["nodes_per_depth"]
    _require(len(per_depth) == k + 1, "nodes_per_depth length != k + 1")
    _require(sum(per_depth) == record["tree_nodes"], "tree size T != sum of nodes_per_depth")
    _require(per_depth[0] == 1, "tree has no single root")
    _require(all(b <= 2 * a for a, b in zip(per_depth, per_depth[1:])),
             "a depth has more than twice the nodes of the one above")


def _expand_index(red, index: int) -> np.ndarray:
    """Assignment of reduced-space index `index` (parameter bits most significant first)."""
    k = red.free_count
    v = np.array([(index >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.int64)
    return ((v @ red.kernel.astype(np.int64) + red.offset) % 2).astype(np.uint8)


def _check_instance_op(op, record) -> None:
    inst = parse_instance(op.text)
    if "xor_witness" in record:
        _check_witness(inst, record["xor_witness"])
        return
    _check_reduction_fields(inst, record)
    k = record["k"]
    if record.get("sat"):
        _require(eval_instance(inst, _bits(record["assignment"])),
                 f"{op.kind} returned an assignment that violates the instance")
    if op.kind in ("backtrack_count", "backtrack_solve"):
        _check_tree_shape(record, k)
        if op.kind == "backtrack_count":
            _require(record["count"] <= record["nodes_per_depth"][-1], "more solutions than leaves")
        else:
            _require(record["queries"] == record["nodes_per_depth"][-1], "queries != leaves reached")
        if (op.index // 2) % BACKTRACK_RECHECK_PERIOD == 0:
            _check_backtrack_against_scan(op, inst, record)
        return
    red = reduce_instance(inst)
    if op.kind == "solve_enumerate":
        if record["sat"]:
            _require(1 <= record["queries"] <= 1 << k, "queries outside [1, 2^k]")
        else:
            _require(record["queries"] == 1 << k, "Unsat after fewer than 2^k candidates")
            _require(not backtrack_solve(inst, red)[0].satisfiable,
                     "solve_enumerate Unsat but backtrack_solve found a solution")
        return
    count, _ = backtrack_count(inst, red)
    if op.kind == "count_enumerate":
        _require(record["count"] == count, f"count_enumerate {record['count']} != backtrack_count {count}")
    elif op.kind == "grover_unknown":
        _require(record["mask_count"] == count, f"solution_mask marks {record['mask_count']} != {count}")
        _require(record["sat"] == (count > 0), "grover_search_unknown verdict disagrees with the count")
    elif op.kind == "grover_known":
        _require(record["mask_count"] == count, f"solution_mask marks {record['mask_count']} != {count}")
        if count:
            found = eval_instance(inst, _expand_index(red, record["measured"]))
            _require(record["marked"] == found, "measured index marked flag disagrees with the instance")
            optimal = int(math.pi / 4 * math.sqrt((1 << k) / count))
            _require(record["queries"] == optimal, "Grover iterations != floor(pi/4 sqrt(2^k / V))")


def _check_backtrack_against_scan(op, inst, record) -> None:
    if op.kind == "backtrack_solve" and record["sat"]:
        return  # the assignment was checked against the instance
    count = count_enumerate(inst, reduce_instance(inst))
    if op.kind == "backtrack_count":
        _require(record["count"] == count, f"backtrack_count {record['count']} != count_enumerate {count}")
    else:
        _require(count == 0, f"backtrack_solve Unsat but count_enumerate finds {count} solutions")


def _sweep_instance(config, n: int):
    """Regenerate sample 0 of a one-sample sweep from its seed derivation.

    Returns the fingerprint the sweep reports and the instance; a
    fingerprint mismatch means the derivation changed, which the check
    reports rather than comparing against the wrong instance.
    """
    root = np.random.SeedSequence([config.seed, n, 0])
    gen_ss, _ = root.spawn(2)
    p, q = config.arity
    inst = gen_locked_random(n, config.clause_count(n), p, q, config.negation_prob,
                             seed=np.random.Generator(np.random.PCG64(gen_ss)))
    return int(root.generate_state(1)[0]), inst


def _check_tree(config, record) -> None:
    row, summary = record["row"], record["summary"]
    n = config.n_list[0]
    _require(row["kind"] == "sample", f"tree sample ended as {row['kind']}")
    _require(summary["samples"] == 1, "summary does not count the one sample")
    fingerprint, inst = _sweep_instance(config, n)
    _require(row["seed"] == fingerprint, "sweep seed derivation changed")
    _require(row["m"] == inst.m, "row m != clause count")
    red = reduce_instance(inst)
    m_prime = parity_rank(inst)
    _require(row["m_prime"] == m_prime and row["k"] == n - m_prime
             and row["delta_k"] == inst.m - m_prime, "row k / m_prime / delta_k disagree with the rank")
    if isinstance(red, XorInfeasible):
        _require(row["solutions"] == row["tree_nodes"] == row["tree_nodes_unoptimized"] == 0,
                 "XOR-infeasible sample reports solutions or a tree")
        return
    count = count_enumerate(inst, red)
    _require(row["solutions"] == count, f"tree_sweep solutions {row['solutions']} != count_enumerate {count}")
    _, raw = backtrack_count(inst, red)
    _require(row["tree_nodes_unoptimized"] == raw.total_nodes,
             f"T_unoptimized {row['tree_nodes_unoptimized']} != backtrack_count T {raw.total_nodes}")
    _require(1 <= row["tree_nodes"] < 1 << (row["k"] + 1), "optimized T outside [1, 2^(k+1))")


def _check_kernel(op, row) -> None:
    config = op.config
    n = config.n_list[0]
    _require(row["kind"] == "sample", f"kernel sample ended as {row['kind']}")
    _require(row["m"] == config.clause_count(n), "row m != floor(alpha n)")
    _require(0 <= row["m_prime"] <= min(row["m"], n), "m_prime outside [0, min(M, n)]")
    _require(row["k"] == n - row["m_prime"] and row["delta_k"] == row["m"] - row["m_prime"],
             "k / delta_k inconsistent with m_prime")
    if op.index % KERNEL_RECHECK_PERIOD == 0:
        fingerprint, inst = _sweep_instance(config, n)
        _require(row["seed"] == fingerprint, "sweep seed derivation changed")
        _require(row["m_prime"] == parity_rank(inst), "kernel sweep rank != independent rank")
