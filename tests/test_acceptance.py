"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The full suite takes
several minutes; the tree-statistics sweep dominates.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np
import pytest

from xorsat_reduce import gf2
from xorsat_reduce.grover import OracleSpec, grover_search_unknown, oracle_resources
from xorsat_reduce.hamcycle import Graph, is_connected, is_hamiltonian_cycle, random_regular_graph, solve_hc
from xorsat_reduce.instances import eval_instance, gen_locked_random
from xorsat_reduce.reduction import Reduction, XorInfeasible, reduce_instance
from xorsat_reduce.solvers import backtrack_count, backtrack_solve, count_enumerate, solve_enumerate
from xorsat_reduce.sweeps import SweepConfig, tree_sweep

from conftest import (
    RESOURCE_BOUND_CONSTANT,
    bit_block,
    brute_force_hc,
    brute_force_solutions,
    complete_graph,
    cycle_graph,
    dense_grover_step,
    dense_parity_system,
    dense_standard,
    dense_uniform_state,
    hc_cost_exponent,
    hc_rank_check,
    packed_rows,
    partial_violated,
    petersen_graph,
    random_bipartite_regular_graph,
)

GROVER_SEEDS_PER_INSTANCE = 50
SWEEP_THREADS = 2


def stable_seed(*parts) -> int:
    """Process-independent seed from a tuple (Python's hash() is salted)."""
    return zlib.crc32(repr(parts).encode())


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def note(criterion: int, detail: str):
    print(f"\nACCEPTANCE NOTE criterion {criterion}: {detail}")


# Locked 1in3 instances need alpha >= 2/3 (p*M >= 2n), so the low-density
# point of the spanning set is 0.7 rather than 0.5 for that problem.
ENSEMBLE_SPECS = [
    ("occ1in3", 3, 1, (0.7, 0.789, 1.0)),
    ("occ2in4", 4, 2, (0.5, 0.707, 1.0)),
]
ENSEMBLE_N_VALUES = (8, 10, 12, 14, 16)
ENSEMBLE_SIZE_PER_PROBLEM = 500


@pytest.fixture(scope="module")
def decision_ensemble():
    """500 locked 1in3 + 500 locked 2in4 instances with brute-force ground truth."""
    items = []
    for problem, p, q, alphas in ENSEMBLE_SPECS:
        for i in range(ENSEMBLE_SIZE_PER_PROBLEM):
            n = ENSEMBLE_N_VALUES[i % len(ENSEMBLE_N_VALUES)]
            alpha = alphas[(i // len(ENSEMBLE_N_VALUES)) % len(alphas)]
            m = max(int(math.floor(alpha * n)), int(math.ceil(2 * n / p)))
            inst = gen_locked_random(n, m, p, q, seed=stable_seed(problem, i))
            reduction = reduce_instance(inst)
            solutions = brute_force_solutions(inst)
            items.append((problem, inst, reduction, len(solutions)))
    return items


def test_criterion_01_decision_oracle_equivalence(decision_ensemble):
    grover_runs = 0
    for problem, inst, reduction, brute_count in decision_ensemble:
        expected_sat = brute_count > 0
        assert solve_enumerate(inst, reduction).satisfiable == expected_sat
        outcome, stats = backtrack_solve(inst, reduction)
        assert outcome.satisfiable == expected_sat
        if outcome.satisfiable:
            assert eval_instance(inst, outcome.assignment)
        if isinstance(reduction, XorInfeasible):
            assert not expected_sat  # certified before any search
            continue
        spec = OracleSpec(reduction=reduction, instance=inst)
        for seed in range(GROVER_SEEDS_PER_INSTANCE):
            result = grover_search_unknown(spec, rng=seed)
            grover_runs += 1
            assert result.satisfiable == expected_sat
            if result.satisfiable:
                assert eval_instance(inst, result.assignment)
    report(
        1,
        True,
        f"{len(decision_ensemble)} instances, {grover_runs} Grover runs, "
        "all solvers agree exactly with brute force",
    )


def test_criterion_02_counting_oracle_equivalence(decision_ensemble):
    for problem, inst, reduction, brute_count in decision_ensemble:
        assert count_enumerate(inst, reduction) == brute_count
        count, _ = backtrack_count(inst, reduction)
        assert count == brute_count
    report(2, True, f"counts agree exactly with brute force on {len(decision_ensemble)} instances")


def test_criterion_03_kernel_excess_scaling():
    alphas = (0.8, 0.9, 1.0)
    n_values = (30, 60, 120, 240)
    samples = 1000
    soft_violations = []
    for alpha in alphas:
        means = []
        for n in n_values:
            m = int(math.floor(alpha * n))
            excesses = np.empty(samples, dtype=np.int64)
            for s in range(samples):
                seed = stable_seed("excess", alpha, n, s)
                inst = gen_locked_random(n, m, 3, 1, seed=seed)
                rank = gf2.rank(packed_rows(_parity_matrix(inst)))
                excesses[s] = inst.m - rank
            assert excesses.min() >= 0, f"negative kernel excess at alpha={alpha} n={n}"
            means.append(excesses.mean() / n)
            if excesses.max() > 5:
                soft_violations.append((alpha, n, int(excesses.max())))
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi, f"mean delta_k/n increased with n at alpha={alpha}: {means}"
    if soft_violations:
        note(3, f"soft deviation: max delta_k above 5 at {soft_violations}")
    report(
        3,
        True,
        f"delta_k >= 0 and mean delta_k/n non-increasing over n={n_values}, "
        f"alpha={alphas}, {samples} seeds each"
        + ("" if not soft_violations else " (max delta_k > 5 flagged, soft)"),
    )


def _parity_matrix(inst):
    return dense_parity_system(inst)[0]


def test_criterion_04_grover_closed_form(unique_solution_instance):
    rng = np.random.default_rng(4)
    checked = 0
    for k in range(1, 11):
        size = 1 << k
        for v in sorted({1, 2, 4, size} & set(range(1, size + 1))):
            mask = np.zeros(size, dtype=bool)
            mask[rng.choice(size, size=v, replace=False)] = True
            theta = math.asin(math.sqrt(v / size))
            state = dense_uniform_state(k)
            for m in range(1, 21):
                state = dense_grover_step(state, mask)
                simulated = float((np.abs(state[mask]) ** 2).sum())
                assert abs(simulated - math.sin((2 * m + 1) * theta) ** 2) < 1e-9
                checked += 1
    spec = OracleSpec(reduction=reduce_instance(unique_solution_instance),
                      instance=unique_solution_instance)
    state = dense_grover_step(dense_uniform_state(2), spec.solution_mask)
    target_prob = float((np.abs(state[spec.solution_mask]) ** 2).sum())
    assert abs(target_prob - 1.0) < 1e-9
    report(4, True, f"{checked} (k, V, m) points within 1e-9 of sin^2((2m+1) asin(sqrt(V/N)))")


@pytest.fixture(scope="module")
def feasible_unsat_ensemble():
    """100 XOR-feasible but unsatisfiable locked 1in3 instances, k <= 14."""
    items = []
    attempt = 0
    while len(items) < 100:
        attempt += 1
        seed = stable_seed("unsat", attempt)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 17))
        inst = gen_locked_random(n, n, 3, 1, seed=rng)
        reduction = reduce_instance(inst)
        if not isinstance(reduction, Reduction) or reduction.free_count > 14:
            continue
        if brute_force_solutions(inst):
            continue
        items.append((inst, reduction))
    return items


def test_criterion_05_no_solution_certification(feasible_unsat_ensemble):
    searches = 0
    for inst, reduction in feasible_unsat_ensemble:
        spec = OracleSpec(reduction=reduction, instance=inst)
        for seed in range(20):
            result = grover_search_unknown(spec, rng=seed)
            searches += 1
            assert not result.satisfiable, "false Sat on an unsatisfiable instance"
    report(5, True, f"{searches} searches on 100 feasible-unsat instances, all certified Unsat")


def test_criterion_06_hc_rank_theorem():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 101)) * 2  # even, 6..200
        g = random_regular_graph(n, 3, seed=rng)
        assert hc_rank_check(g) == n - 1
        assert hc_cost_exponent(g) == n / 4 + 0.5
        checked += 1
    for _ in range(200):
        half = int(rng.integers(3, 101))  # 2*half <= 200
        g = random_bipartite_regular_graph(half, 3, seed=rng)
        n = 2 * half
        assert hc_rank_check(g) == n - 1
        assert hc_cost_exponent(g) == n / 4 + 0.5
        checked += 1
    report(6, True, f"rank = n - 1 and cost exponent = n/4 + 1/2 on {checked} graphs")


def _random_connected_graph(rng) -> Graph:
    while True:
        n = int(rng.integers(4, 11))
        density = float(rng.uniform(0.35, 0.65))
        edges = tuple(
            e for e in itertools.combinations(range(n), 2) if rng.random() < density
        )
        g = Graph(n, edges)
        if is_connected(g):
            return g


def test_criterion_07_hc_oracle_agreement():
    rng = np.random.default_rng(7)
    graphs = [_random_connected_graph(rng) for _ in range(300)]
    graphs += [complete_graph(4), petersen_graph()]
    graphs += [cycle_graph(n) for n in range(5, 11)]
    for g in graphs:
        found = solve_hc(g)
        count = brute_force_hc(g)
        assert (found is not None) == (count > 0)
        if found is not None:
            assert is_hamiltonian_cycle(g, found)
    assert brute_force_hc(petersen_graph()) == 0
    report(7, True, f"solve_hc matches brute-force existence on {len(graphs)} graphs")


def _reference_tree_walk(inst, reduction):
    """Independent decision-tree walk: (visited nodes, pruned (depth, prefix) list)."""
    perm, h, offset = dense_standard(reduction.standard)
    k = reduction.standard.free_count
    supports = [np.nonzero(row)[0] for row in h]
    ready = [int(s.max()) + 1 if s.size else 0 for s in supports]
    partial = np.full(inst.n, -1, dtype=np.int8)
    vbits = [0] * k
    visited = 0
    pruned = []

    def determine(depth):
        out = []
        if depth > 0:
            var = int(perm[depth - 1])
            partial[var] = vbits[depth - 1]
            out.append(var)
        for j, rd in enumerate(ready):
            if rd == depth:
                value = int(offset[k + j])
                for c in supports[j]:
                    value ^= vbits[c]
                var = int(perm[k + j])
                partial[var] = value
                out.append(var)
        return out

    def visit(depth, prefix):
        nonlocal visited
        visited += 1
        new_vars = determine(depth)
        violated = any(partial_violated(c, partial) for c in inst.clauses)
        if violated:
            pruned.append((depth, prefix))
        elif depth < k:
            for bit in (0, 1):
                vbits[depth] = bit
                visit(depth + 1, (prefix << 1) | bit)
        for var in new_vars:
            partial[var] = -1
    visit(0, 0)
    return visited, pruned


def _standard_solution_mask(inst, reduction) -> np.ndarray:
    """Which standard-form parameters v' expand to satisfying assignments."""
    k = reduction.free_count
    flags = np.zeros(1 << k, dtype=bool)
    for index, bits in enumerate(bit_block(0, 1 << k, k)):
        flags[index] = eval_instance(inst, reduction.standard.expand(bits))
    return flags


def test_criterion_08_tree_bound_and_pruning_soundness():
    rng = np.random.default_rng(8)
    done = 0
    pruned_total = 0
    while done < 100:
        n = int(rng.integers(10, 19))
        m = int(rng.integers(int(math.ceil(2 * n / 3)), n + 1))
        inst = gen_locked_random(n, m, 3, 1, seed=int(rng.integers(1 << 30)))
        reduction = reduce_instance(inst)
        if not isinstance(reduction, Reduction) or not 1 <= reduction.free_count <= 12:
            continue
        done += 1
        k = reduction.free_count
        count, stats = backtrack_count(inst, reduction)
        assert stats.total_nodes <= 2 ** (k + 1) - 1
        visited, pruned = _reference_tree_walk(inst, reduction)
        assert visited == stats.total_nodes
        solution_flags = _standard_solution_mask(inst, reduction)
        assert int(solution_flags.sum()) == count
        for depth, prefix in pruned:
            width = k - depth
            lo = prefix << width
            assert not solution_flags[lo : lo + (1 << width)].any(), (
                "pruned subtree contains a solution"
            )
        pruned_total += len(pruned)
    report(
        8,
        True,
        f"tree bound held and {pruned_total} pruned subtrees verified solution-free "
        "over 100 instances",
    )


def _bootstrap_mean_quantile(diffs, quantile, rng, resamples=2000):
    diffs = np.asarray(diffs, dtype=np.float64)
    idx = rng.integers(0, diffs.size, size=(resamples, diffs.size))
    return float(np.quantile(diffs[idx].mean(axis=1), quantile))


def test_criterion_09_tree_sweep_properties():
    rng = np.random.default_rng(9)
    details = []
    for problem, alpha in (("occ1in3", 0.789), ("occ2in4", 0.707)):
        config = SweepConfig(
            problem=problem,
            n_list=(15, 18, 21, 24),
            alpha=alpha,
            samples=1000,
            seed=90,
            perm_trials=100,
            threads=SWEEP_THREADS,
        )
        rows, summaries = tree_sweep(config)
        for summary in summaries:
            n = summary["n"]
            good = [r for r in rows if r["n"] == n and r["kind"] == "sample"]
            assert len(good) == 1000, f"lost samples at {problem} n={n}"
            k_max = max(r["k"] for r in good)
            assert summary["gamma"] <= (k_max + 1) / (2 * n) + 1e-12, (
                f"gamma above the full-tree ceiling at {problem} n={n}"
            )
            diffs = [r["tree_nodes"] - r["tree_nodes_unoptimized"] for r in good]
            lower = _bootstrap_mean_quantile(diffs, 0.025, rng)
            assert lower <= 0, (
                f"permutation optimization significantly increased mean T at {problem} "
                f"n={n}: 95% CI lower bound {lower:.3f}"
            )
            details.append(f"{problem} n={n} gamma={summary['gamma']:.4f}")
    report(9, True, "gamma ceiling and paired optimization check: " + "; ".join(details))


def test_criterion_10_resource_model():
    rng = np.random.default_rng(10)
    checked = 0
    for problem, p, q in (("occ1in3", 3, 1), ("occ2in4", 4, 2)):
        for n in (30, 60, 90, 120, 160, 200):
            for _ in range(8):
                alpha = float(rng.uniform(0.7, 1.0))
                m = max(int(alpha * n), int(math.ceil(2 * n / p)))
                inst = gen_locked_random(n, m, p, q, seed=int(rng.integers(1 << 30)))
                reduction = reduce_instance(inst)
                if not isinstance(reduction, Reduction):
                    continue
                spec = OracleSpec(reduction=reduction, instance=inst)
                rep = oracle_resources(spec)
                recount = int(reduction.kernel.sum()) + int(reduction.offset.sum())
                assert rep.gates_module_i == recount
                assert rep.total_gates == (
                    rep.gates_module_i + rep.gates_module_ii
                    + rep.gates_module_iii + rep.gates_module_iv
                )
                assert rep.total_gates <= RESOURCE_BOUND_CONSTANT * n * n
                checked += 1
    report(
        10,
        True,
        f"exact module-I recount and total <= {RESOURCE_BOUND_CONSTANT} n^2 "
        f"on {checked} instances up to n = 200",
    )
