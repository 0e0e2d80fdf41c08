"""Enumeration and backtracking solvers, permutation optimization, gamma statistics."""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsat_reduce import gf2
from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.hamcycle import hc_to_occupation, random_regular_graph
from xorsat_reduce.instances import Clause, Instance, Literal, eval_instance, gen_locked_random
from xorsat_reduce.reduction import (
    Reduction,
    XorInfeasible,
    expand_index,
    reduce_instance,
)
from xorsat_reduce.solvers import (
    TreeStats,
    _compiled_checks,
    _walk,
    backtrack_count,
    backtrack_solve,
    count_enumerate,
    gamma_estimate,
    optimize_permutation,
    solve_enumerate,
)

from conftest import (
    brute_force_solutions,
    clause,
    dense_parity_system,
    expand_rows,
    pack_space,
    reference_solutions,
)


def free_block_coverage(instance, reduction):
    """Number of clauses holding at least one free-block variable (the climb's score)."""
    free = set(reduction.standard.free)
    return sum(1 for c in instance.clauses if any(lit.var in free for lit in c.literals))


def xor_infeasible_instance():
    return Instance(
        2,
        (clause([(0, False), (1, False)], 1), clause([(0, False), (1, False)], 2)),
    )


def both_branches_violated_instance():
    """Two complementary saturation clauses over the same pair: k=1, no solutions."""
    return Instance(
        2,
        (clause([(0, False), (1, False)], 2), clause([(0, True), (1, True)], 2)),
    )


def random_locked(rng, n_lo=5, n_hi=14, p=3, q=1):
    n = int(rng.integers(n_lo, n_hi))
    m = int(rng.integers(int(np.ceil(2 * n / p)), int(1.3 * n) + 1))
    return gen_locked_random(n, m, p, q, seed=int(rng.integers(1 << 30)))


class TestSolveEnumerate:
    def test_chain(self, chain_instance):
        outcome = solve_enumerate(chain_instance)
        assert outcome.satisfiable
        assert eval_instance(chain_instance, outcome.assignment)
        assert tuple(outcome.assignment) in {tuple(s) for s in brute_force_solutions(chain_instance)}

    def test_chain_first_in_parameter_order(self, chain_instance):
        r = reduce_instance(chain_instance)
        outcome = solve_enumerate(chain_instance, r)
        for index in range(1 << r.free_count):
            x = expand_index(r, index)
            if eval_instance(chain_instance, x):
                assert np.array_equal(outcome.assignment, x)
                assert outcome.queries == index + 1
                break

    def test_xor_infeasible(self):
        outcome = solve_enumerate(xor_infeasible_instance())
        assert not outcome.satisfiable and outcome.queries == 0

    def test_unconstrained_first_check(self):
        outcome = solve_enumerate(Instance(3, ()))
        assert outcome.satisfiable and outcome.queries == 1

    def test_unsat_checks_whole_space(self):
        inst = both_branches_violated_instance()
        r = reduce_instance(inst)
        outcome = solve_enumerate(inst, r)
        assert not outcome.satisfiable
        assert outcome.queries == 1 << r.free_count

    def test_guard(self):
        with pytest.raises(GuardExceeded) as err:
            solve_enumerate(Instance(31, ()))
        assert err.value.value == 31


class TestCountEnumerate:
    def test_unconstrained(self):
        assert count_enumerate(Instance(5, ())) == 32

    def test_chain(self, chain_instance):
        assert count_enumerate(chain_instance) == len(brute_force_solutions(chain_instance))

    def test_xor_infeasible(self):
        assert count_enumerate(xor_infeasible_instance()) == 0

    def test_random_agreement_with_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            inst = random_locked(rng)
            assert count_enumerate(inst) == len(brute_force_solutions(inst))


class TestBacktrack:
    def test_unconstrained_full_tree(self):
        inst = Instance(4, ())
        r = reduce_instance(inst)
        count, stats = backtrack_count(inst, r)
        assert count == 16
        assert stats.total_nodes == 2 ** 5 - 1
        assert stats.nodes_per_depth == (1, 2, 4, 8, 16)

    def test_xor_infeasible_builds_no_tree(self):
        inst = xor_infeasible_instance()
        outcome, stats = backtrack_solve(inst, reduce_instance(inst))
        assert not outcome.satisfiable
        assert stats.total_nodes == 0

    def test_chain_agrees_with_enumeration(self, chain_instance):
        r = reduce_instance(chain_instance)
        outcome, stats = backtrack_solve(chain_instance, r)
        assert outcome.satisfiable == solve_enumerate(chain_instance, r).satisfiable
        assert eval_instance(chain_instance, outcome.assignment)
        assert stats.total_nodes <= 2 ** (r.free_count + 1) - 1 == 7

    def test_both_branches_cut(self):
        inst = both_branches_violated_instance()
        r = reduce_instance(inst)
        assert isinstance(r, Reduction) and r.free_count == 1
        count, stats = backtrack_count(inst, r)
        assert count == 0
        assert stats.total_nodes == 3
        assert stats.nodes_per_depth == (1, 2)

    def test_root_is_counted_when_k_zero(self):
        inst = Instance(2, (clause([(0, False)], 1), clause([(1, False)], 1)))
        r = reduce_instance(inst)
        assert r.free_count == 0
        count, stats = backtrack_count(inst, r)
        assert count == 1
        assert stats.total_nodes == 1
        assert stats.nodes_per_depth == (1,)

    def test_stats_shape_invariants(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            inst = random_locked(rng)
            r = reduce_instance(inst)
            if isinstance(r, XorInfeasible):
                continue
            count, stats = backtrack_count(inst, r)
            k = r.free_count
            assert len(stats.nodes_per_depth) == k + 1
            assert stats.total_nodes == sum(stats.nodes_per_depth)
            assert stats.nodes_per_depth[0] == 1
            for d in range(1, k + 1):
                assert stats.nodes_per_depth[d] <= 2 * stats.nodes_per_depth[d - 1]
            assert stats.total_nodes <= 2 ** (k + 1) - 1

    def test_count_agreement(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            inst = random_locked(rng)
            r = reduce_instance(inst)
            count, _ = backtrack_count(inst, r)
            assert count == count_enumerate(inst, r)
            outcome, _ = backtrack_solve(inst, r)
            assert outcome.satisfiable == (count > 0)
            if outcome.satisfiable:
                assert eval_instance(inst, outcome.assignment)

    def test_solve_queries_count_leaves(self, chain_instance):
        r = reduce_instance(chain_instance)
        outcome, stats = backtrack_solve(chain_instance, r)
        assert outcome.queries == stats.nodes_per_depth[r.free_count]

    def test_deep_chain_needs_no_recursion(self):
        """k = 1500 disjoint 1-in-2 clauses: one node per depth, under the default recursion limit,
        and a few MB of pending batches.

        The reduction is built by hand (kernel rows e_2i + e_2i+1, free block
        the even coordinates, offset and point the odd ones) and serves as
        both basis and standard form, because `reduce_instance` takes
        0.5-0.6 s at n = 3000, about twice as long as the whole test.
        """
        k = 1500
        n = 2 * k
        inst = Instance(n, tuple(clause([(2 * i, False), (2 * i + 1, False)], 1) for i in range(k)))
        kernel = np.zeros((k, n), dtype=np.uint8)
        kernel[np.arange(k), 0::2] = kernel[np.arange(k), 1::2] = np.eye(k, dtype=np.uint8)
        offset = np.tile(np.array([0, 1], dtype=np.uint8), k)
        standard = gf2.StandardForm(
            free=tuple(range(0, n, 2)),
            rows=tuple(3 << 2 * i for i in range(k)),
            point=sum(1 << 2 * i + 1 for i in range(k)),
            n=n,
        )
        matrix, rhs = dense_parity_system(inst)
        assert np.array_equal(gf2.matvec(matrix, offset), rhs)
        # A @ kernel.T over the integers (entries at most 2, exact in float32), then mod 2
        assert not ((matrix.astype(np.float32) @ kernel.T.astype(np.float32)) % 2).any()
        rows, point, _ = pack_space(kernel, offset)
        assert (tuple(rows), point) == (standard.rows, standard.point)
        r = Reduction(basis=standard, standard=standard)
        v = np.arange(k) % 2
        assert np.array_equal(r.standard.expand(v), expand_rows(r, v[None])[0])

        # Parity fixes every 1-in-2 clause once its pair is determined: no depth checks anything.
        cuts, checks = _compiled_checks(inst, r.standard)
        assert cuts == checks == [[]] * (k + 1)
        assert sys.getrecursionlimit() < k
        tracemalloc.start()
        try:
            outcome, stats = backtrack_solve(inst, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Batches hold at most 256 64-bit words: 256 nodes of 3000 bits a batch would peak near 170 MB.
        assert peak < 16 << 20
        assert outcome.satisfiable
        assert outcome.queries == 1
        assert stats.nodes_per_depth == (1,) * (k + 1)
        assert stats.total_nodes == k + 1
        assert eval_instance(inst, outcome.assignment)
        assert np.array_equal(outcome.assignment, offset)

    @pytest.mark.parametrize("n, other", [(13, 16), (16, 13)])
    def test_a_reduction_over_another_number_of_variables_is_refused(self, n, other):
        inst = Instance(n, (clause([(0, False), (1, True), (5, False)], 1),
                            clause([(2, False), (3, False), (4, False)], 1)))
        reduction = reduce_instance(Instance(other, inst.clauses))
        for walk in (backtrack_count, backtrack_solve):
            with pytest.raises(ValueError, match=f"the form has {other} variables and the instance {n}$"):
                walk(inst, reduction)

    def test_count_walk_holds_about_one_batch_per_depth(self):
        """2^17 leaves, none cut: the walk's peak stays far below one tree level of packed nodes
        (a level of 2^17 ints and its list take about 5 MB under tracemalloc)."""
        inst = Instance(18, (clause([(0, False), (1, False)], 1),))
        r = reduce_instance(inst)
        assert r.free_count == 17
        tracemalloc.start()
        try:
            count, stats = backtrack_count(inst, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count, stats.total_nodes) == (1 << 17, (1 << 18) - 1)
        assert peak < 2 << 20


def finish_depth(reduction, mask: int) -> int:
    """The depth at which every variable in `mask` is determined: one past the deepest row holding one."""
    return max((d + 1 for d, row in enumerate(reduction.standard.rows) if row & mask), default=0)


class TestCompiledChecks:
    @pytest.mark.parametrize("literals, q, cuts, check", [
        # 1in3 (t is 1 or 3): only all three true can fail.
        ([(0, False), (1, True), (2, False)], 1, [(0b111, 0b101)], None),
        # 2in3 (t is 0 or 2): only all three false can fail.
        ([(0, False), (1, False), (2, True)], 2, [(0b111, 0b100)], None),
        # 2in4 (t is 0, 2 or 4): all true, then all false.
        ([(0, True), (1, False), (2, False), (3, True)], 2, [(0b1111, 0b0110), (0b1111, 0b1001)], None),
        # 1-in-1 and 1-in-2: parity alone fixes t = 1.
        ([(0, True)], 1, [], None),
        ([(0, False), (1, True)], 1, [], None),
        # 1in4 (t is 1 or 3, and 3 is not all four), 3in5 and q > p keep the popcount bounds.
        ([(0, False), (1, True), (2, False), (3, False)], 1, [], (0b1111, 0b0010, 1, 1)),
        ([(0, False), (1, False), (2, True), (3, False), (4, True)], 3, [], (0b11111, 0b10100, 3, 3)),
        ([(0, False), (1, True)], 3, [], (0b11, 0b10, 3, 3)),
        ([(0, True)], 2, [], (0b1, 0b1, 2, 2)),
    ])
    def test_finished_clause_compiles_to_cuts_or_bounds(self, literals, q, cuts, check):
        inst = Instance(len(literals), (clause(literals, q),))
        r = reduce_instance(inst)
        compiled_cuts, checks = _compiled_checks(inst, r.standard)
        last = finish_depth(r, inst.variable_masks[0])
        assert compiled_cuts == [cuts if d == last else [] for d in range(r.standard.free_count + 1)]
        if check is None:
            assert not any(checks)
        else:
            assert checks[last] == [check]

    def test_hc_degree_three_clauses_are_all_false_cuts(self):
        inst = hc_to_occupation(random_regular_graph(16, 3, seed=16))
        r = reduce_instance(inst)
        cuts, checks = _compiled_checks(inst, r.standard)
        expected = [[] for _ in range(r.standard.free_count + 1)]
        for mask, q in zip(inst.variable_masks, inst.occupations):
            assert (mask.bit_count(), q) == (3, 2)
            expected[finish_depth(r, mask)].append((mask, 0))
        assert cuts == expected
        assert not any(checks)


def popcount_walk(instance, reduction, find_first: bool):
    """The walk with every check a popcount against two bounds, as before the cut patterns.

    Returns (solution count, TreeStats, first solution or None).
    """
    sf = reduction.standard
    k = sf.free_count
    ready = [0] * sf.n
    determined = [(1 << sf.n) - 1] * (k + 1)
    seen = 0
    for depth in range(k, 0, -1):
        row = sf.rows[depth - 1]
        for var in range(sf.n):
            if (row & ~seen) >> var & 1:
                ready[var] = depth
        seen |= row
        determined[depth - 1] = determined[k] ^ seen
    checks = [[] for _ in range(k + 1)]
    for clause_vars, mask, negated, q in zip(instance.variables, instance.variable_masks,
                                             instance.negated_masks, instance.occupations):
        depths = sorted(ready[v] for v in clause_vars)
        p = len(depths)
        for known, depth in enumerate(depths, 1):
            if known < p and depths[known] == depth:
                continue
            lo = q - p + known
            if known > q or lo > 0:
                held = mask & determined[depth]
                checks[depth].append((held, negated & held, lo, q))
    nodes = [0] * (k + 1)
    count, first = 0, None
    x = sf.point
    xs = [x] * (k + 1)
    depth = 0
    while True:
        nodes[depth] += 1
        for mask, negated, lo, q in checks[depth]:
            t = ((x ^ negated) & mask).bit_count()
            if t > q or t < lo:
                break
        else:
            if depth < k:
                depth += 1
                xs[depth] = x
                continue
            count += 1
            if first is None:
                first = np.array([x >> v & 1 for v in range(sf.n)], dtype=np.uint8)
            if find_first:
                break
        while depth and xs[depth] != xs[depth - 1]:
            depth -= 1
        if not depth:
            break
        x = xs[depth] = xs[depth - 1] ^ sf.rows[depth - 1]
    return count, TreeStats(sum(nodes), tuple(nodes)), first


@st.composite
def parity_consistent_instances(draw) -> Instance:
    """Up to 10 clauses of arity 1..6 over n <= 14 variables, with negations.

    Each q is in 1..p + 1 with the parity of a planted assignment's true
    literals (half the time that count itself, when it is at least 1), so
    the parity system is consistent and every walk's node solves it.
    """
    n = draw(st.integers(1, 14))
    planted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    clauses = []
    for _ in range(draw(st.integers(0, 10))):
        p = draw(st.integers(1, min(6, n)))
        variables = draw(st.lists(st.integers(0, n - 1), min_size=p, max_size=p, unique=True))
        lits = tuple(Literal(v, draw(st.booleans())) for v in variables)
        t = sum(planted[lit.var] != lit.negated for lit in lits)
        if not t or draw(st.booleans()):
            t = draw(st.sampled_from([q for q in range(1, p + 2) if q % 2 == t % 2]))
        clauses.append(Clause(lits, t))
    return Instance(n, tuple(clauses))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parity_consistent_instances())
def test_cut_patterns_walk_the_popcount_walks_tree(inst):
    r = reduce_instance(inst)
    assert isinstance(r, Reduction)
    for red in (r, optimize_permutation(inst, r, trials=3)):
        count, stats, _ = popcount_walk(inst, red, find_first=False)
        assert backtrack_count(inst, red) == (count, stats)
        _, stats, first = popcount_walk(inst, red, find_first=True)
        outcome, solve_stats = backtrack_solve(inst, red)
        assert solve_stats == stats
        assert outcome.queries == stats.nodes_per_depth[-1]
        assert outcome.satisfiable == (first is not None)
        if first is not None:
            assert np.array_equal(outcome.assignment, first)


def tree_corpus() -> list[Instance]:
    """Locked 1in3 (n 40, 46) and 2in4 (n 22..26) instances, 3-regular HC
    instances with V 16..24, and a locked 1in3 instance plus one q = p + 1 clause."""
    corpus = [gen_locked_random(n, -(-2 * n // 3), 3, 1, seed=s) for n in (40, 46) for s in (n, n + 1, n + 2)]
    corpus += [gen_locked_random(n, n // 2 + 1, 4, 2, seed=n) for n in (22, 24, 26)]
    corpus += [hc_to_occupation(random_regular_graph(v, 3, seed=v)) for v in (16, 18, 20, 22, 24)]
    locked = gen_locked_random(40, 27, 3, 1, seed=40)
    corpus.append(Instance(40, locked.clauses + (clause([(12, False), (33, True)], 3),)))
    return corpus


def tree_digest(corpus) -> str:
    """sha256 over both walks of each instance, raw and after optimize_permutation(trials=3):
    (count, T, nodes per depth) of backtrack_count, then (T, nodes per depth, satisfiable,
    queries) and the assignment bytes of backtrack_solve."""
    digest = hashlib.sha256()
    for inst in corpus:
        r = reduce_instance(inst)
        for red in (r, optimize_permutation(inst, r, trials=3)):
            count, stats = backtrack_count(inst, red)
            digest.update(repr((count, stats.total_nodes, stats.nodes_per_depth)).encode())
            outcome, stats = backtrack_solve(inst, red)
            digest.update(repr((stats.total_nodes, stats.nodes_per_depth,
                                outcome.satisfiable, outcome.queries)).encode())
            if outcome.assignment is not None:
                digest.update(outcome.assignment.tobytes())
    return digest.hexdigest()


def test_backtrack_trees_are_pinned():
    # Recorded with the earlier slack-counter walk: the packed walk builds the same trees.
    assert tree_digest(tree_corpus()) == "e55794885a12805699d30abbc7aa1193c44a2a5d3cee4dc311094322e09a6bfa"


def scan_order_corpus() -> list[tuple[Instance, Reduction]]:
    """(instance, reduction) pairs: locked 1in3, 2in4, 1in4, 2in5 and 1in5 instances (n 16, 20, 24,
    eight seeds each, at densities that give both SAT and UNSAT cases) and 3-regular HC instances
    with V 12..18, less the XOR-infeasible ones."""
    corpus = [gen_locked_random(n, -(-2 * n // p) + extra, p, q, seed=s)
              for p, q, extra in ((3, 1, 0), (4, 2, 2), (4, 1, 0), (5, 2, 2), (5, 1, 0))
              for n in (16, 20, 24) for s in range(8)]
    corpus += [hc_to_occupation(random_regular_graph(v, 3, seed=s)) for v in (12, 14, 16, 18) for s in range(4)]
    return [(inst, r) for inst in corpus if isinstance(r := reduce_instance(inst), Reduction)]


def test_basis_form_walk_visits_leaves_in_scan_order():
    """Walked on the RREF basis form, the tree meets its leaves in the scan's candidate order: its
    first solution is solve_enumerate's, at the index its free bits spell with v_0 most significant
    (the basis point is 0 on every free coordinate), and it counts count_enumerate's solutions."""
    satisfiable = []
    for inst, r in scan_order_corpus():
        _, first, _ = _walk(inst, r.basis, True)
        outcome = solve_enumerate(inst, r)
        assert outcome.satisfiable == (first is not None)
        if first is not None:
            assert np.array_equal(first, outcome.assignment)
            assert int("0" + "".join(str(first[c]) for c in r.basis.free), 2) + 1 == outcome.queries
        assert _walk(inst, r.basis, False)[0] == count_enumerate(inst, r)
        satisfiable.append(outcome.satisfiable)
    assert len(satisfiable) > 100 and 0 < sum(satisfiable) < len(satisfiable)


class TestOptimizePermutation:
    def test_deterministic(self, chain_instance):
        r = reduce_instance(chain_instance)
        a = optimize_permutation(chain_instance, r, trials=5, seed=3)
        b = optimize_permutation(chain_instance, r, trials=5, seed=3)
        assert (a.standard.free, a.standard.rows, a.standard.point) == (
            b.standard.free, b.standard.rows, b.standard.point)

    def test_score_never_decreases(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            inst = random_locked(rng)
            r = reduce_instance(inst)
            if isinstance(r, XorInfeasible):
                continue
            better = optimize_permutation(inst, r, trials=10, seed=int(rng.integers(1 << 30)))
            assert free_block_coverage(inst, better) >= free_block_coverage(inst, r)

    def test_score_bounded_by_clause_count(self, chain_instance):
        r = reduce_instance(chain_instance)
        better = optimize_permutation(chain_instance, r, trials=3, seed=0)
        assert free_block_coverage(chain_instance, better) <= chain_instance.m

    def test_solution_set_invariant(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            inst = random_locked(rng, n_lo=5, n_hi=11)
            r = reduce_instance(inst)
            if isinstance(r, XorInfeasible):
                continue
            better = optimize_permutation(inst, r, trials=8, seed=int(rng.integers(1 << 30)))
            k = r.free_count
            before = {tuple(r.standard.expand(bits)) for bits in itertools.product((0, 1), repeat=k)}
            after = {tuple(better.standard.expand(bits)) for bits in itertools.product((0, 1), repeat=k)}
            assert before == after
            assert count_enumerate(inst, better) == count_enumerate(inst, r)

    def test_trials_validated(self, chain_instance):
        with pytest.raises(ValueError):
            optimize_permutation(chain_instance, reduce_instance(chain_instance), trials=0)


class TestGammaEstimate:
    def test_all_ones(self):
        assert gamma_estimate([1, 1, 1], 7) == 0.0

    def test_full_square_tree(self):
        assert gamma_estimate([2 ** 6], 3) == pytest.approx(1.0)

    def test_hand_computed_pair(self):
        assert gamma_estimate([4, 16], 2) == pytest.approx(0.5 * math.log2(3.0))

    def test_scaling_shifts_by_inverse_n(self):
        rng = np.random.default_rng(83)
        sizes = rng.integers(1, 1000, size=50)
        n = 9
        assert gamma_estimate(sizes * 4, n) == pytest.approx(gamma_estimate(sizes, n) + 1 / n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gamma_estimate([], 3)
        with pytest.raises(ValueError):
            gamma_estimate([4], 0)


class TestUniqueSolutionFixture:
    def test_unique_solution_instance_shape(self, unique_solution_instance):
        r = reduce_instance(unique_solution_instance)
        assert isinstance(r, Reduction)
        assert r.free_count == 2
        assert [tuple(s) for s in brute_force_solutions(unique_solution_instance)] == [(1, 0, 0, 1)]
        assert count_enumerate(unique_solution_instance, r) == 1
        assert reference_solutions(unique_solution_instance) == [(1, 0, 0, 1)]
