"""Every classical solver against brute force on random small instances.

The instances mix occupation numbers per clause, include q > p clauses
(structurally unsatisfiable) and negations, and cover n = 0 and M = 0;
the locked generator produces none of these. The reduced-space scan
packs 64 candidates per word and checks each clause with bit-sliced
"at least t" levels, so its tests also reach arities up to 8 (levels
beyond the plain OR and AND), k below 6 (a block narrower than one word)
and n above 64, where brute force cannot run and the backtrackers are the
reference. The
backtrackers' decision trees are compared node for node with a recursive
reference walk that re-evaluates every touched clause at each node, also
at n up to 70, where the packed assignment and clause masks pass 64 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xorsat_reduce.grover import OracleSpec
from xorsat_reduce.hamcycle import Graph, hc_to_occupation, is_hamiltonian_cycle, random_regular_graph, solve_hc
from xorsat_reduce.instances import Clause, Instance, Literal
from xorsat_reduce.reduction import Reduction, XorInfeasible, expand_index, reduce_instance
from xorsat_reduce.solvers import (
    _WALK_BATCH,
    TreeStats,
    backtrack_count,
    backtrack_solve,
    count_enumerate,
    optimize_permutation,
    solve_enumerate,
)

from conftest import (
    BRUTE_FORCE_MAX_NODES,
    bit_block,
    brute_force_hc,
    brute_force_solutions,
    dense_standard,
    expand_rows,
    first_cycle_index,
    partial_violated,
    petersen_graph,
    prism_graph,
    reference_satisfies,
)

SETTINGS = dict(deadline=None, derandomize=True, database=None)


def as_set(rows) -> set[tuple[int, ...]]:
    return {tuple(int(b) for b in row) for row in rows}


@st.composite
def literals(draw, variables: list[int]) -> tuple[Literal, ...]:
    negated = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
    return tuple(Literal(v, s) for v, s in zip(variables, negated))


@st.composite
def small_instances(draw, max_n: int = 10, max_arity: int = 5) -> Instance:
    n = draw(st.integers(0, max_n))
    clauses = []
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_arity, unique=True))
        q = draw(st.integers(1, len(variables) + 1))
        clauses.append(Clause(draw(literals(variables)), q))
    return Instance(n, tuple(clauses))


@settings(max_examples=300, **SETTINGS)
@given(small_instances())
def test_solvers_agree_with_brute_force(inst):
    count = len(brute_force_solutions(inst))
    reduction = reduce_instance(inst)

    outcome = solve_enumerate(inst, reduction)
    assert outcome.satisfiable == (count > 0)
    if outcome.satisfiable:
        assert reference_satisfies(inst, [int(b) for b in outcome.assignment])
    assert count_enumerate(inst, reduction) == count
    assert backtrack_count(inst, reduction)[0] == count
    assert backtrack_solve(inst, reduction)[0].satisfiable == (count > 0)
    if not isinstance(reduction, XorInfeasible):
        spec = OracleSpec(reduction=reduction, instance=inst)
        assert int(spec.solution_mask.sum()) == count


@settings(max_examples=250, **SETTINGS)
@given(small_instances(max_n=12, max_arity=8))
def test_scan_consumers_agree_with_brute_force(inst):
    solutions = as_set(brute_force_solutions(inst))
    reduction = reduce_instance(inst)
    outcome = solve_enumerate(inst, reduction)
    assert count_enumerate(inst, reduction) == len(solutions)
    assert outcome.satisfiable == bool(solutions)
    if isinstance(reduction, XorInfeasible):
        return
    k = reduction.free_count
    mask = OracleSpec(reduction=reduction, instance=inst).solution_mask
    assert mask.shape == (1 << k,)
    hits = expand_rows(reduction, bit_block(0, 1 << k, k)[mask])
    assert as_set(hits) == solutions and len(hits) == len(solutions)
    if solutions:
        assert as_set([outcome.assignment]) <= solutions
        assert outcome.queries == int(np.argmax(mask)) + 1
    else:
        assert outcome.queries == 1 << k


@st.composite
def small_graphs(draw) -> Graph:
    nodes = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    return Graph(nodes, tuple(draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True))))


def cubic_graphs():
    return st.builds(random_regular_graph, st.sampled_from([8, 10, 12, 14, 16]), st.just(3), st.integers(0, 1 << 16))


@settings(max_examples=80, **SETTINGS)
@given(st.one_of(small_graphs(), cubic_graphs()))
@example(prism_graph())
@example(petersen_graph())
def test_solve_hc_agrees_with_brute_force(graph):
    """solve_hc returns the first candidate in index order that is a Hamiltonian cycle, or None;
    whether there is one agrees with brute force over the instance (up to 14 edges) and with the
    path count (up to 12 nodes)."""
    reduction = reduce_instance(hc_to_occupation(graph))
    found = solve_hc(graph, reduction)
    first = None if isinstance(reduction, XorInfeasible) else first_cycle_index(graph, reduction)
    if first is None:
        assert found is None
    else:
        assert np.array_equal(found, expand_index(reduction, first))
    if graph.n_edges <= 14:
        cycles = [x for x in brute_force_solutions(hc_to_occupation(graph))
                  if is_hamiltonian_cycle(graph, x)]
        assert (found is not None) == bool(cycles)
    if graph.n_nodes <= BRUTE_FORCE_MAX_NODES:
        assert (found is not None) == (brute_force_hc(graph) > 0)


@st.composite
def large_instances(draw) -> Instance:
    """n in 25..80 with k <= 12: one clause per dependent variable a < n - k,
    over a and later variables only, so the parity rows are independent;
    half the instances plant a solution through their occupation numbers."""
    n = draw(st.integers(25, 80))
    k = draw(st.integers(0, 12))
    planted = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if draw(st.booleans()) else None
    clauses = []
    for a in range(n - k):
        others = draw(st.lists(st.integers(a + 1, n - 1), max_size=3, unique=True)) if a + 1 < n else []
        lits = draw(literals([a, *others]))
        if planted is None:
            q = draw(st.integers(1, len(lits) + 1))
        else:
            q = sum(planted[lit.var] != lit.negated for lit in lits)
            if q == 0:
                lits = (Literal(a, not lits[0].negated), *lits[1:])
                q = 1
        clauses.append(Clause(lits, q))
    return Instance(n, tuple(clauses))


@settings(max_examples=60, **SETTINGS)
@given(large_instances())
def test_scan_consumers_agree_with_backtracking_beyond_64_variables(inst):
    reduction = reduce_instance(inst)
    assert reduction.free_count <= 12
    count, _ = backtrack_count(inst, reduction)
    assert count_enumerate(inst, reduction) == count
    assert int(OracleSpec(reduction=reduction, instance=inst).solution_mask.sum()) == count
    outcome = solve_enumerate(inst, reduction)
    assert outcome.satisfiable == backtrack_solve(inst, reduction)[0].satisfiable == (count > 0)
    if outcome.satisfiable:
        assert reference_satisfies(inst, [int(b) for b in outcome.assignment])


def reference_tree(inst, reduction, find_first: bool):
    """Recursive walk of the standard-form decision tree, clauses re-evaluated at every node.

    Free variables are fixed in perm order, branch 0 before 1; a dependent
    variable is determined at the depth where its last support variable is
    fixed; a node is cut when a clause containing a newly determined
    variable is violated. Returns (solution count, nodes per depth, first
    solution or None); with find_first the walk stops at the first leaf.
    """
    perm, h, offset = dense_standard(reduction.standard)
    k = reduction.standard.free_count
    supports = [np.flatnonzero(row) for row in h]
    deps_at = [[] for _ in range(k + 1)]
    for j, support in enumerate(supports):
        deps_at[int(support.max()) + 1 if support.size else 0].append(j)
    clauses_of = [[] for _ in range(inst.n)]
    for c in inst.clauses:
        for lit in c.literals:
            clauses_of[lit.var].append(c)
    partial = np.full(inst.n, -1, dtype=np.int8)
    vbits = [0] * k
    nodes = [0] * (k + 1)
    found = []

    def visit(depth: int) -> bool:
        nodes[depth] += 1
        newly = []
        if depth > 0:
            newly.append((int(perm[depth - 1]), vbits[depth - 1]))
        for j in deps_at[depth]:
            value = (int(offset[k + j]) + sum(vbits[c] for c in supports[j])) % 2
            newly.append((int(perm[k + j]), value))
        for var, value in newly:
            partial[var] = value
        done = False
        if not any(partial_violated(c, partial) for var, _ in newly for c in clauses_of[var]):
            if depth == k:
                found.append(partial.astype(np.uint8))
                done = find_first
            else:
                for bit in (0, 1):
                    vbits[depth] = bit
                    if visit(depth + 1):
                        done = True
                        break
        for var, _ in newly:
            partial[var] = -1
        return done

    visit(0)
    return len(found), tuple(nodes), found[0] if found else None


def assert_walks_match_the_reference(inst, r) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both walks of `r`'s standard form against the reference; returns the nodes per depth
    of the whole tree and of the find-first walk."""
    count, tree, _ = reference_tree(inst, r, find_first=False)
    assert backtrack_count(inst, r) == (count, TreeStats(sum(tree), tree))

    _, nodes, first = reference_tree(inst, r, find_first=True)
    outcome, stats = backtrack_solve(inst, r)
    assert stats == TreeStats(sum(nodes), nodes)
    assert outcome.queries == nodes[-1]
    assert outcome.satisfiable == (first is not None)
    if first is not None:
        assert outcome.assignment.dtype == np.uint8
        assert np.array_equal(outcome.assignment, first)
    return tree, nodes


def assert_trees_match_the_reference(inst):
    reduction = reduce_instance(inst)
    if isinstance(reduction, XorInfeasible):
        assert backtrack_count(inst, reduction) == (0, TreeStats(0, ()))
        return
    for r in (reduction, optimize_permutation(inst, reduction, trials=3)):
        assert_walks_match_the_reference(inst, r)


@settings(max_examples=150, **SETTINGS)
@given(small_instances(max_n=12, max_arity=6))
def test_backtrack_trees_match_the_recursive_reference(inst):
    assert_trees_match_the_reference(inst)


@st.composite
def wide_instances(draw) -> Instance:
    """n up to 70, so clause masks pass 64 bits and span several int digits.

    Up to 16 clauses of arity 1..8 with negations, over variables drawn
    from an open set of 1..12 or from anywhere. Half take q from a planted
    assignment (when that count is at least 1); the rest any q in 1..p + 1
    with that count's parity, so the parity system stays consistent. Every
    variable outside the open set gets a unit clause that pins it to its
    planted value, so k <= 12 and the open variables carry the tree.
    """
    n = draw(st.integers(65, 70) | st.integers(1, 70))
    planted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    open_vars = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True))
    clauses = []
    for _ in range(draw(st.integers(0, 16))):
        variables = draw(st.lists(st.sampled_from(open_vars), min_size=1, max_size=8, unique=True))
        anywhere = draw(st.lists(st.integers(0, n - 1), max_size=8, unique=True))
        variables += [v for v in anywhere if v not in variables][: 8 - len(variables)]
        lits = draw(literals(variables))
        q = sum(planted[lit.var] != lit.negated for lit in lits)
        if q == 0 or draw(st.integers(0, 7)) == 0:
            q = draw(st.sampled_from([t for t in range(1, len(lits) + 2) if t % 2 == q % 2]))
        clauses.append(Clause(lits, q))
    clauses += [Clause((Literal(v, not planted[v]),), 1) for v in range(n) if v not in open_vars]
    return Instance(n, tuple(clauses))


@settings(max_examples=120, **SETTINGS)
@given(wide_instances())
def test_backtrack_trees_match_the_recursive_reference_beyond_64_variables(inst):
    reduction = reduce_instance(inst)
    assert isinstance(reduction, XorInfeasible) or reduction.free_count <= 12
    assert_trees_match_the_reference(inst)


def wide_tree_instance(seed: int, pad: int) -> Instance:
    """Two to four clauses of arity 3..6 over 13..15 variables, q from a planted assignment.

    So few clauses cut few nodes: k is 11..13 and the deep levels hold
    hundreds to thousands of nodes. `pad` more variables, each pinned by a
    1-in-1 clause, leave the tree as it is and widen every packed node.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(13, 16))
    planted = rng.integers(0, 2, n)
    clauses = []
    for _ in range(int(rng.integers(2, 5))):
        p = int(rng.integers(3, 7))
        variables, negated = rng.choice(n, p, replace=False), rng.integers(0, 2, p)
        lits = tuple(Literal(int(v), bool(s)) for v, s in zip(variables, negated))
        q = sum(int(planted[lit.var]) ^ lit.negated for lit in lits)
        if q == 0:
            lits, q = (Literal(lits[0].var, not lits[0].negated), *lits[1:]), 1
        clauses.append(Clause(lits, q))
    clauses += [Clause((Literal(v, False),), 1) for v in range(n, n + pad)]
    return Instance(n + pad, tuple(clauses))


@pytest.mark.parametrize("pad", [0, 1000])
def test_wide_trees_match_the_recursive_reference(pad):
    """Trees with a depth wider than 2 x _WALK_BATCH, walked in several batches per depth.

    Raw, optimized and RREF basis forms, in both walks. In seed 86's raw
    form and seed 287's basis form the first solution's ancestor lies past
    the first batch of its depth, so the find-first counts are corrected
    for nodes of a batch a walk of single nodes would not visit. Padded to
    over 1000 variables, a node no longer fits in 64 bits and the batches
    are shorter.
    """
    late = []
    for seed in (0, 2, 20, 86, 287):
        inst = wide_tree_instance(seed, pad)
        r = reduce_instance(inst)
        widths = []
        for form in (r, optimize_permutation(inst, r, trials=3), Reduction(r.basis, r.basis)):
            tree, nodes = assert_walks_match_the_reference(inst, form)
            widths.append(max(tree))
            late.append(max(nodes) > _WALK_BATCH)
        assert max(widths) > 2 * _WALK_BATCH
    assert any(late)
