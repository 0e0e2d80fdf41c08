"""The permutation climb against copies of the climbs it replaced.

`optimize_permutation` holds each free block as packed kernel rows reduced
on it and swaps by one pivot; the reference below rebuilds a dense standard
form at every step and scores swaps on a dense clause-incidence array. Both
must make the same choices: the same returned standard form (compared as
dense arrays), the same object when the order does not change, and the same
draws from the caller's generator. `_climb` skips the swaps that cannot
win; it is also compared, one climb at a time, with a copy of the packed
climb that scored them all. `_readiness_order` reads one static count per
variable; it is compared with a loop that scores every candidate in turn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xorsat_reduce import gf2
from xorsat_reduce.errors import GenerationError
from xorsat_reduce.instances import Clause, Instance, Literal, gen_locked_random
from xorsat_reduce.reduction import Reduction, XorInfeasible, reduce_instance
from xorsat_reduce.solvers import (
    _ORDER_BLOCK,
    _at_least_degree,
    _climb,
    _random_orders,
    _readiness_order,
    optimize_permutation,
)

from conftest import dense_standard, dense_standard_form, pack_space, packed_rows, standard_form_on

SETTINGS = dict(deadline=None, derandomize=True, database=None)


class Reference:
    """The dense climb: a standard form per step, swaps scored on an (M, k, n-k) array."""

    @staticmethod
    def optimize_permutation(instance, reduction, trials, rng):
        """The reduction itself when the free order stays, else the new dense standard form."""
        k, n = reduction.kernel.shape
        if k == 0 or k == n:
            return reduction
        incidence = np.zeros((instance.m, n), dtype=np.int64)
        for a, c in enumerate(instance.clauses):
            for lit in c.literals:
                incidence[a, lit.var] = 1
        input_sel = list(reduction.standard.free)
        candidates = {tuple(sorted(input_sel)): Reference.selection_score(incidence, input_sel)}
        for trial in range(trials):
            sel = list(input_sel) if trial == 0 else Reference.random_selection(reduction.kernel, rng)
            sel, score = Reference.climb(reduction, incidence, sel)
            candidates.setdefault(tuple(sorted(sel)), score)
        best_score = max(candidates.values())
        finalists = sorted(sel for sel, score in candidates.items() if score == best_score)
        scored = []
        for sel in finalists:
            sf = dense_standard_form(reduction.kernel, reduction.offset, selection=sel)
            scored.append((Reference.readiness_penalty(sf), sel))
        _, chosen = min(scored)
        order = Reference.readiness_order(reduction.kernel, reduction.offset, chosen)
        if order == input_sel:
            return reduction
        return dense_standard_form(reduction.kernel, reduction.offset, selection=order)

    @staticmethod
    def readiness_penalty(sf):
        total = 0
        for row in sf.h:
            hits = np.nonzero(row)[0]
            total += int(hits.max()) + 1 if hits.size else 0
        return total

    @staticmethod
    def readiness_order(kernel, offset, selection):
        sf = dense_standard_form(kernel, offset, selection=selection)
        variables = list(selection)
        supports = [{variables[c] for c in np.nonzero(row)[0]} for row in sf.h if np.any(row)]
        chosen = []
        remaining = set(variables)
        while remaining:
            best = None
            best_key = None
            placed = set(chosen)
            for v in sorted(remaining):
                trial = placed | {v}
                completed = sum(1 for s in supports if v in s and s <= trial)
                leftover = sum(len(s - trial) for s in supports if not s <= placed)
                key = (-completed, leftover, v)
                if best_key is None or key < best_key:
                    best, best_key = v, key
            chosen.append(best)
            remaining.discard(best)
        return chosen

    @staticmethod
    def selection_score(incidence, sel):
        return int((incidence[:, sel].sum(axis=1) > 0).sum())

    @staticmethod
    def random_selection(kernel, rng):
        order = rng.permutation(kernel.shape[1])
        _, pivots = gf2.row_reduce(kernel[:, order])
        return [int(order[c]) for c in pivots]

    @staticmethod
    def climb(reduction, incidence, sel):
        while True:
            sf = dense_standard_form(reduction.kernel, reduction.offset, selection=sel)
            k = len(sel)
            free = [int(v) for v in sf.perm[:k]]
            dependent = [int(v) for v in sf.perm[k:]]
            score = Reference.selection_score(incidence, free)
            if not dependent:
                return free, score
            counts = incidence[:, free].sum(axis=1)
            swapped = (
                counts[:, None, None]
                - incidence[:, free][:, :, None]
                + incidence[:, dependent][:, None, :]
            )
            scores = (swapped > 0).sum(axis=0)
            scores = np.where(sf.h.T.astype(bool), scores, -1)
            if int(scores.max()) <= score:
                return free, score
            c, j = np.unravel_index(int(scores.argmax()), scores.shape)
            sel = [v for v in free if v != free[c]] + [dependent[j]]


def assert_same_climb(instance, reduction, trials, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = optimize_permutation(instance, reduction, trials=trials, seed=got_rng)
    want = Reference.optimize_permutation(instance, reduction, trials, want_rng)
    assert (got is reduction) == (want is reduction)
    if want is reduction:
        want = dense_standard(reduction.standard)
    for name, a, b in zip(want._fields, dense_standard(got.standard), want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@st.composite
def kernel_reductions(draw):
    """An instance and a full-rank k x n kernel, 1 <= k < n <= 30, with any clauses (M may be 0).

    The climb reads only the kernel's span, the input free block and which
    variables each clause holds, so the clauses need not fit the kernel.
    The reduction's basis is the kernel's standard form.
    """
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, n - 1))
    kernel = np.array([[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(k)], dtype=np.uint8)
    assume(gf2.rank(packed_rows(kernel)) == k)
    offset = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    basis = standard = gf2.standard_form(*pack_space(kernel, offset))
    if draw(st.booleans()):
        standard = standard_form_on(kernel, offset, draw(st.permutations(basis.free)))
    clauses = []
    for _ in range(draw(st.integers(0, 40))):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        clauses.append(Clause(tuple(Literal(v, False) for v in variables), 1))
    reduction = Reduction(basis=basis, standard=standard)
    return Instance(n, tuple(clauses)), reduction


@settings(max_examples=250, **SETTINGS)
@given(kernel_reductions(), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_climb_matches_the_dense_reference_on_random_kernels(case, trials, seed):
    instance, reduction = case
    assert_same_climb(instance, reduction, trials, seed)


@settings(max_examples=300, **SETTINGS)
@given(st.sampled_from([(3, 1, 0.789), (4, 2, 0.707), (3, 1, 0.6)]), st.integers(6, 30),
       st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_climb_matches_the_dense_reference_on_locked_instances(problem, n, seed, trials):
    p, q, alpha = problem
    try:
        instance = gen_locked_random(n, int(alpha * n), p, q, seed=seed)
    except GenerationError:
        assume(False)
    reduction = reduce_instance(instance)
    assume(not isinstance(reduction, XorInfeasible))
    assert_same_climb(instance, reduction, trials, seed)


@pytest.mark.parametrize("n, count", [(30, 5000), (_ORDER_BLOCK + 3, 2), (24, 0)])
def test_batched_orders_are_the_per_trial_draws(n, count):
    """Across chunk boundaries too: the same orders, and the generator left in the same state."""
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    got = list(_random_orders(got_rng, n, count))
    want = [want_rng.permutation(n).tolist() for _ in range(count)]
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_at_most_one_standard_form_per_call(monkeypatch):
    """The climb builds its result from rows it holds: no `gf2.standard_form` call, changed or not."""
    calls = []
    real = gf2.standard_form

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    rng = np.random.default_rng(17)
    cases = []
    while len(cases) < 12:
        n = int(rng.integers(15, 25))
        try:
            instance = gen_locked_random(n, int(0.75 * n), 3, 1, seed=int(rng.integers(1 << 30)))
        except GenerationError:
            continue
        reduction = reduce_instance(instance)
        if not isinstance(reduction, XorInfeasible) and 0 < reduction.free_count < n:
            reduction.standard  # the climb's input form, built on first read
            cases.append((instance, reduction))
    monkeypatch.setattr(gf2, "standard_form", counted)
    changed = 0
    for instance, reduction in cases:
        calls.clear()
        result = optimize_permutation(instance, reduction, trials=50, seed=3)
        assert not calls
        changed += result is not reduction
    assert changed > 0


def unpruned_climb(masks, sel, rows):
    """The packed climb before the bound: every valid (free, dependent) swap is scored."""
    k = len(sel)
    selected = sum(1 << v for v in sel)
    while True:
        prefix = [0] * (k + 1)  # prefix[c]: clauses covered by sel[:c]
        suffix = [0] * (k + 1)  # suffix[c]: clauses covered by sel[c:]
        for i in range(k):
            prefix[i + 1] = prefix[i] | masks[sel[i]]
            suffix[k - 1 - i] = suffix[k - i] | masks[sel[k - 1 - i]]
        score = best = prefix[k].bit_count()
        choice = None
        for c in range(k):
            others = prefix[c] | suffix[c + 1]
            dependents = rows[c] & ~selected
            while dependents:
                low = dependents & -dependents
                d = low.bit_length() - 1
                s = (others | masks[d]).bit_count()
                if s > best:
                    best, choice = s, (c, d)
                dependents ^= low
        if choice is None:
            return score
        c, d = choice
        pivot = rows.pop(c)
        bit = 1 << d
        rows[:] = [row ^ pivot if row & bit else row for row in rows]
        rows.append(pivot)
        selected ^= 1 << sel.pop(c) | bit
        sel.append(d)


@st.composite
def climb_starts(draw):
    """Clause sets and a reduced full-rank block, not drawn from locked instances.

    Clauses hold up to 8 variables and may be empty, variables may be in
    no clause, M may be 0, and k = 1 and k = n - 1 are drawn often.
    """
    n = draw(st.integers(2, 24))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    rows = [draw(st.integers(1, (1 << n) - 1)) for _ in range(k)]
    sel = gf2._gauss_jordan(rows, draw(st.permutations(range(n))))
    assume(len(sel) == k)
    width = draw(st.integers(0, min(8, n)))
    clauses = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=width, unique=True), max_size=40))
    masks = [0] * n
    for a, clause in enumerate(clauses):
        for v in clause:
            masks[v] |= 1 << a
    clause_vars = [sum(1 << v for v in clause) for clause in clauses]
    return masks, clause_vars, sel, rows


@settings(max_examples=500, **SETTINGS)
@given(climb_starts())
def test_pruned_climb_matches_the_unpruned_climb(start):
    masks, clause_vars, sel, rows = start
    want_sel, want_rows = list(sel), list(rows)
    want = unpruned_climb(masks, want_sel, want_rows)
    got = _climb(masks, clause_vars, _at_least_degree(masks), sel, rows)
    assert (got, sel, rows) == (want, want_sel, want_rows)


def readiness_order_by_candidate(sel, rows):
    """The greedy readiness order with every candidate's key (-completed, leftover, v) built in turn."""
    selected = sum(1 << v for v in sel)
    supports = {}
    for v in sel:
        dependents = rows[v] & ~selected
        for d in range(dependents.bit_length()):
            if dependents >> d & 1:
                supports[d] = supports.get(d, 0) | 1 << v
    chosen = []
    placed = 0
    remaining = sorted(sel)
    while remaining:
        best = None
        best_key = None
        for v in remaining:
            trial = placed | 1 << v
            completed = sum(1 for s in supports.values() if s >> v & 1 and not s & ~trial)
            leftover = sum((s & ~trial).bit_count() for s in supports.values())
            key = (-completed, leftover, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        chosen.append(best)
        placed |= 1 << best
        remaining.remove(best)
    return chosen


@st.composite
def reduced_blocks(draw):
    """Up to 12 selected columns and their reduced rows over at most 6 dependents.

    With few dependents, many rows share them, so the completion and
    support counts tie often and the index decides.
    """
    k = draw(st.integers(1, 12))
    columns = draw(st.permutations(range(k + draw(st.integers(0, 6)))))
    sel, dependents = columns[:k], columns[k:]
    rows = {}
    for v in sel:
        held = draw(st.sets(st.sampled_from(dependents))) if dependents else set()
        rows[v] = 1 << v | sum(1 << d for d in held)
    return sel, rows


@settings(max_examples=400, **SETTINGS)
@given(reduced_blocks())
def test_readiness_order_matches_scoring_every_candidate(block):
    sel, rows = block
    assert _readiness_order(sel, rows) == readiness_order_by_candidate(sel, rows)
