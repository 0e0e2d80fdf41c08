"""The reduced-space scan and its consumers, across block boundaries and at the guards."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsat_reduce import gf2
from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.grover import OracleSpec, grover_search_known, grover_search_unknown
from xorsat_reduce.hamcycle import hc_to_occupation, random_regular_graph, solve_hc
from xorsat_reduce.instances import (
    Clause,
    Instance,
    Literal,
    eval_instance,
    gen_locked_random,
)
from xorsat_reduce.reduction import Reduction, expand_index, reduce_instance, scan, unpack_verdicts
from xorsat_reduce.solvers import backtrack_count, backtrack_solve, count_enumerate, solve_enumerate

from conftest import bit_block, brute_force_solutions, clause, complete_graph, expand_rows

F, T = False, True
BLOCK = 1 << 16

# k = 17 instances: two scan blocks each, so the second one starts at 2^16.
EMPTY_K17 = Instance(17, ())
UNSAT_K17 = Instance(18, (clause([(0, F), (1, F)], 3),))
MIXED_K17 = Instance(
    19, (clause([(0, F), (5, T), (9, F)], 2), clause([(2, F), (7, F), (18, T)], 1))
)
K17_CASES = [(EMPTY_K17, 131072), (UNSAT_K17, 0), (MIXED_K17, 73728)]


def sorted_codes(rows, n: int) -> np.ndarray:
    """Assignments as sorted integers, first variable most significant."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    return np.sort(rows @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64)))


@pytest.mark.parametrize("inst, count", K17_CASES)
def test_scan_blocks_cover_the_space_in_order(inst, count):
    r = reduce_instance(inst)
    assert r.free_count == 17
    blocks = list(scan(inst, r))
    assert [start for start, _ in blocks] == [0, BLOCK]
    for start, words in blocks:
        assert words.dtype == np.uint64 and words.shape == (BLOCK // 64,)
    blocks = [(start, unpack_verdicts(words, BLOCK)) for start, words in blocks]
    for start, satisfied in blocks:
        assert satisfied.shape == (BLOCK,)
        for i in (0, 1, BLOCK - 1):
            assert satisfied[i] == eval_instance(inst, expand_index(r, start + i))
    hits = np.concatenate([expand_rows(r, bit_block(start, start + BLOCK, 17)[satisfied])
                           for start, satisfied in blocks])
    assert len(hits) == count
    expected = brute_force_solutions(inst)
    assert np.array_equal(sorted_codes(hits, inst.n), sorted_codes(expected, inst.n))


@pytest.mark.parametrize("inst, count", K17_CASES)
def test_consumers_agree_across_the_block_boundary(inst, count):
    r = reduce_instance(inst)
    assert count_enumerate(inst, r) == count

    mask = OracleSpec(reduction=r, instance=inst).solution_mask
    assert mask.shape == (1 << 17,) and int(mask.sum()) == count
    rng = np.random.default_rng(0)
    for i in rng.integers(BLOCK, 1 << 17, size=40):
        assert mask[i] == eval_instance(inst, expand_index(r, int(i)))

    outcome = solve_enumerate(inst, r)
    assert outcome.satisfiable == bool(count)
    if count:
        first = int(np.argmax(mask))
        assert outcome.queries == first + 1
        assert np.array_equal(outcome.assignment, expand_index(r, first))
    else:
        assert outcome.queries == 1 << 17


def test_first_hit_in_second_block():
    # x0 = x1 = 1 needs the most significant parameter bit, so no hit before 2^16.
    inst = Instance(18, (clause([(0, F), (1, F)], 2),))
    r = reduce_instance(inst)
    assert r.free_count == 17
    outcome = solve_enumerate(inst, r)
    assert outcome.satisfiable and outcome.queries == BLOCK + 1
    assert outcome.assignment.tolist() == [1, 1] + [0] * 16
    assert outcome.assignment.base is None  # a copy, not a view into the block
    assert count_enumerate(inst, r) == BLOCK


@pytest.mark.parametrize("n, other", [(13, 16), (16, 13)])
def test_a_reduction_over_another_number_of_variables_is_refused(n, other):
    """Every scan consumer raises one ValueError naming both sizes: no count, no IndexError."""
    inst = Instance(n, (clause([(0, F), (1, T), (5, F)], 1), clause([(2, F), (3, F), (4, F)], 1)))
    reduction = reduce_instance(Instance(other, inst.clauses))
    consumers = (lambda: next(scan(inst, reduction)), lambda: count_enumerate(inst, reduction),
                 lambda: solve_enumerate(inst, reduction),
                 lambda: OracleSpec(reduction=reduction, instance=inst).solution_mask)
    for consume in consumers:
        with pytest.raises(ValueError, match=f"the reduction has {other} variables and the instance {n}$"):
            consume()


def test_occupation_beyond_int64_is_never_met():
    # q > p can never be met; a q too large for int64 must not overflow.
    inst = Instance(4, (clause([(0, F), (1, F)], 1 << 70), clause([(1, F), (2, F), (3, F)], 1)))
    r = reduce_instance(inst)
    assert r.free_count == 2
    assert count_enumerate(inst, r) == 0
    assert solve_enumerate(inst, r).queries == 4
    assert not OracleSpec(reduction=r, instance=inst).solution_mask.any()


@st.composite
def consistent_systems(draw) -> Instance:
    """k in 0..10 free dimensions: clause a < n - k holds variable a and up to
    seven later ones, so the parity rows are independent and always
    consistent; arities 1..8, q in 1..p + 1 and negations are drawn freely."""
    k = draw(st.integers(0, 10))
    n = k + draw(st.integers(1, 9))
    clauses = []
    for a in range(n - k):
        later = draw(st.lists(st.integers(a + 1, n - 1), max_size=7, unique=True)) if a + 1 < n else []
        negated = draw(st.lists(st.booleans(), min_size=1 + len(later), max_size=1 + len(later)))
        lits = tuple(Literal(v, s) for v, s in zip([a, *later], negated))
        clauses.append(Clause(lits, draw(st.integers(1, len(lits) + 1))))
    return Instance(n, tuple(clauses))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(consistent_systems())
def test_every_scanned_bit_is_the_candidates_evaluation(inst):
    r = reduce_instance(inst)
    assert r.free_count == inst.n - inst.m
    (start, words), = scan(inst, r)
    satisfied = unpack_verdicts(words, 1 << r.free_count)
    assert start == 0 and satisfied.shape == (1 << r.free_count,)
    for i, bit in enumerate(satisfied):
        assert bit == eval_instance(inst, expand_index(r, i))


def boundary_instance(k: int) -> Instance:
    """n = k + 2 and two clauses, each with a variable of its own, so exactly k free dimensions."""
    shared = list(range(2, min(k, 4) + 2))
    return Instance(k + 2, (
        clause([(0, F)] + [(v, v % 2 == 1) for v in shared], 1),
        clause([(1, T)] + [(v, v % 3 == 0) for v in shared[:3]], 2 if shared else 1),
    ))


@pytest.mark.parametrize("k", [0, 1, 5, 6, 7, 16, 17])
def test_blocks_at_the_word_and_block_widths(k):
    inst = boundary_instance(k)
    r = reduce_instance(inst)
    assert r.free_count == k
    width = min(k, 16)
    blocks = list(scan(inst, r))
    assert [start for start, _ in blocks] == list(range(0, 1 << k, 1 << width))
    for start, words in blocks:
        assert words.shape == (max(1, (1 << width) // 64),)
    blocks = [(start, unpack_verdicts(words, 1 << width)) for start, words in blocks]
    for start, satisfied in blocks:
        assert satisfied.shape == (1 << width,)
        for i in set(range(min(1 << width, 64))) | {(1 << width) - 1}:
            assert satisfied[i] == eval_instance(inst, expand_index(r, start + i))
    assert sum(int(satisfied.sum()) for _, satisfied in blocks) == len(brute_force_solutions(inst))


@pytest.mark.parametrize("k", range(6))
def test_words_below_one_word_hold_no_padding(k):
    """Below k = 6 one word holds more bits than candidates: the bits past 2^k are 0, so its
    popcount is the solution count, even when every candidate is one."""
    for inst in (Instance(k, ()), boundary_instance(k)):
        r = reduce_instance(inst)
        assert r.free_count == k
        (start, words), = scan(inst, r)
        assert start == 0 and words.dtype == np.uint64 and words.shape == (1,)
        assert int(words[0]) >> (1 << k) == 0
        assert int(np.bitwise_count(words).sum()) == len(brute_force_solutions(inst))


def test_scan_consumers_build_no_walk_form(monkeypatch):
    """The walk's standard form is built on first read: never by a scan consumer, once by a walk."""
    calls = []
    real = gf2.standard_form

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gf2, "standard_form", counted)
    inst = gen_locked_random(22, 15, 3, 1, seed=4)
    r = reduce_instance(inst)
    assert isinstance(r, Reduction) and r.free_count > 0
    count_enumerate(inst, r)
    solve_enumerate(inst, r)
    spec = OracleSpec(reduction=r, instance=inst)
    grover_search_known(spec, 1, rng=0)
    grover_search_unknown(spec, rng=0)
    graph = random_regular_graph(12, 3, seed=1)
    solve_hc(graph, reduce_instance(hc_to_occupation(graph)))
    assert calls == []
    assert backtrack_count(inst, r)[0] == count_enumerate(inst, r)
    assert len(calls) == 1
    backtrack_count(inst, r)
    backtrack_solve(inst, r)
    assert len(calls) == 1


def test_both_constructor_spellings_give_the_walk_form():
    inst = gen_locked_random(22, 15, 3, 1, seed=4)
    basis = reduce_instance(inst).basis
    form = gf2.standard_form(basis.rows, basis.point, basis.n)
    for r in (Reduction(basis, form), Reduction(basis=basis, standard=form)):
        assert r.__dict__["standard"] is form and r.standard is form


def digest_corpus() -> list[Instance]:
    """Locked 1in3 and 2in4 instances, 3-regular HC instances with V 24..28,
    MIXED_K17 (two blocks) and one clause with q > p."""
    corpus = [gen_locked_random(n, -(-2 * n // 3), 3, 1, seed=n) for n in (31, 34, 37, 40)]
    corpus += [gen_locked_random(n, n // 2 + 1, 4, 2, seed=n) for n in (22, 24, 26)]
    corpus += [hc_to_occupation(random_regular_graph(v, 3, seed=v)) for v in (24, 26, 28)]
    corpus += [MIXED_K17, Instance(6, (clause([(0, F), (1, T), (2, F)], 4), clause([(3, F), (4, T)], 1)))]
    return corpus


def scan_digest(corpus) -> str:
    """sha256 over every yielded block's start (8 bytes, little-endian) and its verdicts as bool bytes."""
    digest = hashlib.sha256()
    for inst in corpus:
        r = reduce_instance(inst)
        for start, words in scan(inst, r):
            digest.update(start.to_bytes(8, "little"))
            digest.update(unpack_verdicts(words, min(1 << r.free_count, BLOCK)).tobytes())
    return digest.hexdigest()


def test_scan_planes_are_pinned():
    # Recorded with the earlier ripple-carry counter: the parity-aware check yields the same bytes.
    assert scan_digest(digest_corpus()) == "5065c80c74510cd995c9091b78217ea2d2bed3286f514b4bc195d5e4bfa0341c"


class TestGuards:
    def test_scan_refuses_k31(self):
        inst = Instance(31, ())
        with pytest.raises(GuardExceeded) as err:
            next(scan(inst, reduce_instance(inst)))
        assert (err.value.value, err.value.limit) == (31, 30)

    def test_count_refuses_k31(self):
        with pytest.raises(GuardExceeded) as err:
            count_enumerate(Instance(31, ()))
        assert err.value.value == 31

    def test_hc_refuses_k36(self):
        with pytest.raises(GuardExceeded) as err:
            solve_hc(complete_graph(10))  # 45 edges - 9 = 36 free dimensions
        assert (err.value.value, err.value.limit) == (36, 30)

    def test_grover_refuses_k25(self):
        inst = Instance(25, ())
        spec = OracleSpec(reduction=reduce_instance(inst), instance=inst)
        with pytest.raises(GuardExceeded) as err:
            spec.solution_mask
        assert (err.value.value, err.value.limit) == (25, 24)
        with pytest.raises(GuardExceeded):
            grover_search_known(spec, 1, rng=0)
