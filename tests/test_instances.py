"""Instance model, evaluation semantics, random generation, and file round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xorsat_reduce import instances
from xorsat_reduce.errors import GenerationError, GuardExceeded, ParseError
from xorsat_reduce.instances import (
    INDETERMINATE,
    Clause,
    ClauseStatus,
    Instance,
    Literal,
    brute_force_solutions,
    check_generator_parameters,
    clause,
    emit_instance,
    eval_clause,
    eval_clause_partial,
    eval_instance,
    gen_locked_random,
    parse_instance,
)
from xorsat_reduce.reduction import reduce_instance
from xorsat_reduce.solvers import backtrack_count, count_enumerate

from conftest import CHAIN_SOLUTIONS, reference_satisfies, reference_solutions


class TestModel:
    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            Clause((Literal(1), Literal(1, True)), 1)

    def test_zero_occupation_rejected(self):
        with pytest.raises(ValueError):
            Clause((Literal(0),), 0)

    def test_oversized_occupation_allowed(self):
        # Structurally unsatisfiable but legal; the HC reduction needs it.
        c = Clause((Literal(0),), 2)
        assert not eval_clause(c, [1])

    def test_variable_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Instance(2, (Clause((Literal(5),), 1),))


class TestEvalClause:
    def test_one_in_three_mixed_signs(self):
        c = clause([(0, False), (1, True), (2, False)], 1)
        assert eval_clause(c, [1, 1, 0])

    def test_no_true_literals(self):
        c = clause([(0, False), (1, False), (2, False)], 1)
        assert not eval_clause(c, [0, 0, 0])

    def test_saturated(self):
        c = clause([(0, False), (1, False)], 2)
        assert eval_clause(c, [1, 1])

    def test_uncovered_variable_rejected(self):
        with pytest.raises(ValueError):
            eval_clause(clause([(3, False)], 1), [0, 1])


class TestEvalInstance:
    def test_empty_conjunction(self):
        inst = Instance(3, ())
        for bits in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
            assert eval_instance(inst, bits)

    def test_chain_matches_reference(self, chain_instance):
        for i in range(32):
            bits = tuple((i >> (4 - j)) & 1 for j in range(5))
            assert eval_instance(chain_instance, bits) == reference_satisfies(chain_instance, bits)

    def test_single_violated_clause_dominates(self):
        inst = Instance(2, (Clause((Literal(0),), 1), Clause((Literal(1),), 1)))
        assert not eval_instance(inst, [1, 0])

    def test_length_mismatch_rejected(self, chain_instance):
        with pytest.raises(ValueError):
            eval_instance(chain_instance, [0, 1, 0])


class TestEvalClausePartial:
    def one_in_three(self):
        return clause([(0, False), (1, False), (2, False)], 1)

    def test_two_ones_violated(self):
        assert eval_clause_partial(self.one_in_three(), [1, 1, INDETERMINATE]) is ClauseStatus.VIOLATED

    def test_one_zero_open_indeterminate(self):
        assert eval_clause_partial(self.one_in_three(), [1, 0, INDETERMINATE]) is ClauseStatus.INDETERMINATE

    def test_fully_determined_satisfied(self):
        assert eval_clause_partial(self.one_in_three(), [1, 0, 0]) is ClauseStatus.SATISFIED

    def test_all_open_indeterminate(self):
        assert eval_clause_partial(self.one_in_three(), [INDETERMINATE] * 3) is ClauseStatus.INDETERMINATE

    def test_too_few_candidates_violated(self):
        assert eval_clause_partial(self.one_in_three(), [0, 0, 0]) is ClauseStatus.VIOLATED

    def test_agrees_with_full_eval_when_determined(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, p + 1))
            c = clause([(v, bool(rng.integers(2))) for v in range(p)], q)
            bits = rng.integers(0, 2, size=p)
            status = eval_clause_partial(c, bits.astype(np.int8))
            assert (status is ClauseStatus.SATISFIED) == eval_clause(c, bits)

    def test_refinement_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, p + 1))
            c = clause([(v, bool(rng.integers(2))) for v in range(p)], q)
            partial = rng.choice([0, 1, INDETERMINATE], size=p).astype(np.int8)
            before = eval_clause_partial(c, partial)
            open_positions = np.nonzero(partial == INDETERMINATE)[0]
            if open_positions.size == 0:
                continue
            refined = partial.copy()
            refined[rng.choice(open_positions)] = rng.integers(0, 2)
            after = eval_clause_partial(c, refined)
            if before is ClauseStatus.VIOLATED:
                assert after is ClauseStatus.VIOLATED
            if before is ClauseStatus.SATISFIED:
                assert after is ClauseStatus.SATISFIED


class TestGenerator:
    def test_small_locked_instance(self):
        inst = gen_locked_random(6, 4, 3, 1, negation_prob=0.0, seed=5)
        assert inst.n == 6 and inst.m == 4
        degree = np.zeros(6, dtype=int)
        for c in inst.clauses:
            assert c.p == 3 and c.q == 1
            assert all(not lit.negated for lit in c.literals)
            for lit in c.literals:
                degree[lit.var] += 1
        assert degree.min() >= 2 and degree.sum() == 12

    def test_pigeonhole_infeasible(self):
        with pytest.raises(GenerationError):
            gen_locked_random(10, 3, 3, 1, seed=1)

    def test_threshold_density_instance(self):
        inst = gen_locked_random(30, int(0.789 * 30), 3, 1, seed=42)
        assert inst.n == 30 and inst.m == 23
        degree = np.zeros(30, dtype=int)
        for c in inst.clauses:
            for lit in c.literals:
                degree[lit.var] += 1
        assert degree.min() >= 2

    def test_deterministic(self):
        a = gen_locked_random(12, 10, 3, 1, seed=99)
        b = gen_locked_random(12, 10, 3, 1, seed=99)
        assert a == b
        c = gen_locked_random(12, 10, 3, 1, seed=100)
        assert a != c

    def test_locked_across_parameter_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(6, 24))
            p = int(rng.integers(3, 5))
            m = int(np.ceil(2 * n / p)) + int(rng.integers(0, n // 2 + 1))
            inst = gen_locked_random(n, m, p, min(2, p), seed=int(rng.integers(1 << 30)))
            degree = np.zeros(n, dtype=int)
            for c in inst.clauses:
                variables = [lit.var for lit in c.literals]
                assert len(set(variables)) == len(variables) == p
                for v in variables:
                    degree[v] += 1
            assert degree.min() >= 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen_locked_random(5, 4, 6, 1, seed=0)
        with pytest.raises(ValueError):
            gen_locked_random(5, 4, 3, 4, seed=0)
        with pytest.raises(ValueError):
            gen_locked_random(5, 4, 3, 1, negation_prob=1.5, seed=0)


def reference_gen_locked_random(n, m, p, q, negation_prob=0.5, seed=0):
    """The generator with its original repair, which rescans every degree (a numpy array)
    before each placement: the reference for the random stream gen_locked_random must keep."""
    check_generator_parameters(n, m, p, q, negation_prob)
    if p * m < 2 * n:
        raise GenerationError(
            f"cannot lock {n} variables with {m} clauses of {p} literals ({p * m} slots < {2 * n})"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(100):
        clause_vars = [rng.choice(n, size=p, replace=False).tolist() for _ in range(m)]
        degree = np.zeros(n, dtype=np.int64)
        for cv in clause_vars:
            for v in cv:
                degree[v] += 1
        if _reference_repair(clause_vars, degree, n, rng):
            negated = rng.random(size=(m, p)) < negation_prob
            return Instance(n, tuple(
                Clause(tuple(Literal(int(v), bool(negated[a, i])) for i, v in enumerate(cv)), q)
                for a, cv in enumerate(clause_vars)
            ))
    raise GenerationError(f"could not lock n={n} m={m} p={p} within 100 restarts")


def _reference_repair(clause_vars, degree, n, rng) -> bool:
    m = len(clause_vars)
    attempts = 200 * n + 100
    while True:
        lacking = [v for v in range(n) if degree[v] < 2]
        if not lacking:
            return True
        v = lacking[0]
        placed = False
        for _ in range(attempts):
            a = int(rng.integers(m))
            if v in clause_vars[a]:
                continue
            slot = int(rng.integers(len(clause_vars[a])))
            w = clause_vars[a][slot]
            if degree[w] < 3:
                continue
            clause_vars[a][slot] = v
            degree[w] -= 1
            degree[v] += 1
            placed = True
            break
        if not placed:
            return False


class _EvenDraws(np.random.Generator):
    """Draws only even clause and slot indices, so repairs can run out of attempts."""

    def integers(self, *args, **kwargs):
        value = super().integers(*args, **kwargs)
        return value - value % 2


class _StuckDraws(np.random.Generator):
    """Always draws clause 0, slot 0 (without touching the stream), so repairs that need
    a second placement fail."""

    def integers(self, *args, **kwargs):
        return 0


def _generate_both(n, m, p, q, negation_prob, make_rng):
    """(instance and its file text, or the GenerationError message; rng state after) per generator."""
    outcomes = []
    for generate in (gen_locked_random, reference_gen_locked_random):
        rng = make_rng()
        try:
            inst = generate(n, m, p, q, negation_prob, seed=rng)
            result = (inst, emit_instance(inst))
        except GenerationError as err:
            result = str(err)
        state = rng.bit_generator.state if isinstance(rng, np.random.Generator) else None
        outcomes.append((result, state))
    return outcomes


@st.composite
def generator_shapes(draw, min_n=3, max_n=240, tight_only=False):
    """(n, m, p, q): m one below the pigeonhole bound ceil(2n/p), at or just above it, or up to 2n."""
    p = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(max(p, min_n), max_n))
    tight = -(-2 * n // p)
    if tight_only:
        m = tight
    else:
        m = draw(st.sampled_from([tight - 1, tight, tight + 1, tight + 2]) | st.integers(tight, 2 * n))
    return n, m, p, draw(st.integers(1, p))


NEGATION_PROBS = st.sampled_from([0.0, 1.0, 0.5, 0.789])


class TestGeneratorStream:
    """gen_locked_random returns what the reference returns and leaves the caller's rng in the same state."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=150)
    @given(shape=generator_shapes(), negation_prob=NEGATION_PROBS,
           seed=st.integers(0, 2**64 - 1), pass_generator=st.booleans())
    @example(shape=(240, 240, 3, 1), negation_prob=0.5, seed=0, pass_generator=True)
    @example(shape=(240, 120, 4, 2), negation_prob=1.0, seed=7, pass_generator=True)
    def test_same_instances_and_rng_state(self, shape, negation_prob, seed, pass_generator):
        make_rng = (lambda: np.random.default_rng(seed)) if pass_generator else (lambda: seed)
        first, second = _generate_both(*shape, negation_prob, make_rng)
        assert first == second

    @settings(deadline=None, derandomize=True, database=None, max_examples=30)
    @given(shape=generator_shapes(min_n=6, max_n=9, tight_only=True), negation_prob=NEGATION_PROBS, seed=st.integers(0, 2**64 - 1))
    def test_same_restarts(self, shape, negation_prob, seed):
        first, second = _generate_both(*shape, negation_prob, lambda: _EvenDraws(np.random.PCG64(seed)))
        assert first == second

    def test_same_failure_after_every_restart(self):
        first, second = _generate_both(9, 6, 3, 1, 0.5, lambda: _StuckDraws(np.random.PCG64(3)))
        assert first == second
        assert first[0] == "could not lock n=9 m=6 p=3 within 100 restarts"

    def test_even_draws_force_restarts(self, monkeypatch):
        """The restart test's rng really makes repairs fail, then succeed on a later try."""
        results = []
        real = instances._repair_degrees

        def record(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(instances, "_repair_degrees", record)
        gen_locked_random(7, 5, 3, 1, seed=_EvenDraws(np.random.PCG64(0)))
        assert False in results and results[-1]


class TestBruteForce:
    def test_unconstrained(self):
        sols = brute_force_solutions(Instance(3, ()))
        assert len(sols) == 8
        assert [tuple(s) for s in sols] == sorted(tuple(s) for s in sols)

    def test_forced_saturation(self):
        inst = Instance(2, (clause([(0, False), (1, False)], 2),))
        sols = brute_force_solutions(inst)
        assert [tuple(s) for s in sols] == [(1, 1)]

    def test_chain_against_reference(self, chain_instance):
        sols = [tuple(s) for s in brute_force_solutions(chain_instance)]
        assert sols == reference_solutions(chain_instance) == CHAIN_SOLUTIONS

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            brute_force_solutions(Instance(25, ()))

    def test_occupation_beyond_int64_is_never_met(self):
        inst = Instance(4, (clause([(0, False), (1, False)], 1 << 70),))
        assert brute_force_solutions(inst) == []
        r = reduce_instance(inst)
        assert count_enumerate(inst, r) == backtrack_count(inst, r)[0] == 0

    def test_random_instances_against_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            inst = gen_locked_random(n, n, 3, 1, seed=int(rng.integers(1 << 30)))
            assert [tuple(s) for s in brute_force_solutions(inst)] == reference_solutions(inst)


CHAIN_TEXT = """\
p occ 5 3 1
1 -2 3 0
2 -3 4 0
3 4 5 0
"""


class TestParseEmit:
    def test_parse_chain(self, chain_instance):
        assert parse_instance(CHAIN_TEXT) == chain_instance

    def test_empty_body(self):
        inst = parse_instance("p occ 1 0 1\n")
        assert inst.n == 1 and inst.m == 0

    def test_comments_and_blank_lines_ignored(self, chain_instance):
        text = "c a comment\n\n" + CHAIN_TEXT.replace("2 -3 4 0", "2 -3 4 0\nc mid comment")
        assert parse_instance(text) == chain_instance

    def test_emit_parse_round_trip_chain(self, chain_instance):
        assert parse_instance(emit_instance(chain_instance)) == chain_instance
        assert emit_instance(chain_instance) == CHAIN_TEXT

    def test_round_trip_mixed_occupations(self):
        inst = Instance(
            4,
            (
                clause([(0, False), (1, True)], 1),
                clause([(1, False), (2, False), (3, True)], 2),
                clause([(0, True), (3, False)], 2),
            ),
        )
        assert parse_instance(emit_instance(inst)) == inst
        assert emit_instance(parse_instance(emit_instance(inst))) == emit_instance(inst)

    def test_round_trip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(5, 20))
            inst = gen_locked_random(n, n, 3, 1, negation_prob=0.5, seed=int(rng.integers(1 << 30)))
            assert parse_instance(emit_instance(inst)) == inst

    @pytest.mark.parametrize(
        "text,lineno,fragment",
        [
            ("p occ 5 3\n", 1, "malformed header"),
            ("p occ 5 1 1\n2 2 -3 0\n", 2, "repeated variable"),
            ("p occ 5 1 1\nq=0 1 2 0\n", 2, "out of range"),
            ("p occ 2 1 1\n1 9 0\n", 2, "out of range"),
            ("p occ 2 1 1\n1 2\n", 2, "end with 0"),
            ("1 2 0\n", 1, "before header"),
            ("c nothing\n", 1, "missing"),
            ("p occ 2 2 1\n1 2 0\n", 2, "declares 2 clauses"),
            ("p occ 2 1 1\n1 x 0\n", 2, "bad literal"),
            ("p occ 2 1 1\np occ 2 1 1\n", 2, "duplicate header"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == lineno
        assert fragment in str(err.value)
