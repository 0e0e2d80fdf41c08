"""Instance model, evaluation semantics, random generation, and file round-trips."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xorsat_reduce import instances
from xorsat_reduce.errors import GenerationError, GuardExceeded, ParseError
from xorsat_reduce.hamcycle import Graph, hc_to_occupation, random_regular_graph
from xorsat_reduce.instances import (
    Clause,
    Instance,
    Literal,
    check_generator_parameters,
    emit_instance,
    eval_clause,
    eval_instance,
    gen_locked_random,
    parse_instance,
)
from xorsat_reduce.reduction import reduce_instance
from xorsat_reduce.solvers import backtrack_count, count_enumerate

from conftest import (
    CHAIN_SOLUTIONS,
    brute_force_solutions,
    clause,
    limit_address_space,
    partial_violated,
    reference_satisfies,
    reference_solutions,
)


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
    """The reference tree walks' `partial_violated`, where -1 marks an open variable."""

    def one_in_three(self):
        return clause([(0, False), (1, False), (2, False)], 1)

    def test_two_ones_violated(self):
        assert partial_violated(self.one_in_three(), [1, 1, -1])

    def test_one_zero_open_indeterminate(self):
        assert not partial_violated(self.one_in_three(), [1, 0, -1])

    def test_fully_determined_satisfied(self):
        assert not partial_violated(self.one_in_three(), [1, 0, 0])

    def test_all_open_indeterminate(self):
        assert not partial_violated(self.one_in_three(), [-1] * 3)

    def test_too_few_candidates_violated(self):
        assert partial_violated(self.one_in_three(), [0, 0, 0])

    def test_agrees_with_full_eval_when_determined(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, p + 1))
            c = clause([(v, bool(rng.integers(2))) for v in range(p)], q)
            bits = rng.integers(0, 2, size=p)
            assert partial_violated(c, bits.astype(np.int8)) != eval_clause(c, bits)

    def test_refinement_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, p + 1))
            c = clause([(v, bool(rng.integers(2))) for v in range(p)], q)
            partial = rng.choice([0, 1, -1], size=p).astype(np.int8)
            before = partial_violated(c, partial)
            open_positions = np.nonzero(partial == -1)[0]
            if open_positions.size == 0:
                continue
            refined = partial.copy()
            refined[rng.choice(open_positions)] = rng.integers(0, 2)
            if before:
                assert partial_violated(c, refined)


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

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_literal_slots_past_the_guard_are_refused(self, p):
        m = instances.GENERATE_MAX_SLOTS // p
        check_generator_parameters(m, m, p, 1, 0.5)
        with pytest.raises(GuardExceeded) as err:
            gen_locked_random(m, m + 1, p, 1, seed=0)
        assert (err.value.value, err.value.limit) == (p * (m + 1), instances.GENERATE_MAX_SLOTS)


def reference_gen_locked_random(n, m, p, q, negation_prob=0.5, seed=0):
    """The generator with its original repair, which rescans every degree (a numpy array)
    before each placement: the reference for the random stream gen_locked_random must keep."""
    check_generator_parameters(n, m, p, q, negation_prob)
    if p * m < 2 * n:
        raise GenerationError(
            f"cannot lock {n} variables with {m} clauses of {p} literals ({p * m} slots < {2 * n})"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    clause_vars = [rng.choice(n, size=p, replace=False).tolist() for _ in range(m)]
    degree = np.zeros(n, dtype=np.int64)
    for cv in clause_vars:
        for v in cv:
            degree[v] += 1
    _reference_repair(clause_vars, degree, n, rng)
    negated = rng.random(size=(m, p)) < negation_prob
    return Instance(n, tuple(
        Clause(tuple(Literal(int(v), bool(negated[a, i])) for i, v in enumerate(cv)), q)
        for a, cv in enumerate(clause_vars)
    ))


def _reference_repair(clause_vars, degree, n, rng) -> None:
    m = len(clause_vars)
    attempts = 200 * n + 100
    while True:
        lacking = [v for v in range(n) if degree[v] < 2]
        if not lacking:
            return
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
            p = len(clause_vars[0])
            raise GenerationError(f"could not lock n={n} m={m} p={p}: a placement ran out of {attempts} draws")


class _StuckDraws(np.random.Generator):
    """Always draws clause 0, slot 0 (without touching the stream), so repairs that need
    a second placement fail. Zeros shaped like the bounds: the repair draws a chunk of them."""

    def integers(self, *args, **kwargs):
        return np.zeros(np.shape(args[-1]), dtype=np.int64)


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


def _plain(state):
    """A bit generator's state with its arrays as lists, so two states compare with ==."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@st.composite
def generator_shapes(draw):
    """(n, m, p, q): m one below the pigeonhole bound ceil(2n/p), at or just above it, or up to 2n."""
    p = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(p, 240))
    tight = -(-2 * n // p)
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
    @example(shape=(20, 12, 10, 3), negation_prob=0.5, seed=5, pass_generator=True)  # two bytes of negations
    def test_same_instances_and_rng_state(self, shape, negation_prob, seed, pass_generator):
        make_rng = (lambda: np.random.default_rng(seed)) if pass_generator else (lambda: seed)
        first, second = _generate_both(*shape, negation_prob, make_rng)
        assert first == second

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64,
                                               np.random.PCG64DXSM])
    @settings(deadline=None, derandomize=True, database=None, max_examples=25)
    @given(shape=generator_shapes(), seed=st.integers(0, 2**64 - 1))
    @example(shape=(240, 160, 3, 1), seed=0)
    def test_same_stream_from_every_bit_generator(self, bit_generator, shape, seed):
        """A chunk of bounded draws equals the same scalar draws on each of numpy's bit generators."""
        first, second = _generate_both(*shape, 0.5, lambda: np.random.Generator(bit_generator(seed)))
        assert (first[0], _plain(first[1])) == (second[0], _plain(second[1]))

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(shape=generator_shapes(), seed=st.integers(0, 2**64 - 1))
    @example(shape=(240, 160, 3, 1), seed=0)
    def test_same_stream_across_chunk_boundaries(self, chunk, shape, seed):
        """Chunks of one to three attempts put chunk ends next to the rewinds on every instance."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(instances, "_REPAIR_CHUNK", chunk)
            first, second = _generate_both(*shape, 0.5, lambda: np.random.default_rng(seed))
        assert first == second

    def test_same_failure_after_every_restart(self):
        first, second = _generate_both(9, 6, 3, 1, 0.5, lambda: _StuckDraws(np.random.PCG64(3)))
        assert first == second
        assert first[0] == "could not lock n=9 m=6 p=3: a placement ran out of 1900 draws"


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
            ("pizza occ 3 1 1\n1 0\n", 1, "malformed header"),  # the header is exactly `p occ`
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == lineno
        assert fragment in str(err.value)


def emit_corpus() -> list[Instance]:
    """Generated locked instances (p 3 and 4) and HC instances of fixed cubic graphs.

    The graphs include one with an isolated node (the marker instance), one
    with a degree-one node (a q > p clause) and the empty and edgeless graphs.
    """
    corpus = [gen_locked_random(n, -(-2 * n // p) + extra, p, q, negation_prob, seed=seed)
              for seed, (n, p, q, extra, negation_prob) in enumerate(
                  [(9, 3, 1, 0, 0.5), (31, 3, 1, 0, 0.5), (46, 3, 1, 4, 0.789), (60, 3, 2, 9, 0.0),
                   (22, 4, 2, 0, 0.5), (26, 4, 1, 3, 1.0), (40, 4, 3, 12, 0.5)])]
    for nodes, seed in ((8, 2), (16, 0), (24, 5), (28, 11)):
        cubic = random_regular_graph(nodes, 3, seed=seed)
        corpus.append(hc_to_occupation(cubic))
        corpus.append(hc_to_occupation(Graph(nodes + 1, cubic.edges)))  # plus an isolated node
    corpus += [hc_to_occupation(Graph(3, ((0, 1), (1, 2)))), hc_to_occupation(Graph(0, ())),
               hc_to_occupation(Graph(2, ()))]
    return corpus


def test_emitted_instances_are_pinned():
    """Recorded before generation and the HC map filled the clause table directly."""
    digest = hashlib.sha256()
    for inst in emit_corpus():
        digest.update(emit_instance(inst).encode())
    assert digest.hexdigest() == "8bb6b8afa4f31eb983fa8e508caa40f6abf140d41abc0adb9814a2a4ba4af1a4"


@st.composite
def mixed_instances(draw):
    """Clauses of 1 to 5 literals over shuffled variables, random negations, q from 1 to p + 1."""
    n = draw(st.integers(1, 12))
    clauses = []
    for _ in range(draw(st.integers(0, 8))):
        p = draw(st.integers(1, min(5, n)))
        variables = draw(st.permutations(range(n)))[:p]
        negated = draw(st.lists(st.booleans(), min_size=p, max_size=p))
        clauses.append(Clause(tuple(map(Literal, variables, negated)), draw(st.integers(1, p + 1))))
    return Instance(n, tuple(clauses))


class TestClauseTable:
    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(inst=mixed_instances())
    def test_table_matches_its_view(self, inst):
        """The constructor, the parser and a rebuild from the view give one table, and the
        table, its cached masks and its view describe the same clauses."""
        table = (inst.n, inst.variables, inst.negations, inst.occupations)
        parsed = parse_instance(emit_instance(inst))
        for other in (parsed, Instance(inst.n, inst.clauses)):
            assert (other.n, other.variables, other.negations, other.occupations) == table
            assert other == inst and hash(other) == hash(inst)
            assert (other.m, other.alpha, other.clauses) == (inst.m, inst.alpha, inst.clauses)
        view = parsed.clauses  # built from the table, not the constructor's objects
        assert [tuple(lit.var for lit in c.literals) for c in view] == list(inst.variables)
        assert [sum(lit.negated << j for j, lit in enumerate(c.literals)) for c in view] == list(inst.negations)
        assert [c.q for c in view] == list(inst.occupations)
        assert inst.variable_masks == tuple(sum(1 << lit.var for lit in c.literals) for c in view)
        assert inst.negated_masks == tuple(sum(lit.negated << lit.var for lit in c.literals) for c in view)

    def test_a_flipped_negation_is_another_instance(self, chain_instance):
        first, *rest = chain_instance.clauses
        flipped = Clause((Literal(first.literals[0].var, not first.literals[0].negated),
                          *first.literals[1:]), first.q)
        other = Instance(chain_instance.n, (flipped, *rest))
        assert other != chain_instance and other.negations != chain_instance.negations

    def test_producers_build_no_clause_objects(self, monkeypatch):
        """The parser, the generator and the HC map fill the table alone; the view and the
        n-bit masks wait for a reader."""
        def refuse(*args, **kwargs):
            raise AssertionError("a producer built a clause object")

        monkeypatch.setattr(instances, "Clause", refuse)
        monkeypatch.setattr(instances, "Literal", refuse)
        produced = [parse_instance(CHAIN_TEXT), gen_locked_random(30, 20, 3, 1, seed=4),
                    hc_to_occupation(random_regular_graph(10, 3, seed=1)), hc_to_occupation(Graph(3, ()))]
        for inst in produced:
            assert {"clauses", "variable_masks", "negated_masks"}.isdisjoint(vars(inst))

    def test_instances_are_read_only(self, chain_instance):
        with pytest.raises(AttributeError):
            chain_instance.n = 7


PARSE_WIDE = """
import time
from xorsat_reduce.instances import parse_instance

text = "p occ 1000000000 20 1\\n" + "".join(f"{1000000000 - i} 0\\n" for i in range(20))
start = time.perf_counter()
inst = parse_instance(text)
print(inst.m, time.perf_counter() - start)
"""


def test_parse_allocates_nothing_n_wide():
    """One-literal clauses on the last of 10^9 variables parse at once in 2 GiB: the parser
    builds no n-bit mask (each would be 125 MB)."""
    result = subprocess.run([sys.executable, "-c", PARSE_WIDE], capture_output=True, text=True,
                            preexec_fn=limit_address_space, timeout=60)
    assert result.returncode == 0, result.stderr
    m, seconds = result.stdout.split()
    assert int(m) == 20 and float(seconds) < 1.0
