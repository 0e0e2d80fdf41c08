"""Parity-system construction, reduction outcomes, and expansion maps."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from xorsat_reduce import gf2, reduction
from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.grover import OracleSpec, oracle_resources
from xorsat_reduce.hamcycle import hc_to_occupation, random_regular_graph
from xorsat_reduce.instances import Instance, gen_locked_random
from xorsat_reduce.reduction import (
    Reduction,
    XorInfeasible,
    build_linear_system,
    expand_index,
    kernel_excess,
    reduce_instance,
)

from conftest import bit_block, brute_force_solutions, clause, dense_parity_system, expand_rows, packed_rows


def xor_solutions(instance):
    """Parity-system solution set by enumeration, as bit tuples."""
    matrix, rhs = dense_parity_system(instance)
    out = set()
    for bits in itertools.product((0, 1), repeat=instance.n):
        v = np.array(bits, dtype=np.uint8)
        if np.array_equal(gf2.matvec(matrix, v), rhs):
            out.add(bits)
    return out


class TestBuildLinearSystem:
    def test_chain(self, chain_instance):
        system = build_linear_system(chain_instance)
        assert system.rows == (0b00111, 0b01110, 0b11100)
        assert system.rhs == (0, 0, 1)
        assert system.n == 5

    def test_all_negated_clause(self):
        inst = Instance(3, (clause([(0, True), (1, True), (2, True)], 1),))
        system = build_linear_system(inst)
        assert system.rhs == (0,)

    def test_degree_two_node_clause(self):
        inst = Instance(3, (clause([(0, False), (1, False), (2, False)], 2),))
        assert build_linear_system(inst).rhs == (0,)

    def test_rows_are_the_variable_masks_and_match_the_dense_reference(self, chain_instance):
        for inst in [*reduction_corpus(chain_instance), Instance(0, ()), Instance(4, ())]:
            system = build_linear_system(inst)
            assert system.rows is inst.variable_masks and system.n == inst.n
            matrix, rhs = dense_parity_system(inst)
            assert list(system.rows) == packed_rows(matrix)
            assert system.rhs == tuple(rhs.tolist()) and all(type(b) is int for b in system.rhs)


class TestReduce:
    def test_chain_dimensions(self, chain_instance):
        r = reduce_instance(chain_instance)
        assert isinstance(r, Reduction)
        assert r.free_count == 2
        assert r.m_prime == 3
        expansions = {tuple(expand_index(r, index)) for index in range(4)}
        assert len(expansions) == 4
        assert expansions == xor_solutions(chain_instance)

    def test_contradictory_parity(self):
        inst = Instance(
            2,
            (
                clause([(0, False), (1, False)], 1),
                clause([(0, False), (1, False)], 2),
            ),
        )
        outcome = reduce_instance(inst)
        assert isinstance(outcome, XorInfeasible)
        assert outcome.witness == (0, 1)

    def test_witness_certifies(self):
        rng = np.random.default_rng(3)
        seen = 0
        for _ in range(200):
            n = int(rng.integers(4, 10))
            inst = gen_locked_random(n, n + 2, 3, 1, seed=int(rng.integers(1 << 30)))
            outcome = reduce_instance(inst)
            if not isinstance(outcome, XorInfeasible):
                continue
            seen += 1
            matrix, rhs = dense_parity_system(inst)
            assert not np.any(np.bitwise_xor.reduce(matrix[list(outcome.witness)], axis=0))
            assert np.bitwise_xor.reduce(rhs[list(outcome.witness)]) == 1
            assert outcome.m_prime == gf2.rank(packed_rows(matrix))
            assert type(outcome.m_prime) is int
        assert seen > 5

    def test_unconstrained(self):
        r = reduce_instance(Instance(4, ()))
        assert r.free_count == 4
        assert r.m_prime == 0
        assert not np.any(r.offset)

    def test_isolated_variable_is_free_direction(self):
        inst = Instance(4, (clause([(0, False), (1, False), (2, False)], 1),))
        r = reduce_instance(inst)
        assert r.free_count == 3
        hits = [row for row in r.kernel if row[3]]
        assert len(hits) == 1 and tuple(hits[0]) == (0, 0, 0, 1)


class TestBasisGuard:
    def test_refuses_a_basis_over_the_bit_budget(self, monkeypatch):
        monkeypatch.setattr(reduction, "REDUCE_MAX_BITS", 100)
        assert reduce_instance(Instance(10, ())).free_count == 10
        with pytest.raises(GuardExceeded) as err:
            reduce_instance(Instance(11, ()))
        assert (err.value.value, err.value.limit) == (11 * 11, 100)

    def test_wide_header_is_refused_and_an_infeasible_one_certified(self):
        wide = Instance(200_000, (clause([(0, False), (1, False), (2, False)], 1),))
        with pytest.raises(GuardExceeded) as err:
            reduce_instance(wide)
        assert err.value.value == 199_999 * 200_000
        contradiction = Instance(200_000, (clause([(0, False), (1, False)], 1), clause([(0, False), (1, False)], 2)))
        assert reduce_instance(contradiction) == XorInfeasible(witness=(0, 1), m_prime=1)


class TestExpand:
    def test_zero_parameter_gives_offset(self, chain_instance):
        r = reduce_instance(chain_instance)
        assert np.array_equal(expand_index(r, 0), r.offset)

    def test_unit_vectors(self, chain_instance):
        r = reduce_instance(chain_instance)
        assert np.array_equal(expand_index(r, 0b10), r.kernel[0] ^ r.offset)
        assert np.array_equal(expand_index(r, 0b01), r.kernel[1] ^ r.offset)

    def test_index_matches_vector(self, chain_instance):
        r = reduce_instance(chain_instance)
        want = expand_rows(r, bit_block(0, 4, 2))
        for index in range(4):
            assert np.array_equal(expand_index(r, index), want[index])
        for index in (-1, 4):
            with pytest.raises(ValueError):
                expand_index(r, index)


class TestExpandStandard:
    def test_membership_for_all_parameters(self, chain_instance):
        r = reduce_instance(chain_instance)
        matrix, rhs = dense_parity_system(chain_instance)
        for bits in itertools.product((0, 1), repeat=r.free_count):
            x = r.standard.expand(np.array(bits, dtype=np.uint8))
            assert np.array_equal(gf2.matvec(matrix, x), rhs)

    def test_same_set_as_plain_expansion(self, chain_instance):
        r = reduce_instance(chain_instance)
        plain = {tuple(expand_index(r, index)) for index in range(4)}
        standard = {tuple(r.standard.expand(bits)) for bits in itertools.product((0, 1), repeat=2)}
        assert plain == standard

    def test_zero_parameter_is_valid_solution(self, chain_instance):
        r = reduce_instance(chain_instance)
        matrix, rhs = dense_parity_system(chain_instance)
        x = r.standard.expand([0, 0])
        assert np.array_equal(gf2.matvec(matrix, x), rhs)

    def test_free_block_equals_parameter(self, chain_instance):
        r = reduce_instance(chain_instance)
        sf = r.standard
        for bits in itertools.product((0, 1), repeat=2):
            x = r.standard.expand(bits)
            assert tuple(x[list(sf.free)]) == bits

    def test_more_parameters_than_k_are_refused(self, chain_instance):
        sf = reduce_instance(chain_instance).standard
        for extra in ([0, 1, 1], [0, 1, 0], np.zeros(5, dtype=np.uint8)):
            with pytest.raises(ValueError, match=rf"^{len(extra)} parameters .* k = 2$"):
                sf.expand(extra)
        assert np.array_equal(sf.expand(()), gf2._unpack([sf.point], sf.n)[0])
        assert np.array_equal(sf.expand([0, 1]), sf.expand(iter([0, 1])))


class TestKernelExcess:
    def test_full_rank(self, chain_instance):
        r = reduce_instance(chain_instance)
        assert kernel_excess(chain_instance, r) == 0

    def test_duplicated_clause(self):
        c = clause([(0, False), (1, False), (2, False)], 1)
        inst = Instance(3, (c, c))
        r = reduce_instance(inst)
        assert kernel_excess(inst, r) >= 1

    def test_equals_row_dependency_count(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(5, 14))
            m = int(rng.integers(int(np.ceil(2 * n / 3)), 2 * n))
            inst = gen_locked_random(n, m, 3, 1, seed=int(rng.integers(1 << 30)))
            outcome = reduce_instance(inst)
            expected = inst.m - gf2.rank(packed_rows(dense_parity_system(inst)[0]))
            if isinstance(outcome, Reduction):
                assert kernel_excess(inst, outcome) == expected
                assert kernel_excess(inst, outcome) >= 0


class TestEnsembleInvariants:
    def ensemble(self, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(5, 14))
            m = int(rng.integers(int(np.ceil(2 * n / 3)), int(1.3 * n) + 1))
            yield gen_locked_random(n, m, 3, 1, seed=int(rng.integers(1 << 30)))

    def test_containment_and_consistency(self):
        for inst in self.ensemble(40, seed=59):
            outcome = reduce_instance(inst)
            solutions = {tuple(s) for s in brute_force_solutions(inst)}
            if isinstance(outcome, XorInfeasible):
                assert not solutions
                continue
            matrix, rhs = dense_parity_system(inst)
            k = outcome.free_count
            block = bit_block(0, 1 << k, k)
            expansions = expand_rows(outcome, block)
            for x in expansions:
                assert np.array_equal(gf2.matvec(matrix, x), rhs)
            expansion_set = {tuple(x) for x in expansions}
            assert len(expansion_set) == 1 << (inst.n - outcome.m_prime)
            assert solutions <= expansion_set


def reduction_corpus(chain) -> list[Instance]:
    """Locked 1in3 (n 31..46) and 2in4 (n 22..26) instances, 3-regular HC
    instances with V 16..28, the chain, an odd parity cycle (XOR-infeasible)
    and one clause with q > p."""
    corpus = [gen_locked_random(n, -(-2 * n // 3), 3, 1, seed=n) for n in range(31, 47, 3)]
    corpus += [gen_locked_random(n, n // 2 + 1, 4, 2, seed=n) for n in (22, 24, 26)]
    corpus += [hc_to_occupation(random_regular_graph(v, 3, seed=v)) for v in range(16, 29, 4)]
    corpus += [
        chain,
        Instance(3, tuple(clause([(a, False), (b, False)], 1) for a, b in ((0, 1), (1, 2), (0, 2)))),
        Instance(6, (clause([(0, False), (1, True), (2, False)], 4), clause([(3, False), (4, True)], 1))),
    ]
    return corpus


def reduction_digest(corpus) -> str:
    """sha256 over each reduction's dense views, m_prime, standard form, expansions and
    oracle resources, or its XOR witness."""
    digest = hashlib.sha256()

    def put(*values):
        digest.update(repr(values).encode())

    for inst in corpus:
        r = reduce_instance(inst)
        if isinstance(r, XorInfeasible):
            put("xor", r.witness, r.m_prime)
            continue
        for array in (r.kernel, r.offset):
            put(array.shape, array.dtype.str)
            digest.update(array.tobytes())
        sf = r.standard
        put(r.m_prime, sf.free, sf.rows, sf.point, sf.n)
        k = r.free_count
        for index in sorted({0, 1, (1 << k) - 1}):
            if index < 1 << k:
                digest.update(expand_index(r, index).tobytes())
        for value in (0, 1):
            digest.update(r.standard.expand(np.full(k, value, dtype=np.uint8)).tobytes())
        put(dataclasses.astuple(oracle_resources(OracleSpec(reduction=r, instance=inst))))
    return digest.hexdigest()


def test_reduction_bytes_are_pinned(chain_instance):
    corpus = reduction_corpus(chain_instance)
    assert sum(isinstance(reduce_instance(inst), XorInfeasible) for inst in corpus) >= 1
    # Recorded with the dense kernel and offset that Reduction stored before it kept the packed basis.
    assert reduction_digest(corpus) == "ed614482a0094a0bf16fcda27dff6e7c2f6d928a376713dbbdfde2f49707dc0b"
