"""Grover simulation: oracle marks, the dense reference against the closed form, searches, resources."""

from __future__ import annotations

import math

import numpy as np
import pytest

from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.grover import (
    OracleSpec,
    _draw,
    _measurement_probabilities,
    grover_search_known,
    grover_search_unknown,
    oracle_resources,
    query_cost_count,
    query_cost_decision,
)
from xorsat_reduce.instances import (
    Clause,
    Instance,
    Literal,
    eval_instance,
    gen_locked_random,
)
from xorsat_reduce.reduction import Reduction, expand_index, reduce_instance
from xorsat_reduce.solvers import count_enumerate

from conftest import brute_force_solutions, clause, dense_grover_step, dense_uniform_state


def spec_for(instance) -> OracleSpec:
    r = reduce_instance(instance)
    assert isinstance(r, Reduction)
    return OracleSpec(reduction=r, instance=instance)


def unsat_but_feasible_instance():
    return Instance(
        2,
        (clause([(0, False), (1, False)], 2), clause([(0, True), (1, True)], 2)),
    )


def repeated_unique_instance(copies: int) -> Instance:
    """Disjoint copies of the unique-solution gadget: k = 2*copies, exactly one solution."""
    clauses = []
    for c in range(copies):
        base = 4 * c
        clauses.extend(
            [
                Clause((Literal(base), Literal(base + 1), Literal(base + 2)), 1),
                Clause((Literal(base + 1), Literal(base + 2), Literal(base + 3)), 1),
                Clause((Literal(base), Literal(base + 3)), 2),
            ]
        )
    return Instance(4 * copies, tuple(clauses))


def closed_form_probability(k: int, v: int, iterations: int) -> float:
    theta = math.asin(math.sqrt(v / 2 ** k))
    return math.sin((2 * iterations + 1) * theta) ** 2


def dense_search_known(spec: OracleSpec, v_count: int, seed: int) -> tuple[tuple[int, bool, int], np.ndarray]:
    """Reference known-count search on the dense statevector: (triple, |state|^2)."""
    k = spec.free_count
    iterations = int(math.pi / 4 * math.sqrt(2 ** k / v_count))
    state = dense_uniform_state(k)
    for _ in range(iterations):
        state = dense_grover_step(state, spec.solution_mask)
    probs = np.abs(state) ** 2
    measured = int(np.random.default_rng(seed).choice(1 << k, p=probs / probs.sum()))
    return (measured, bool(spec.solution_mask[measured]), iterations), probs


class TestOracle:
    def test_identity_when_nothing_marked(self):
        spec = spec_for(unsat_but_feasible_instance())
        assert not spec.solution_mask.any()

    def test_flips_exactly_the_solution_indices(self, unique_solution_instance):
        spec = spec_for(unique_solution_instance)
        (target,) = np.flatnonzero(spec.solution_mask)
        assert eval_instance(unique_solution_instance, expand_index(spec.reduction, int(target)))

    def test_mask_matches_classical_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(5, 12))
            inst = gen_locked_random(n, n, 3, 1, seed=int(rng.integers(1 << 30)))
            r = reduce_instance(inst)
            if not isinstance(r, Reduction):
                continue
            spec = OracleSpec(reduction=r, instance=inst)
            k = r.free_count
            for index in range(1 << k):
                assert spec.solution_mask[index] == eval_instance(inst, expand_index(r, index))

    def test_mask_matches_classical_on_wider_space(self):
        inst = repeated_unique_instance(6)  # k = 12, one solution
        spec = spec_for(inst)
        k = spec.free_count
        assert k == 12 and spec.solution_mask.sum() == 1
        target = int(np.nonzero(spec.solution_mask)[0][0])
        assert eval_instance(inst, expand_index(spec.reduction, target))
        rng = np.random.default_rng(2)
        for index in rng.choice(1 << k, size=400, replace=False):
            assert spec.solution_mask[index] == eval_instance(inst, expand_index(spec.reduction, int(index)))


class TestIterateClosedForm:
    def test_single_target_two_qubits_exact(self, unique_solution_instance):
        spec = spec_for(unique_solution_instance)
        state = dense_grover_step(dense_uniform_state(2), spec.solution_mask)
        target = int(np.nonzero(spec.solution_mask)[0][0])
        assert abs(abs(state[target]) ** 2 - 1.0) < 1e-9

    def test_norm_preserved_along_runs(self, chain_instance):
        spec = spec_for(chain_instance)
        state = dense_uniform_state(2)
        for _ in range(25):
            state = dense_grover_step(state, spec.solution_mask)
            assert abs(np.vdot(state, state).real - 1.0) < 1e-9

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_mask_level_agreement(self, k):
        rng = np.random.default_rng(k)
        n = 1 << k
        for v in {1, 2, min(4, n), n}:
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=v, replace=False)] = True
            state = dense_uniform_state(k)
            for m in range(1, 12):
                state = dense_grover_step(state, mask)
                simulated = float((np.abs(state[mask]) ** 2).sum())
                assert abs(simulated - closed_form_probability(k, v, m)) < 1e-9

    def test_all_marked_is_fixed_point(self):
        spec = spec_for(Instance(3, ()))
        state = dense_grover_step(dense_uniform_state(3), spec.solution_mask)
        assert np.allclose(np.abs(state) ** 2, np.abs(dense_uniform_state(3)) ** 2)
        probs = np.abs(state) ** 2
        assert float(probs[spec.solution_mask].sum()) == pytest.approx(1.0)

    def test_spec_level_closed_form_chain(self, chain_instance):
        spec = spec_for(chain_instance)  # k = 2, V = 2
        state = dense_uniform_state(2)
        for m in range(1, 10):
            state = dense_grover_step(state, spec.solution_mask)
            simulated = float((np.abs(state[spec.solution_mask]) ** 2).sum())
            assert abs(simulated - closed_form_probability(2, 2, m)) < 1e-9


class TestSearchKnown:
    def test_exact_single_target(self, unique_solution_instance):
        spec = spec_for(unique_solution_instance)
        for seed in range(10):
            measured, success, iterations = grover_search_known(spec, 1, seed)
            assert iterations == 1
            assert success and spec.solution_mask[measured]

    def test_all_marked_measures_immediately(self):
        spec = spec_for(Instance(4, ()))
        measured, success, iterations = grover_search_known(spec, 16, 7)
        assert iterations == 0 and success

    def test_success_bound_k10(self):
        spec = spec_for(repeated_unique_instance(5))  # k = 10, V = 1
        assert spec.free_count == 10
        # Exact success probability of the final state meets 1 - V/N.
        state = dense_uniform_state(10)
        _, _, iterations = grover_search_known(spec, 1, 0)
        for _ in range(iterations):
            state = dense_grover_step(state, spec.solution_mask)
        exact = float((np.abs(state[spec.solution_mask]) ** 2).sum())
        assert exact >= 1 - 1 / 2 ** 10
        hits = sum(
            grover_search_known(spec, 1, seed)[1] for seed in range(200)
        )
        assert hits >= 196

    def test_v_count_validated(self, chain_instance):
        spec = spec_for(chain_instance)
        with pytest.raises(ValueError):
            grover_search_known(spec, 0, 1)
        with pytest.raises(ValueError):
            grover_search_known(spec, 5, 1)

    # (instance, v_count); v_count None means the solution count. A named
    # v_count is one more than the solution count, so the iteration count
    # and the rotation angle come from different counts.
    DENSE_CASES = {
        "unique k2": (repeated_unique_instance(1), None),
        "unique k6": (repeated_unique_instance(3), None),
        "unique k16": (repeated_unique_instance(8), None),
        "unique k10 v_count 2": (repeated_unique_instance(5), 2),
        "four solutions k6 v_count 5": (Instance(10, repeated_unique_instance(2).clauses), 5),
        "locked 1in3 k9": (gen_locked_random(24, 16, 3, 1, seed=1), None),
        "locked 1in3 k9 v_count 10": (gen_locked_random(24, 16, 3, 1, seed=1), 10),
        "locked 1in3 k11 v_count 9": (gen_locked_random(30, 20, 3, 1, seed=3), 9),
        "nothing marked k5 v_count 1": (Instance(6, unsat_but_feasible_instance().clauses), 1),
    }

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_matches_dense_reference(self, case):
        instance, v_count = self.DENSE_CASES[case]
        spec = spec_for(instance)
        assert spec.free_count <= 16
        if v_count is None:
            v_count = count_enumerate(instance, spec.reduction)
            assert v_count >= 1
            assert int(spec.solution_mask.sum()) == v_count
        for seed in range(6):
            expected, dense_probs = dense_search_known(spec, v_count, seed)
            assert grover_search_known(spec, v_count, np.random.default_rng(seed)) == expected
        probs = _measurement_probabilities(spec.solution_mask, expected[2])
        assert np.max(np.abs(probs - dense_probs)) < 1e-12

    @pytest.mark.parametrize("instance, v_count, marked_fraction", [
        (unsat_but_feasible_instance(), 1, 0.0),
        (Instance(6, unsat_but_feasible_instance().clauses), 2, 0.0),
        (Instance(4, ()), 3, 1.0),
        (Instance(4, ()), 16, 1.0),
    ])
    def test_empty_class_leaves_the_state_uniform(self, instance, v_count, marked_fraction):
        # With no index marked the oracle is the identity, with every index
        # marked it is -1; either way the state stays uniform.
        spec = spec_for(instance)
        total = 1 << spec.free_count
        assert spec.solution_mask.mean() == marked_fraction
        iterations = grover_search_known(spec, v_count, 0)[2]
        probs = _measurement_probabilities(spec.solution_mask, iterations)
        np.testing.assert_allclose(probs, np.full(total, 1 / total), rtol=1e-15, atol=0)
        for seed in range(4):
            result = grover_search_known(spec, v_count, seed)
            assert result == dense_search_known(spec, v_count, seed)[0]
            assert result[1] == bool(marked_fraction)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_draw_is_generator_choice(self, k):
        """The direct draw gives `Generator.choice`'s index and leaves the generator in the same state."""
        total = 1 << k
        for marked in sorted({0, 1, total // 100, 3 * total // 10, total}):
            mask = np.zeros(total, dtype=bool)
            mask[np.random.default_rng(k).choice(total, size=marked, replace=False)] = True
            for seed, iterations in ((0, 0), (1, 1), (2, int(math.pi / 4 * math.sqrt(total / max(marked, 1))))):
                probs = _measurement_probabilities(mask, iterations)
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = int(want_rng.choice(total, p=probs.copy()))
                assert _draw(probs, got_rng) == want, (marked, seed)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_single_target_k22(self):
        spec = spec_for(repeated_unique_instance(11))  # k = 22, V = 1
        assert spec.free_count == 22
        measured, marked, iterations = grover_search_known(spec, 1, 0)
        assert iterations == 1608
        assert marked and spec.solution_mask[measured]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            grover_search_known(spec_for(Instance(25, ())), 1, 1)


class TestSearchUnknown:
    def test_returns_verified_solutions(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(5, 12))
            m = int(np.ceil(2 * n / 3))
            inst = gen_locked_random(n, m, 3, 1, seed=int(rng.integers(1 << 30)))
            r = reduce_instance(inst)
            if not isinstance(r, Reduction):
                continue
            spec = OracleSpec(reduction=r, instance=inst)
            outcome = grover_search_unknown(spec, rng=int(rng.integers(1 << 30)))
            expected = count_enumerate(inst, r) > 0
            assert outcome.satisfiable == expected
            if outcome.satisfiable:
                assert eval_instance(inst, outcome.assignment)
                checked += 1
        assert checked > 5

    def test_certifies_unsat_via_artificial_mark(self):
        inst = unsat_but_feasible_instance()
        spec = spec_for(inst)
        outcome = grover_search_unknown(spec, rng=5)
        assert not outcome.satisfiable
        assert outcome.queries > 0

    def test_never_false_sat(self):
        inst = unsat_but_feasible_instance()
        assert not brute_force_solutions(inst)
        spec = spec_for(inst)
        for seed in range(40):
            assert not grover_search_unknown(spec, rng=seed).satisfiable

    def test_deterministic_per_seed(self, chain_instance):
        spec = spec_for(chain_instance)
        a = grover_search_unknown(spec, rng=13)
        b = grover_search_unknown(spec, rng=13)
        assert a.satisfiable == b.satisfiable and a.queries == b.queries
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("instance, seed, expected", [
        (repeated_unique_instance(3), 0, (True, "100110011001", 11)),
        (Instance(6, unsat_but_feasible_instance().clauses), 7, (False, None, 114)),
        (Instance(10, repeated_unique_instance(2).clauses), 7, (True, "1001100100", 6)),
        # Index 0 is a solution here, so the artificial mark adds no index.
        (Instance(3, (clause([(0, False), (1, False), (2, True)], 1),)), 4, (True, "101", 2)),
        (Instance(3, (clause([(0, False), (1, False), (2, True)], 1),)), 9, (True, "000", 6)),
    ])
    def test_pinned_outcomes(self, instance, seed, expected):
        # The marked indices fix every rng draw, so these outcomes pin them.
        outcome = grover_search_unknown(spec_for(instance), rng=seed)
        assignment = None if outcome.assignment is None else "".join(map(str, outcome.assignment))
        assert (outcome.satisfiable, assignment, outcome.queries) == expected

    def test_mean_queries_single_target_k12(self):
        spec = spec_for(repeated_unique_instance(6))  # k = 12, V = 1
        assert spec.free_count == 12
        queries = [grover_search_unknown(spec, rng=seed).queries for seed in range(100)]
        assert np.mean(queries) <= 9 * math.sqrt(2 ** 12)

    def test_guard(self):
        inst = Instance(25, ())
        spec = OracleSpec(reduction=reduce_instance(inst), instance=inst)
        with pytest.raises(GuardExceeded):
            grover_search_unknown(spec, rng=1)


class TestQueryCosts:
    def test_fully_constrained(self):
        assert query_cost_decision(10, 10) == 1.0

    def test_ten_free_dimensions(self):
        assert query_cost_decision(20, 10) == 32.0

    def test_count_reduces_to_decision_at_single_solution(self):
        assert query_cost_count(20, 10, 1) == query_cost_decision(20, 10)

    def test_count_worst_case(self):
        assert query_cost_count(18, 8, 2 ** 10) == 2 ** 10

    def test_count_zero_solutions(self):
        assert query_cost_count(18, 8, 0) == 0.0

    def test_past_the_largest_float_is_a_guard(self):
        assert query_cost_decision(2047, 0) == 2.0 ** 1023.5
        assert query_cost_count(2046, 0, 1) == 2.0 ** 1023
        with pytest.raises(GuardExceeded, match="log2 of the query cost = 1024 exceeds guard 1023"):
            query_cost_decision(2048, 0)
        with pytest.raises(GuardExceeded, match="log2 of the query cost = 1024 exceeds guard 1023"):
            query_cost_count(1024, 0, 2 ** 1024)
        with pytest.raises(GuardExceeded):
            query_cost_count(2000, 0, 2 ** 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            query_cost_decision(5, 6)
        with pytest.raises(ValueError):
            query_cost_count(5, 3, 5)


class TestResources:
    def test_module_i_matches_recount(self, chain_instance):
        spec = spec_for(chain_instance)
        report = oracle_resources(spec)
        expected = int(spec.reduction.kernel.sum()) + int(spec.reduction.offset.sum())
        assert report.gates_module_i == expected

    def test_empty_instance(self):
        spec = spec_for(Instance(3, ()))
        report = oracle_resources(spec)
        assert report.ancillas == 0
        assert report.gates_module_ii == report.gates_module_iii == report.gates_module_iv == 0

    def test_module_i_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(5, 14))
            inst = gen_locked_random(n, n, 3, 1, seed=int(rng.integers(1 << 30)))
            r = reduce_instance(inst)
            if not isinstance(r, Reduction):
                continue
            report = oracle_resources(OracleSpec(reduction=r, instance=inst))
            assert report.gates_module_i <= r.free_count * n + n

    def test_total_is_sum(self, chain_instance):
        report = oracle_resources(spec_for(chain_instance))
        assert report.total_gates == (
            report.gates_module_i
            + report.gates_module_ii
            + report.gates_module_iii
            + report.gates_module_iv
        )

    def test_ancilla_count_formula(self, chain_instance):
        report = oracle_resources(spec_for(chain_instance))
        assert report.ancillas == math.ceil(math.log2(chain_instance.m + 1))
