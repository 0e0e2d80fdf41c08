"""The reduced-space scan and its consumers, across block boundaries and at the guards."""

from __future__ import annotations

import numpy as np
import pytest

from xorsat_reduce.bits import bit_block
from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.grover import OracleSpec, grover_search_known
from xorsat_reduce.hamcycle import complete_graph, solve_hc
from xorsat_reduce.instances import Instance, brute_force_solutions, clause, eval_instance
from xorsat_reduce.reduction import expand_index, reduce_instance, scan
from xorsat_reduce.solvers import count_enumerate, solve_enumerate

from conftest import expand_rows

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


def test_occupation_beyond_int64_is_never_met():
    # q > p can never be met; a q too large for int64 must not overflow.
    inst = Instance(4, (clause([(0, F), (1, F)], 1 << 70), clause([(1, F), (2, F), (3, F)], 1)))
    r = reduce_instance(inst)
    assert r.free_count == 2
    assert count_enumerate(inst, r) == 0
    assert solve_enumerate(inst, r).queries == 4
    assert not OracleSpec(reduction=r, instance=inst).solution_mask.any()


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
