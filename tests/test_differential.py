"""Every classical solver against brute force on random small instances.

The instances mix occupation numbers per clause, include q > p clauses
(structurally unsatisfiable) and negations, and cover n = 0 and M = 0;
the locked generator produces none of these.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from xorsat_reduce.grover import OracleSpec
from xorsat_reduce.instances import Clause, Instance, Literal, brute_force_solutions
from xorsat_reduce.reduction import XorInfeasible, reduce_instance
from xorsat_reduce.solvers import backtrack_count, backtrack_solve, count_enumerate, solve_enumerate

from conftest import reference_satisfies


@st.composite
def small_instances(draw) -> Instance:
    n = draw(st.integers(0, 10))
    clauses = []
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
        negated = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
        q = draw(st.integers(1, len(variables) + 1))
        clauses.append(Clause(tuple(Literal(v, s) for v, s in zip(variables, negated)), q))
    return Instance(n, tuple(clauses))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
