"""Shared fixtures and the reference (non-library) instance evaluator and expansion."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from xorsat_reduce.instances import Clause, Instance, Literal


def reference_satisfies(instance, bits) -> bool:
    """Pure-python exactly-q check, independent of the library evaluators."""
    for cl in instance.clauses:
        true_count = 0
        for lit in cl.literals:
            value = bits[lit.var]
            true_count += (1 - value) if lit.negated else value
        if true_count != cl.q:
            return False
    return True


def expand_rows(reduction, bits):
    """Reference expansion of a (B, k) block of parameter rows: bits @ kernel + offset over GF(2)."""
    product = np.asarray(bits, dtype=np.int64) @ reduction.kernel.astype(np.int64)
    return (product % 2).astype(np.uint8) ^ reduction.offset


def reference_solutions(instance):
    """All satisfying assignments as bit tuples, by direct enumeration."""
    return [
        bits
        for bits in itertools.product((0, 1), repeat=instance.n)
        if reference_satisfies(instance, bits)
    ]


@pytest.fixture
def chain_instance() -> Instance:
    """Worked 1in3 example: R(x1,~x2,x3) & R(x2,~x3,x4) & R(x3,x4,x5)."""
    return Instance(
        5,
        (
            Clause((Literal(0), Literal(1, True), Literal(2)), 1),
            Clause((Literal(1), Literal(2, True), Literal(3)), 1),
            Clause((Literal(2), Literal(3), Literal(4)), 1),
        ),
    )


# Hand-checked satisfying assignments of the chain instance, lexicographic.
CHAIN_SOLUTIONS = [(0, 0, 0, 0, 1), (0, 1, 1, 0, 0)]


@pytest.fixture
def unique_solution_instance() -> Instance:
    """k=2 instance with exactly one solution, (1,0,0,1).

    Two 1in3 clauses plus a 2-in-2 clause whose parity row is dependent,
    so the reduced space keeps dimension 2 while the solution count
    drops to one.
    """
    return Instance(
        4,
        (
            Clause((Literal(0), Literal(1), Literal(2)), 1),
            Clause((Literal(1), Literal(2), Literal(3)), 1),
            Clause((Literal(0), Literal(3)), 2),
        ),
    )
