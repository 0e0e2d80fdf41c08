"""Shared fixtures and the reference (non-library) evaluators, parity system, expansion, standard form and
Grover statevector."""

from __future__ import annotations

import itertools
import math
import resource
from typing import NamedTuple

import numpy as np
import pytest

from xorsat_reduce import gf2
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


def partial_violated(clause, partial) -> bool:
    """True iff no completion of the open variables (-1 in `partial`) gives exactly q true literals."""
    true_count = open_count = 0
    for lit in clause.literals:
        value = int(partial[lit.var])
        if value == -1:
            open_count += 1
        else:
            true_count += value ^ lit.negated
    return true_count > clause.q or true_count + open_count < clause.q


def limit_address_space():
    """`preexec_fn` for a child process: 2 GiB of address space, set on that child only."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def expand_rows(reduction, bits):
    """Reference expansion of a (B, k) block of parameter rows: bits @ kernel + offset over GF(2)."""
    product = np.asarray(bits, dtype=np.int64) @ reduction.kernel.astype(np.int64)
    return (product % 2).astype(np.uint8) ^ reduction.offset


def dense_parity_system(instance) -> tuple[np.ndarray, np.ndarray]:
    """Reference parity system read off `instance.clauses`: (A, b), uint8.

    A[a, v] = 1 iff variable v occurs in clause a, and b[a] is clause a's
    negated literals plus q, mod 2.
    """
    clauses = instance.clauses
    literals = [(a, lit.var, lit.negated) for a, cl in enumerate(clauses) for lit in cl.literals]
    clause_of, variables, negated = np.array(literals, dtype=np.int64).reshape(-1, 3).T
    matrix = np.zeros((instance.m, instance.n), dtype=np.uint8)
    matrix[clause_of, variables] = 1
    negations = np.bincount(clause_of, weights=negated, minlength=instance.m).astype(np.int64)
    return matrix, ((negations + [cl.q & 1 for cl in clauses]) % 2).astype(np.uint8)


def packed_rows(m) -> list[int]:
    """A dense 0/1 matrix packed as `gf2.rank` takes it: bit c of row i holds m[i, c]."""
    return gf2._pack(gf2.as_bin_matrix(m))


def pack_space(kernel, offset) -> tuple[list[int], int, int]:
    """A dense (kernel, offset) pair packed as `gf2.standard_form` takes it: (rows, point, n).

    `kernel` may have zero rows; its width is the offset's length.
    """
    point = gf2.as_bin_vec(offset)
    basis = np.asarray(kernel, dtype=np.uint8)
    if basis.size == 0:
        basis = basis.reshape(len(basis), point.size)
    *rows, packed_point = packed_rows(np.vstack([gf2.as_bin_matrix(basis), point]))
    return rows, packed_point, point.size


class DenseStandard(NamedTuple):
    """A standard form as dense arrays: coordinates reordered by `perm`, free block first.

    x[perm[:k]] = v and x[perm[k:]] = h @ v XOR offset[k:] (mod 2); `perm`
    is int64, `h` is (n - k, k) uint8 and `offset` is (n,) uint8, zero on
    its first k entries.
    """

    perm: np.ndarray
    h: np.ndarray
    offset: np.ndarray


def dense_eliminate(mat, n_pivot_cols):
    """In-place RREF restricted to pivots in the first `n_pivot_cols` columns."""
    n_rows = mat.shape[0]
    pivots = []
    row = 0
    for col in range(n_pivot_cols):
        if row == n_rows:
            break
        hits = np.nonzero(mat[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + hits[0]
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        mask = mat[:, col] == 1
        mask[row] = False
        if mask.any():
            mat[mask] ^= mat[row]
        pivots.append(col)
        row += 1
    return pivots


def dense_standard_form(kernel, offset, selection=None) -> DenseStandard:
    """Dense reference standard form of {v @ kernel XOR offset} on the block `selection`.

    Without a selection the block is the kernel's RREF pivots. With one,
    the free block is taken in the given order, and a block on which the
    kernel is not full-rank raises ValueError.
    """
    rows, packed_point, n = pack_space(kernel, offset)
    basis, point = gf2._unpack(rows, n), gf2._unpack([packed_point], n)[0]
    k = len(rows)
    if selection is None:
        sel = dense_eliminate(basis.copy(), n)
        if len(sel) != k:
            raise ValueError("kernel rows are linearly dependent")
    else:
        sel = [int(c) for c in selection]
    rest = [c for c in range(n) if c not in set(sel)]
    aug = np.concatenate([basis[:, sel], np.eye(k, dtype=np.uint8)], axis=1)
    if len(dense_eliminate(aug, k)) != k:
        raise ValueError("matrix is singular over GF(2)")
    u_inv = aug[:, k:]
    w = (u_inv.astype(np.int64) @ basis[:, rest].astype(np.int64) % 2).astype(np.uint8)
    tail = (point[sel].astype(np.int64) @ w.astype(np.int64) % 2).astype(np.uint8)
    tail ^= point[rest]
    full_offset = np.zeros(n, dtype=np.uint8)
    full_offset[k:] = tail
    return DenseStandard(np.array(sel + rest, dtype=np.int64), w.T.copy(), full_offset)


def dense_standard(sf) -> DenseStandard:
    """The dense arrays of a packed `gf2.StandardForm`, dependents in increasing order."""
    k = sf.free_count
    free = set(sf.free)
    rest = [c for c in range(sf.n) if c not in free]
    bits = np.array([[row >> c & 1 for c in rest] for row in sf.rows], dtype=np.uint8)
    offset = np.zeros(sf.n, dtype=np.uint8)
    offset[k:] = [sf.point >> c & 1 for c in rest]
    h = bits.reshape(k, len(rest)).T.copy()
    return DenseStandard(np.array([*sf.free, *rest], dtype=np.int64), h, offset)


def standard_form_on(kernel, offset, selection):
    """The packed standard form on the block `selection`, in that order, or None if not full-rank.

    The rows are reduced on the block as `optimize_permutation` holds
    them, so a selection reaches the library only through its one
    constructor for already-reduced rows.
    """
    rows, point, n = pack_space(kernel, offset)
    free = gf2._gauss_jordan(rows, [int(c) for c in selection])
    if free != list(selection) or len(free) != len(rows):
        return None
    return gf2.reduced_standard_form(free, rows, point, n)


def dense_uniform_state(k: int) -> np.ndarray:
    """Reference Grover start: the complex equal superposition over 2^k indices."""
    return np.full(1 << k, 1 / math.sqrt(1 << k), dtype=np.complex128)


def dense_grover_step(state: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One reference Grover step: negate the masked amplitudes, then reflect every amplitude about the mean."""
    flipped = np.where(mask, -state, state)
    return 2 * flipped.mean() - flipped


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
