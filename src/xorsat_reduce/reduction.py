"""Parity relaxation of occupation instances and the reduced solution space.

Every exactly-q clause implies the parity constraint sum of its literal
variables = (negations + q) mod 2, so all solutions of an instance live
in the affine space of the resulting GF(2) system. The reduction packages
a kernel basis, a particular solution and the standard-form decomposition
that backtracking uses; an inconsistent system yields a certified
infeasibility witness instead. `scan` walks the reduced space for every
classical consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gf2
from .bits import bit_block
from .errors import GuardExceeded
from .gf2 import StandardForm
from .instances import Instance, clause_tables, eval_batch

SCAN_MAX_FREE = 30
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class LinearSystem:
    matrix: np.ndarray  # (M, n) uint8, row a marks the variables of clause a
    rhs: np.ndarray  # (M,) uint8


@dataclass(frozen=True)
class XorInfeasible:
    """Certificate that the parity relaxation (hence the instance) has no solution.

    `witness` lists clause indices whose parity rows XOR to zero while
    their right-hand sides XOR to one.
    """

    witness: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Reduction:
    kernel: np.ndarray  # (k, n) uint8, rows form a basis of the parity kernel
    offset: np.ndarray  # (n,) uint8, one parity solution
    m_prime: int  # number of independent parity rows (= n - k)
    standard: StandardForm

    @property
    def n(self) -> int:
        return self.kernel.shape[1]

    @property
    def free_count(self) -> int:
        return self.kernel.shape[0]

    def with_standard(self, standard: StandardForm) -> "Reduction":
        return replace(self, standard=standard)


def build_linear_system(instance: Instance) -> LinearSystem:
    """Parity system of an instance: A[a, j] = 1 iff variable j occurs in clause a."""
    matrix = np.zeros((instance.m, instance.n), dtype=np.uint8)
    rhs = np.zeros(instance.m, dtype=np.uint8)
    for a, c in enumerate(instance.clauses):
        for lit in c.literals:
            matrix[a, lit.var] = 1
        rhs[a] = (c.negation_count + c.q) % 2
    return LinearSystem(matrix=matrix, rhs=rhs)


def reduce_instance(instance: Instance):
    """Reduction of the parity system, or an XorInfeasible certificate.

    On success the affine space {expand(r, v)} has exactly 2^(n - m_prime)
    points and contains every satisfying assignment of the instance.
    """
    system = build_linear_system(instance)
    offset = gf2.solve_particular(system.matrix, system.rhs)
    if offset is None:
        witness = gf2.inconsistency_witness(system.matrix, system.rhs)
        return XorInfeasible(witness=tuple(witness))
    kernel = gf2.kernel_basis(system.matrix)
    return Reduction(
        kernel=kernel,
        offset=offset,
        m_prime=instance.n - kernel.shape[0],
        standard=gf2.standard_form(kernel, offset),
    )


def expand(reduction: Reduction, v) -> np.ndarray:
    """Assignment v1*xi1 XOR ... XOR vk*xik XOR offset for a parameter vector v."""
    vec = gf2.as_bin_vec(v)
    if vec.size != reduction.free_count:
        raise ValueError(f"parameter length {vec.size} != k = {reduction.free_count}")
    out = reduction.offset.copy()
    for bit, row in zip(vec, reduction.kernel):
        if bit:
            out ^= row
    return out


def expand_batch(reduction: Reduction, v_block) -> np.ndarray:
    """Vectorized expand over the rows of a (B, k) parameter block."""
    block = np.asarray(v_block, dtype=np.uint8)
    if block.ndim != 2 or block.shape[1] != reduction.free_count:
        raise ValueError(f"block shape {block.shape} incompatible with k = {reduction.free_count}")
    prod = block.astype(np.int64) @ reduction.kernel.astype(np.int64)
    return ((prod + reduction.offset) % 2).astype(np.uint8)


def scan(instance: Instance, reduction: Reduction):
    """Walk the 2^k reduced-space candidates in blocks, in lexicographic parameter order.

    Yields (start, candidates, satisfied) per block: candidates[i] is
    expand(reduction, index_to_bits(start + i, k)) and satisfied[i]
    tells whether it satisfies the instance. Guarded to k <= 30.
    """
    k = reduction.free_count
    if k > SCAN_MAX_FREE:
        raise GuardExceeded("reduced-space dimension k", k, SCAN_MAX_FREE)
    tables = clause_tables(instance)
    total = 1 << k
    for start in range(0, total, _SCAN_BLOCK):
        candidates = expand_batch(reduction, bit_block(start, min(start + _SCAN_BLOCK, total), k))
        yield start, candidates, eval_batch(instance, candidates, tables)


def expand_standard(reduction: Reduction, v_prime) -> np.ndarray:
    """Assignment whose permuted free block equals v_prime (standard form)."""
    vec = gf2.as_bin_vec(v_prime)
    sf = reduction.standard
    if vec.size != sf.free_count:
        raise ValueError(f"parameter length {vec.size} != k = {sf.free_count}")
    dependent = (sf.h.astype(np.int64) @ vec.astype(np.int64) % 2).astype(np.uint8)
    dependent ^= sf.dependent_offset
    out = np.zeros(reduction.n, dtype=np.uint8)
    out[sf.perm] = np.concatenate([vec, dependent])
    return out


def kernel_excess(instance: Instance, reduction: Reduction) -> int:
    """Number of linearly dependent parity rows: k - (n - M) = M - m_prime."""
    return instance.m - reduction.m_prime
