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

from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from . import gf2
from .errors import GuardExceeded
from .gf2 import StandardForm
from .instances import Instance

SCAN_MAX_FREE = 30
_SCAN_BLOCK = 1 << 16

_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# Bit b < 6 of a position inside a 64-bit word (position t is bit t of the word).
_WORD_PATTERNS = np.array(
    [0xAAAA_AAAA_AAAA_AAAA, 0xCCCC_CCCC_CCCC_CCCC, 0xF0F0_F0F0_F0F0_F0F0,
     0xFF00_FF00_FF00_FF00, 0xFFFF_0000_FFFF_0000, 0xFFFF_FFFF_0000_0000],
    dtype=np.uint64,
)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    matrix: np.ndarray  # (M, n) uint8, row a marks the variables of clause a
    rhs: np.ndarray  # (M,) uint8


@dataclass(frozen=True)
class XorInfeasible:
    """Certificate that the parity relaxation (hence the instance) has no solution.

    `witness` lists clause indices whose parity rows XOR to zero while
    their right-hand sides XOR to one. `m_prime` is the rank of the
    parity rows, as in `Reduction`.
    """

    witness: tuple[int, ...]
    m_prime: int


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

    One elimination of the packed rows [A | b | I] gives the rank, the
    particular solution, the witness and the RREF kernel. On success the
    affine space {expand_index(r, i)} has exactly 2^(n - m_prime) points and
    contains every satisfying assignment of the instance.
    """
    rows = []
    rhs = []
    for c in instance.clauses:
        row = 0
        for lit in c.literals:
            row |= 1 << lit.var
        rows.append(row)
        rhs.append((c.negation_count + c.q) % 2)
    system = gf2.eliminate(rows, rhs, instance.n)
    offset = system.particular()
    if offset is None:
        return XorInfeasible(witness=tuple(system.witness()), m_prime=system.rank)
    kernel = system.kernel()
    return Reduction(
        kernel=kernel,
        offset=offset,
        m_prime=system.rank,
        standard=gf2.standard_form(kernel, offset),
    )


def expand_index(reduction: Reduction, index: int) -> np.ndarray:
    """The candidate at `index` in lexicographic parameter order.

    Parameter v_j is bit k - 1 - j of index (most significant first), and
    the assignment is v1*xi1 XOR ... XOR vk*xik XOR offset.
    """
    k = reduction.free_count
    if index < 0 or index >> k:
        raise ValueError(f"index {index} out of range for k = {k}")
    out = reduction.offset.copy()
    for j, row in enumerate(reduction.kernel):
        if index >> (k - 1 - j) & 1:
            out ^= row
    return out


def _position_planes(width: int) -> np.ndarray:
    """(width, words) uint64: plane b holds bit b of every position 0..2^width - 1.

    Position i is bit i % 64 of word i // 64; a block narrower than one
    word leaves the word's upper bits as padding.
    """
    words = max(1, (1 << width) >> 6)
    planes = np.empty((width, words), dtype=np.uint64)
    planes[:6] = _WORD_PATTERNS[:width, None]
    word_index = np.arange(words, dtype=np.uint64)
    for b in range(6, width):
        planes[b] = ((word_index >> np.uint64(b - 6)) & np.uint64(1)) * _ONES
    return planes


class _BitSlicedClauses:
    """The clauses of an instance, evaluated on packed bit planes.

    Clauses are grouped by arity p. Per group it keeps the variables
    (M_p, p), the negations as words (M_p, p, 1) and q as words (bits,
    M_p, 1), where word row b is all-ones where bit b of q is set; a q
    above p can never be met, so it is clamped to p + 1. The counter and
    carry buffers are allocated once and reused for every block.
    """

    def __init__(self, instance: Instance, words: int):
        by_arity = defaultdict(list)
        for c in instance.clauses:
            by_arity[c.p].append(c)
        self.groups = []
        for p, clauses in sorted(by_arity.items()):
            variables = np.array([[lit.var for lit in c.literals] for c in clauses], dtype=np.intp)
            negated = np.array([[lit.negated for lit in c.literals] for c in clauses], dtype=np.uint64)
            q = [min(c.q, p + 1) for c in clauses]
            q_bits = np.array([[(v >> b) & 1 for v in q] for b in range(max(p, *q).bit_length())],
                              dtype=np.uint64)
            counter = np.empty((len(q_bits), len(clauses), words), dtype=np.uint64)
            self.groups.append((variables, negated[:, :, None] * _ONES, q_bits[:, :, None] * _ONES,
                                counter, np.empty_like(counter[0]), np.empty_like(counter[0])))

    def satisfied(self, variables: np.ndarray) -> np.ndarray:
        """AND over all clauses of [true-literal count == q], one bit per candidate.

        `variables` holds one plane per variable. Each clause's count is a
        ripple-carry counter over its literal planes, held as bit planes
        (least significant first); a clause holds where no counter bit
        differs from the bit of q.
        """
        satisfied = np.full(variables.shape[1], _ONES)
        for clause_vars, negations, q_words, counter, carry, spare in self.groups:
            counter.fill(0)
            for t in range(clause_vars.shape[1]):
                np.take(variables, clause_vars[:, t], axis=0, out=carry)
                carry ^= negations[:, t]
                for digit in counter:
                    np.bitwise_and(digit, carry, out=spare)
                    digit ^= carry
                    carry, spare = spare, carry
            counter ^= q_words
            satisfied &= ~np.bitwise_or.reduce(counter, axis=(0, 1))
        return satisfied


def scan(instance: Instance, reduction: Reduction):
    """Walk the 2^k reduced-space candidates in blocks, in lexicographic parameter order.

    Yields (start, satisfied) per block: satisfied[i] tells whether
    expand_index(reduction, start + i) satisfies the instance.
    Inside a block of 2^w candidates only the last w parameters vary, so
    each variable is one packed bit plane over the block: the fixed part
    of the block's expansion XOR the planes of the varying parameters
    whose kernel rows contain it. Guarded to k <= 30.
    """
    k = reduction.free_count
    if k > SCAN_MAX_FREE:
        raise GuardExceeded("reduced-space dimension k", k, SCAN_MAX_FREE)
    width = min(k, _SCAN_BLOCK.bit_length() - 1)
    planes = _position_planes(width)
    varying = np.zeros((reduction.n, planes.shape[1]), dtype=np.uint64)
    for b in range(width):
        varying[reduction.kernel[k - 1 - b].astype(bool)] ^= planes[b]
    clauses = _BitSlicedClauses(instance, planes.shape[1])
    variables = np.empty_like(varying)
    for start in range(0, 1 << k, 1 << width):
        fixed = expand_index(reduction, start)
        np.bitwise_xor(varying, fixed[:, None] * _ONES, out=variables)
        plane = clauses.satisfied(variables)
        bits = np.unpackbits(plane.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        yield start, bits[: 1 << width].view(bool)


def expand_standard(reduction: Reduction, v_prime) -> np.ndarray:
    """Assignment whose free coordinates standard.free take the values v_prime (standard form)."""
    vec = gf2.as_bin_vec(v_prime)
    sf = reduction.standard
    if vec.size != sf.free_count:
        raise ValueError(f"parameter length {vec.size} != k = {sf.free_count}")
    x = sf.point
    for row, bit in zip(sf.rows, vec):
        if bit:
            x ^= row
    return gf2._unpack([x], sf.n)[0]


def kernel_excess(instance: Instance, reduction: Reduction) -> int:
    """Number of linearly dependent parity rows: k - (n - M) = M - m_prime."""
    return instance.m - reduction.m_prime
