"""Parity relaxation of occupation instances and the reduced solution space.

Every exactly-q clause implies the parity constraint sum of its literal
variables = (negations + q) mod 2, so all solutions of an instance live
in the affine space of the resulting GF(2) system. A reduction holds it
as packed standard forms: the RREF basis, which orders the candidates of
`expand_index`, `scan` and Grover, and the form backtracking walks, which
is built from the basis on first read, so the scan's consumers never pay
for it; an inconsistent system yields a certified infeasibility witness
instead. `scan` walks the reduced space for every classical consumer and
yields packed verdict words, one bit per candidate; its candidates all
satisfy the parity system, so it checks each exactly-q clause only
against q + 2 and q - 1 true literals.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .errors import GuardExceeded
from .gf2 import StandardForm
from .instances import Instance

SCAN_MAX_FREE = 30
# Largest k * n accepted: `Elimination.basis()` first builds the basis as a dense k x n array.
REDUCE_MAX_BITS = 1 << 24
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
    rows: tuple[int, ...]  # packed, bit v of row a set iff variable v occurs in clause a
    rhs: tuple[int, ...]  # 0/1 per clause: (negated literals + q) mod 2
    n: int


@dataclass(frozen=True)
class XorInfeasible:
    """Certificate that the parity relaxation (hence the instance) has no solution.

    `witness` lists clause indices whose parity rows XOR to zero while
    their right-hand sides XOR to one. `m_prime` is the rank of the
    parity rows, as in `Reduction`.
    """

    witness: tuple[int, ...]
    m_prime: int


@dataclass(frozen=True, eq=False, init=False)
class Reduction:
    """The reduced space of a consistent parity system.

    `standard`, the form backtracking walks, is the standard form of the
    basis, built on first read; `Reduction(basis, standard)` gives it
    instead, as `optimize_permutation` does.
    """

    basis: StandardForm  # RREF kernel rows on the non-pivot columns, through the particular solution

    def __init__(self, basis: StandardForm, standard: StandardForm | None = None):
        object.__setattr__(self, "basis", basis)
        if standard is not None:
            self.__dict__["standard"] = standard

    @cached_property
    def standard(self) -> StandardForm:
        return gf2.standard_form(self.basis.rows, self.basis.point, self.basis.n)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def free_count(self) -> int:
        return self.basis.free_count

    @property
    def m_prime(self) -> int:  # number of independent parity rows (= n - k)
        return self.n - self.free_count

    @property
    def kernel(self) -> np.ndarray:  # (k, n) uint8, the basis rows
        return gf2._unpack(self.basis.rows, self.n)

    @property
    def offset(self) -> np.ndarray:  # (n,) uint8, the basis point: one parity solution
        return self.basis.expand(())


def build_linear_system(instance: Instance) -> LinearSystem:
    """Parity system of an instance: one packed row per clause and its right-hand side."""
    rhs = tuple((negated.bit_count() + q) & 1 for negated, q in zip(instance.negations, instance.occupations))
    return LinearSystem(rows=instance.variable_masks, rhs=rhs, n=instance.n)


def reduce_instance(instance: Instance):
    """Reduction of the parity system, or an XorInfeasible certificate.

    One elimination of the packed rows [A | b | I] gives the rank, the
    witness and the RREF basis; a k x n basis over REDUCE_MAX_BITS is
    refused before it is built. On success the affine space
    {expand_index(r, i)} has exactly 2^(n - m_prime) points and contains
    every satisfying assignment of the instance.
    """
    parity = build_linear_system(instance)
    system = gf2.eliminate(parity.rows, parity.rhs, parity.n)
    witness = system.witness()
    if witness is not None:
        return XorInfeasible(witness=tuple(witness), m_prime=system.rank)
    size = (instance.n - system.rank) * instance.n
    if size > REDUCE_MAX_BITS:
        raise GuardExceeded("reduced-space basis size k*n", size, REDUCE_MAX_BITS)
    return Reduction(system.basis())


def expand_index(reduction: Reduction, index: int) -> np.ndarray:
    """The candidate at `index` in lexicographic parameter order.

    Parameter v_j is bit k - 1 - j of index (most significant first), and
    the assignment is the basis expanded on v.
    """
    k = reduction.free_count
    if index < 0 or index >> k:
        raise ValueError(f"index {index} out of range for k = {k}")
    return reduction.basis.expand(index >> (k - 1 - j) & 1 for j in range(k))


def _at_least(literals: np.ndarray, t: int) -> np.ndarray:
    """Planes (M, words): at least t (1 <= t <= p) of the p literal planes (p, M, words) are set.

    t = 1 is an OR and t = p an AND over the literals. Any other t keeps
    bit-sliced levels "at least 1 .. t", updated once per literal.
    """
    if t == 1:
        return np.bitwise_or.reduce(literals, axis=0)
    if t == len(literals):
        return np.bitwise_and.reduce(literals, axis=0)
    levels = np.zeros((t,) + literals.shape[1:], dtype=np.uint64)  # levels[j]: at least j + 1
    for i, x in enumerate(literals):
        for j in range(min(i, t - 1), 0, -1):
            levels[j] |= levels[j - 1] & x
        levels[0] |= x
    return levels[-1]


def scan(instance: Instance, reduction: Reduction):
    """Walk the 2^k reduced-space candidates in blocks, in lexicographic parameter order.

    Yields (start, words) per block of 2^w candidates, w = min(k, 16):
    `words` holds max(1, 2^w / 64) uint64 verdict words, and bit t of
    words[j] tells whether expand_index(reduction, start + 64 j + t)
    satisfies the instance. The bits past 2^w, which exist only when
    k < 6, are 0; `unpack_verdicts` turns words into bools.
    Inside a block of 2^w candidates only the last w parameters vary, so
    each variable is one packed bit plane over the block: the fixed part
    of the block's expansion XOR the planes of the varying parameters
    whose basis rows contain it. The planes are built once per call by
    doubling, one varying parameter at a time, in a word-major array whose
    steps each write one contiguous block; it is transposed once into the
    variable-major planes and dropped before the first block is yielded.
    Every candidate solves the parity system, so each clause's
    true-literal count already has q's parity, and it equals q unless it
    reaches q + 2 or misses q - 1. A clause with q > p is never met.
    Guarded to k <= 30; a reduction over another number of variables
    raises ValueError.
    """
    if reduction.n != instance.n:
        raise ValueError(f"the reduction has {reduction.n} variables and the instance {instance.n}")
    k = reduction.free_count
    if k > SCAN_MAX_FREE:
        raise GuardExceeded("reduced-space dimension k", k, SCAN_MAX_FREE)
    width = min(k, _SCAN_BLOCK.bit_length() - 1)
    # Row b is all-ones on the variables that parameter b of the block flips.
    flips = gf2._unpack(reduction.basis.rows[::-1][:width], reduction.n).astype(np.uint64) * _ONES
    # Parameters b < 6 are bits of the position inside a word, b >= 6 bits of the word index.
    words = 1 << max(width - 6, 0)
    # The planes come first, so the word-major copy is the newest block and freeing it leaves room
    # the gather reuses. Allocated the other way round, glibc 2.36 handed both blocks back to the
    # system after each scan and the next scan page-faulted them in again (about 45 faults and
    # 50 us per hc scan at k 13-15, numpy 2.4 on a 2-core Xeon).
    planes = np.empty((reduction.n, words), dtype=np.uint64)
    built = np.empty((words, reduction.n), dtype=np.uint64)
    built[0] = np.bitwise_xor.reduce(flips[:6] & _WORD_PATTERNS[:width, None], axis=0)
    for b, flip in enumerate(flips[6:]):
        np.bitwise_xor(built[: 1 << b], flip, out=built[1 << b : 2 << b])
    planes[...] = built.T
    del built  # the generator's frame would keep a second copy of the planes alive

    by_occupation = defaultdict(list)
    for clause_vars, negated, q in zip(instance.variables, instance.negations, instance.occupations):
        by_occupation[len(clause_vars), q].append((clause_vars, negated))
    groups = []
    for (p, q), members in sorted(by_occupation.items()):
        clause_vars, negations = zip(*members)
        # Literal-major order, so the gathered planes reshape to (p, M, words).
        variables = np.array(clause_vars, dtype=np.intp).T.ravel()
        negated = np.array([neg >> j & 1 for j in range(p) for neg in negations], dtype=np.uint8)
        groups.append((p, q, variables, negated))
    # Every verdict starts true on the block's 2^width candidates and is only ever cleared.
    initial = np.uint64((1 << (1 << width)) - 1) if width < 6 else _ONES
    if any(q > p for p, q in by_occupation):
        initial, groups = np.uint64(0), []

    for start in range(0, 1 << k, 1 << width):
        satisfied = np.full(words, initial)
        fixed = expand_index(reduction, start)
        for p, q, variables, negated in groups:
            literals = np.take(planes, variables, axis=0)
            literals ^= (fixed[variables] ^ negated).astype(np.uint64)[:, None] * _ONES
            literals = literals.reshape(p, -1, words)
            if q + 2 <= p:
                satisfied &= ~np.bitwise_or.reduce(_at_least(literals, q + 2), axis=0)
            if q > 1:
                satisfied &= np.bitwise_and.reduce(_at_least(literals, q - 1), axis=0)
        yield start, satisfied


def unpack_verdicts(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` verdicts of `scan`'s words as a bool array: entry i is bit i % 64 of words[i // 64]."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=count, bitorder="little").view(bool)


def kernel_excess(instance: Instance, reduction: Reduction) -> int:
    """Number of linearly dependent parity rows: k - (n - M) = M - m_prime."""
    return instance.m - reduction.m_prime
