"""Grover search simulation over the reduced space, with cost and resource models.

The oracle acts on the 2^k parameter indices of a reduction: it flips
the phase of |v> exactly when the expanded assignment satisfies the
instance. The unknown-count search also marks index 0, so that it can
certify that no solution exists. Both searches sample their measurement
from the closed form: after r iterations from the uniform state every
marked amplitude equals sin((2r+1) theta)/sqrt(V) and every unmarked one
cos((2r+1) theta)/sqrt(N - V), with sin^2 theta = V/N (Boyer, Brassard,
Hoyer & Tapp, "Tight bounds on quantum searching", 1998), so a search
needs only the marked indices and one uniform draw per measurement. The
known-count search takes its index from the cumulative measurement
probabilities with the steps `Generator.choice` runs after its argument
checks. The oracle's marks, `OracleSpec.solution_mask`, are the scan's
verdict words unpacked once into bools. The dense complex statevector
the searches are checked against is the tests' reference, not the
library's; the gate-level structure of the oracle is modeled separately
by `oracle_resources`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardExceeded
from .instances import Instance
from .reduction import Reduction, expand_index, scan, unpack_verdicts
from .solvers import SolveOutcome

SEARCH_MAX_FREE = 24

# The unknown-count schedule: per-round iteration cap grows by 6/5 until it
# reaches sqrt(N); Unsat is certified after this many artificial-only hits,
# so a satisfiable instance is misclassified with probability <= 2^-32.
SCHEDULE_GROWTH = 6 / 5
CERTIFY_REPEATS = 32


@dataclass(eq=False)
class OracleSpec:
    """Phase-flip oracle over reduced-space indices."""

    reduction: Reduction
    instance: Instance

    @property
    def free_count(self) -> int:
        return self.reduction.free_count

    @cached_property
    def solution_mask(self) -> np.ndarray:
        """Boolean mask over all 2^k indices: true where the expansion satisfies the instance."""
        k = self.free_count
        if k > SEARCH_MAX_FREE:
            raise GuardExceeded("reduced-space dimension k", k, SEARCH_MAX_FREE)
        words = np.empty(max(1, 1 << k >> 6), dtype=np.uint64)
        for start, block in scan(self.instance, self.reduction):
            words[start >> 6 : (start >> 6) + block.size] = block
        return unpack_verdicts(words, 1 << k)


def grover_search_known(
    spec: OracleSpec, v_count: int, rng: int | np.random.Generator
) -> tuple[int, bool, int]:
    """Grover search with a known marked count: optimal iterations, one measurement.

    Runs floor(pi/4 * sqrt(2^k / v_count)) iterations from the uniform
    state and samples once; returns (measured index, whether it is
    marked, iterations used). The final state is not simulated: each
    index's measurement probability is its class's share, spread evenly
    over the class. The angle comes from the number of indices
    `spec.solution_mask` actually marks, so a `v_count` that differs from
    it changes only the iteration count, as in the tests' dense
    statevector reference. An empty class gets no share: with nothing
    (or everything) marked the oracle is the identity (or -1) and the
    state stays uniform.
    """
    total = 1 << spec.free_count
    if not 1 <= v_count <= total:
        raise ValueError(f"marked count {v_count} not in [1, {total}]")
    mask = spec.solution_mask  # the k guard, read before total / v_count can overflow a float
    rng = np.random.default_rng(rng)
    iterations = int(math.pi / 4 * math.sqrt(total / v_count))
    measured = _draw(_measurement_probabilities(mask, iterations), rng)
    return measured, bool(mask[measured]), iterations


def _measurement_probabilities(mask: np.ndarray, iterations: int) -> np.ndarray:
    """Each index's probability of being measured after `iterations` steps from uniform, summing to 1.

    Every index gets its class's probability spread evenly over the
    class, with the angle from the number of indices `mask` marks.
    """
    total = mask.size
    marked = int(np.count_nonzero(mask))
    p_marked, p_unmarked = _class_probabilities(math.asin(math.sqrt(marked / total)), iterations)
    per_marked = p_marked / marked if marked else 0.0
    per_unmarked = p_unmarked / (total - marked) if marked < total else 0.0
    probs = np.where(mask, per_marked, per_unmarked)
    probs /= probs.sum()  # > 0: the two class probabilities sum to 1
    return probs


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """`rng.choice(probs.size, p=probs)` without its argument checks; overwrites `probs`.

    These are the steps `Generator.choice` runs once it has checked p,
    so the index and the generator's state after the draw are the same.
    """
    cdf = np.cumsum(probs, out=probs)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _class_probabilities(theta: float, iterations: int) -> tuple[float, float]:
    """Probabilities of measuring the marked and the unmarked class.

    After `iterations` Grover steps from uniform they are
    sin^2((2r+1) theta) and cos^2((2r+1) theta), where
    sin^2 theta is the marked fraction of the indices.
    """
    angle = (2 * iterations + 1) * theta
    return math.sin(angle) ** 2, math.cos(angle) ** 2


def grover_search_unknown(spec: OracleSpec, rng: int | np.random.Generator) -> SolveOutcome:
    """Exponential-schedule search for an unknown number of solutions.

    Each round runs a random number of iterations (uniform below a cap
    that grows by SCHEDULE_GROWTH up to sqrt(2^k)) from the uniform state
    and measures once; measured candidates are verified classically.
    Index 0 is always marked as well, so when no solution exists the
    search still terminates: after CERTIFY_REPEATS rounds that located
    only that artificial index, the instance is declared Unsat. Queries
    counts oracle applications.

    By symmetry every marked amplitude stays equal (likewise unmarked),
    so each round's measured class is Bernoulli with p = sin^2((2r+1)
    theta) and the index is uniform within the class; this matches the
    tests' dense statevector reference exactly.
    """
    k = spec.free_count
    rng = np.random.default_rng(rng)
    solution_mask = spec.solution_mask
    marked_indices = np.flatnonzero(solution_mask)  # ascending
    if not solution_mask[0]:
        marked_indices = np.concatenate(([0], marked_indices))
    total = 1 << k
    theta = math.asin(math.sqrt(marked_indices.size / total))

    cap = 1.0
    max_cap = math.sqrt(total)
    queries = 0
    artificial_hits = 0
    while True:
        iterations = int(rng.integers(0, math.ceil(cap)))
        queries += iterations
        p_marked, _ = _class_probabilities(theta, iterations)
        if rng.random() < p_marked:
            measured = int(marked_indices[rng.integers(marked_indices.size)])
            if solution_mask[measured]:
                assignment = expand_index(spec.reduction, measured)
                return SolveOutcome(True, assignment, queries)
            artificial_hits += 1
            if artificial_hits >= CERTIFY_REPEATS:
                return SolveOutcome(False, None, queries)
        cap = min(SCHEDULE_GROWTH * cap, max_cap)


def query_cost_decision(n: int, m_prime: int) -> float:
    """Worst-case decision query bound sqrt(2^(n - m_prime)), unit constant."""
    if m_prime > n:
        raise ValueError(f"m_prime {m_prime} exceeds n {n}")
    return _query_cost(1, n - m_prime)


def query_cost_count(n: int, m_prime: int, v_count: int) -> float:
    """Counting query bound sqrt(V * 2^(n - m_prime))."""
    if m_prime > n:
        raise ValueError(f"m_prime {m_prime} exceeds n {n}")
    if not 0 <= v_count <= 2 ** (n - m_prime):
        raise ValueError(f"solution count {v_count} not in [0, 2^{n - m_prime}]")
    return _query_cost(v_count, n - m_prime)


def _query_cost(v_count: int, k: int) -> float:
    """sqrt(v_count * 2^k) as a float; GuardExceeded when it is past the largest finite float."""
    try:
        cost = math.sqrt(v_count) * 2.0 ** (k / 2)
    except OverflowError:  # v_count >= 2^1024, or k / 2 >= 1024
        cost = math.inf
    if cost == math.inf:
        log2_cost = math.floor((math.log2(v_count) + k) / 2)
        raise GuardExceeded("log2 of the query cost", log2_cost, sys.float_info.max_exp - 1)
    return cost


@dataclass(frozen=True)
class ResourceReport:
    """Gate and ancilla counts for the four-module oracle decomposition.

    Module I expands |v> into the assignment register (one CNOT per
    kernel bit, one NOT per offset bit); module II checks each clause
    (arity-p controlled ops plus an exactly-q comparator of cost
    p + ceil(log2(p+1))); module III counts satisfied clauses into
    ceil(log2(M+1)) ancillas; module IV is the final conditional phase.
    Every clause is checked, including parity-dependent ones.
    """

    ancillas: int
    gates_module_i: int
    gates_module_ii: int
    gates_module_iii: int
    gates_module_iv: int

    @property
    def total_gates(self) -> int:
        return (
            self.gates_module_i
            + self.gates_module_ii
            + self.gates_module_iii
            + self.gates_module_iv
        )


def _clause_check_cost(p: int) -> int:
    return 2 * p + p.bit_length()  # p.bit_length() == ceil(log2(p + 1))


def oracle_resources(spec: OracleSpec) -> ResourceReport:
    """Resource model of the oracle for the given reduction and instance."""
    m = spec.instance.m
    ancillas = m.bit_length()
    module_i = sum(x.bit_count() for x in (spec.reduction.basis.point, *spec.reduction.basis.rows))
    module_ii = sum(_clause_check_cost(len(clause_vars)) for clause_vars in spec.instance.variables)
    module_iii = m * ancillas
    module_iv = 1 if m else 0
    return ResourceReport(
        ancillas=ancillas,
        gates_module_i=module_i,
        gates_module_ii=module_ii,
        gates_module_iii=module_iii,
        gates_module_iv=module_iv,
    )
