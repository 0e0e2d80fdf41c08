"""Shared fixtures and the references the library is checked against: evaluators, brute-force enumeration,
parity system, expansion, standard form, Grover statevector, named graphs and the paper's Hamiltonian-cycle
claims."""

from __future__ import annotations

import itertools
import math
import resource
from typing import NamedTuple

import numpy as np
import pytest

from xorsat_reduce import gf2
from xorsat_reduce.errors import GuardExceeded
from xorsat_reduce.hamcycle import Graph, _connected_simple_graph, hc_to_occupation, is_connected, is_hamiltonian_cycle
from xorsat_reduce.instances import Clause, Instance, Literal
from xorsat_reduce.reduction import expand_index

BRUTE_FORCE_MAX_VARS = 24
BRUTE_FORCE_MAX_NODES = 12
_ENUM_BLOCK = 1 << 16

# total_gates <= RESOURCE_BOUND_CONSTANT * n^2 for the locked ensembles the
# package targets (clause arity fixed and small, M = O(n)): module I is at
# most (k+1)*n <= n*(n+1), and modules II-IV together are O(n log n).
RESOURCE_BOUND_CONSTANT = 3


def clause(var_signs, q: int) -> Clause:
    """Shorthand constructor from (var, negated) pairs."""
    return Clause(tuple(Literal(v, bool(neg)) for v, neg in var_signs), q)


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


def bit_block(start: int, stop: int, width: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic (MSB-first) enumeration of width-bit vectors.

    Returns a (stop - start, width) uint8 array; row i holds the bits of
    start + i, most significant first.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def brute_force_solutions(instance: Instance) -> list[np.ndarray]:
    """All satisfying assignments, lexicographically ordered (x1 most significant).

    Independent of the reduction pipeline; guarded to n <= 24. Each
    clause's true literals are counted in int64, which no arity can
    wrap; a q above p can never be met, so it is compared as p + 1.
    """
    if instance.n > BRUTE_FORCE_MAX_VARS:
        raise GuardExceeded("brute-force variable count", instance.n, BRUTE_FORCE_MAX_VARS)
    solutions: list[np.ndarray] = []
    total = 1 << instance.n
    for start in range(0, total, _ENUM_BLOCK):
        block = bit_block(start, min(start + _ENUM_BLOCK, total), instance.n)
        good = np.ones(len(block), dtype=bool)
        for c in instance.clauses:
            true_count = np.zeros(len(block), dtype=np.int64)
            for lit in c.literals:
                true_count += block[:, lit.var] ^ lit.negated
            good &= true_count == min(c.q, c.p + 1)
        solutions.extend(block[i].copy() for i in np.flatnonzero(good))
    return solutions


def reference_solutions(instance):
    """All satisfying assignments as bit tuples, by direct enumeration."""
    return [
        bits
        for bits in itertools.product((0, 1), repeat=instance.n)
        if reference_satisfies(instance, bits)
    ]


def brute_force_hc(graph: Graph) -> int:
    """Number of distinct undirected Hamiltonian cycles, by path enumeration.

    Rotations and reflections are identified (K4 has 3). Guarded to
    n_nodes <= 12.
    """
    n = graph.n_nodes
    if n > BRUTE_FORCE_MAX_NODES:
        raise GuardExceeded("node count", n, BRUTE_FORCE_MAX_NODES)
    if n < 3:
        return 0
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    visited = [False] * n
    visited[0] = True

    def extend(node: int, length: int) -> int:
        if length == n:
            return 1 if 0 in adjacency[node] else 0
        total = 0
        for nb in adjacency[node]:
            if not visited[nb]:
                visited[nb] = True
                total += extend(nb, length + 1)
                visited[nb] = False
        return total

    directed = extend(0, 1)
    return directed // 2


def hc_rank_check(graph: Graph) -> int:
    """GF(2) rank of the packed node-edge incidence rows: n_nodes minus the component count."""
    return gf2.rank(sum(1 << e for e in edges) for edges in graph.incident_edges())


def hc_cost_exponent(graph: Graph) -> float:
    """k/2 with k = n_edges - (n_nodes - 1); n/4 + 1/2 for 3-regular graphs."""
    if not is_connected(graph):
        raise ValueError("cost exponent is defined for connected graphs")
    return (graph.n_edges - (graph.n_nodes - 1)) / 2


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def prism_graph() -> Graph:
    """Two triangles joined by a perfect matching: cubic, with Hamiltonian cycles."""
    return Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def first_cycle_index(graph: Graph, reduction) -> int | None:
    """Smallest index whose candidate satisfies the graph's 2-in-degree instance and is a
    Hamiltonian cycle, by expanding every index in turn; None when there is none."""
    instance = hc_to_occupation(graph)
    for index in range(1 << reduction.free_count):
        candidate = expand_index(reduction, index)
        if reference_satisfies(instance, candidate) and is_hamiltonian_cycle(graph, candidate):
            return index
    return None


def random_bipartite_regular_graph(half: int, degree: int = 3, seed: int | np.random.Generator = 0) -> Graph:
    """Random connected (degree, degree)-regular bipartite graph as a union of perfect matchings.

    Draws through the package's rejection loop, `_connected_simple_graph`,
    the one `random_regular_graph` uses.
    """
    if degree > half:
        raise ValueError(f"degree {degree} exceeds side size {half}")
    rng = np.random.default_rng(seed)

    def matchings():  # lazy: a repeated edge ends the draw before the next matching is drawn
        for _ in range(degree):
            for i, j in enumerate(rng.permutation(half).tolist()):
                yield i, half + j

    return _connected_simple_graph(2 * half, matchings,
                                   f"no simple ({degree},{degree})-bipartite graph for half={half}")


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
