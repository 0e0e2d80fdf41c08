"""GF(2) linear algebra: examples with brute-force oracles, invariant sweeps,
hypothesis property tests, and byte-for-byte differential tests against a
copy of the dense numpy elimination the packed-row core replaced and a copy
of the packed elimination that XORed each pivot into every other row."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsat_reduce import gf2
from xorsat_reduce.hamcycle import Graph, hc_to_occupation
from xorsat_reduce.instances import Clause, Instance, Literal, gen_locked_random
from xorsat_reduce.reduction import XorInfeasible, build_linear_system, reduce_instance

from conftest import (
    dense_eliminate,
    dense_parity_system,
    dense_standard,
    dense_standard_form,
    pack_space,
    packed_rows,
    standard_form_on,
)

SETTINGS = dict(deadline=None, derandomize=True, database=None)


def all_vectors(n):
    """All 2^n binary vectors in lexicographic order."""
    return [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=n)]


def brute_nullspace(mat):
    """Null-space of `mat` as a set of bit tuples, by full enumeration."""
    mat = np.asarray(mat, dtype=np.uint8)
    return {
        tuple(v)
        for v in all_vectors(mat.shape[1])
        if not np.any(mat.astype(int) @ v % 2)
    }


def span(basis):
    """All XOR combinations of the given row vectors, as a set of bit tuples."""
    basis = np.asarray(basis, dtype=np.uint8)
    k, n = basis.shape
    out = set()
    for coeffs in itertools.product((0, 1), repeat=k):
        v = np.zeros(n, dtype=np.uint8)
        for c, row in zip(coeffs, basis):
            if c:
                v ^= row
        out.add(tuple(v))
    return out


def random_bin_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


class TestRank:
    def test_three_band_rows(self):
        assert gf2.rank([0b00111, 0b01110, 0b11100]) == 3
        assert gf2.rank(row for row in (0b011, 0b110, 0b101)) == 2

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (0, 4), (4, 0)])
    def test_zero_matrix(self, shape):
        assert gf2.rank(packed_rows(np.zeros(shape, dtype=np.uint8))) == 0

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_identity(self, k):
        assert gf2.rank(packed_rows(np.eye(k, dtype=np.uint8))) == k

    def test_matches_brute_force_nullity(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            rows, cols = rng.integers(0, 7), rng.integers(1, 9)
            m = random_bin_matrix(rng, rows, cols)
            assert gf2.rank(packed_rows(m)) == cols - len(brute_nullspace(m)).bit_length() + 1


class TestKernelBasis:
    def test_two_rows(self):
        basis = gf2.kernel_basis([[1, 1, 0], [0, 1, 1]])
        assert basis.shape == (1, 3)
        assert tuple(basis[0]) == (1, 1, 1)

    def test_identity_has_trivial_kernel(self):
        assert gf2.kernel_basis(np.eye(3, dtype=np.uint8)).shape == (0, 3)

    def test_single_parity_row(self):
        basis = gf2.kernel_basis([[1, 1, 1]])
        assert basis.shape == (2, 3)
        assert span(basis) == brute_nullspace([[1, 1, 1]])

    def test_zero_row_matrix_gives_standard_basis(self):
        basis = gf2.kernel_basis(np.zeros((0, 4), dtype=np.uint8))
        assert np.array_equal(basis, np.eye(4, dtype=np.uint8))

    def test_soundness_and_rank_nullity(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            rows, cols = rng.integers(0, 9), rng.integers(0, 12)
            m = random_bin_matrix(rng, rows, cols)
            basis = gf2.kernel_basis(m)
            assert gf2.rank(packed_rows(m)) + basis.shape[0] == cols
            for vec in basis:
                assert not np.any(gf2.matvec(m, vec))

    def test_completeness_small_sizes(self):
        rng = np.random.default_rng(37)
        for cols in range(1, 11):
            for _ in range(8):
                m = random_bin_matrix(rng, rng.integers(0, cols + 3), cols)
                assert span(gf2.kernel_basis(m)) == brute_nullspace(m)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = random_bin_matrix(rng, 6, 10)
        assert np.array_equal(gf2.kernel_basis(m), gf2.kernel_basis(m.copy()))


class TestSolveParticular:
    def test_identity_system(self):
        x = gf2.solve_particular([[1, 0], [0, 1]], [1, 0])
        assert tuple(x) == (1, 0)

    def test_contradictory_duplicate_rows(self):
        assert gf2.solve_particular([[1, 1], [1, 1]], [1, 0]) is None

    def test_banded_system_by_resubstitution(self):
        a = [[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1]]
        b = np.array([0, 0, 1], dtype=np.uint8)
        x = gf2.solve_particular(a, b)
        assert np.array_equal(gf2.matvec(a, x), b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf2.solve_particular([[1, 0], [0, 1]], [1, 0, 1])

    def test_against_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(80):
            rows, cols = rng.integers(0, 8), rng.integers(1, 9)
            m = random_bin_matrix(rng, rows, cols)
            b = rng.integers(0, 2, size=rows, dtype=np.uint8)
            x = gf2.solve_particular(m, b)
            feasible = any(
                np.array_equal(m.astype(int) @ v % 2, b) for v in all_vectors(cols)
            )
            if x is None:
                assert not feasible
            else:
                assert np.array_equal(gf2.matvec(m, x), b)


class TestInconsistencyWitness:
    def test_duplicate_rows(self):
        w = gf2.inconsistency_witness([[1, 1], [1, 1]], [1, 0])
        assert w == [0, 1]

    def test_consistent_system_has_no_witness(self):
        assert gf2.inconsistency_witness([[1, 0], [0, 1]], [1, 1]) is None

    def test_witness_certifies_contradiction(self):
        rng = np.random.default_rng(53)
        found = 0
        for _ in range(200):
            m = random_bin_matrix(rng, rng.integers(2, 9), rng.integers(1, 6))
            b = rng.integers(0, 2, size=m.shape[0], dtype=np.uint8)
            w = gf2.inconsistency_witness(m, b)
            if w is None:
                assert gf2.solve_particular(m, b) is not None
                continue
            found += 1
            assert not np.any(np.bitwise_xor.reduce(m[w], axis=0))
            assert np.bitwise_xor.reduce(b[w]) == 1
        assert found > 20


class TestMatvec:
    def test_identity(self):
        v = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(gf2.matvec(np.eye(3, dtype=np.uint8), v), v)

    def test_zero_matrix(self):
        assert not np.any(gf2.matvec(np.zeros((2, 3), dtype=np.uint8), [1, 1, 1]))

    def test_parity_of_two_ones(self):
        assert tuple(gf2.matvec([[1, 1, 1]], [1, 0, 1])) == (0,)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf2.matvec([[1, 1]], [1, 0, 0])


class TestInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(67)
        done = 0
        while done < 25:
            k = rng.integers(1, 8)
            m = random_bin_matrix(rng, k, k)
            if gf2.rank(packed_rows(m)) != k:
                continue
            inv = gf2.inverse(m)
            assert np.array_equal(m.astype(int) @ inv % 2, np.eye(k, dtype=int))
            done += 1

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            gf2.inverse([[1, 1], [1, 1]])


def affine_set(kernel, offset):
    """All points v @ kernel XOR offset, as a set of bit tuples."""
    offset = np.asarray(offset, dtype=np.uint8)
    return {tuple(np.asarray(p, dtype=np.uint8) ^ offset) for p in span(kernel)}


def standard_set(sf):
    """All points of a StandardForm parameterization, as a set of bit tuples."""
    perm, h, offset = dense_standard(sf)
    k = sf.free_count
    out = set()
    for bits in itertools.product((0, 1), repeat=k):
        v = np.array(bits, dtype=np.uint8)
        permuted = np.concatenate([v, (h.astype(int) @ v % 2).astype(np.uint8) ^ offset[k:]])
        x = np.zeros(sf.n, dtype=np.uint8)
        x[perm] = permuted
        out.add(tuple(x))
    return out


class TestStandardForm:
    def test_single_repetition_vector(self):
        sf = gf2.standard_form(*pack_space([[1, 1, 1]], [0, 0, 0]))
        assert (sf.free, sf.rows, sf.point, sf.n) == ((0,), (0b111,), 0, 3)
        assert standard_set(sf) == {(0, 0, 0), (1, 1, 1)}

    def test_already_standard(self):
        kernel = np.concatenate([np.eye(3, dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8)], axis=1)
        sf = gf2.standard_form(*pack_space(kernel, np.zeros(5, dtype=np.uint8)))
        assert (sf.free, sf.rows, sf.point) == ((0, 1, 2), (1, 2, 4), 0)

    def test_identity_upper_block_after_transform(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = rng.integers(1, 10)
            m = random_bin_matrix(rng, rng.integers(0, n + 1), n)
            kernel = gf2.kernel_basis(m)
            if kernel.shape[0] == 0:
                continue
            offset = rng.integers(0, 2, size=n, dtype=np.uint8)
            perm, h, _ = dense_standard(gf2.standard_form(*pack_space(kernel, offset)))
            k = kernel.shape[0]
            u_inv = gf2.inverse(kernel[:, perm[:k]])
            transformed = (u_inv.astype(int) @ kernel.astype(int) % 2)[:, perm]
            assert np.array_equal(transformed[:, :k], np.eye(k, dtype=int))
            assert np.array_equal(transformed[:, k:].T, h.astype(int))

    def test_solution_set_preserved(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            n = rng.integers(1, 10)
            m = random_bin_matrix(rng, rng.integers(0, n + 1), n)
            kernel = gf2.kernel_basis(m)
            offset = rng.integers(0, 2, size=n, dtype=np.uint8)
            sf = gf2.standard_form(*pack_space(kernel, offset))
            assert standard_set(sf) == affine_set(kernel, offset)

    def test_offset_head_is_zero(self):
        rng = np.random.default_rng(89)
        kernel = gf2.kernel_basis(random_bin_matrix(rng, 3, 8))
        offset = rng.integers(0, 2, size=8, dtype=np.uint8)
        sf = gf2.standard_form(*pack_space(kernel, offset))
        free_bits = sum(1 << c for c in sf.free)
        assert not sf.point & free_bits
        assert [row & free_bits for row in sf.rows] == [1 << c for c in sf.free]

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            gf2.standard_form(*pack_space([[1, 1, 0], [1, 1, 0]], [0, 0, 0]))

    def test_explicit_selection(self):
        kernel = np.array([[1, 1, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
        offset = np.array([0, 1, 0, 1], dtype=np.uint8)
        default = gf2.standard_form(*pack_space(kernel, offset))
        alt = standard_form_on(kernel, offset, [3, 2])
        assert alt.free == (3, 2)
        assert standard_set(alt) == standard_set(default)


# Property tests, and a differential test against the dense elimination
# that the packed-row core replaced.


class Dense:
    """The dense numpy elimination that the packed-row core replaced, kept as the reference."""

    @staticmethod
    def row_reduce(m):
        mat = gf2.as_bin_matrix(m).copy()
        return mat, dense_eliminate(mat, mat.shape[1])

    @staticmethod
    def rank(m):
        return len(Dense.row_reduce(m)[1])

    @staticmethod
    def kernel_basis(m):
        mat = gf2.as_bin_matrix(m)
        n = mat.shape[1]
        rref, pivots = Dense.row_reduce(mat)
        free = [c for c in range(n) if c not in set(pivots)]
        basis = np.zeros((len(free), n), dtype=np.uint8)
        for i, c in enumerate(free):
            basis[i, c] = 1
            for row, pc in enumerate(pivots):
                basis[i, pc] = rref[row, c]
        return basis

    @staticmethod
    def solve_particular(m, b):
        mat, rhs = gf2.as_bin_matrix(m), gf2.as_bin_vec(b)
        aug = np.concatenate([mat, rhs.reshape(-1, 1)], axis=1)
        pivots = dense_eliminate(aug, mat.shape[1])
        if np.any(aug[len(pivots):, -1]):
            return None
        x = np.zeros(mat.shape[1], dtype=np.uint8)
        for row, col in enumerate(pivots):
            x[col] = aug[row, -1]
        return x

    @staticmethod
    def inconsistency_witness(m, b):
        mat, rhs = gf2.as_bin_matrix(m), gf2.as_bin_vec(b)
        n_rows, n_cols = mat.shape
        aug = np.concatenate([mat, rhs.reshape(-1, 1), np.eye(n_rows, dtype=np.uint8)], axis=1)
        pivots = dense_eliminate(aug, n_cols)
        for row in range(len(pivots), n_rows):
            if aug[row, n_cols]:
                return [int(i) for i in np.nonzero(aug[row, n_cols + 1:])[0]]
        return None

    @staticmethod
    def inverse(m):
        mat = gf2.as_bin_matrix(m)
        k = mat.shape[0]
        if mat.shape[1] != k:
            raise ValueError(f"matrix is not square: {mat.shape}")
        aug = np.concatenate([mat, np.eye(k, dtype=np.uint8)], axis=1)
        if len(dense_eliminate(aug, k)) != k:
            raise ValueError("matrix is singular over GF(2)")
        return aug[:, k:].copy()

    @staticmethod
    def reduce_instance(instance):
        matrix, rhs = dense_parity_system(instance)
        offset = Dense.solve_particular(matrix, rhs)
        if offset is None:
            return XorInfeasible(tuple(Dense.inconsistency_witness(matrix, rhs)), Dense.rank(matrix))
        kernel = Dense.kernel_basis(matrix)
        return kernel, offset, instance.n - kernel.shape[0], dense_standard_form(kernel, offset)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def assert_same_standard_form(got, want):
    for got_array, want_array in zip(dense_standard(got), want):
        assert_same_array(got_array, want_array)


def outcome_or_error(fn, *args):
    try:
        return fn(*args), None
    except ValueError as err:
        return None, str(err)


@st.composite
def bin_matrices(draw, max_rows: int = 10, max_cols: int = 12):
    """Random 0/1 matrices, n = 0 and M = 0 included, some with duplicated rows."""
    cols = draw(st.integers(0, max_cols))
    values = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_rows))
    if values and draw(st.booleans()):
        values += draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
        values = draw(st.permutations(values))
    return np.array([[(v >> c) & 1 for c in range(cols)] for v in values],
                    dtype=np.uint8).reshape(len(values), cols)


@st.composite
def systems(draw):
    mat = draw(bin_matrices())
    rhs = np.array(draw(st.lists(st.integers(0, 1), min_size=mat.shape[0], max_size=mat.shape[0])),
                   dtype=np.uint8)
    return mat, rhs


@st.composite
def affine_spaces(draw):
    """(kernel, offset): an RREF kernel, a row-mixed copy of it, or k = n; k <= 7."""
    mat = draw(bin_matrices(max_cols=10))
    n = mat.shape[1]
    kernel = gf2.kernel_basis(mat) if draw(st.booleans()) else np.eye(n, dtype=np.uint8)
    kernel = kernel[:7]
    k = kernel.shape[0]
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            kernel[i] ^= kernel[j]
    offset = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    return kernel, offset


@st.composite
def selections(draw, kernel):
    """A full-rank block in a random column order, or any k distinct columns."""
    k, n = kernel.shape
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        _, pivots = Dense.row_reduce(kernel[:, order])
        return [order[c] for c in pivots]
    return order[:k]


@st.composite
def parity_instances(draw):
    """Random clause sets (often XOR-infeasible), locked instances, or HC instances."""
    kind = draw(st.sampled_from(["random", "locked", "hc"]))
    if kind == "locked":
        n = draw(st.sampled_from([6, 9, 12, 21, 24, 40]))
        p, q = draw(st.sampled_from([(3, 1), (4, 2)]))
        m = draw(st.integers(-(-2 * n // p), n))
        return gen_locked_random(n, m, p, q, seed=draw(st.integers(0, 2**32 - 1)))
    if kind == "hc":
        nodes = draw(st.integers(1, 8))
        pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return hc_to_occupation(Graph(nodes, tuple(edges)))
    n = draw(st.integers(0, 24))
    clauses = []
    for _ in range(draw(st.integers(0, 2 * n + 2)) if n else 0):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        negated = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
        literals = tuple(Literal(v, s) for v, s in zip(variables, negated))
        clauses.append(Clause(literals, draw(st.integers(1, len(variables)))))
    return Instance(n, tuple(clauses))


@settings(max_examples=300, **SETTINGS)
@given(bin_matrices())
def test_kernel_annihilates_and_rank_plus_nullity_is_n(mat):
    kernel = gf2.kernel_basis(mat)
    assert not np.any(mat.astype(np.int64) @ kernel.T.astype(np.int64) % 2)
    assert gf2.rank(packed_rows(mat)) + kernel.shape[0] == mat.shape[1]
    assert gf2.rank(packed_rows(kernel)) == kernel.shape[0]


@settings(max_examples=300, **SETTINGS)
@given(systems())
def test_witness_rows_sum_to_zero_equals_one(system):
    mat, rhs = system
    witness = gf2.inconsistency_witness(mat, rhs)
    x = gf2.solve_particular(mat, rhs)
    if witness is None:
        assert np.array_equal(gf2.matvec(mat, x), rhs)
        return
    assert x is None
    assert not np.any(np.bitwise_xor.reduce(mat[witness], axis=0))
    assert np.bitwise_xor.reduce(rhs[witness]) == 1


@settings(max_examples=200, **SETTINGS)
@given(st.data(), affine_spaces())
def test_standard_forms_span_the_affine_space(data, space):
    kernel, offset = space
    points = affine_set(kernel, offset) if kernel.shape[0] else {tuple(offset)}
    assert standard_set(gf2.standard_form(*pack_space(kernel, offset))) == points
    selection = data.draw(selections(kernel))
    sf = standard_form_on(kernel, offset, selection)
    if sf is not None:
        assert sf.free == tuple(selection)
        assert standard_set(sf) == points


@settings(max_examples=300, **SETTINGS)
@given(systems())
def test_packed_core_matches_dense_reference(system):
    mat, rhs = system
    rref, pivots = gf2.row_reduce(mat)
    want_rref, want_pivots = Dense.row_reduce(mat)
    assert_same_array(rref, want_rref)
    assert pivots == want_pivots and all(type(c) is int for c in pivots)
    assert gf2.rank(packed_rows(mat)) == Dense.rank(mat)
    assert_same_array(gf2.kernel_basis(mat), Dense.kernel_basis(mat))
    x, want_x = gf2.solve_particular(mat, rhs), Dense.solve_particular(mat, rhs)
    assert (x is None) == (want_x is None)
    if x is not None:
        assert_same_array(x, want_x)
    assert gf2.inconsistency_witness(mat, rhs) == Dense.inconsistency_witness(mat, rhs)
    square = mat[:, : mat.shape[0]][: mat.shape[1]]
    got, error = outcome_or_error(gf2.inverse, square)
    want, want_error = outcome_or_error(Dense.inverse, square)
    assert error == want_error
    if got is not None:
        assert_same_array(got, want)


@settings(max_examples=300, **SETTINGS)
@given(st.data(), affine_spaces())
def test_standard_form_matches_dense_reference(data, space):
    kernel, offset = space
    got, error = outcome_or_error(gf2.standard_form, *pack_space(kernel, offset))
    want, want_error = outcome_or_error(dense_standard_form, kernel, offset)
    assert error == want_error
    if got is not None:
        assert_same_standard_form(got, want)
    selection = data.draw(selections(kernel))
    got = standard_form_on(kernel, offset, selection)
    want, want_error = outcome_or_error(dense_standard_form, kernel, offset, selection)
    assert (got is None) == (want_error is not None)
    if got is not None:
        assert_same_standard_form(got, want)


def test_standard_form_rejects_dependent_kernels_like_the_reference():
    kernel = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
    _, error = outcome_or_error(gf2.standard_form, *pack_space(kernel, np.zeros(3, dtype=np.uint8)))
    _, want = outcome_or_error(dense_standard_form, kernel, np.zeros(3, dtype=np.uint8))
    assert error is not None and error == want


@settings(max_examples=400, **SETTINGS)
@given(parity_instances())
def test_reduce_instance_matches_dense_reference(inst):
    got = reduce_instance(inst)
    want = Dense.reduce_instance(inst)
    if isinstance(want, XorInfeasible):
        assert got == want and all(type(i) is int for i in got.witness)
        assert type(got.m_prime) is int
        return
    kernel, offset, m_prime, standard = want
    assert_same_array(got.kernel, kernel)
    assert_same_array(got.offset, offset)
    assert got.m_prime == m_prime and type(got.m_prime) is int
    assert_same_standard_form(got.standard, standard)


def every_row_gauss_jordan(rows: list[int], columns) -> list[int]:
    """The packed elimination before the forward pass: each pivot is XORed into every other row."""
    pivots: list[int] = []
    top = 0
    count = len(rows)
    for col in columns:
        if top == count:
            break
        bit = 1 << col
        for i in range(top, count):
            if rows[i] & bit:
                break
        else:
            continue
        pivot = rows[i]
        rows[i] = rows[top]
        rows[:] = [row ^ pivot if row & bit else row for row in rows]
        rows[top] = pivot
        pivots.append(col)
        top += 1
    return pivots


def assert_same_elimination(rows, columns):
    got_rows, want_rows = list(rows), list(rows)
    got = gf2._gauss_jordan(got_rows, columns)
    want = every_row_gauss_jordan(want_rows, columns)
    assert got == want
    assert got_rows == want_rows


def tracked_system(rows, rhs, n) -> list[int]:
    """The packed rows [A | b | I] of A's packed rows and b, as `gf2.eliminate` builds them."""
    return [row | b << n | 1 << (n + 1 + i) for i, (row, b) in enumerate(zip(rows, rhs))]


@st.composite
def packed_eliminations(draw):
    """Packed rows and a column sequence: 0-40 rows of 0-90 bits, or [A | b | I] systems.

    Rows are zero, all ones, sparse or any; some are duplicated, so
    systems are often rank-deficient, and with [A | b | I] rows often
    inconsistent. Columns run in order, permuted, as a subsequence, or
    drawn with repeats; the in-order and drawn ones reach past the width.
    """
    width = draw(st.integers(0, 90))
    full = (1 << width) - 1
    sparse = st.lists(st.integers(0, max(width - 1, 0)), max_size=4, unique=True).map(
        lambda bits: sum(1 << b for b in bits) & full)
    rows = draw(st.lists(st.one_of(st.just(0), st.just(full), sparse, st.integers(0, full)), max_size=40))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=5))
        rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        rows = tracked_system(rows, rhs, width)
    kind = draw(st.sampled_from(["range", "permutation", "subsequence", "repeats"]))
    if kind == "range":
        columns = range(width + draw(st.integers(0, 5)))
    elif kind == "permutation":
        columns = draw(st.permutations(range(width)))
    elif kind == "subsequence":
        keep = draw(st.integers(0, full))
        columns = [c for c in range(width) if keep >> c & 1]
    else:
        columns = draw(st.lists(st.integers(0, width + 8), max_size=2 * width + 4))
    return rows, columns


@settings(max_examples=500, **SETTINGS)
@given(packed_eliminations())
def test_forward_pass_matches_the_every_row_elimination(case):
    assert_same_elimination(*case)


LARGE_INSTANCES = {
    "locked-1in3-n1000": lambda: gen_locked_random(1000, 667, 3, 1, seed=1),
    "path-V1000": lambda: hc_to_occupation(Graph(1000, tuple((v, v + 1) for v in range(999)))),
}


@pytest.mark.parametrize("name", sorted(LARGE_INSTANCES))
def test_large_parity_system_matches_the_every_row_elimination(name):
    inst = LARGE_INSTANCES[name]()
    system = build_linear_system(inst)
    rows = tracked_system(system.rows, system.rhs, system.n)
    assert_same_elimination(rows, range(inst.n))
