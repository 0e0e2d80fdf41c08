"""Linear algebra over GF(2) on packed rows.

Inside, each row is one Python int with bit c holding column c, so a
row operation is one XOR. The dense functions (`row_reduce`, `matvec`,
`kernel_basis`, `solve_particular`, `inconsistency_witness`, `inverse`)
take and return numpy uint8 arrays with entries in {0, 1}. The packed
ones take those ints: `rank`, `eliminate` (and its `Elimination`),
`standard_form`, `reduced_standard_form` and `StandardForm`, whose
`expand` returns a uint8 assignment. Every elimination runs `_gauss_jordan`:
its pivot rule -- leftmost eligible column (or the caller's column
order), first eligible row, swapped up -- makes row-reduce, kernel and
standard-form outputs deterministic for a given input. It is a forward
pass, which XORs each pivot only into the rows below it, then one
back-substitution from the last pivot row up. `eliminate` reduces a
system [A | b | I] once; its rank, RREF standard form and inconsistency
witness are all read off that one elimination. `rank` keeps its own
echelon basis keyed by each row's leading bit and needs no pivot order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_bin_vec(v) -> np.ndarray:
    """Coerce to a 1-D uint8 vector with entries in {0, 1}."""
    arr = np.asarray(v, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("vector entries must be 0 or 1")
    return arr


def as_bin_matrix(m) -> np.ndarray:
    """Coerce to a 2-D uint8 matrix with entries in {0, 1}."""
    arr = np.asarray(m, dtype=np.uint8)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return arr


def _pack(mat: np.ndarray) -> list[int]:
    """The rows of a validated 0/1 matrix as Python ints, bit c holding column c."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    rows, width = packed.shape
    if width == 0:
        return [0] * rows
    data = packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _unpack(rows: list[int], width: int) -> np.ndarray:
    """(len(rows), width) uint8 matrix of packed rows that hold no bit at or above `width`."""
    row_bytes = (width + 7) // 8
    data = b"".join(row.to_bytes(row_bytes, "little") for row in rows)
    grid = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), row_bytes)
    return np.unpackbits(grid, axis=1, count=width, bitorder="little")


def _gauss_jordan(rows: list[int], columns) -> list[int]:
    """Reduce packed rows in place, pivoting on `columns` in order; returns the pivot columns.

    Forward pass: for each column, the first row at or below the next
    pivot row that has the column's bit is swapped up and XORed into the
    rows below it that have the bit (the rows it passed over lack it); a
    column no such row has is skipped. Back-substitution, once, from the
    last pivot row up: each pivot row is cleared of the later pivots'
    bits by one XOR per bit with that pivot's finished row. With
    columns = range(c) the result is the RREF restricted to pivots among
    the first c columns.
    """
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
        rows[top] = pivot
        for j in range(i + 1, count):
            if rows[j] & bit:
                rows[j] ^= pivot
        pivots.append(col)
        top += 1
    later = 0  # the pivot bits of the rows below the current one
    finished: dict[int, int] = {}  # pivot bit -> its fully reduced row
    for t in range(top - 1, -1, -1):
        row = rows[t]
        held = row & later
        while held:
            low = held & -held
            row ^= finished[low]
            held ^= low
        rows[t] = row
        bit = 1 << pivots[t]
        finished[bit] = row
        later |= bit
    return pivots


@dataclass(frozen=True, eq=False)
class Elimination:
    """One left-to-right elimination of the packed rows [A | b | I] of a system A x = b.

    Row i holds A's row i in bits 0..n-1, b_i in bit n and a tracker bit
    n + 1 + i, so after elimination each row records which original rows
    it is the sum of. Pivots lie among the first n columns.
    """

    rows: list[int]
    pivots: list[int]
    n: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def witness(self) -> list[int] | None:
        """Rows of A summing to zero while their b entries sum to 1, or None if consistent."""
        for row in self.rows[self.rank:]:
            if row >> self.n & 1:
                tracker = row >> (self.n + 1)
                return [i for i in range(tracker.bit_length()) if tracker >> i & 1]
        return None

    def basis(self) -> StandardForm | None:
        """The solution space in RREF standard form, or None when A x = b is inconsistent.

        Free are the non-pivot columns, in increasing order. The row of free
        column c has bit c and, at each pivot column, the pivot row's bit c.
        """
        if self.witness() is not None:
            return None
        pivot_set = set(self.pivots)
        free = [c for c in range(self.n) if c not in pivot_set]
        reduced = _unpack([row & ((1 << self.n) - 1) for row in self.rows[: self.rank]], self.n)
        kernel = np.zeros((len(free), self.n), dtype=np.uint8)
        kernel[np.arange(len(free)), free] = 1
        kernel[:, self.pivots] = reduced[:, free].T
        point = sum((row >> self.n & 1) << col for row, col in zip(self.rows, self.pivots))
        return StandardForm(free=tuple(free), rows=tuple(_pack(kernel)), point=point, n=self.n)


def eliminate(rows: list[int], rhs: list[int], n: int) -> Elimination:
    """Eliminate A x = b given A's packed rows (bits below n) and b's 0/1 entries."""
    system = [row | b << n | 1 << (n + 1 + i) for i, (row, b) in enumerate(zip(rows, rhs))]
    pivots = _gauss_jordan(system, range(n))
    return Elimination(rows=system, pivots=pivots, n=n)


def _eliminate_arrays(m, b) -> Elimination:
    mat = as_bin_matrix(m)
    rhs = as_bin_vec(b)
    if rhs.size != mat.shape[0]:
        raise ValueError(f"rhs length {rhs.size} != matrix rows {mat.shape[0]}")
    return eliminate(_pack(mat), rhs.tolist(), mat.shape[1])


def row_reduce(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns:
        (R, pivot_cols): R is the RREF of `m` (a fresh array) and
        pivot_cols lists the pivot column indices in increasing order;
        len(pivot_cols) is the GF(2) rank.
    """
    mat = as_bin_matrix(m)
    rows = _pack(mat)
    pivots = _gauss_jordan(rows, range(mat.shape[1]))
    return _unpack(rows, mat.shape[1]), pivots


def rank(rows) -> int:
    """GF(2) rank of packed rows: the size of an echelon basis keyed by each row's leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def matvec(m, v) -> np.ndarray:
    """Matrix-vector product modulo 2."""
    mat = as_bin_matrix(m)
    vec = as_bin_vec(v)
    if vec.size != mat.shape[1]:
        raise ValueError(f"vector length {vec.size} != matrix columns {mat.shape[1]}")
    return (mat.astype(np.int64) @ vec.astype(np.int64) % 2).astype(np.uint8)


def kernel_basis(m) -> np.ndarray:
    """Basis of the null space of `m` over GF(2).

    Returns a (cols - rank, cols) array whose rows are linearly
    independent vectors x with m @ x = 0 (mod 2). Each basis vector has
    a 1 on one free column and the matching RREF entries on the pivot
    columns; for a zero-row input this is the full standard basis.
    """
    mat = as_bin_matrix(m)
    return _unpack(_eliminate_arrays(mat, np.zeros(mat.shape[0], dtype=np.uint8)).basis().rows, mat.shape[1])


def solve_particular(m, b) -> np.ndarray | None:
    """Some x with m @ x = b (mod 2), or None when the system is inconsistent.

    Free variables are set to 0, so the result is deterministic.
    """
    basis = _eliminate_arrays(m, b).basis()
    return None if basis is None else basis.expand(())


def inconsistency_witness(m, b) -> list[int] | None:
    """Row indices whose GF(2) sum contradicts `b`, or None if m @ x = b is solvable.

    The returned rows XOR to the zero vector on the matrix side while
    their `b` entries XOR to 1, certifying that no solution exists.
    """
    return _eliminate_arrays(m, b).witness()


def inverse(m) -> np.ndarray:
    """Inverse of a square GF(2) matrix; raises ValueError if singular."""
    mat = as_bin_matrix(m)
    k = mat.shape[0]
    if mat.shape[1] != k:
        raise ValueError(f"matrix is not square: {mat.shape}")
    rows = [row | 1 << (k + i) for i, row in enumerate(_pack(mat))]
    if len(_gauss_jordan(rows, range(k))) != k:
        raise ValueError("matrix is singular over GF(2)")
    return _unpack([row >> k for row in rows], k)


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Affine parameterization of a kernel's solution set by k free coordinates.

    Parameter v_i sets coordinate free[i]; every other coordinate
    follows from them. Rows and the point are packed like the rest of
    this module (bit c holds coordinate c):

        rows[i]  the kernel vector with bit free[i] and no other free bit
        point    the point of the space that is 0 on every free coordinate

    The assignment of v is `point` XOR every rows[i] with v_i = 1, so a
    dependent coordinate c equals point's bit c XOR the parity of the
    v_i whose rows[i] hold bit c.
    """

    free: tuple[int, ...]
    rows: tuple[int, ...]
    point: int
    n: int

    @property
    def free_count(self) -> int:
        return len(self.free)

    def expand(self, v) -> np.ndarray:
        """The (n,) uint8 assignment of parameters v, 0/1 in row order; missing ones are 0, extra ones raise."""
        v = tuple(v)
        if len(v) > len(self.rows):
            raise ValueError(f"{len(v)} parameters for a space of dimension k = {len(self.rows)}")
        x = self.point
        for row, bit in zip(self.rows, v):
            if bit:
                x ^= row
        return _unpack([x], self.n)[0].copy()


def reduced_standard_form(free, rows, point: int, n: int) -> StandardForm:
    """The standard form on rows already reduced on `free`, through any `point` of the space.

    Row i must hold bit free[i] and no other bit of `free`; XORing it
    into the point wherever the point has bit free[i] leaves the one
    point of the space that is 0 on the whole block.
    """
    for row, c in zip(rows, free):
        if point >> c & 1:
            point ^= row
    return StandardForm(free=tuple(free), rows=tuple(rows), point=point, n=n)


def standard_form(rows, point: int, n: int) -> StandardForm:
    """Standard form of the affine space through packed `point` spanned by packed `rows`.

    The k rows must be independent vectors of n coordinates. The free
    block is the lexicographically earliest set of k coordinates on which
    they have full rank, in increasing order. The parameterization ranges
    over exactly the same 2^k points.

    Raises ValueError when the rows are dependent.
    """
    rows = list(rows)
    free = _gauss_jordan(rows, range(n))
    if len(free) != len(rows):
        raise ValueError("kernel rows are linearly dependent")
    return reduced_standard_form(free, rows, point, n)
