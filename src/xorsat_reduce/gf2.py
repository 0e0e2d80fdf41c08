"""Dense linear algebra over GF(2).

Matrices and vectors are numpy uint8 arrays with entries in {0, 1}; all
arithmetic is modulo 2 (XOR row operations). Elimination uses a fixed
pivot rule -- leftmost eligible column, lowest-index row -- so rank,
kernel and standard-form outputs are deterministic for a given input.
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


def as_bin_matrix(m, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-D uint8 matrix with entries in {0, 1}.

    `cols` pins the column count for inputs with zero rows, where the
    shape cannot be inferred from the data.
    """
    arr = np.asarray(m, dtype=np.uint8)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, cols if cols is not None else 0)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return arr


def row_reduce(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns:
        (R, pivot_cols): R is the RREF of `m` (a fresh array) and
        pivot_cols lists the pivot column indices in increasing order;
        len(pivot_cols) is the GF(2) rank.
    """
    mat = as_bin_matrix(m).copy()
    return mat, _eliminate(mat, mat.shape[1])


def _eliminate(mat: np.ndarray, n_pivot_cols: int) -> list[int]:
    """In-place RREF restricted to pivots in the first `n_pivot_cols` columns."""
    n_rows = mat.shape[0]
    pivots: list[int] = []
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


def rank(m) -> int:
    """GF(2) row rank."""
    _, pivots = row_reduce(m)
    return len(pivots)


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
    n = mat.shape[1]
    rref, pivots = row_reduce(mat)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = rref[row, c]
    return basis


def solve_particular(m, b) -> np.ndarray | None:
    """Some x with m @ x = b (mod 2), or None when the system is inconsistent.

    Free variables are set to 0, so the result is deterministic.
    """
    mat = as_bin_matrix(m)
    rhs = as_bin_vec(b)
    if rhs.size != mat.shape[0]:
        raise ValueError(f"rhs length {rhs.size} != matrix rows {mat.shape[0]}")
    aug = np.concatenate([mat, rhs.reshape(-1, 1)], axis=1)
    pivots = _eliminate(aug, mat.shape[1])
    if np.any(aug[len(pivots):, -1]):
        return None
    x = np.zeros(mat.shape[1], dtype=np.uint8)
    for row, col in enumerate(pivots):
        x[col] = aug[row, -1]
    return x


def inconsistency_witness(m, b) -> list[int] | None:
    """Row indices whose GF(2) sum contradicts `b`, or None if m @ x = b is solvable.

    The returned rows XOR to the zero vector on the matrix side while
    their `b` entries XOR to 1, certifying that no solution exists.
    """
    mat = as_bin_matrix(m)
    rhs = as_bin_vec(b)
    if rhs.size != mat.shape[0]:
        raise ValueError(f"rhs length {rhs.size} != matrix rows {mat.shape[0]}")
    n_rows, n_cols = mat.shape
    # Track row operations in an appended identity block: after elimination
    # each row equals the XOR of the original rows flagged in its tracker.
    aug = np.concatenate(
        [mat, rhs.reshape(-1, 1), np.eye(n_rows, dtype=np.uint8)], axis=1
    )
    pivots = _eliminate(aug, n_cols)
    for row in range(len(pivots), n_rows):
        if aug[row, n_cols]:
            return [int(i) for i in np.nonzero(aug[row, n_cols + 1:])[0]]
    return None


def inverse(m) -> np.ndarray:
    """Inverse of a square GF(2) matrix; raises ValueError if singular."""
    mat = as_bin_matrix(m)
    k = mat.shape[0]
    if mat.shape[1] != k:
        raise ValueError(f"matrix is not square: {mat.shape}")
    aug = np.concatenate([mat, np.eye(k, dtype=np.uint8)], axis=1)
    pivots = _eliminate(aug, k)
    if len(pivots) != k:
        raise ValueError("matrix is singular over GF(2)")
    return aug[:, k:].copy()


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Permuted affine parameterization of a kernel's solution set.

    After reordering coordinates by `perm`, an assignment splits into a
    free block of length k (equal to the parameter vector) and a
    dependent block determined linearly from it:

        x_permuted[:k] = v
        x_permuted[k:] = h @ v  XOR  offset[k:]     (mod 2)

    `perm[i]` is the original coordinate stored at permuted position i.
    `offset` is a full-length permuted-order vector whose first k
    entries are zero; its tail is the dependent-block offset.
    """

    perm: np.ndarray  # (n,) int64, a bijection on range(n)
    h: np.ndarray  # (n - k, k) uint8
    offset: np.ndarray  # (n,) uint8, zero on the first k entries

    @property
    def free_count(self) -> int:
        return self.h.shape[1]

    @property
    def dependent_offset(self) -> np.ndarray:
        return self.offset[self.free_count:]


def standard_form(kernel, offset, selection=None) -> StandardForm:
    """Standard-form decomposition of an affine space given by basis + offset.

    `kernel` holds k independent rows of length n; `offset` is any point
    of the affine set {v @ kernel XOR offset}. The free block is chosen
    as the lexicographically earliest set of k coordinates on which the
    basis has full rank, or the caller's `selection` (validated, order
    preserved). The parameterizations range over exactly the same 2^k
    points.

    Raises ValueError when the kernel rows are dependent or a provided
    selection is not full-rank.
    """
    basis = np.atleast_2d(as_bin_matrix(kernel, cols=len(offset)))
    point = as_bin_vec(offset)
    k, n = basis.shape
    if point.size != n:
        raise ValueError(f"offset length {point.size} != kernel width {n}")
    if selection is None:
        _, pivots = row_reduce(basis)
        if len(pivots) != k:
            raise ValueError("kernel rows are linearly dependent")
        sel = pivots
    else:
        sel = [int(c) for c in selection]
        if len(sel) != k or len(set(sel)) != k or not all(0 <= c < n for c in sel):
            raise ValueError("selection must be k distinct coordinate indices")
    chosen = set(sel)
    rest = [c for c in range(n) if c not in chosen]
    u_inv = inverse(basis[:, sel])  # raises if the selection is rank-deficient
    # Rows of `w` map the free block to the dependent block: with
    # v_free = v @ U, we get x[rest] = v_free @ w (+ offset terms).
    w = (u_inv.astype(np.int64) @ basis[:, rest].astype(np.int64) % 2).astype(np.uint8)
    tail = (point[sel].astype(np.int64) @ w.astype(np.int64) % 2).astype(np.uint8)
    tail ^= point[rest]
    perm = np.array(sel + rest, dtype=np.int64)
    full_offset = np.zeros(n, dtype=np.uint8)
    full_offset[k:] = tail
    return StandardForm(perm=perm, h=w.T.copy(), offset=full_offset)
