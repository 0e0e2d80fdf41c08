"""Enumeration of fixed-width bit vectors in lexicographic (MSB-first) order."""

from __future__ import annotations

import numpy as np


def bit_block(start: int, stop: int, width: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic enumeration of width-bit vectors.

    Returns a (stop - start, width) uint8 array; row i holds the bits of
    start + i, most significant first.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
