"""Row-blocked kernels with a fixed working set.

A broadcast over (n, m, d), or a batch of n pair scores, is computed a
block of rows at a time, so no temporary grows with n. Each block runs the
same elementwise ops and the same last-axis reduction as the one-shot
form, so the results are bitwise the same.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK_BYTES = 1 << 20  # budget of one temporary


def row_blocks(n: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices over rows 0..n-1, each of as many rows of
    `row_bytes` bytes as fit in BLOCK_BYTES (at least one)."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return (slice(start, start + step) for start in range(0, n, step))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) float64 squared L2 distances between the rows of a (n, d) and
    of b (m, d): `((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)`, a
    block of rows of `a` at a time."""
    out = np.empty((a.shape[0], b.shape[0]))
    for rows in row_blocks(a.shape[0], b.shape[0] * b.shape[1] * out.itemsize):
        out[rows] = ((a[rows, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return out
