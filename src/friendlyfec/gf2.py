"""Dense linear algebra over GF(2): row reduction, null spaces, encoding."""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

# A "bit matrix" throughout this package is a 2-D uint8 array with entries
# in {0, 1}. Codes here stay at or below ~1024 bits, so dense storage is fine.


def as_bitmatrix(matrix) -> np.ndarray:
    """Validate and return `matrix` as a 2-D uint8 array over {0, 1}."""
    M = np.asarray(matrix)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with >= 1 row and column, got shape {M.shape}")
    if M.dtype != np.uint8:
        M = M.astype(np.uint8)
    if np.any(M > 1):
        raise ValueError("matrix entries must be 0 or 1")
    return M


def matmul(A, B) -> np.ndarray:
    """Matrix product over GF(2). Accumulates in int64 to avoid overflow."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    return ((A @ B) & 1).astype(np.uint8)


def rref(matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns
    -------
    (R, pivots)
        R is the reduced matrix, pivots the strictly increasing list of
        pivot columns. A zero matrix yields an empty pivot list.
    """
    A = as_bitmatrix(matrix).copy()
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        for i in np.nonzero(A[:, c])[0]:
            if i != r:
                A[i] ^= A[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def generator_from_parity(H) -> np.ndarray:
    """Generator matrix G with G @ H.T = 0 over GF(2).

    Rows of G form a basis of the null space of H, with an identity pattern
    on the non-pivot columns, so rank(G) = k = n - rank(H). Redundant rows
    of H are dropped (alist files in the wild contain dependent rows); a
    warning is logged when that happens.
    """
    H = as_bitmatrix(H)
    n = H.shape[1]
    R, pivots = rref(H)
    r = len(pivots)
    if r < H.shape[0]:
        logger.warning("parity-check matrix has %d redundant row(s), ignoring them", H.shape[0] - r)
    if r == n:
        raise ValueError("parity-check matrix has full column rank: degenerate code with k = 0")
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    G = np.zeros((n - r, n), dtype=np.uint8)
    for i, f in enumerate(free):
        G[i, f] = 1
        for j, p in enumerate(pivots):
            G[i, p] = R[j, f]
    return G


def encode(message, G) -> np.ndarray:
    """Codeword x = m G over GF(2); `message` may be a vector or (batch, k)."""
    G = as_bitmatrix(G)
    m = np.asarray(message, dtype=np.uint8)
    if m.shape[-1] != G.shape[0]:
        raise ValueError(f"message length {m.shape[-1]} does not match generator rows {G.shape[0]}")
    return matmul(m, G)


def inv(A) -> np.ndarray:
    """Inverse of a square matrix over GF(2); raises if singular."""
    A = as_bitmatrix(A)
    k = A.shape[0]
    if A.shape[1] != k:
        raise ValueError("matrix must be square")
    aug = np.concatenate([A, np.eye(k, dtype=np.uint8)], axis=1)
    R, pivots = rref(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix is singular over GF(2)")
    return R[:, k:]
