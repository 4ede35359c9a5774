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


def as_bits(array, what: str) -> np.ndarray:
    """`array` as an array whose entries are checked to be 0 or 1; a bool array needs no scan."""
    a = np.asarray(array)
    if a.dtype != bool:
        bad = (a != 0) & (a != 1)
        if np.any(bad):
            raise ValueError(f"{what} entries must be 0 or 1, got {a[bad].flat[0]!r}")
    return a


def matmul(A, B) -> np.ndarray:
    """Matrix product over GF(2) of a vector or (batch, k) A and a (k, n) B, entries 0 or 1.

    Rows of A and columns of B are packed eight bits to a byte along the
    inner dimension, and each entry of the product is the parity of the
    bits a row and a column share: the parity of the XOR over bytes of
    their AND. The arithmetic is exact and stays on the calling thread:
    numpy's OpenBLAS would spread a float product of this size over
    threads whose spin-waits double the CPU time of a Monte Carlo run.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim < 1 or B.ndim != 2 or A.shape[-1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape} over GF(2)")
    rows = np.packbits(A.astype(bool, copy=False), axis=-1)   # (..., bytes)
    cols = np.packbits(B.astype(bool, copy=False), axis=0)    # (bytes, n)
    shared = np.zeros(rows.shape[:-1] + cols.shape[1:], dtype=np.uint8)
    for i in range(rows.shape[-1]):
        shared ^= rows[..., i, None] & cols[i]
    for shift in (4, 2, 1):  # fold each byte's parity into its lowest bit
        shared ^= shared >> shift
    shared &= 1
    return shared


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
    """Codeword x = m G over GF(2); `message` may be a vector or (batch, k) of 0/1 entries."""
    G = as_bitmatrix(G)
    m = as_bits(message, "message")
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
