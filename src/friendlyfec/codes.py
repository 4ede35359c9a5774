"""Code constructions: alist-backed LDPC codes, polar codes with
Bhattacharyya frozen-bit selection, and small reference codes."""

from __future__ import annotations

import hashlib
import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from . import checks, gf2


class AlistError(ValueError):
    """Malformed alist input. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class CodeSpec:
    """A binary linear code with its parity-check and generator matrices.

    `frozen` holds the frozen input indices of a polar code (None for
    other codes). The extraction fields map a decoded
    codeword back to message bits (pivot columns of G and the inverse of
    the corresponding k x k submatrix).
    """

    name: str
    n: int
    k: int
    H: np.ndarray
    G: np.ndarray
    frozen: tuple[int, ...] | None = None
    _extract_cols: np.ndarray = field(repr=False, default=None)
    _extract_inv: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_parity(cls, name, H, frozen=None, G=None) -> "CodeSpec":
        H = gf2.as_bitmatrix(H)
        n = H.shape[1]
        G = gf2.generator_from_parity(H) if G is None else gf2.as_bitmatrix(G)
        k = G.shape[0]
        if G.shape[1] != n:
            raise ValueError(f"G has {G.shape[1]} columns, H has {n}")
        if k != n - gf2.rank(H):
            raise ValueError("rank(G) inconsistent with n - rank(H)")
        if np.any(gf2.matmul(G, H.T)):
            raise ValueError("G H^T != 0 over GF(2)")
        # message extraction: invert G on its pivot columns
        _, pivots = gf2.rref(G)
        cols = np.asarray(pivots, dtype=np.int64)
        inv = gf2.inv(G[:, cols])
        return cls(name=name, n=n, k=k, H=H, G=G, frozen=frozen,
                   _extract_cols=cols, _extract_inv=inv)

    @property
    def rate(self) -> float:
        return self.k / self.n

    def message_from_codeword(self, codeword) -> np.ndarray:
        """Recover message bits from a (possibly batched) codeword estimate.

        Exact inverse of `encode` on codewords; for non-codewords it is the
        deterministic linear estimate from the pivot positions. Entries
        must be 0 or 1; a bool array, such as the decoder's sign decisions,
        is not scanned.
        """
        x = gf2.as_bits(codeword, "codeword")
        return gf2.matmul(x[..., self._extract_cols], self._extract_inv)


# ---------------------------------------------------------------------------
# alist interchange format (MacKay convention, 1-based, zero padding allowed)
# ---------------------------------------------------------------------------

def load_alist(text: str) -> np.ndarray:
    """Parse alist text into a dense parity-check matrix of shape (m, n).

    The format is: header "n m"; max column/row degrees; per-column degrees;
    per-row degrees; then one 1-based index list per column and per row,
    optionally zero-padded to the max degree. Column and row adjacency lists
    are cross-checked against each other.
    """
    raw = text.splitlines()
    lines = [(i + 1, ln.split()) for i, ln in enumerate(raw) if ln.strip()]
    pos = 0

    def next_ints(what):
        nonlocal pos
        if pos >= len(lines):
            raise AlistError(f"truncated stream, expected {what}", line=len(raw) + 1)
        lineno, toks = lines[pos]
        pos += 1
        try:
            return lineno, [int(t) for t in toks]
        except ValueError:
            raise AlistError(f"non-integer token in {what}", line=lineno) from None

    lineno, header = next_ints("header 'n m'")
    if len(header) != 2:
        raise AlistError("header must hold exactly two integers 'n m'", lineno)
    n, m = header
    if n < 1 or m < 1:
        raise AlistError("matrix dimensions must be positive", lineno)

    lineno, maxdeg = next_ints("max degrees")
    if len(maxdeg) != 2:
        raise AlistError("expected max column degree and max row degree", lineno)
    dv_max, dc_max = maxdeg

    lineno, col_deg = next_ints("per-column degrees")
    if len(col_deg) != n:
        raise AlistError(f"expected {n} column degrees, got {len(col_deg)}", lineno)
    if any(d < 0 or d > dv_max for d in col_deg):
        raise AlistError("column degree outside [0, max column degree]", lineno)

    lineno, row_deg = next_ints("per-row degrees")
    if len(row_deg) != m:
        raise AlistError(f"expected {m} row degrees, got {len(row_deg)}", lineno)
    if any(d < 0 or d > dc_max for d in row_deg):
        raise AlistError("row degree outside [0, max row degree]", lineno)
    if sum(col_deg) != sum(row_deg):
        raise AlistError("column and row degree sums differ", lineno)

    def read_adjacency(count, degrees, limit, what):
        entries = []
        for j in range(count):
            lineno, vals = next_ints(f"{what} {j + 1} index list")
            nz = []
            seen_zero = False
            for v in vals:
                if v == 0:
                    seen_zero = True
                elif seen_zero:
                    raise AlistError(f"{what} {j + 1}: zero padding must trail the index list", lineno)
                else:
                    nz.append(v)
            if len(nz) != degrees[j]:
                raise AlistError(
                    f"{what} {j + 1}: listed degree {degrees[j]} but {len(nz)} nonzero indices", lineno)
            if any(v < 1 or v > limit for v in nz):
                raise AlistError(f"{what} {j + 1}: index out of range 1..{limit}", lineno)
            if len(set(nz)) != len(nz):
                raise AlistError(f"{what} {j + 1}: duplicate index", lineno)
            entries.append(nz)
        return entries

    col_entries = read_adjacency(n, col_deg, m, "column")
    row_entries = read_adjacency(m, row_deg, n, "row")
    if pos < len(lines):
        raise AlistError("unexpected trailing content", lines[pos][0])

    from_cols = {(r - 1, j) for j, rows in enumerate(col_entries) for r in rows}
    from_rows = {(i, c - 1) for i, cols in enumerate(row_entries) for c in cols}
    if from_cols != from_rows:
        raise AlistError("column and row adjacency lists disagree")

    H = np.zeros((m, n), dtype=np.uint8)
    for i, j in from_cols:
        H[i, j] = 1
    return H


def save_alist(H) -> str:
    """Emit alist text for the parity-check matrix H (zero-padded lists)."""
    H = gf2.as_bitmatrix(H)
    m, n = H.shape
    col_deg = H.sum(axis=0, dtype=np.int64)
    row_deg = H.sum(axis=1, dtype=np.int64)
    dv_max = int(col_deg.max())
    dc_max = int(row_deg.max())
    lines = [f"{n} {m}", f"{dv_max} {dc_max}",
             " ".join(str(int(d)) for d in col_deg),
             " ".join(str(int(d)) for d in row_deg)]
    for j in range(n):
        idx = [str(int(i) + 1) for i in np.nonzero(H[:, j])[0]]
        idx += ["0"] * (dv_max - len(idx))
        lines.append(" ".join(idx))
    for i in range(m):
        idx = [str(int(j) + 1) for j in np.nonzero(H[i])[0]]
        idx += ["0"] * (dc_max - len(idx))
        lines.append(" ".join(idx))
    return "\n".join(lines) + "\n"


def _digest(values) -> str:
    """12 hex digits naming an integer array by its shape and entries."""
    a = np.ascontiguousarray(values, dtype="<i8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:12]


def code_from_alist(text, name=None) -> CodeSpec:
    """The code of an alist parity-check matrix; without a name it is
    `alist-<digest of H>`, so the id follows the matrix, not the file."""
    H = load_alist(text)
    return CodeSpec.from_parity(name or f"alist-{_digest(H)}", H)


def ldpc_64_32() -> CodeSpec:
    """The bundled (64, 32) regular LDPC code (column weight 3)."""
    text = importlib.resources.files("friendlyfec").joinpath("data/ldpc_64_32.alist").read_text()
    return code_from_alist(text, name="ldpc_64_32")


# ---------------------------------------------------------------------------
# polar codes
# ---------------------------------------------------------------------------

def bhattacharyya_recursion(n: int, z0: float) -> np.ndarray:
    """Bhattacharyya parameters of the n synthesized channels, natural order.

    One recursion level maps a parent parameter z to the degraded child
    2z - z^2 (even slot) and the upgraded child z^2 (odd slot).
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of 2, got {n}")
    if not 0.0 <= z0 <= 1.0:
        raise ValueError("initial Bhattacharyya parameter must lie in [0, 1]")
    z = np.array([float(z0)])
    while len(z) < n:
        nxt = np.empty(2 * len(z))
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


def design_z0(design_ebn0_db: float, rate: float) -> float:
    """Initial Bhattacharyya parameter exp(-Es/N0) for a BPSK AWGN design."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    return float(np.exp(-rate * checks.decibels("design_ebn0_db", design_ebn0_db)))


def polar_bhattacharyya(n: int, design_ebn0_db: float, rate: float) -> np.ndarray:
    """Channel reliabilities for an n-channel polar transform at a design SNR.

    The rate enters through Es/N0 = rate * Eb/N0, so it must be passed
    explicitly (normally k/n of the code under construction).
    """
    return bhattacharyya_recursion(n, design_z0(design_ebn0_db, rate))


def kron_power(m: int) -> np.ndarray:
    """The m-fold Kronecker power of [[1,0],[1,1]] over GF(2)."""
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    M = F
    for _ in range(m - 1):
        M = np.kron(M, F)
    return M


def polar_construct(n: int, k: int, design_ebn0_db: float) -> CodeSpec:
    """Polar code with the n - k least reliable inputs frozen.

    Frozen indices are those with the largest Bhattacharyya parameters
    (ties freeze the lower index); the name ends in a digest of them, since
    the design SNR can change them. A design whose parameters tie at the
    frozen/information boundary is rejected, as rounding alone would decide
    which input is frozen. G takes the non-frozen rows of the
    polar transform; H takes its frozen columns, transposed, which is a
    parity basis because the transform is its own inverse over GF(2).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of 2 >= 2, got {n}")
    if not 0 < k <= n:
        raise ValueError(f"k must lie in (0, n], got {k}")
    z = polar_bhattacharyya(n, design_ebn0_db, rate=k / n)
    order = np.argsort(-z, kind="stable")  # decreasing z, ties by lower index
    if k < n and z[order[n - k - 1]] == z[order[n - k]]:
        raise ValueError(f"design_ebn0_db = {design_ebn0_db} ties the Bhattacharyya parameters "
                         f"at the frozen/information boundary of the ({n}, {k}) polar code")
    frozen = tuple(sorted(int(i) for i in order[: n - k]))
    info = sorted(set(range(n)) - set(frozen))
    m = n.bit_length() - 1
    M = kron_power(m)
    G = M[info, :]
    if k == n:
        # no frozen inputs: every word is a codeword, checked by a zero row
        H = np.zeros((1, n), dtype=np.uint8)
    else:
        H = M[:, list(frozen)].T.copy()
    return CodeSpec.from_parity(f"polar_{n}_{k}_{_digest(frozen)}", H, frozen=frozen, G=G)


# ---------------------------------------------------------------------------
# small reference codes
# ---------------------------------------------------------------------------

def repetition_code(n: int) -> CodeSpec:
    """(n, 1) repetition code; its Tanner graph is a cycle-free chain."""
    if n < 2:
        raise ValueError("repetition length must be >= 2")
    H = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        H[i, i] = 1
        H[i, i + 1] = 1
    return CodeSpec.from_parity(f"repetition_{n}", H)


def hamming_7_4() -> CodeSpec:
    """The (7, 4) Hamming code; columns of H are the binary numbers 1..7."""
    H = np.array([
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ], dtype=np.uint8)
    return CodeSpec.from_parity("hamming_7_4", H)


def uncoded(n: int) -> CodeSpec:
    """Rate-1 pass-through code (k = n); useful as an uncoded BPSK proxy."""
    H = np.zeros((1, n), dtype=np.uint8)
    return CodeSpec.from_parity(f"uncoded_{n}", H, G=np.eye(n, dtype=np.uint8))
