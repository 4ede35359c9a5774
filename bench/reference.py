"""Reference computations written apart from friendlyfec.

The benchmark checks the program's outputs against these. They use plain
loops and textbook formulas, and import nothing from the package.
"""

from __future__ import annotations

import math

import numpy as np


def syndrome_ok(hard, H) -> np.ndarray:
    """True where every parity check of H holds; `hard` is (..., n) bits."""
    bits = np.asarray(hard).astype(np.int64)
    return np.all((bits @ np.asarray(H, dtype=np.int64).T) % 2 == 0, axis=-1)


def encode(messages, G) -> np.ndarray:
    """Codewords m G over GF(2) for (batch, k) message bits."""
    return ((np.asarray(messages, dtype=np.int64) @ np.asarray(G, dtype=np.int64)) % 2
            ).astype(np.uint8)


def ebn0_to_sigma(ebn0_db: float, rate: float) -> float:
    """BPSK noise std per real dimension at unit symbol energy."""
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def sigma_to_ebn0(sigma: float, rate: float) -> float:
    return -10.0 * math.log10(2.0 * rate * sigma * sigma)


def uncoded_bpsk_ber(ebn0_db: float) -> float:
    """Bit error rate of uncoded BPSK on AWGN: 0.5 erfc(sqrt(Eb/N0))."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


def _clip(value: float, clamp: float) -> float:
    return min(max(value, -clamp), clamp)


def sum_product(llr, H, iters: int, clamp: float, early_stop: bool = False) -> np.ndarray:
    """Flooding sum-product decoding of one frame, written as plain loops.

    The clamp rule: every variable-to-check message (the channel LLR in the
    first iteration, the output LLR minus the edge's own incoming check
    message after that) and every check-to-variable message
    2 atanh(prod of tanh(m / 2) over the check's other edges) is clipped to
    [-clamp, clamp]. The output LLR of a variable is its channel LLR plus
    the sum of its clipped incoming check messages, taken in check order.
    With `early_stop`, decoding ends after the first iteration whose hard
    decision satisfies every check.

    Returns the output LLRs of each iteration run, shape (iterations, n).
    """
    H = np.asarray(H)
    m_checks, n = H.shape
    llr = [float(v) for v in llr]
    check_vars = [[int(v) for v in np.flatnonzero(H[c])] for c in range(m_checks)]
    var_checks = [[int(c) for c in np.flatnonzero(H[:, v])] for v in range(n)]

    v2c = {(c, v): _clip(llr[v], clamp) for c in range(m_checks) for v in check_vars[c]}
    soft = []
    for _ in range(iters):
        c2v = {}
        for c in range(m_checks):
            for v in check_vars[c]:
                prod = 1.0
                for w in check_vars[c]:
                    if w != v:
                        prod *= math.tanh(v2c[(c, w)] / 2.0)
                if prod >= 1.0:
                    u = math.inf
                elif prod <= -1.0:
                    u = -math.inf
                else:
                    u = 2.0 * math.atanh(prod)
                c2v[(c, v)] = _clip(u, clamp)
        out = []
        for v in range(n):
            total = 0.0
            for c in var_checks[v]:
                total += c2v[(c, v)]
            out.append(llr[v] + total)
        soft.append(out)
        if early_stop and syndrome_ok(np.array(out) < 0, H):
            break
        v2c = {(c, v): _clip(out[v] - c2v[(c, v)], clamp) for (c, v) in c2v}
    return np.array(soft)


def central_difference(func, x, h: float) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / 2h for every coordinate i of a 1-D x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (func(x + step) - func(x - step)) / (2.0 * h)
    return grad
