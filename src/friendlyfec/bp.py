"""Differentiable sum-product decoding on Tanner graphs.

The forward pass runs a flooding schedule and records pre-clamp messages on
a tape; the backward pass replays the tape in reverse and returns the exact
gradient of the decoding loss with respect to the input LLRs. Message
clamping differentiates as the identity inside the bound and zero outside.

All internals are batched: a decode over B frames runs as (B, ...) arrays,
and every lane's result is independent of which other lanes share the
batch (elementwise ops plus reductions along per-lane axes only, each
summed in a fixed slot order), which is what makes Monte Carlo counts
reproducible under any worker split.

`decode_blocks` is the entry point of the search and of Monte Carlo. It
decodes a large batch in blocks of `BLOCK_LANES` lanes, so the (lanes,
edges) temporaries and the tape stay cache-sized and each block's tape is
dropped once its gradient is taken. Since a lane's result does not depend
on the other lanes of its batch, the blocked outputs and gradients equal
those of one unblocked decode bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2

DEFAULT_CLAMP = 20.0
# lanes per decode block: (128, E) float64 temporaries stay in cache, and
# the tape of a BP-5 block of the bundled code is about 2 MB
BLOCK_LANES = 128
_LOG_PROB_FLOOR = float(np.log(1e-12))


@dataclass(frozen=True)
class DecoderConfig:
    iters: int
    clamp: float = DEFAULT_CLAMP
    loss_mode: str = "final"  # "final" | "multiloss"

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError("iteration count must be >= 0")
        if not 0 < self.clamp < np.inf:
            raise ValueError(f"clamp must be positive and finite, got {self.clamp!r}")
        if self.loss_mode not in ("final", "multiloss"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")


class TannerGraph:
    """Bipartite check/variable adjacency of a parity-check matrix.

    Edges are indexed in the row-major order of H's nonzeros. For vectorized
    node updates, each side keeps a (nodes, max_degree) table of edge ids
    padded with the sentinel `n_edges`, which points at a neutral pad slot
    appended to per-edge arrays.
    """

    def __init__(self, H):
        H = gf2.as_bitmatrix(H)
        self.H = H
        self.n_check, self.n_var = H.shape
        check_idx, var_idx = np.nonzero(H)
        self.edge_check = check_idx.astype(np.int64)
        self.edge_var = var_idx.astype(np.int64)
        self.n_edges = int(len(self.edge_check))
        self.check_edges = _group_table(self.edge_check, self.n_check, self.n_edges)
        self.var_edges = _group_table(self.edge_var, self.n_var, self.n_edges)
        # (checks, max_degree) variable ids; pads read a zero column at n_var
        self.check_vars = np.append(self.edge_var, self.n_var)[self.check_edges]

    def syndrome_ok(self, hard_bits) -> np.ndarray:
        """True where H x = 0; accepts (n,) or (B, n) bit arrays.

        Each check XORs the bits gathered through `check_vars`.
        """
        x = np.asarray(hard_bits)
        if x.shape[-1:] != (self.n_var,):
            raise ValueError(f"bit array shape {x.shape} does not match {self.n_var} variables")
        padded = np.zeros(x.shape[:-1] + (self.n_var + 1,), dtype=np.uint8)
        padded[..., :-1] = x
        parity = np.bitwise_xor.reduce(padded[..., self.check_vars], axis=-1)
        return ~np.any(parity & 1, axis=-1)


def _group_table(owner, n_groups, sentinel) -> np.ndarray:
    counts = np.bincount(owner, minlength=n_groups) if len(owner) else np.zeros(n_groups, dtype=np.int64)
    width = max(int(counts.max()) if counts.size else 0, 1)
    table = np.full((n_groups, width), sentinel, dtype=np.int64)
    if len(owner):
        order = np.argsort(owner, kind="stable")
        sorted_owner = owner[order]
        starts = np.searchsorted(sorted_owner, np.arange(n_groups))
        slot = np.arange(len(owner)) - starts[sorted_owner]
        table[sorted_owner, slot] = order
    return table


@dataclass
class BpTape:
    """Per-iteration message record enabling the reverse pass.

    `v2c_pre` / `c2v_pre` hold the pre-clamp variable-to-check and
    check-to-variable messages per iteration; `soft` the per-iteration
    output LLRs. Entries are appended during the forward pass only.
    """

    graph: TannerGraph
    clamp: float
    input_llr: np.ndarray        # (B, n), not copied: the reverse pass reads its shape only
    v2c_pre: list[np.ndarray]    # T x (B, E)
    c2v_pre: list[np.ndarray]    # T x (B, E)
    soft: list[np.ndarray]       # T x (B, n)
    squeeze: bool


@dataclass
class BpOutput:
    """Per-iteration soft outputs and the tape; bit decisions are the caller's (soft[-1] < 0)."""

    soft: np.ndarray             # (iters, n) or (iters, B, n)
    tape: BpTape | None

    @property
    def iterations(self) -> int:
        return len(self.soft)


def _gather(per_edge, table, pad_value):
    """(B, E) edge values -> (B, nodes, degree) slots, pads filled with pad_value."""
    B = per_edge.shape[0]
    padded = np.concatenate([per_edge, np.full((B, 1), pad_value)], axis=1)
    return padded[:, table]

def _scatter(per_slot, table, n_edges):
    """Inverse of _gather: slot values back to (B, E); pad slots are dropped."""
    B = per_slot.shape[0]
    out = np.empty((B, n_edges + 1))
    out[:, table.reshape(-1)] = per_slot.reshape(B, -1)
    return out[:, :n_edges]

def _sum_per_var(per_edge, graph):
    """(B, E) edge values -> (B, n) per-variable sums.

    Slots are added one at a time, in slot order, so a lane's sum is the
    same in a batch of any size; numpy's `sum` over the slots adds a lone
    lane's in another order than a batch's and rounds differently.
    """
    padded = np.concatenate([per_edge, np.zeros((per_edge.shape[0], 1))], axis=1)
    slots = graph.var_edges.T
    total = padded[:, slots[0]]
    for slot in slots[1:]:
        total += padded[:, slot]
    return total


def _check_internals(m_clamped, graph):
    """Shared check-node quantities: tanh slots, exclusion prefix/suffix, products.

    Exclusion products are built from prefix and suffix products, never by
    division, so zero messages are handled exactly. Each is one scan along
    the short check-degree axis, multiplying in the order `np.cumprod` would.
    """
    t = np.tanh(0.5 * m_clamped)
    tg = _gather(t, graph.check_edges, 1.0)
    width = tg.shape[-1]
    pre = np.empty_like(tg)
    suf = np.empty_like(tg)
    pre[..., 0] = 1.0
    for i in range(1, width):
        np.multiply(pre[..., i - 1], tg[..., i - 1], out=pre[..., i])
    suf[..., -1] = 1.0
    for i in range(width - 2, -1, -1):
        np.multiply(suf[..., i + 1], tg[..., i + 1], out=suf[..., i])
    return t, tg, pre, suf, pre * suf


def bp_forward(llr, graph: TannerGraph, iters: int, clamp: float = DEFAULT_CLAMP,
               early_stop: bool = False, record_tape: bool = True) -> BpOutput:
    """Sum-product decoding with a flooding schedule.

    Per iteration: check-to-variable messages 2 atanh(prod tanh(m/2)) over
    the other edges of the check, output LLR = input + sum of incoming
    check messages, and next variable-to-check messages = output minus the
    edge's own incoming message. Messages are clamped to [-clamp, clamp].

    With `early_stop`, a frame stops decoding once its hard decision
    satisfies the syndrome and repeats that output in every later
    iteration, so its result equals a standalone early-stopped decode
    regardless of batch composition; only unconverged frames are computed.
    Recording a tape (for gradients) and early stopping are mutually
    exclusive.
    """
    L = np.asarray(llr, dtype=np.float64)
    squeeze = L.ndim == 1
    if squeeze:
        L = L[None, :]
    if L.ndim != 2 or L.shape[1] != graph.n_var:
        raise ValueError(f"LLR shape {L.shape} does not match {graph.n_var} variables")
    if not np.all(np.isfinite(L)):
        raise ValueError("input LLRs must be finite")
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    if not 0 < clamp < np.inf:
        raise ValueError(f"clamp must be positive and finite, got {clamp!r}")
    if early_stop and record_tape:
        raise ValueError("early stopping would make the tape input-dependent; disable one")

    B = L.shape[0]
    evar = graph.edge_var
    tape = BpTape(graph, clamp, L, [], [], [], squeeze) if record_tape else None

    v2c_pre = L[:, evar]
    m = np.clip(v2c_pre, -clamp, clamp)
    soft = np.empty((iters, B, graph.n_var))
    lanes = np.arange(B)  # batch rows of L, c2v and marg (early stop drops converged ones)
    for it in range(iters):
        prod = _check_internals(m, graph)[-1]
        with np.errstate(divide="ignore"):  # +-inf only for degree-1 checks
            u = 2.0 * np.arctanh(_scatter(prod, graph.check_edges, graph.n_edges))
        c2v = np.clip(u, -clamp, clamp)
        marg = L + _sum_per_var(c2v, graph)
        soft[it, lanes] = marg
        if record_tape:
            tape.v2c_pre.append(v2c_pre)
            tape.c2v_pre.append(u)
            tape.soft.append(soft[it])  # a view: each output is stored once
        if it + 1 == iters:
            break
        if early_stop:
            done = graph.syndrome_ok(marg < 0)
            if done.all():
                break
            if done.any():
                soft[it + 1:, lanes[done]] = marg[done]  # converged lanes repeat their output
                lanes, L, c2v, marg = lanes[~done], L[~done], c2v[~done], marg[~done]
        v2c_pre = marg[:, evar] - c2v
        m = np.clip(v2c_pre, -clamp, clamp)

    return BpOutput(soft[:it + 1, 0] if squeeze else soft[:it + 1], tape)


# ---------------------------------------------------------------------------
# loss and reverse pass
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _bce(soft, target_bits):
    """Binary cross-entropy per lane under the L > 0 => bit 0 convention.

    Probabilities are floored at 1e-12 before the log, matching the
    gradient's flat region outside the floor.
    """
    x = target_bits
    logp1 = -np.logaddexp(0.0, soft)    # log Pr(bit = 1)
    logp0 = -np.logaddexp(0.0, -soft)   # log Pr(bit = 0)
    terms = x * np.maximum(logp1, _LOG_PROB_FLOOR) + (1.0 - x) * np.maximum(logp0, _LOG_PROB_FLOOR)
    return -terms.sum(axis=-1)


def _bce_grad(soft, target_bits):
    x = target_bits
    logp1 = -np.logaddexp(0.0, soft)
    logp0 = -np.logaddexp(0.0, -soft)
    g1 = x * _sigmoid(soft) * (logp1 > _LOG_PROB_FLOOR)
    g0 = (1.0 - x) * _sigmoid(-soft) * (logp0 > _LOG_PROB_FLOOR)
    return g1 - g0


def _target_array(target, n_var):
    x = np.asarray(target, dtype=np.float64)
    if x.shape[-1] != n_var:
        raise ValueError(f"target length {x.shape[-1]} does not match {n_var} variables")
    return x


def bp_loss(out: BpOutput, target, mode: str = "final"):
    """BCE between the decoder's soft output and a target codeword.

    "final" scores the last iteration; "multiloss" averages the BCE across
    iterations. Returns a scalar for single-frame input, else (B,).
    """
    if mode not in ("final", "multiloss"):
        raise ValueError(f"unknown loss mode {mode!r}")
    soft = out.soft
    squeeze = soft.ndim == 2
    x = _target_array(target, soft.shape[-1])
    if mode == "final":
        loss = _bce(soft[-1], x)
    else:
        loss = np.mean([_bce(s, x) for s in soft], axis=0)
    return float(loss) if squeeze else loss


def bp_backward(tape: BpTape, target, mode: str = "final") -> np.ndarray:
    """Exact gradient of bp_loss(bp_forward(L), target) with respect to L.

    Replays the taped messages in reverse. The atanh/tanh adjoints reuse
    the forward's exclusion-product structure; the double-exclusion sums
    needed for d(loss)/d(tanh term) are built with two linear scans along
    each check's edge list, again without division.
    """
    if tape is None:
        raise ValueError("forward pass was run without a tape")
    if mode not in ("final", "multiloss"):
        raise ValueError(f"unknown loss mode {mode!r}")
    graph, clamp = tape.graph, tape.clamp
    L = tape.input_llr
    B, n = L.shape
    E = graph.n_edges
    T = len(tape.soft)
    evar = graph.edge_var
    x = _target_array(target, n)
    if x.ndim == 2 and x.shape[0] != B:
        raise ValueError("target batch size does not match the tape")

    dL = np.zeros((B, n))
    # gradient w.r.t. the pre-clamp v2c messages w_t = marg_t[edge var] - c2v_t
    # that iteration t+1 read; nothing reads the last iteration's
    d_w = np.zeros((B, E))
    for t in range(T - 1, -1, -1):
        if mode == "final":
            d_loss = _bce_grad(tape.soft[t], x) if t == T - 1 else np.zeros((B, n))
        else:
            d_loss = _bce_grad(tape.soft[t], x) / T
        d_out = d_loss + _sum_per_var(d_w, graph)
        dL += d_out
        d_c2v = d_out[:, evar] - d_w

        d_u = d_c2v * (np.abs(tape.c2v_pre[t]) <= clamp)
        m_t = np.clip(tape.v2c_pre[t], -clamp, clamp)
        t_e, tg, pre, suf, prod = _check_internals(m_t, graph)
        denom = 1.0 - prod * prod
        safe = np.where(denom > 0.0, denom, 1.0)
        q = _gather(d_u, graph.check_edges, 0.0) * 2.0 / safe  # d loss / d exclusion product

        # g_i = sum_{j != i} q_j * prod_{l != i, j} t_l via left and right scans
        width = tg.shape[-1]
        left = np.zeros_like(q)
        for i in range(1, width):
            left[..., i] = left[..., i - 1] * tg[..., i - 1] + q[..., i - 1] * pre[..., i - 1]
        right = np.zeros_like(q)
        for i in range(width - 2, -1, -1):
            right[..., i] = right[..., i + 1] * tg[..., i + 1] + q[..., i + 1] * suf[..., i + 1]
        d_t = _scatter(suf * left + pre * right, graph.check_edges, E)

        d_w = d_t * 0.5 * (1.0 - t_e * t_e) * (np.abs(tape.v2c_pre[t]) <= clamp)

    dL += _sum_per_var(d_w, graph)  # iteration-0 messages copy L
    return dL[0] if tape.squeeze else dL


def decode_blocks(llr, graph: TannerGraph, decoder: DecoderConfig, early_stop: bool = False,
                  target=None):
    """Decode a (B, n) LLR batch in blocks of `BLOCK_LANES` lanes.

    Each block runs the early-stopped forward (`early_stop`), or the taped
    forward then `bp_backward` against the codeword `target` (n bits, the
    same for every lane) under `decoder.loss_mode`, or else the untaped
    forward. Returns the final soft output (B, n) and d(loss)/d(LLR)
    (B, n), which is None without a target. A block's tape is dropped once
    its gradient is taken, and a block whose soft output is not finite
    raises RuntimeError before its backward pass.
    """
    L = np.asarray(llr, dtype=np.float64)
    if L.ndim != 2 or L.shape[1] != graph.n_var:
        raise ValueError(f"LLR shape {L.shape} does not match {graph.n_var} variables")
    taped = target is not None
    if taped and _target_array(target, graph.n_var).ndim != 1:
        raise ValueError("target must be one codeword, shared by every lane")
    soft = np.empty_like(L)
    grad = np.empty_like(L) if taped else None
    for lo in range(0, len(L), BLOCK_LANES):
        block = slice(lo, lo + BLOCK_LANES)
        out = bp_forward(L[block], graph, decoder.iters, decoder.clamp,
                         early_stop=early_stop, record_tape=taped)
        soft[block] = out.soft[-1]
        if taped:
            if not np.all(np.isfinite(soft[block])):
                raise RuntimeError("decoder produced non-finite soft output during the search")
            grad[block] = bp_backward(out.tape, target, decoder.loss_mode)
        del out  # the block's tape goes before the next block's forward
    return soft, grad


def finite_difference(func, x, h: float = 1e-4, coords=None) -> np.ndarray:
    """Central finite differences of a scalar function at the given coordinates.

    Independent of any analytic gradient path; used as the oracle for
    adjoint checks. Returns the estimates for `coords` (default: all).
    """
    x = np.asarray(x, dtype=np.float64)
    coords = list(range(x.size)) if coords is None else list(coords)
    flat = x.reshape(-1)
    grad = np.zeros(len(coords))
    for out_i, i in enumerate(coords):
        bump = np.zeros_like(flat)
        bump[i] = h
        grad[out_i] = (func((flat + bump).reshape(x.shape)) -
                       func((flat - bump).reshape(x.shape))) / (2.0 * h)
    return grad
