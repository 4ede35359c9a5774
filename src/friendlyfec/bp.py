"""Differentiable sum-product decoding on Tanner graphs.

The forward pass runs a flooding schedule and records pre-clamp messages on
a tape; the backward pass replays the tape in reverse and returns the exact
gradient of the decoding loss with respect to the input LLRs. Message
clamping differentiates as the identity inside the bound and zero outside.

All internals are batched: a decode over B frames runs as (..., B) arrays,
and every lane's result is independent of which other lanes share the
batch (elementwise ops plus reductions along per-lane axes only, each
summed in a fixed slot order), which is what makes Monte Carlo counts
reproducible under any worker split.

`Receiver` holds the decoder of one code and is the one decode entry of
Monte Carlo, the search and the gradient check. It calls `decode_blocks`,
which decodes a large batch in blocks of `BLOCK_LANES` lanes, so the work
arrays and the tape stay cache-sized. A decode call builds one set of work
arrays for a full block and reuses it for every block's forward and
backward pass, writing each step into it with `out=`, so the arrays are
allocated and faulted in once per call rather than once per use; the next
block overwrites a block's tape once its gradient is taken. Since a lane's
result does not depend on the other lanes of its batch, the blocked
outputs and gradients equal those of one unblocked decode bit for bit.

Inside the kernel the messages are laid out edge-major with the lanes
last: per-edge arrays are (E, lanes), per-slot arrays (degree, checks,
lanes) and per-variable arrays (n, lanes). A gather or scatter between
edges and slots then copies whole rows, and each step of a check node's
scans multiplies contiguous (checks, lanes) planes. `bp_forward`
transposes its (B, n) LLRs in once, and the soft outputs and gradients
leave as (B, n) transposed views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2

DEFAULT_CLAMP = 20.0
# lanes per decode block: (128, E) float64 work arrays stay in cache, and
# the tape of a BP-5 block of the bundled code is about 2 MB
BLOCK_LANES = 128
_LOG_PROB_FLOOR = float(np.log(1e-12))


@dataclass(frozen=True)
class DecoderConfig:
    iters: int
    clamp: float = DEFAULT_CLAMP
    loss_mode: str = "final"  # "final" | "multiloss"

    def __post_init__(self):
        iters = self.iters  # a numpy integer is an integer; a bool is not
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
            raise ValueError(f"iteration count must be an integer >= 0, got {iters!r}")
        # a Python int, so repr (hashed into Monte Carlo digests) ignores the type given
        object.__setattr__(self, "iters", int(iters))
        if not 0 < self.clamp < np.inf:
            raise ValueError(f"clamp must be positive and finite, got {self.clamp!r}")
        if self.loss_mode not in ("final", "multiloss"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")


class TannerGraph:
    """Bipartite check/variable adjacency of a parity-check matrix.

    Edges are indexed in the row-major order of H's nonzeros. For vectorized
    node updates, each side keeps a (nodes, max_degree) table of edge ids
    padded with the sentinel `n_edges`, which points at a neutral pad slot
    appended to per-edge arrays. `edge_slot` inverts the check table: edge
    e sits at position `edge_slot[e]` of the flattened (max_degree, checks)
    transposed table, the order of the decoder's slot arrays.
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
        slots = self.check_edges.T.reshape(-1)
        real = slots < self.n_edges
        self.edge_slot = np.empty(self.n_edges, dtype=np.int64)
        self.edge_slot[slots[real]] = np.flatnonzero(real)

    def syndrome_ok(self, hard_bits) -> np.ndarray:
        """True where H x = 0; accepts (n,) or (B, n) bit arrays.

        Each check XORs the bits gathered through `check_vars`, with the
        lanes last, so the decoder's transposed decisions are read row by row.
        """
        x = np.asarray(hard_bits)
        if x.shape[-1:] != (self.n_var,):
            raise ValueError(f"bit array shape {x.shape} does not match {self.n_var} variables")
        padded = np.zeros((self.n_var + 1,) + x.shape[:-1], dtype=np.uint8)
        padded[:-1] = np.moveaxis(x, -1, 0)
        parity = np.bitwise_xor.reduce(padded.take(self.check_vars.T, axis=0), axis=0)
        return ~np.any(parity & 1, axis=0)


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
    v2c_pre: list[np.ndarray]    # T x (E, B)
    c2v_pre: list[np.ndarray]    # T x (E, B)
    soft: list[np.ndarray]       # T x (B, n), transposed views of (n, B) planes
    squeeze: bool


@dataclass
class BpOutput:
    """Per-iteration soft outputs and the tape; bit decisions are the caller's (soft[-1] < 0)."""

    soft: np.ndarray             # (iters, n) or (iters, B, n)
    tape: BpTape | None

    @property
    def iterations(self) -> int:
        return len(self.soft)


class _WorkSet:
    """Work arrays of one decode call, lanes last and sized for `lanes` lanes.

    Per-edge arrays are (E, lanes), per-slot arrays (degree, checks, lanes)
    and per-variable arrays (n, lanes); `soft`, `v2c`, `u` and `c2v` stack
    such arrays along a leading axis. A batch of k < lanes lanes, such as
    a short last block or the lanes early stopping leaves running, uses
    `_lanes(array, k)`: the leading elements of the array's buffer shaped
    (..., k), which stay C-contiguous. Reusing one set across a call's
    blocks keeps the large arrays mapped and faulted in; a set is never
    shared between calls, so what a call returns is overwritten only by
    later blocks of the same call. `iters` and `taped` size the
    per-iteration soft outputs and the message arrays the tape keeps;
    without a tape one slot is reused.
    """

    def __init__(self, graph: TannerGraph, lanes: int, iters: int = 1, taped: bool = False):
        E, n = graph.n_edges, graph.n_var
        slots = graph.check_edges.T.shape + (lanes,)
        kept = iters if taped else 1
        self.soft = np.empty((iters, n, lanes))
        self.v2c = np.empty((kept, E, lanes))   # pre-clamp variable-to-check messages
        self.u = np.empty((kept, E, lanes))     # pre-clamp check-to-variable messages
        self.c2v = np.empty((2, E, lanes))      # two, so early stop compacts one into the other
        self.t, self.d_w, self.d_u, self.tmp = (np.empty((E, lanes)) for _ in range(4))
        self.inside = np.empty((E, lanes), dtype=bool)
        self.pad = np.empty((E + 1, lanes))     # gather and per-variable sum scratch
        self.tg, self.pre, self.suf, self.prod, self.q, self.left, self.right = (
            np.empty(slots) for _ in range(7))
        self.scan = np.empty(slots[1:])
        self.llr, self.marg, self.total, self.term = (np.empty((n, lanes)) for _ in range(4))


def _lanes(work_array, k):
    """The leading k lanes of a (..., lanes) work array, as a C-contiguous (..., k) view."""
    if k == work_array.shape[-1]:
        return work_array
    rows = work_array.shape[:-1]
    return work_array.reshape(-1)[:work_array.size // work_array.shape[-1] * k].reshape(rows + (k,))


def _gather(per_edge, table, pad_value, padded, out):
    """(E, k) edge values -> (degree, nodes, k) slots in `out`, pads filled with pad_value.

    `table` is a (nodes, degree) edge table and `padded` (E + 1, k)
    scratch, so each slot is a copy of whole rows. Indices are valid by
    construction, so `mode="clip"` only spares `take` the copy
    `mode="raise"` makes of `out`.
    """
    padded[:-1] = per_edge
    padded[-1] = pad_value
    return padded.take(table.T, axis=0, out=out, mode="clip")

def _scatter(per_slot, graph, out):
    """Inverse of _gather over the check table: slot values -> (E, k) edge values in `out`."""
    return per_slot.reshape(-1, per_slot.shape[-1]).take(graph.edge_slot, axis=0, out=out,
                                                         mode="clip")

def _sum_per_var(per_edge, graph, work):
    """(E, k) edge values -> (n, k) per-variable sums, in `work.total`.

    Slots are gathered and added one at a time, each a copy of whole rows,
    in slot order, so a lane's sum is the same in a batch of any size.
    """
    k = per_edge.shape[1]
    padded, total, term = (_lanes(a, k) for a in (work.pad, work.total, work.term))
    padded[:-1] = per_edge
    padded[-1] = 0.0
    slots = graph.var_edges.T
    padded.take(slots[0], axis=0, out=total, mode="clip")
    for slot in slots[1:]:
        total += padded.take(slot, axis=0, out=term, mode="clip")
    return total


def _check_internals(v2c_pre, clamp, graph, work):
    """Shared check-node quantities: tanh slots, exclusion prefix/suffix, products.

    The messages are clamped first. Exclusion products are built from
    prefix and suffix products, never by division, so zero messages are
    handled exactly. Each is one scan over the check-degree axis, one
    (checks, lanes) plane per step, multiplying in the order `np.cumprod`
    would.
    """
    k = v2c_pre.shape[1]
    t = np.clip(v2c_pre, -clamp, clamp, out=_lanes(work.t, k))
    t *= 0.5
    np.tanh(t, out=t)
    tg = _gather(t, graph.check_edges, 1.0, _lanes(work.pad, k), _lanes(work.tg, k))
    pre, suf = _lanes(work.pre, k), _lanes(work.suf, k)
    pre[0] = 1.0
    for i in range(1, len(tg)):
        np.multiply(pre[i - 1], tg[i - 1], out=pre[i])
    suf[-1] = 1.0
    for i in range(len(tg) - 2, -1, -1):
        np.multiply(suf[i + 1], tg[i + 1], out=suf[i])
    return t, tg, pre, suf, np.multiply(pre, suf, out=_lanes(work.prod, k))


def bp_forward(llr, graph: TannerGraph, iters: int, clamp: float = DEFAULT_CLAMP,
               early_stop: bool = False, record_tape: bool = True,
               work: _WorkSet | None = None) -> BpOutput:
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

    The soft outputs and the tape live in `work`, which `decode_blocks`
    passes to reuse across its blocks; without one a fresh set is built,
    so the outputs alias nothing. The outputs are transposed views of the
    set's (n, lanes) planes.
    """
    L = np.asarray(llr, dtype=np.float64)
    squeeze = L.ndim == 1
    if squeeze:
        L = L[None, :]
    if L.ndim != 2 or L.shape[1] != graph.n_var:
        raise ValueError(f"LLR shape {L.shape} does not match {graph.n_var} variables")
    if not len(L):
        raise ValueError("the LLR batch is empty: bp_forward needs at least one frame")
    if not np.all(np.isfinite(L)):
        raise ValueError("input LLRs must be finite")
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    if not 0 < clamp < np.inf:
        raise ValueError(f"clamp must be positive and finite, got {clamp!r}")
    if early_stop and record_tape:
        raise ValueError("early stopping would make the tape input-dependent; disable one")

    B, n = L.shape
    if work is None:
        work = _WorkSet(graph, B, iters, record_tape)
    evar = graph.edge_var
    tape = BpTape(graph, clamp, L, [], [], [], squeeze) if record_tape else None

    # (iters, n, B), each iteration's plane C-contiguous; `out` is its (iters, B, n) view
    soft = work.soft.reshape(iters, -1)[:, :n * B].reshape(iters, n, B)
    out = soft.transpose(0, 2, 1)
    L_t = _lanes(work.llr, B)
    L_t[...] = L.T
    v2c_pre = L_t.take(evar, axis=0, out=_lanes(work.v2c[0], B), mode="clip")
    lanes = np.arange(B)  # batch columns of L_t, c2v and marg (early stop drops converged ones)
    side = 0              # which of the two c2v arrays holds the messages
    for it in range(iters):
        k = len(lanes)
        prod = _check_internals(v2c_pre, clamp, graph, work)[-1]
        u = _scatter(prod, graph, _lanes(work.u[it if record_tape else 0], k))
        with np.errstate(divide="ignore"):  # +-inf only for degree-1 checks
            np.arctanh(u, out=u)
        u *= 2.0
        c2v = np.clip(u, -clamp, clamp, out=_lanes(work.c2v[side], k))
        total = _sum_per_var(c2v, graph, work)
        if k == B:  # every lane still runs: the output plane is the marginal
            marg = np.add(L_t, total, out=soft[it])
        else:
            soft[it] = soft[it - 1]  # converged lanes repeat their last output
            marg = np.add(L_t, total, out=_lanes(work.marg, k))
            soft[it][:, lanes] = marg
        if record_tape:
            tape.v2c_pre.append(v2c_pre)
            tape.c2v_pre.append(u)
            tape.soft.append(out[it])  # a view: each output is stored once
        if it + 1 == iters:
            break
        if early_stop:
            done = graph.syndrome_ok((marg < 0).T)
            if done.all():
                break
            if done.any():
                run = np.flatnonzero(~done)
                lanes, L_t, marg = lanes[run], L_t[:, run], marg[:, run]
                side = 1 - side
                c2v = c2v.take(run, axis=1, out=_lanes(work.c2v[side], len(lanes)), mode="clip")
        v2c_pre = marg.take(evar, axis=0, mode="clip",
                            out=_lanes(work.v2c[it + 1 if record_tape else 0], len(lanes)))
        v2c_pre -= c2v

    return BpOutput(out[:it + 1, 0] if squeeze else out[:it + 1], tape)


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
    soft = np.ascontiguousarray(out.soft)  # each lane's BCE sums one contiguous row
    squeeze = soft.ndim == 2
    x = _target_array(target, soft.shape[-1])
    if mode == "final":
        loss = _bce(soft[-1], x)
    else:
        loss = np.mean([_bce(s, x) for s in soft], axis=0)
    return float(loss) if squeeze else loss


def bp_backward(tape: BpTape, target, mode: str = "final",
                work: _WorkSet | None = None) -> np.ndarray:
    """Exact gradient of bp_loss(bp_forward(L), target) with respect to L.

    Replays the taped messages in reverse. The atanh/tanh adjoints reuse
    the forward's exclusion-product structure; the double-exclusion sums
    needed for d(loss)/d(tanh term) are built with two linear scans along
    each check's edge list, again without division. Temporaries live in
    `work` (a fresh set when none is given); the tape is only read.
    """
    if tape is None:
        raise ValueError("forward pass was run without a tape")
    if mode not in ("final", "multiloss"):
        raise ValueError(f"unknown loss mode {mode!r}")
    graph, clamp = tape.graph, tape.clamp
    B, n = tape.input_llr.shape
    T = len(tape.soft)
    evar = graph.edge_var
    x = _target_array(target, n)
    if x.ndim == 2 and x.shape[0] != B:
        raise ValueError("target batch size does not match the tape")
    x = np.atleast_2d(x).T  # (n, 1), or (n, B) with one target per lane
    if work is None:
        work = _WorkSet(graph, B)
    tmp, inside, d_u = (_lanes(a, B) for a in (work.tmp, work.inside, work.d_u))
    q, left, right, scan = (_lanes(a, B) for a in (work.q, work.left, work.right, work.scan))

    dL = np.zeros((n, B))
    # gradient w.r.t. the pre-clamp v2c messages w_t = marg_t[edge var] - c2v_t
    # that iteration t+1 read; nothing reads the last iteration's
    d_w = _lanes(work.d_w, B)
    d_w.fill(0.0)
    for t in range(T - 1, -1, -1):
        soft = tape.soft[t].T
        if mode == "final":
            d_loss = _bce_grad(soft, x) if t == T - 1 else np.zeros((n, B))
        else:
            d_loss = _bce_grad(soft, x) / T
        d_out = d_loss + _sum_per_var(d_w, graph, work)
        dL += d_out
        d_out.take(evar, axis=0, out=d_u, mode="clip")
        d_u -= d_w                                      # d loss / d c2v

        np.abs(tape.c2v_pre[t], out=tmp)
        d_u *= np.less_equal(tmp, clamp, out=inside)    # d loss / d u
        t_e, tg, pre, suf, prod = _check_internals(tape.v2c_pre[t], clamp, graph, work)
        denom = np.multiply(prod, prod, out=prod)  # the product is not read again
        np.subtract(1.0, denom, out=denom)
        np.copyto(denom, 1.0, where=denom <= 0.0)
        _gather(d_u, graph.check_edges, 0.0, _lanes(work.pad, B), q)
        q *= 2.0
        q /= denom                                      # d loss / d exclusion product

        # g_i = sum_{j != i} q_j * prod_{l != i, j} t_l via left and right scans
        width = len(tg)
        left[0] = 0.0
        for i in range(1, width):
            step = np.multiply(left[i - 1], tg[i - 1], out=left[i])
            step += np.multiply(q[i - 1], pre[i - 1], out=scan)
        right[-1] = 0.0
        for i in range(width - 2, -1, -1):
            step = np.multiply(right[i + 1], tg[i + 1], out=right[i])
            step += np.multiply(q[i + 1], suf[i + 1], out=scan)
        left *= suf
        right *= pre
        left += right
        _scatter(left, graph, d_w)
        d_w *= 0.5
        np.multiply(t_e, t_e, out=tmp)
        d_w *= np.subtract(1.0, tmp, out=tmp)
        np.abs(tape.v2c_pre[t], out=tmp)
        d_w *= np.less_equal(tmp, clamp, out=inside)

    dL += _sum_per_var(d_w, graph, work)  # iteration-0 messages copy L
    return dL[:, 0] if tape.squeeze else dL.T


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
    work = _WorkSet(graph, min(len(L), BLOCK_LANES), decoder.iters, taped)
    for lo in range(0, len(L), BLOCK_LANES):
        block = slice(lo, lo + BLOCK_LANES)
        out = bp_forward(L[block], graph, decoder.iters, decoder.clamp,
                         early_stop=early_stop, record_tape=taped, work=work)
        soft[block] = out.soft[-1]
        if taped:
            if not np.all(np.isfinite(soft[block])):
                raise RuntimeError("decoder produced non-finite soft output during the search")
            grad[block] = bp_backward(out.tape, target, decoder.loss_mode, work=work)
    return soft, grad


class Receiver:
    """BP decoding of one code under one `DecoderConfig`; it pickles, for worker processes."""

    def __init__(self, code, decoder: DecoderConfig):
        self.code, self.decoder = code, decoder
        self.graph, self.target = TannerGraph(code.H), np.zeros(code.n)  # all-zero design word

    def decode(self, llr, early_stop: bool = False, gradient: bool = False):
        """Message bits (B, k) of (B, n) LLRs, and d(loss)/d(LLR) against the all-zero
        codeword or None; with no iterations, the bits of the LLR signs and no gradient."""
        soft, grad = llr, None
        if self.decoder.iters:
            soft, grad = decode_blocks(llr, self.graph, self.decoder, early_stop,
                                       self.target if gradient else None)
        return self.code.message_from_codeword((soft < 0).astype(np.uint8)), grad

    def loss(self, llr):
        """The loss of an untaped decode: what the finite-difference oracle differentiates."""
        out = bp_forward(llr, self.graph, self.decoder.iters, self.decoder.clamp, record_tape=False)
        return bp_loss(out, self.target, self.decoder.loss_mode)


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
