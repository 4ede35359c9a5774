"""Differentiable sum-product decoding on Tanner graphs.

The forward pass runs a flooding schedule and records pre-clamp messages on
a tape; the backward pass replays the tape in reverse and returns the exact
gradient of the decoding loss with respect to the input LLRs. Message
clamping differentiates as the identity inside the bound and zero outside.
Where the check-to-variable messages provably stay inside the clamp (every
check of degree >= 3 and a clamp up to about 28.4, see `_clamp_acts`),
neither pass clips or masks them, and the tape keeps none of them.

All internals are batched: a decode over B frames runs as (..., B) arrays,
and every lane's result is independent of which other lanes share the
batch (elementwise ops plus reductions along per-lane axes only, each
summed in a fixed slot order), which is what makes Monte Carlo counts
reproducible under any worker split.

`Receiver` holds the decoder of one code and is the one decode entry of
Monte Carlo, the search and the gradient check. It calls `decode_blocks`,
which decodes a large batch in blocks, so the work arrays and the tape
stay cache-sized: taped and untaped decodes in blocks of `BLOCK_LANES`
lanes, early-stopped ones in blocks of `EARLY_STOP_LANES`, twice as
wide, so that their syndrome tests, compactions and straggler iterations
are paid once per more lanes. An early-stopped forward compacts its lanes
lazily: converged lanes keep computing at full width, their outputs held,
until at least one eighth of the lanes it computes have converged. Every
block's forward and backward pass writes each step into one set of work
arrays with `out=`, and a receiver keeps one set per decode kind,
early-stopped (untaped) or not (taped), so the arrays are faulted in
once per receiver rather than once per use; the next block overwrites a
block's tape once its gradient is taken. An untaped set holds only what
the forward reads at one time (see `_WorkSet`). Since a lane's result
does not depend on the other lanes of its batch, the blocked outputs and
gradients equal those of one unblocked decode bit for bit, and a caller
with many small batches may stack them into one decode call (up to one
block of `BLOCK_LANES` lanes) and split the results.

Inside the kernel the messages are laid out edge-major with the lanes
last: per-edge arrays are (E, lanes) and per-variable arrays (n, lanes).
The edges are in a packed slot-major order (see `TannerGraph`): edge
slot i of every check of degree > i is one run of rows, whose checks
lead the run of slot i - 1, and the runs hold exactly E rows. The
per-edge arrays are thus the check-slot arrays themselves, with no pads
and no gather or scatter between the two, and each step of a check
node's scans multiplies one contiguous run by the leading rows of its
neighbour's. The sums over each variable's edges gather the rows once
into a like order of variable slots. `bp_forward` transposes its (B, n)
LLRs in once, and the soft outputs and gradients leave as (B, n)
transposed views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks, gf2

DEFAULT_CLAMP = 20.0
# lanes per decode block: (128, E) float64 work arrays stay in cache, and
# the tape of a BP-5 block of the bundled code is about 2 MB
BLOCK_LANES = 128
# lanes per early-stopped decode block: its untaped work set for BP-5 on the
# bundled code is about 2.3 MB, so it stays cache-sized; 512 lanes would double it
EARLY_STOP_LANES = 2 * BLOCK_LANES
# the least 1 - tanh(clamp / 2) at which rounding cannot carry a check-to-variable
# message to the clamp (see `_clamp_acts`): clamps up to about 28.4
_CLAMP_TAIL = 2.0**-40
_LOG_PROB_FLOOR = float(np.log(1e-12))


def check_loss_mode(mode) -> None:
    if mode not in ("final", "multiloss"):
        raise ValueError(f"unknown loss mode {mode!r}")


@dataclass(frozen=True)
class DecoderConfig:
    iters: int
    clamp: float = DEFAULT_CLAMP
    loss_mode: str = "final"  # see check_loss_mode

    def __post_init__(self):
        # a Python int, so repr (hashed into Monte Carlo digests) ignores the type given
        iters = checks.count("iteration count", self.iters, minimum=0)
        object.__setattr__(self, "iters", iters)
        checks.positive("clamp", self.clamp)
        check_loss_mode(self.loss_mode)


class TannerGraph:
    """Bipartite check/variable adjacency of a parity-check matrix.

    `edge_check` and `edge_var` list the edges in the kernel's order, which
    is the row order of the decoder's per-edge arrays: checks sorted by
    descending degree (stably), edge slot i of every check of degree > i
    forms one run of rows, `check_runs[i]`, and the runs follow each other
    with no pads, so slot i's checks are the first rows of slot i-1's run.
    A check's slots keep its edges in H's order. The variable side is laid
    out the same way for the sums over each variable's edges, with each
    variable's slots in H's order too: `var_rows` lists the edge rows with
    variables sorted by descending degree, slot j of the variables of
    degree > j forming the j-th run, `var_runs` holds the run lengths and
    `var_sum_row` the row that holds each variable's sum. `check_vars` is a
    (slots, checks) table of the variables of each check slot, the checks
    in sorted order, whose pads read a zero column at `n_var`, for the
    syndrome test.
    """

    def __init__(self, H):
        H = gf2.as_bitmatrix(H)
        self.H = H
        self.n_check, self.n_var = H.shape
        check_idx, var_idx = np.nonzero(H)  # H's row-major order
        self.n_edges = E = len(check_idx)
        runs, _, rows = _slot_major(check_idx, self.n_check)
        self.edge_check, self.edge_var = check_idx[rows], var_idx[rows]
        stops = np.cumsum(runs).tolist()
        self.check_runs = [slice(stop - run, stop) for run, stop in zip(runs, stops)]
        # (run i, its leading rows: the checks that go on to slot i + 1, run i + 1)
        self.check_steps = [(a, slice(a.start, a.start + b.stop - b.start), b)
                            for a, b in zip(self.check_runs, self.check_runs[1:])]
        self.check_vars = np.full((len(runs), self.n_check), self.n_var, dtype=np.int64)
        for slot, run in zip(self.check_vars, self.check_runs):
            slot[:run.stop - run.start] = self.edge_var[run]

        self.var_runs, var_order, var_edges = _slot_major(var_idx, self.n_var)
        row_of = np.empty(E, dtype=np.int64)  # H's edge -> its row
        row_of[rows] = np.arange(E)
        self.var_rows = row_of[var_edges]
        # where each variable's sum ends up: its place in the sorted order, or the
        # zero row after the E edge rows for a variable on no edge
        self.var_sum_row = np.empty(self.n_var, dtype=np.int64)
        self.var_sum_row[var_order] = np.arange(self.n_var)
        self.var_sum_row[self.var_sum_row >= self.var_runs[0]] = E

    def syndrome_ok(self, hard_bits) -> np.ndarray:
        """True where H x = 0; accepts (n,) or (B, n) arrays of 0/1 entries.

        Each check XORs the bits gathered through `check_vars`, with the
        lanes last. A bool array is neither scanned nor converted, so the
        decoder's decisions, a (B, n) transposed view of its (n, B) plane,
        are read row by row.
        """
        x = gf2.as_bits(hard_bits, "bit array")
        if x.shape[-1:] != (self.n_var,):
            raise ValueError(f"bit array shape {x.shape} does not match {self.n_var} variables")
        planes = x.T  # lanes last; the result is transposed back
        padded = np.empty((self.n_var + 1,) + planes.shape[1:], dtype=bool)
        padded[:-1] = planes
        padded[-1] = False
        parity = np.bitwise_xor.reduce(padded.take(self.check_vars, axis=0), axis=0)
        return (~parity.any(axis=0)).T


def _slot_major(owner, n_nodes):
    """Slot-major order of the edges of `owner` (each edge's node), nodes by descending degree.

    Edge slot i of a node is its i-th edge in `owner`'s order. Returns the
    run lengths (nodes of degree > i, for each slot i; one empty run when
    there are no edges), the sorted node order, and the edge ids run after
    run, the nodes of a run in sorted order.
    """
    degree = np.bincount(owner, minlength=n_nodes)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n_nodes, dtype=np.int64)
    rank[order] = np.arange(n_nodes)
    by_node = np.argsort(rank[owner], kind="stable")  # node after node, each in owner's order
    first = np.cumsum(degree[order]) - degree[order]
    slot = np.arange(len(owner)) - np.repeat(first, degree[order])
    return np.bincount(slot, minlength=1).tolist(), order, by_node[np.argsort(slot, kind="stable")]


def _clamp_acts(graph: TannerGraph, clamp) -> bool:
    """False where no check-to-variable message can reach the clamp, so that clipping
    them, and masking their gradient, leaves every bit as it is.

    Let tau = tanh(clamp / 2) < 1. When every check that has an edge has
    degree >= 3, each exclusion product multiplies at least two tanh terms
    of clipped messages, each of size <= tau, so |u| = 2 atanh|prod| <=
    2 atanh(tau**2) = ln cosh(clamp) < clamp. The gap clamp - ln cosh(clamp)
    lies in (0, ln 2), about clamp (1 - clamp / 2) for small clamps.
    Rounding in the product and in atanh's steep slope near 1 moves u by
    about eps e**clamp / 8, far below the gap while 1 - tau >= 2**-40
    (clamp <= 28.4). Then np.clip(u) returns u bit for bit, the backward's
    |u| <= clamp mask is all True, and 1 - prod**2 > 0. A degree-1 or
    degree-2 check, or a larger clamp, takes the clipped path.
    """
    runs = graph.check_runs  # run i holds the checks of degree > i
    wide = len(runs) > 2 and runs[2].stop - runs[2].start == runs[0].stop - runs[0].start
    return not (wide and 1.0 - math.tanh(0.5 * clamp) >= _CLAMP_TAIL)


@dataclass
class BpTape:
    """Per-iteration message record enabling the reverse pass.

    `v2c_pre` / `c2v_pre` hold the pre-clamp variable-to-check and
    check-to-variable messages per iteration, `tanh` the check nodes'
    tanh(clip(v2c_pre) / 2) terms, all in the kernel's edge order (see
    `TannerGraph`); `soft` the per-iteration output LLRs. `c2v_pre` stays
    empty where the clamp cannot act on those messages (see `_clamp_acts`),
    as the reverse pass then does not read them. Entries are appended
    during the forward pass only.
    """

    graph: TannerGraph
    clamp: float
    input_llr: np.ndarray        # (B, n), not copied: the reverse pass reads its shape only
    v2c_pre: list[np.ndarray]    # T x (E, B)
    c2v_pre: list[np.ndarray]    # T x (E, B), or none
    tanh: list[np.ndarray]       # T x (E, B)
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

    Per-edge arrays are (E, lanes) in the kernel's edge order, which has
    no pads, and per-variable arrays (n, lanes); `soft`, `v2c`, `t`, `u`
    and `llr` stack such arrays along a leading axis. A batch of k < lanes
    lanes, such as a short last block or the lanes early stopping leaves
    running, uses `_lanes(array, k)`: the leading elements of the array's
    buffer shaped (..., k), which stay C-contiguous. Reusing one set keeps
    the large arrays mapped and faulted in. A `Receiver` keeps one set per
    decode kind, and `decode_blocks` copies each block's results out of
    it, so nothing a call returns aliases the set; the outputs and
    tape of `bp_forward` do, and the next use of the set overwrites them.
    `iters` and `taped` size the per-iteration soft outputs and the arrays
    the tape keeps; a taped set serves untaped decodes too. `llr` has two
    planes, so that early stop compacts the running lanes of one into the
    other. Where `clamp` cannot act on the check-to-variable messages (see
    `_clamp_acts`), they are the `u` plane itself: there is no `c2v` plane,
    and a taped set keeps one `u` slot. A set serves decodes at the clamp
    it was built for.

    Planes that are never read at the same time share a buffer. The
    per-variable sums `acc` take the buffer of the prefix products `pre`,
    which has one extra row for them: the exclusion products have read
    `pre` when the sums are formed. An untaped decode forms its
    variable-to-check messages in `suf`, which they leave once the tanh
    terms are taken, and early stop compacts them into `pre`. An untaped
    set holds only those planes the forward reads: it has no `v2c`
    planes, its `u` is its `t`, which the scans have read when the
    exclusion products are written, and it has none of the backward
    pass's arrays.
    """

    def __init__(self, graph: TannerGraph, lanes: int, iters: int = 1, taped: bool = False,
                 clamp: float = DEFAULT_CLAMP):
        self.lanes, self.taped = lanes, taped
        E, n = graph.n_edges, graph.n_var
        kept = iters if taped else 1
        clamped = _clamp_acts(graph, clamp)
        self.soft = np.empty((iters, n, lanes))
        self.v2c = np.empty((kept, E, lanes)) if taped else None  # pre-clamp variable-to-check
        self.t = np.empty((kept, E, lanes))  # tanh(clip(v2c) / 2)
        # pre-clamp check-to-variable
        self.u = np.empty((kept if clamped else 1, E, lanes)) if taped else self.t
        self.c2v = np.empty((E, lanes)) if clamped else None
        self.acc = np.empty((E + 1, lanes))  # per-variable sums, sorted variables
        self.pre, self.suf = self.acc[:E], np.empty((E, lanes))
        self.llr = np.empty((2, n, lanes))
        self.marg, self.total = (np.empty((n, lanes)) for _ in range(2))
        if taped:
            self.d_w, self.d_u, self.tmp, self.q, self.right = (
                np.empty((E, lanes)) for _ in range(5))
            self.inside = np.empty((E, lanes), dtype=bool)
            self.scan = np.empty((graph.n_check, lanes))  # one run of a check slot


def _lanes(work_array, k):
    """The leading k lanes of a (..., lanes) work array, as a C-contiguous (..., k) view."""
    if k == work_array.shape[-1]:
        return work_array
    rows = work_array.shape[:-1]
    return work_array.reshape(-1)[:work_array.size // work_array.shape[-1] * k].reshape(rows + (k,))


def _sum_per_var(per_edge, graph, work):
    """(E, k) edge values -> (n, k) per-variable sums, in `work.total`.

    The rows are gathered once into variable-slot order, each slot's run
    is added to the leading rows of the sums, and the sums are permuted
    back to variable order, so a lane's sum is the same in a batch of any
    size. A variable on no edge reads the zero row after the runs, and the
    sum of one below the largest degree gets a +0.0 term (-0.0 reads
    +0.0), as when every variable had a slot per degree and the unused
    ones held zeros.
    """
    k = per_edge.shape[1]
    acc = _lanes(work.acc, k)
    per_edge.take(graph.var_rows, axis=0, out=acc[:-1], mode="clip")
    acc[-1] = 0.0
    runs = graph.var_runs
    acc[runs[-1]:runs[0]] += 0.0
    stop = runs[0]
    for run in runs[1:]:
        acc[:run] += acc[stop:stop + run]
        stop += run
    return acc.take(graph.var_sum_row, axis=0, out=_lanes(work.total, k), mode="clip")


def _tanh_half(v2c_pre, clamp, out):
    """The check nodes' terms tanh(clip(v2c_pre) / 2), in `out`."""
    t = np.clip(v2c_pre, -clamp, clamp, out=out)
    t *= 0.5
    return np.tanh(t, out=t)


def _check_internals(t, graph, work, out):
    """Prefix, suffix and exclusion products of the tanh terms `t` over each check's edges.

    Exclusion products are built from prefix and suffix products, never
    by division, so zero messages are handled exactly. Each is one scan
    over the check slots: a step multiplies the run of one slot by the
    leading rows of its neighbour's, in the order `np.cumprod` would. The
    exclusion products go into `out`.
    """
    k = t.shape[1]
    pre, suf = _lanes(work.pre, k), _lanes(work.suf, k)
    steps = graph.check_steps
    pre[graph.check_runs[0]] = 1.0
    for _, head, nxt in steps:
        np.multiply(pre[head], t[head], out=pre[nxt])
    suf[graph.check_runs[-1]] = 1.0
    for run, head, nxt in reversed(steps):
        np.multiply(suf[nxt], t[nxt], out=suf[head])
        suf[head.stop:run.stop] = 1.0  # the checks whose last edge is in this slot
    return pre, suf, np.multiply(pre, suf, out=out)


def bp_forward(llr, graph: TannerGraph, iters: int, clamp: float = DEFAULT_CLAMP,
               early_stop: bool = False, record_tape: bool = True,
               work: _WorkSet | None = None) -> BpOutput:
    """Sum-product decoding with a flooding schedule.

    Per iteration: check-to-variable messages 2 atanh(prod tanh(m/2)) over
    the other edges of the check, output LLR = input + sum of incoming
    check messages, and next variable-to-check messages = output minus the
    edge's own incoming message. Messages are clamped to [-clamp, clamp];
    the check-to-variable ones only where the clamp can act on them (see
    `_clamp_acts`), which leaves every output as it would be with the clip.

    With `early_stop`, a frame stops decoding once its hard decision
    satisfies the syndrome and repeats that output in every later
    iteration, so its result equals a standalone early-stopped decode
    regardless of batch composition. One `syndrome_ok` test runs between
    each two iterations, on the bool plane of decisions, lanes last, and
    none after the last. Compaction is lazy, since each one costs numpy
    calls that a few lanes do not repay: a converged lane keeps computing
    at the current width, and a masked copy from the previous plane holds
    its output (and its decisions, which keep passing the test), until at
    least one eighth of the lanes computed have converged. Then the next
    iteration's variable-to-check messages, formed at the current width,
    and the LLR plane, all that the next iteration reads, are compacted to
    the running lanes. Recording a tape (for gradients) and early stopping
    are mutually exclusive.

    The soft outputs and the tape live in `work`, which `decode_blocks`
    passes to reuse across its blocks, and which must hold a tape to record
    one; without one a fresh set is built, so the outputs alias nothing.
    The outputs are transposed views of the set's (n, lanes) planes.
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
    checks.count("iteration count", iters)
    checks.positive("clamp", clamp)
    if early_stop and record_tape:
        raise ValueError("early stopping would make the tape input-dependent; disable one")

    B, n = L.shape
    if work is None:
        work = _WorkSet(graph, B, iters, record_tape, clamp)
    elif record_tape and not work.taped:
        raise ValueError("recording a tape needs a work set built with one")
    clamped = _clamp_acts(graph, clamp)
    evar = graph.edge_var
    tape = BpTape(graph, clamp, L, [], [], [], [], squeeze) if record_tape else None

    # (iters, n, B), each iteration's plane C-contiguous; `out` is its (iters, B, n) view
    soft = work.soft.reshape(iters, -1)[:, :n * B].reshape(iters, n, B)
    out = soft.transpose(0, 2, 1)
    L_t = _lanes(work.llr[0], B)
    L_t[...] = L.T
    # an untaped decode forms each iteration's variable-to-check messages in `suf`
    v2c_planes = work.v2c if record_tape else (work.suf,) * iters
    v2c_pre = L_t.take(evar, axis=0, out=_lanes(v2c_planes[0], B), mode="clip")
    lanes = np.arange(B)  # batch columns computed (compaction drops converged ones)
    held = None           # which of them converged and hold their output, if any do
    side = 0              # which of the two LLR planes holds the computed lanes
    for it in range(iters):
        k = len(lanes)
        kept = it if record_tape else 0
        t = _tanh_half(v2c_pre, clamp, _lanes(work.t[kept], k))
        u = _check_internals(t, graph, work, _lanes(work.u[kept if clamped else 0], k))[-1]
        with np.errstate(divide="ignore"):  # +-inf only for degree-1 checks
            np.arctanh(u, out=u)
        u *= 2.0
        c2v = np.clip(u, -clamp, clamp, out=_lanes(work.c2v, k)) if clamped else u
        total = _sum_per_var(c2v, graph, work)
        if k == B:  # every lane is computed: the output plane is the marginal
            marg = np.add(L_t, total, out=soft[it])
            if held is not None:
                np.copyto(marg, soft[it - 1], where=held)
        else:
            soft[it] = soft[it - 1]  # dropped lanes repeat their last output
            marg = np.add(L_t, total, out=_lanes(work.marg, k))
            if held is not None:
                np.copyto(marg, soft[it][:, lanes], where=held)
            soft[it][:, lanes] = marg
        if record_tape:
            tape.v2c_pre.append(v2c_pre)
            if clamped:
                tape.c2v_pre.append(u)
            tape.tanh.append(t)
            tape.soft.append(out[it])  # a view: each output is stored once
        if it + 1 == iters:
            break
        if early_stop:
            done = graph.syndrome_ok((marg < 0).T)  # held lanes pass again
            if done.all():
                break
        v2c_pre = marg.take(evar, axis=0, out=_lanes(v2c_planes[it + 1], k), mode="clip")
        v2c_pre -= c2v
        if early_stop:
            converged = np.count_nonzero(done)
            held = done if converged else None
            if 8 * converged >= k:  # compact only what the next iteration reads
                run = np.flatnonzero(~done)
                lanes, side, held = lanes[run], 1 - side, None
                v2c_pre = v2c_pre.take(run, axis=1, out=_lanes(work.pre, len(run)), mode="clip")
                L_t = L_t.take(run, axis=1, out=_lanes(work.llr[side], len(run)), mode="clip")

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
    """d _bce / d soft for target bits of 0 or 1, evaluating only each bit's live term.

    With s = +1 for a 1 bit and -1 for a 0 bit, the live term is
    s sigmoid(s soft), zero where log Pr(bit) = -logaddexp(0, s soft) is
    below the floor. That test can fail only where s soft > 20, since
    logaddexp(0, 20) < 20 + 3e-9 is far inside -floor = 27.63, so it is
    evaluated only there. The +0.0 makes an exactly zero gradient +0.0,
    as 0.0 - 0.0 was when both terms were evaluated.
    """
    sign = 2.0 * target_bits - 1.0
    y = soft * sign
    g = _sigmoid(y)
    big = y > 20.0
    if big.any():
        g[big] *= np.logaddexp(0.0, y[big]) < -_LOG_PROB_FLOOR
    g *= sign
    g += 0.0
    return g


def _target_array(target, n_var):
    """The target as floats; it must be one codeword of `n_var` bits, each 0 or 1."""
    x = np.asarray(target, dtype=np.float64)
    if x.shape != (n_var,):
        raise ValueError(f"target must be one codeword of {n_var} bits, got shape {x.shape}")
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("target bits must be 0 or 1")
    return x


def bp_loss(out: BpOutput, target, mode: str = "final"):
    """BCE between the decoder's soft output and a target codeword.

    The target is one codeword of n bits, each 0 or 1, scored against
    every lane, as in `bp_backward` and `decode_blocks`. "final" scores
    the last iteration; "multiloss" averages the BCE across iterations.
    Returns a scalar for single-frame input, else (B,).
    """
    check_loss_mode(mode)
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

    Replays the taped messages in reverse, against a target that
    `bp_loss` would take.
    The atanh/tanh adjoints reuse the forward's tanh terms and
    exclusion-product structure; the double-exclusion sums needed for
    d(loss)/d(tanh term) are built with two linear scans along each
    check's edge list, again without division. Temporaries live in `work`,
    a set built with a tape (a fresh one when none is given); the tape is
    only read. A tape with no `c2v_pre` planes comes from a forward whose
    clamp could not act on them, so their clamp mask and the
    1 - prod**2 <= 0 guard are skipped.
    """
    if tape is None:
        raise ValueError("forward pass was run without a tape")
    check_loss_mode(mode)
    graph, clamp = tape.graph, tape.clamp
    clamped = bool(tape.c2v_pre)
    B, n = tape.input_llr.shape
    T = len(tape.soft)
    evar = graph.edge_var
    x = _target_array(target, n)[:, None]  # (n, 1): the same bits for every lane
    if work is None:
        work = _WorkSet(graph, B, taped=True)
    elif not work.taped:
        raise ValueError("the backward pass needs a work set built with a tape")
    tmp, inside, d_u = (_lanes(a, B) for a in (work.tmp, work.inside, work.d_u))
    q, right, scan = (_lanes(a, B) for a in (work.q, work.right, work.scan))
    steps = graph.check_steps

    dL = np.zeros((n, B))
    # gradient w.r.t. the pre-clamp v2c messages w_t = marg_t[edge var] - c2v_t
    # that iteration t+1 read; nothing reads the last iteration's
    d_w = _lanes(work.d_w, B)
    d_w.fill(0.0)
    for t in range(T - 1, -1, -1):
        d_out = _sum_per_var(d_w, graph, work)
        if mode == "multiloss":
            d_out += _bce_grad(tape.soft[t].T, x) / T
        elif t == T - 1:
            d_out += _bce_grad(tape.soft[t].T, x)
        else:
            d_out += 0.0  # a -0.0 sum reads +0.0, as when a zero loss term was added
        dL += d_out
        d_out.take(evar, axis=0, out=d_u, mode="clip")
        d_u -= d_w                                      # d loss / d c2v

        if clamped:
            np.abs(tape.c2v_pre[t], out=tmp)
            d_u *= np.less_equal(tmp, clamp, out=inside)  # d loss / d u
        t_e = tape.tanh[t]
        pre, suf, prod = _check_internals(t_e, graph, work, q)
        denom = np.multiply(prod, prod, out=prod)  # the product is not read again
        np.subtract(1.0, denom, out=denom)
        if clamped:
            np.copyto(denom, 1.0, where=np.less_equal(denom, 0.0, out=inside))
        d_u *= 2.0
        np.divide(d_u, denom, out=q)                    # d loss / d exclusion product

        # g_i = sum_{j != i} q_j * prod_{l != i, j} t_l via left and right scans;
        # the left one is built in d_w, whose previous value is not read again
        left = d_w
        left[graph.check_runs[0]] = 0.0
        for _, head, nxt in steps:
            step = np.multiply(left[head], t_e[head], out=left[nxt])
            step += np.multiply(q[head], pre[head], out=scan[:len(step)])
        right[graph.check_runs[-1]] = 0.0
        for run, head, nxt in reversed(steps):
            step = np.multiply(right[nxt], t_e[nxt], out=right[head])
            step += np.multiply(q[nxt], suf[nxt], out=scan[:len(step)])
            right[head.stop:run.stop] = 0.0  # the checks whose last edge is in this slot
        left *= suf
        right *= pre
        left += right
        d_w *= 0.5
        np.multiply(t_e, t_e, out=tmp)
        d_w *= np.subtract(1.0, tmp, out=tmp)
        np.abs(tape.v2c_pre[t], out=tmp)
        d_w *= np.less_equal(tmp, clamp, out=inside)

    dL += _sum_per_var(d_w, graph, work)  # iteration-0 messages copy L
    return dL[:, 0] if tape.squeeze else dL.T


def _block_lanes(early_stop: bool) -> int:
    """The lanes of one `decode_blocks` block."""
    return EARLY_STOP_LANES if early_stop else BLOCK_LANES


def decode_blocks(llr, graph: TannerGraph, decoder: DecoderConfig, early_stop: bool = False,
                  target=None, work: _WorkSet | None = None):
    """Decode a (B, n) LLR batch in blocks of `_block_lanes(early_stop)` lanes.

    Each block runs the early-stopped forward (`early_stop`), or the taped
    forward then `bp_backward` against the codeword `target` (n bits, the
    same for every lane) under `decoder.loss_mode`, or else the untaped
    forward. Early-stopped blocks are `EARLY_STOP_LANES` wide, so a block
    pays its syndrome tests, compactions and straggler iterations once per
    that many lanes; the others are `BLOCK_LANES` wide, where the tape and
    the backward's arrays stay cache-sized. Returns the final soft output
    (B, n) and d(loss)/d(LLR) (B, n), which is None without a target. A
    block's tape is dropped once its gradient is taken, and a block whose
    soft output is not finite raises RuntimeError before its backward pass.
    The blocks run in `work` (a fresh set when none is given), which must
    hold min(B, block width) lanes of `decoder.iters` iterations at
    `decoder.clamp`, and a tape when there is a target.
    """
    L = np.asarray(llr, dtype=np.float64)
    if L.ndim != 2 or L.shape[1] != graph.n_var:
        raise ValueError(f"LLR shape {L.shape} does not match {graph.n_var} variables")
    taped = target is not None
    if taped:
        target = _target_array(target, graph.n_var)
    soft = np.empty_like(L)
    grad = np.empty_like(L) if taped else None
    width = _block_lanes(early_stop)
    if work is None:
        work = _WorkSet(graph, min(len(L), width), decoder.iters, taped, decoder.clamp)
    for lo in range(0, len(L), width):
        block = slice(lo, lo + width)
        out = bp_forward(L[block], graph, decoder.iters, decoder.clamp,
                         early_stop=early_stop, record_tape=taped, work=work)
        soft[block] = out.soft[-1]
        if taped:
            if not np.all(np.isfinite(soft[block])):
                raise RuntimeError("decoder produced non-finite soft output during the search")
            grad[block] = bp_backward(out.tape, target, decoder.loss_mode, work=work)
    return soft, grad


class Receiver:
    """BP decoding of one code under one `DecoderConfig`; it pickles, for worker processes.

    Its early-stopped decodes share an untaped work set and its others a
    taped one, each built at its kind's first call and again, larger, when
    a call has more lanes, so a receiver decodes for one thread at a time.
    The sets are left out of the pickle, so a worker process builds its own.
    """

    def __init__(self, code, decoder: DecoderConfig):
        self.code, self.decoder = code, decoder
        self.graph, self.target = TannerGraph(code.H), np.zeros(code.n)  # all-zero design word
        self._work = {}  # early_stop -> _WorkSet

    def __getstate__(self):
        return self.__dict__ | {"_work": {}}

    def decode(self, llr, early_stop: bool = False, gradient: bool = False):
        """Message bits (B, k) of (B, n) LLRs, and d(loss)/d(LLR) against the all-zero
        codeword or None; with no iterations, the bits of the LLR signs and no gradient."""
        soft, grad = llr, None
        if self.decoder.iters:
            soft, grad = decode_blocks(llr, self.graph, self.decoder, early_stop,
                                       self.target if gradient else None,
                                       self._work_set(early_stop, len(llr)))
        return self.code.message_from_codeword(soft < 0), grad

    def _work_set(self, early_stop: bool, frames: int) -> _WorkSet:
        """The set of the decode kind, rebuilt to hold a block of `frames` frames."""
        lanes, work = min(frames, _block_lanes(early_stop)), self._work.get(early_stop)
        if work is None or work.lanes < lanes:
            self._work[early_stop] = work = _WorkSet(self.graph, lanes, self.decoder.iters,
                                                     not early_stop, self.decoder.clamp)
        return work

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
