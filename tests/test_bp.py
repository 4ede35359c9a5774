import contextlib
import itertools
import math
import multiprocessing
import os
import pickle
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlyfec import bp, codes, gf2, split


def map_bitwise_llr(code, llr):
    """Brute-force bitwise MAP LLRs by enumerating all 2^k codewords."""
    msgs = np.array(list(itertools.product([0, 1], repeat=code.k)), dtype=np.uint8)
    words = gf2.encode(msgs, code.G)
    metric = 0.5 * ((1.0 - 2.0 * words.astype(float)) @ llr)

    def lse(v):
        m = v.max()
        return m + math.log(np.exp(v - m).sum())

    return np.array([lse(metric[words[:, i] == 0]) - lse(metric[words[:, i] == 1])
                     for i in range(code.n)])


def ml_codeword(code, llr):
    msgs = np.array(list(itertools.product([0, 1], repeat=code.k)), dtype=np.uint8)
    words = gf2.encode(msgs, code.G)
    metric = (1.0 - 2.0 * words.astype(float)) @ llr
    return words[int(np.argmax(metric))]


def hard(out):
    """Final-iteration bit decisions of a decode."""
    return (out.soft[-1] < 0).astype(np.uint8)


def loop_sum_product(H, llr, iters, early_stop=False):
    """Flooding sum-product for one frame, written edge by edge with Python loops.

    Shares no code with `bp`. Messages into a check node are clamped to
    [-20, 20] before tanh(m/2), and check-to-variable messages are
    clamped after 2 atanh(product over the other edges). Near |product| = 1
    atanh turns a last-bit difference into a relative error of about 1e-9,
    so the product is taken in the order a prefix/suffix scan takes it: the
    edges before this one from the first, times the edges after it from the
    last. Returns the output LLRs of every iteration run; with `early_stop`
    it stops after the first iteration whose hard decision satisfies every
    check.
    """
    n_check, n_var = len(H), len(H[0])
    edges = [(c, v) for c in range(n_check) for v in range(n_var) if H[c][v]]
    clip = lambda x: min(max(x, -20.0), 20.0)
    v2c = {e: float(llr[e[1]]) for e in edges}
    outputs = []
    for _ in range(iters):
        tanh_half = {e: np.tanh(0.5 * clip(v2c[e])) for e in edges}
        c2v = {}
        for c, v in edges:
            row = [tanh_half[e] for e in edges if e[0] == c]
            i = [e[1] for e in edges if e[0] == c].index(v)
            before, after = 1.0, 1.0
            for x in row[:i]:
                before *= x
            for x in reversed(row[i + 1:]):
                after *= x
            prod = before * after
            u = 2.0 * np.arctanh(prod) if abs(prod) < 1.0 else math.copysign(math.inf, prod)
            c2v[(c, v)] = clip(u)
        out = [float(llr[v]) + sum(c2v[e] for e in edges if e[1] == v) for v in range(n_var)]
        outputs.append(out)
        hard = [x < 0 for x in out]
        if early_stop and all(sum(hard[v] for c2, v in edges if c2 == c) % 2 == 0
                              for c in range(n_check)):
            break
        v2c = {(c, v): out[v] - c2v[(c, v)] for c, v in edges}
    return np.array(outputs)


# irregular: a degree-1 check (one slot, no neighbours) next to degrees 3 and 4,
# so most rows of the check table are padded
_IRREGULAR_H = np.array([[1, 0, 0, 0, 0, 0],
                         [1, 1, 0, 1, 0, 0],
                         [0, 1, 1, 0, 1, 1],
                         [0, 0, 1, 1, 1, 0]], dtype=np.uint8)


@pytest.mark.parametrize("H", [codes.ldpc_64_32().H, _IRREGULAR_H], ids=["ldpc_64_32", "irregular"])
def test_forward_matches_a_plain_loop_decoder(H):
    g = bp.TannerGraph(H)
    rng = np.random.default_rng(31)
    n = H.shape[1]
    sigma = rng.uniform(0.5, 1.0, (6, 1))
    L = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((6, n)))
    G = gf2.generator_from_parity(H)  # random codewords, so messages saturate at both bounds
    L *= 1.0 - 2.0 * gf2.encode(rng.integers(0, 2, (6, G.shape[0])), G)
    rows = H.tolist()
    for early_stop in (False, True):
        batch = bp.bp_forward(L, g, 8, early_stop=early_stop, record_tape=False)
        stops = []
        for i, llr in enumerate(L):
            want = loop_sum_product(rows, llr, 8, early_stop)
            stops.append(len(want))
            np.testing.assert_allclose(batch.soft[:len(want), i], want, rtol=1e-12)
            # a lane that stopped repeats its last output
            np.testing.assert_allclose(batch.soft[len(want):, i],
                                       np.broadcast_to(want[-1], batch.soft[len(want):, i].shape),
                                       rtol=1e-12)
        assert batch.iterations == max(stops)
        if early_stop:
            assert len(set(stops)) > 1  # lanes stop at different iterations


def test_graph_matches_parity_matrix():
    code = codes.hamming_7_4()
    g = bp.TannerGraph(code.H)
    assert g.n_edges == int(code.H.sum())
    assert np.array_equal(code.H[g.edge_check, g.edge_var], np.ones(g.n_edges, dtype=np.uint8))
    assert len(set(zip(g.edge_check.tolist(), g.edge_var.tolist()))) == g.n_edges


def test_forward_zero_input_is_fixed_point():
    g = bp.TannerGraph(codes.repetition_code(3).H)
    out = bp.bp_forward(np.zeros(3), g, iters=4)
    assert not out.soft.any()
    assert np.array_equal(hard(out), [0, 0, 0])


def test_forward_repetition_map_decision():
    g = bp.TannerGraph(codes.repetition_code(3).H)
    out = bp.bp_forward(np.array([2.0, 2.0, -1.0]), g, iters=2)
    # brute-force MAP over {000, 111}: sum of LLRs is +3, favors all-zero
    assert np.array_equal(hard(out), [0, 0, 0])
    assert g.syndrome_ok(hard(out))


def test_tree_exactness_vs_enumeration():
    code = codes.repetition_code(5)
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(0)
    for _ in range(10):
        llr = rng.normal(0, 2, 5)
        out = bp.bp_forward(llr, g, iters=6)
        assert np.max(np.abs(out.soft[-1] - map_bitwise_llr(code, llr))) < 1e-9


def test_hamming_one_flip_recovers():
    code = codes.hamming_7_4()
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.integers(0, 2, 4).astype(np.uint8)
        x = gf2.encode(m, code.G)
        llr = 4.0 * (1.0 - 2.0 * x.astype(float))
        flip = rng.integers(0, 7)
        llr[flip] = -0.5 * llr[flip]  # one wrong-sign coordinate at magnitude 2
        out = bp.bp_forward(llr, g, iters=8)
        ml = ml_codeword(code, llr)
        assert np.array_equal(ml, x)  # exhaustive ML also picks the true word
        assert np.array_equal(hard(out), x)


def test_forward_validation():
    g = bp.TannerGraph(codes.repetition_code(3).H)
    with pytest.raises(ValueError, match="finite"):
        bp.bp_forward(np.array([np.inf, 0.0, 0.0]), g, 2)
    # the count is checked as an integer >= 1, not left to fail inside the decode
    for bad in (0, 2.5, True, -1, "3", None):
        with pytest.raises(ValueError, match=r"iteration count must be an integer >= 1, got "):
            bp.DecoderConfig(iters=bad)
        with pytest.raises(ValueError, match=r"iteration count must be an integer >= 1, got "):
            bp.bp_forward(np.zeros(3), g, bad)
    assert type(bp.DecoderConfig(iters=np.int64(3)).iters) is int
    assert bp.DecoderConfig(iters=np.int64(3)).iters == 3
    with pytest.raises(ValueError, match="tape"):
        bp.bp_forward(np.zeros(3), g, 2, early_stop=True, record_tape=True)


def test_decoder_config_is_its_iteration_count_alone():
    # every decode clamps at DEFAULT_CLAMP: no config, forward or work set takes a clamp
    assert [f.name for f in fields(bp.DecoderConfig)] == ["iters"]
    assert repr(bp.DecoderConfig(iters=np.int64(2))) == "DecoderConfig(iters=2)"
    g = bp.TannerGraph(codes.repetition_code(3).H)
    for call in (lambda: bp.DecoderConfig(iters=2, clamp=20.0),
                 lambda: bp.bp_forward(np.zeros(3), g, 2, clamp=20.0),
                 lambda: bp.bp_forward(np.zeros(3), g, 2, False),  # flags are keywords
                 lambda: bp._WorkSet(g, 4, 2, True, 20.0)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("early_stop, record_tape", [(False, True), (False, False), (True, False)])
def test_forward_rejects_an_empty_batch(early_stop, record_tape):
    graph = bp.TannerGraph(codes.ldpc_64_32().H)
    with pytest.raises(ValueError, match="the LLR batch is empty"):
        bp.bp_forward(np.zeros((0, 64)), graph, 3, early_stop=early_stop, record_tape=record_tape)
    # the receiver never runs the kernel on no lanes
    rx = bp.Receiver(codes.ldpc_64_32(), bp.DecoderConfig(iters=3))
    bits, grad = rx.decode(np.zeros((0, 64)), early_stop=early_stop, gradient=record_tape)
    assert bits.shape == (0, 32)
    assert (grad.shape == (0, 64)) if record_tape else grad is None


def test_loss_values():
    g = bp.TannerGraph(codes.repetition_code(3).H)
    out = bp.bp_forward(np.zeros(3), g, iters=2)
    assert bp.bp_loss(out, np.zeros(3)) == pytest.approx(3 * math.log(2), abs=1e-12)

    unc = bp.TannerGraph(codes.uncoded(1).H)
    out = bp.bp_forward(np.array([2.0]), unc, iters=1)
    assert bp.bp_loss(out, np.array([1])) == pytest.approx(2.1269280110429727, abs=1e-12)

    out = bp.bp_forward(np.full(3, 40.0), g, iters=2)
    assert bp.bp_loss(out, np.zeros(3)) < 1e-10


def test_backward_saturated_gradient_vanishes():
    g = bp.TannerGraph(codes.repetition_code(3).H)
    out = bp.bp_forward(np.full(3, 40.0), g, iters=2)
    grad = bp.bp_backward(out.tape, np.zeros(3))
    assert np.max(np.abs(grad)) < 1e-8


def _bce_grad_on_every_lane(soft, target_bits):
    """The gradient with the floor test evaluated on every lane."""
    sign = 2.0 * target_bits - 1.0
    y = soft * sign
    g = 0.5 * (1.0 + np.tanh(0.5 * y))
    g *= np.logaddexp(0.0, y) < -bp._LOG_PROB_FLOOR
    g *= sign
    g += 0.0
    return g


def test_bce_grad_tests_the_floor_only_where_it_can_fail():
    # values around 20, where the test starts to be evaluated, and around
    # -floor = 27.63, where it starts to fail, each with both signs
    floor = -bp._LOG_PROB_FLOOR
    near = [np.nextafter(v, -np.inf) for v in (20.0, floor)] + [20.0, floor] + \
        [np.nextafter(v, np.inf) for v in (20.0, floor)]
    values = np.array(near + [20.0 - 1e-9, 20.0 + 1e-9, floor - 1e-6, floor + 1e-6,
                              0.0, -0.0, 1.0, 19.5, 35.0, 1e300, np.inf])
    soft = np.stack([values, -values], axis=1)           # (n, lanes), as the backward pass has it
    soft = np.concatenate([soft, soft[::-1, ::-1]], axis=0)
    for target in (np.zeros(len(soft)), np.ones(len(soft)), np.arange(len(soft)) % 2):
        x = target.astype(np.float64)[:, None]
        got, want = bp._bce_grad(soft, x), _bce_grad_on_every_lane(soft, x)
        assert got.tobytes() == want.tobytes()
    assert np.any(bp._bce_grad(soft, np.zeros((len(soft), 1))) == 0.0)  # some fail the test


def test_backward_matches_finite_differences_repetition():
    code = codes.repetition_code(3)
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(3)
    target = np.zeros(3)
    for _ in range(5):
        llr = rng.normal(0, 2, 3)
        out = bp.bp_forward(llr, g, iters=3)
        grad = bp.bp_backward(out.tape, target)
        fd = bp.finite_difference(
            lambda v: bp.bp_loss(bp.bp_forward(v, g, 3), target), llr, h=1e-4)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-12)
        assert rel.max() < 1e-4


def test_backward_matches_finite_differences_ldpc():
    code = codes.ldpc_64_32()
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(4)
    sigma = 0.8
    llr = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal(64))
    out = bp.bp_forward(llr, g, iters=5)
    target = np.zeros(64)
    grad = bp.bp_backward(out.tape, target)
    coords = rng.choice(64, size=10, replace=False)
    fd = bp.finite_difference(
        lambda v: bp.bp_loss(bp.bp_forward(v, g, 5), target), llr, h=1e-4, coords=coords)
    rel = np.abs(grad[coords] - fd) / np.maximum(np.maximum(np.abs(grad[coords]), np.abs(fd)), 1e-12)
    assert rel.max() < 1e-3


def test_backward_shape_validation():
    g = bp.TannerGraph(codes.repetition_code(3).H)
    out = bp.bp_forward(np.zeros(3), g, 2)
    with pytest.raises(ValueError):
        bp.bp_backward(out.tape, np.zeros(4))
    out_nt = bp.bp_forward(np.zeros(3), g, 2, record_tape=False)
    with pytest.raises(ValueError):
        bp.bp_backward(out_nt.tape, np.zeros(3))
    for target in (np.full(3, 0.5), np.array([0.0, 1.0, -1.0]), np.array([0.0, 1.0, np.nan])):
        with pytest.raises(ValueError, match="target bits must be 0 or 1"):
            bp.bp_backward(out.tape, target)


def test_loss_and_gradient_take_the_same_targets():
    # the finite-difference oracle pairs bp_loss with bp_backward, so both
    # reject what is not one codeword of 0/1 bits
    g = bp.TannerGraph(codes.repetition_code(3).H)
    out = bp.bp_forward(np.array([0.5, -1.0, 2.0]), g, 2)
    for target in (np.full(3, 0.5), np.full(3, 2.0), np.array([0.0, 1.0, np.nan])):
        for func in (bp.bp_loss, bp.bp_backward):
            with pytest.raises(ValueError, match="target bits must be 0 or 1"):
                func(out if func is bp.bp_loss else out.tape, target)
    batch = bp.bp_forward(np.zeros((2, 3)), g, 2)
    for func in (bp.bp_loss, bp.bp_backward):
        with pytest.raises(ValueError, match="one codeword of 3 bits"):
            func(batch if func is bp.bp_loss else batch.tape, np.zeros((2, 3)))


def test_sign_equivariance_bit_exact():
    code = codes.hamming_7_4()
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = gf2.encode(rng.integers(0, 2, 4).astype(np.uint8), code.G)
        t = 1.0 - 2.0 * x.astype(float)
        llr = rng.normal(0, 2, 7)
        base = bp.bp_forward(llr, g, iters=5)
        flipped = bp.bp_forward(t * llr, g, iters=5)
        assert np.array_equal(flipped.soft[-1], t * base.soft[-1])
        assert np.array_equal(hard(flipped), hard(base) ^ x)


def test_correct_signs_satisfy_syndrome_after_one_iteration():
    code = codes.ldpc_64_32()
    g = bp.TannerGraph(code.H)
    out = bp.bp_forward(np.full(64, 6.0), g, iters=1)
    assert g.syndrome_ok(hard(out))


def test_batch_matches_single_lane_bit_exact():
    code = codes.hamming_7_4()
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(6)
    L = rng.normal(0, 2, (5, 7))
    batch = bp.bp_forward(L, g, iters=4)
    # the tape's per-iteration outputs are the returned soft outputs, stored once
    assert all(np.shares_memory(t, batch.soft) and np.array_equal(t, s)
               for t, s in zip(batch.tape.soft, batch.soft))
    grads = bp.bp_backward(batch.tape, np.zeros(7))
    for i in range(5):
        single = bp.bp_forward(L[i], g, iters=4)
        assert np.array_equal(single.soft[-1], batch.soft[-1][i])
        assert np.array_equal(bp.bp_backward(single.tape, np.zeros(7)), grads[i])


def test_early_stop_matches_standalone_decode():
    code = codes.ldpc_64_32()
    g = bp.TannerGraph(code.H)
    rng = np.random.default_rng(7)
    L = (2.0 / 0.64) * (1.0 + 0.8 * rng.standard_normal((16, 64)))
    full = bp.bp_forward(L, g, iters=10, record_tape=False)
    for lanes in (range(16), range(7)):
        batch = bp.bp_forward(L[lanes], g, iters=10, early_stop=True, record_tape=False)
        assert batch.soft.shape == (batch.iterations, len(lanes), 64)
        stops = []
        for i in lanes:
            alone = bp.bp_forward(L[i], g, iters=10, early_stop=True, record_tape=False)
            assert np.array_equal(hard(alone), hard(batch)[i])
            assert g.syndrome_ok(hard(alone)) == g.syndrome_ok(hard(batch))[i]
            ran = alone.iterations
            stops.append(ran)
            # the iterations the lane ran, as without early stop, then its last output repeated
            assert np.array_equal(alone.soft, batch.soft[:ran, i])
            assert np.array_equal(alone.soft, full.soft[:ran, i])
            for t in range(ran, batch.iterations):
                assert np.array_equal(batch.soft[t, i], alone.soft[-1])
        assert batch.iterations == max(stops)
        assert len(set(stops)) >= 4  # lanes converge at different iterations
    assert sorted(stops)[-2] < max(stops)  # among the first 7 lanes, one decodes on alone


@pytest.mark.parametrize("H", [codes.ldpc_64_32().H, _IRREGULAR_H], ids=["ldpc_64_32", "irregular"])
def test_syndrome_ok_matches_matmul(H):
    g = bp.TannerGraph(H)
    rng = np.random.default_rng(11)
    n = H.shape[1]
    x = rng.integers(0, 2, (400, n))
    # codewords (null-space vectors) for half the rows, so both answers occur
    G = gf2.generator_from_parity(H)
    x[:200] = gf2.encode(rng.integers(0, 2, (200, G.shape[0])), G)
    want = np.all((x @ H.T.astype(np.int64)) % 2 == 0, axis=-1)
    assert want.any() and not want.all()
    for dtype in (bool, np.uint8):
        bits = x.astype(dtype)
        assert np.array_equal(g.syndrome_ok(bits), want)
        assert [bool(g.syndrome_ok(row)) for row in bits] == want.tolist()
    with pytest.raises(ValueError, match="shape"):
        g.syndrome_ok(np.zeros((3, n + 1), dtype=np.uint8))
    # read modulo 2, a codeword times 3 or plus 2 would pass as one
    for bad in (3 * x[0], x[0] + 2):
        with pytest.raises(ValueError, match="bit array entries must be 0 or 1"):
            g.syndrome_ok(bad)


def test_zero_iteration_graphs_and_degree_one_checks():
    # a degree-1 check pins its variable; infinite pre-clamp message is clamped
    H = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = bp.TannerGraph(H)
    out = bp.bp_forward(np.array([-1.0, 0.5]), g, iters=2)
    assert np.isfinite(out.soft).all()
    grad = bp.bp_backward(out.tape, np.zeros(2))
    assert np.isfinite(grad).all()


# variable 5 is on no check and variable 6 on one; check 4 is on no variable and check 0 on one
_SPARSE_H = np.array([[1, 0, 0, 0, 0, 0, 0],
                      [1, 1, 0, 1, 0, 0, 1],
                      [0, 1, 1, 0, 1, 0, 0],
                      [0, 0, 1, 1, 1, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)


def test_nodes_of_degree_zero_and_one():
    g = bp.TannerGraph(_SPARSE_H)
    rng = np.random.default_rng(41)
    L = rng.normal(0.0, 3.0, (6, 7))
    rows = _SPARSE_H.tolist()
    for early_stop in (False, True):
        batch = bp.bp_forward(L, g, 4, early_stop=early_stop, record_tape=False)
        for i, llr in enumerate(L):
            want = loop_sum_product(rows, llr, 4, early_stop)
            np.testing.assert_allclose(batch.soft[:len(want), i], want, rtol=1e-12)
            alone = bp.bp_forward(llr, g, 4, early_stop=early_stop, record_tape=False)
            assert alone.soft.tobytes() == batch.soft[:alone.iterations, i].tobytes()
        assert batch.soft[..., 5].tobytes() == np.broadcast_to(L[:, 5], batch.soft.shape[:2]).tobytes()
    batch = bp.bp_forward(L, g, 4)
    for target in (np.zeros(7), rng.integers(0, 2, 7).astype(np.float64)):
        grad = bp.bp_backward(batch.tape, target)
        for i, llr in enumerate(L):
            alone = bp.bp_forward(llr, g, 4)
            assert alone.soft.tobytes() == batch.soft[:, i].tobytes()
            assert bp.bp_backward(alone.tape, target).tobytes() == grad[i].tobytes()
            fd = bp.finite_difference(lambda v: bp.bp_loss(bp.bp_forward(v, g, 4), target), llr)
            np.testing.assert_allclose(grad[i], fd, rtol=1e-5, atol=1e-9)


_LDPC_GRAPH = bp.TannerGraph(codes.ldpc_64_32().H)


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 8), iters=st.integers(1, 8), sigma=st.sampled_from([0.55, 0.75, 0.95]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lane_results_do_not_depend_on_the_batch_property(B, iters, sigma, seed, data):
    # any batch holding a lane, in any order and with repeats, gives it the same bytes
    rng = np.random.default_rng(seed)
    L = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((B, 64)))
    lanes = data.draw(st.lists(st.integers(0, B - 1), min_size=1, max_size=8))
    for early_stop in (False, True):
        full, sub = (bp.bp_forward(x, _LDPC_GRAPH, iters, early_stop=early_stop,
                                   record_tape=False) for x in (L, L[lanes]))
        ran = min(full.iterations, sub.iterations)
        (hard_full, ok_full), (hard_sub, ok_sub) = (
            (hard(x), _LDPC_GRAPH.syndrome_ok(hard(x))) for x in (full, sub))
        for pos, lane in enumerate(lanes):
            assert full.soft[:ran, lane].tobytes() == sub.soft[:ran, pos].tobytes()
            assert hard_full[lane].tobytes() == hard_sub[pos].tobytes()
            assert ok_full[lane] == ok_sub[pos]
    target = np.zeros(64)
    full, sub = (bp.bp_forward(x, _LDPC_GRAPH, iters) for x in (L, L[lanes]))
    grad_full = bp.bp_backward(full.tape, target)
    grad_sub = bp.bp_backward(sub.tape, target)
    for pos, lane in enumerate(lanes):
        assert full.soft[:, lane].tobytes() == sub.soft[:, pos].tobytes()
        assert grad_full[lane].tobytes() == grad_sub[pos].tobytes()


def _syndrome_widths(monkeypatch):
    """The lane counts of every later `syndrome_ok` call, recorded into the returned list."""
    syndrome_ok, widths = bp.TannerGraph.syndrome_ok, []

    def counted(self, bits):
        widths.append(len(bits))
        return syndrome_ok(self, bits)

    monkeypatch.setattr(bp.TannerGraph, "syndrome_ok", counted)
    return widths


def test_forward_tests_the_syndrome_only_to_stop_early(monkeypatch):
    # decisions and the syndrome after the last iteration are the caller's
    calls = _syndrome_widths(monkeypatch)
    L = (2.0 / 0.9**2) * (1.0 + 0.9 * np.random.default_rng(8).standard_normal((16, 64)))
    bp.bp_forward(L, _LDPC_GRAPH, 5)
    bp.bp_forward(L, _LDPC_GRAPH, 5, record_tape=False)
    assert calls == []
    out = bp.bp_forward(L, _LDPC_GRAPH, 5, early_stop=True, record_tape=False)
    assert out.iterations == 5 and len(calls) == 4  # one test between each two iterations


def _converging_llrs(B, converging, seed):
    """LLRs of the all-zero word: the lanes where `converging(lane)` holds are at
    high SNR and stop after an iteration or two, the others deep in the waterfall."""
    rng = np.random.default_rng(seed)
    fast = np.array([converging(i) for i in range(B)])
    sigma = np.where(fast, 0.4, 1.0)[:, None]
    return (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((B, 64)))


# one lane in 12 converges, fewer than the eighth of the lanes computed at
# which early stop compacts, so converged lanes keep computing and their
# outputs are held; or seven lanes in 8 converge, so early stop compacts
_LAZY_BATCHES = {"few converge": lambda i: i % 12 == 0, "most converge": lambda i: i % 8 != 0}


@pytest.mark.parametrize("batch", list(_LAZY_BATCHES))
def test_held_and_compacted_lanes_equal_standalone_decodes(batch, monkeypatch):
    L = _converging_llrs(24, _LAZY_BATCHES[batch], 41)
    rows = codes.ldpc_64_32().H.tolist()
    widths = _syndrome_widths(monkeypatch)
    out = bp.bp_forward(L, _LDPC_GRAPH, 5, early_stop=True, record_tape=False)
    if batch == "few converge":  # held after the first test, not compacted
        assert widths[:2] == [24, 24]
    else:
        assert widths[1] < widths[0] == 24
    stops = []
    for i, llr in enumerate(L):
        alone = bp.bp_forward(llr, _LDPC_GRAPH, 5, early_stop=True, record_tape=False)
        ran = alone.iterations
        stops.append(ran)
        assert out.soft[:ran, i].tobytes() == alone.soft.tobytes()
        for t in range(ran, out.iterations):  # a lane that stopped repeats its last output
            assert out.soft[t, i].tobytes() == alone.soft[-1].tobytes()
        want = loop_sum_product(rows, llr, 5, early_stop=True)
        assert len(want) == ran
        np.testing.assert_allclose(out.soft[:ran, i], want, rtol=1e-12)
    assert stops.count(1) >= 2 and out.iterations == max(stops) == 5


@pytest.mark.parametrize("batch", list(_LAZY_BATCHES))
def test_early_stopped_blocks_equal_per_lane_decodes(batch, monkeypatch):
    # two full blocks and a short one of EARLY_STOP_LANES lanes
    assert bp.EARLY_STOP_LANES == 2 * bp.BLOCK_LANES == 256
    code = codes.ldpc_64_32()
    L = _converging_llrs(600, _LAZY_BATCHES[batch], 43)
    rx = bp.Receiver(code, bp.DecoderConfig(iters=5))
    widths = _syndrome_widths(monkeypatch)
    bits, grad = rx.decode(L, early_stop=True)
    assert grad is None and widths[0] == 256 and 88 in widths
    assert widths[1] == 256 if batch == "few converge" else widths[1] < 256
    whole = bp.bp_forward(L, _LDPC_GRAPH, 5, early_stop=True, record_tape=False)
    assert bits.tobytes() == code.message_from_codeword(whole.soft[-1] < 0).tobytes()
    for i in range(600):
        alone = bp.bp_forward(L[i], _LDPC_GRAPH, 5, early_stop=True, record_tape=False)
        assert bits[i].tobytes() == code.message_from_codeword(alone.soft[-1] < 0).tobytes()


@pytest.mark.parametrize("B", [1, 127, 128, 129, 261, 300, 600])
def test_receiver_equals_one_unblocked_decode(B):
    assert bp.BLOCK_LANES == 128  # the batch sizes straddle block edges
    code = codes.ldpc_64_32()
    rng = np.random.default_rng(B)
    # lanes at different noise levels converge at different iterations, so
    # early stopping compacts the lanes of a block more than once
    sigma = rng.uniform(0.45, 1.0, (B, 1))
    L = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((B, 64)))
    target = np.zeros(64)  # the receiver's design word
    rx = bp.Receiver(code, bp.DecoderConfig(iters=5))

    def bits_of(out):
        return code.message_from_codeword(out.soft[-1] < 0).tobytes()

    for early_stop in (True, False):
        bits, grad = rx.decode(L, early_stop=early_stop)
        assert grad is None
        assert bits.tobytes() == bits_of(bp.bp_forward(L, _LDPC_GRAPH, 5, early_stop=early_stop,
                                                       record_tape=False))
        for i in range(B):
            alone = bp.bp_forward(L[i], _LDPC_GRAPH, 5, early_stop=early_stop, record_tape=False)
            assert bits[i].tobytes() == bits_of(alone)
    whole = bp.bp_forward(L, _LDPC_GRAPH, 5)
    bits, grad = rx.decode(L, gradient=True)
    assert bits.tobytes() == bits_of(whole)
    assert grad.tobytes() == bp.bp_backward(whole.tape, target).tobytes()
    for i in range(B):
        alone = bp.bp_forward(L[i], _LDPC_GRAPH, 5)
        assert bits[i].tobytes() == bits_of(alone)
        assert grad[i].tobytes() == bp.bp_backward(alone.tape, target).tobytes()
    if B == 300:  # three blocks, the last one short
        stops = [bp.bp_forward(L[i], _LDPC_GRAPH, 5, early_stop=True, record_tape=False).iterations
                 for i in range(bp.BLOCK_LANES)]
        assert B % bp.BLOCK_LANES and len(set(stops)) >= 3


def test_decode_calls_share_no_memory():
    # a call's results are its own: those of one call survive the next
    rng = np.random.default_rng(3)
    L1, L2 = ((2.0 / 0.64) * (1.0 + 0.8 * rng.standard_normal((200, 64))) for _ in range(2))
    rx = bp.Receiver(codes.ldpc_64_32(), bp.DecoderConfig(iters=5))
    for kwargs in (dict(gradient=True), dict(), dict(early_stop=True)):
        first = rx.decode(L1, **kwargs)
        kept = [x.copy() for x in first if x is not None]
        second = rx.decode(L2, **kwargs)
        for a in first:
            for b in second:
                assert a is None or b is None or not np.shares_memory(a, b)
        assert [x.tobytes() for x in first if x is not None] == [x.tobytes() for x in kept]
    outs = [bp.bp_forward(x, _LDPC_GRAPH, 5, record_tape=record)
            for x in (L1, L2) for record in (True, False)]
    for i, a in enumerate(outs):
        for b in outs[i + 1:]:
            assert not np.shares_memory(a.soft, b.soft)
    # each iteration's taped messages are kept apart
    tape = outs[0].tape
    for kept in (tape.v2c_pre, tape.c2v_pre, tape.tanh, tape.soft):
        assert not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1:])


def test_receiver_decode_validation():
    rx = bp.Receiver(codes.ldpc_64_32(), bp.DecoderConfig(iters=2))
    with pytest.raises(ValueError, match="does not match 64 variables"):
        rx.decode(np.zeros(64))
    with pytest.raises(ValueError, match="^out receives the gradient"):
        rx.decode(np.zeros((3, 64)), out=np.zeros((3, 64)))
    with pytest.raises(ValueError, match="tape"):
        rx.decode(np.zeros((3, 64)), early_stop=True, gradient=True)
    bits, grad = rx.decode(np.zeros((0, 64)), gradient=True)
    assert bits.shape == (0, 32) and grad.shape == (0, 64)


def _noisy_llrs(B, seed):
    """LLRs of the all-zero word at mixed noise levels, so lanes stop at different iterations."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.45, 1.0, (B, 1))
    return (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((B, 64)))


def test_receiver_decode_is_an_unblocked_decode_plus_message_extraction():
    code = codes.ldpc_64_32()
    # three blocks, the last one short; on this batch early stopping changes
    # the bits of two lanes under BP-5, so a dropped flag shows
    L = _noisy_llrs(300, 27)
    for dec in (bp.DecoderConfig(iters=3), bp.DecoderConfig(iters=5)):
        rx = bp.Receiver(code, dec)
        for kwargs in (dict(early_stop=True), dict(), dict(gradient=True)):
            bits, grad = rx.decode(L, **kwargs)
            gradient = kwargs.get("gradient", False)
            whole = bp.bp_forward(L, _LDPC_GRAPH, dec.iters,
                                  early_stop=kwargs.get("early_stop", False), record_tape=gradient)
            want_bits = code.message_from_codeword((whole.soft[-1] < 0).astype(np.uint8))
            assert bits.shape == (300, code.k) and bits.tobytes() == want_bits.tobytes()
            if gradient:
                assert grad.tobytes() == bp.bp_backward(whole.tape, np.zeros(64)).tobytes()
            else:
                assert grad is None
        errors = rx.decode(L)[0]  # the word sent is all-zero: some bits, not all, are wrong
        assert np.any(errors) and not np.all(errors)
    assert np.any(rx.decode(L, early_stop=True)[0] != rx.decode(L)[0])  # rx is BP-5


def test_receiver_loss_is_the_loss_of_a_plain_decode():
    code = codes.ldpc_64_32()
    rx = bp.Receiver(code, bp.DecoderConfig(iters=4))
    for llr in _noisy_llrs(5, 22):
        want = bp.bp_loss(bp.bp_forward(llr, _LDPC_GRAPH, 4), np.zeros(64))
        assert isinstance(rx.loss(llr), float) and rx.loss(llr) == want


def test_pickled_receiver_decodes_the_same():
    rx = bp.Receiver(codes.ldpc_64_32(), bp.DecoderConfig(iters=5))
    copy = pickle.loads(pickle.dumps(rx))
    L = _noisy_llrs(150, 23)
    for kwargs in (dict(early_stop=True), dict(gradient=True)):
        got, want = copy.decode(L, **kwargs), rx.decode(L, **kwargs)
        assert [x.tobytes() for x in got if x is not None] == \
            [x.tobytes() for x in want if x is not None]
    assert copy.loss(L[0]) == rx.loss(L[0])


def test_receiver_keeps_one_work_set_per_decode_kind():
    # 300 lanes need a full block set, 20 run in its leading lanes; early-stopped
    # decodes share an untaped set, and the others, taped or not, a taped one
    code, dec = codes.ldpc_64_32(), bp.DecoderConfig(iters=5)
    batches = [_noisy_llrs(B, 30 + B) for B in (300, 20, 300)]
    shared = bp.Receiver(code, dec)
    for kwargs in (dict(early_stop=True), dict(), dict(gradient=True), dict(early_stop=True)):
        for L in batches:
            got, want = shared.decode(L, **kwargs), bp.Receiver(code, dec).decode(L, **kwargs)
            assert [x.tobytes() for x in got if x is not None] == \
                [x.tobytes() for x in want if x is not None]
    assert {kind: (work.lanes, work.taped) for kind, work in shared._work.items()} == \
        {True: (bp.EARLY_STOP_LANES, False), False: (bp.BLOCK_LANES, True)}
    # the pickle a worker process receives holds neither set
    assert len(pickle.dumps(shared)) == len(pickle.dumps(bp.Receiver(code, dec)))
    assert pickle.loads(pickle.dumps(shared))._work == {}


def test_split_points_fall_on_block_boundaries(monkeypatch):
    monkeypatch.setattr(split, "helper_count", lambda: 2)
    rx = bp.Receiver(codes.ldpc_64_32(), bp.DecoderConfig(iters=3))
    L = np.zeros((1700, 64))
    assert rx._part_bounds(L, False) == [0, 1700]  # outside the scope nothing splits
    with rx.split_decodes():
        assert rx._part_bounds(L[:bp.SPLIT_LANES - 1], False) == [0, bp.SPLIT_LANES - 1]
        assert rx._part_bounds(L[:1100], False) == [0, 512, 1100]
        assert rx._part_bounds(L, False) == [0, 512, 1152, 1700]
        assert rx._part_bounds(L, True) == [0, 512, 1024, 1700]  # blocks of EARLY_STOP_LANES
        monkeypatch.setattr(split, "helper_count", lambda: 0)
        assert rx._part_bounds(L, False) == [0, 1700]
    assert rx._helpers is None  # no decode ran: no helper started


def test_no_helper_is_forked_beside_another_thread():
    assert split.helper_count() == len(os.sched_getaffinity(0)) - 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert split.helper_count() == 0
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()


@pytest.mark.parametrize("helpers", [1, 2])
def test_a_split_decode_returns_the_bytes_of_an_unsplit_one(helpers, monkeypatch):
    # 1700 lanes, not a multiple of 128: two parts on one helper, three on two
    monkeypatch.setattr(split, "helper_count", lambda: helpers)
    code, dec = codes.ldpc_64_32(), bp.DecoderConfig(iters=5)
    L = _noisy_llrs(1700, 51)
    parted, whole = bp.Receiver(code, dec), bp.Receiver(code, dec)
    with parted.split_decodes():
        for kwargs in (dict(gradient=True), dict(), dict(early_stop=True), dict(gradient=True)):
            got, want = parted.decode(L, **kwargs), whole.decode(L, **kwargs)
            assert [x.tobytes() for x in got if x is not None] == \
                [x.tobytes() for x in want if x is not None]
            assert (got[1] is None) == (want[1] is None)
            assert not any(np.shares_memory(x, parted._helpers.llr) for x in got if x is not None)
        assert len(multiprocessing.active_children()) == helpers
    assert parted._helpers is None and multiprocessing.active_children() == []


def test_a_receiver_whose_helper_died_raises_and_then_starts_new_ones(monkeypatch):
    monkeypatch.setattr(split, "helper_count", lambda: 1)
    code, dec = codes.ldpc_64_32(), bp.DecoderConfig(iters=3)
    L = _noisy_llrs(1100, 52)
    rx = bp.Receiver(code, dec)
    want = rx.decode(L, gradient=True)
    with rx.split_decodes():
        rx.decode(L)
        helper = rx._helpers.procs[0]
        helper.kill()
        helper.join(10.0)
        with pytest.raises((OSError, RuntimeError)):
            rx.decode(L, gradient=True)
        assert rx._helpers is None
        got = rx.decode(L, gradient=True)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert rx._helpers.procs[0] is not helper
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("split_lanes", [False, True])
def test_a_gradient_decode_writes_into_out_the_bytes_of_the_allocating_form(split_lanes,
                                                                           monkeypatch):
    # 1100 lanes: unsplit, or split as 512 + 588 on one helper; `out` separate and the LLRs
    monkeypatch.setattr(split, "helper_count", lambda: 1)
    code, dec = codes.ldpc_64_32(), bp.DecoderConfig(iters=5)
    L = _noisy_llrs(1100, 53)
    bits, grad = bp.Receiver(code, dec).decode(L, gradient=True)
    rx = bp.Receiver(code, dec)
    with rx.split_decodes() if split_lanes else contextlib.nullcontext():
        given = L.copy()
        got = rx.decode(given, gradient=True)
        assert given.tobytes() == L.tobytes()  # without `out`, the LLRs are left as they were
        assert got[0].tobytes() == bits.tobytes() and got[1].tobytes() == grad.tobytes()
        for out in (np.full_like(L, np.nan), given):
            got = rx.decode(given, gradient=True, out=out)
            assert got[1] is out
            assert got[0].tobytes() == bits.tobytes() and out.tobytes() == grad.tobytes()
            given[...] = L
        assert (rx._helpers is not None) == split_lanes
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("split_lanes", [False, True])
def test_a_bad_decode_out_is_rejected_before_any_decode_runs(split_lanes, monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("a decode ran")

    monkeypatch.setattr(split, "helper_count", lambda: 1)
    monkeypatch.setattr(bp, "bp_forward", no_forward)
    rx = bp.Receiver(codes.ldpc_64_32(), bp.DecoderConfig(iters=3))
    L = np.ones((1100, 64))
    with rx.split_decodes() if split_lanes else contextlib.nullcontext():
        for bad in (np.zeros((1100, 63)), np.zeros((1100, 64), np.float32),
                    np.broadcast_to(L, L.shape)):
            with pytest.raises(ValueError, match="^out must be a writeable float64 array"):
                rx.decode(L, gradient=True, out=bad)
        for kwargs in (dict(), dict(early_stop=True)):
            with pytest.raises(ValueError, match="^out receives the gradient"):
                rx.decode(L, out=L, **kwargs)
        assert rx._helpers is None
    assert np.all(L == 1.0)


def _cumprod_exclusion(t, H):
    """Each check's prefix and suffix exclusion products as np.cumprod builds them.

    `t` holds one row per edge in H's row-major order, and so do the two results.
    """
    pre, suf = np.empty_like(t), np.empty_like(t)
    ones = np.ones((1, t.shape[1]))
    start = 0
    for row in H:
        edges = slice(start, start + int(row.sum()))
        start = edges.stop
        x = t[edges]
        pre[edges] = np.concatenate([ones, np.cumprod(x, axis=0)[:-1]], axis=0)[:len(x)]
        suf[edges] = np.concatenate([np.cumprod(x[::-1], axis=0)[::-1][1:], ones], axis=0)[:len(x)]
    return pre, suf


@pytest.mark.parametrize("H", [codes.ldpc_64_32().H, _IRREGULAR_H, _SPARSE_H],
                         ids=["ldpc_64_32", "irregular", "sparse"])
def test_scan_exclusion_products_equal_cumprod(H):
    g = bp.TannerGraph(H)
    rng = np.random.default_rng(12)
    m = np.clip(rng.normal(0.0, 6.0, (50, g.n_edges)), -20.0, 20.0)
    m[rng.random(m.shape) < 0.2] = 0.0  # exact zero messages: tanh is 0
    m[:3] = 0.0
    m = np.ascontiguousarray(m.T)  # (edges, lanes), edges in H's row-major order
    h_order = np.lexsort((g.edge_var, g.edge_check))  # the kernel's rows in H's order
    m_kernel = np.empty_like(m)
    m_kernel[h_order] = m  # the kernel's edge order
    tg = bp._tanh_half(m_kernel, np.empty_like(m))
    pre, suf, prod = bp._check_internals(tg, g, bp._WorkSet(g, m.shape[1]), np.empty_like(m))
    tg, pre, suf, prod = (x[h_order] for x in (tg, pre, suf, prod))  # back to H's order
    want_pre, want_suf = _cumprod_exclusion(tg, H)
    assert (pre.tobytes(), suf.tobytes()) == (want_pre.tobytes(), want_suf.tobytes())
    assert prod.tobytes() == (want_pre * want_suf).tobytes()
    assert tg.tobytes() == np.tanh(0.5 * m).tobytes()
    # an edge whose check holds a zero elsewhere gets an exactly zero product
    edge_check = g.edge_check[h_order]
    zeros_on_check = np.zeros((g.n_check, m.shape[1]), dtype=int)
    np.add.at(zeros_on_check, edge_check, tg == 0.0)
    zero_elsewhere = (zeros_on_check[edge_check] - (tg == 0.0)) > 0
    assert zero_elsewhere.any() and np.all(prod[zero_elsewhere] == 0.0)


# graphs whose checks all have degree >= 3, where no check-to-variable message reaches
# the clamp, so the kernel neither clips nor masks them
_WIDE_CHECK_CODES = [codes.ldpc_64_32(), codes.hamming_7_4(), codes.polar_construct(64, 32, 2.0)]


def _random_and_extreme_llrs(n, seed):
    rng = np.random.default_rng(seed)
    extreme = rng.choice(np.array([1e3, -1e3, 0.0, -0.0]), (30, n))
    extreme[:, :2] = [0.0, -0.0]  # exact zeros of both signs in every lane
    return np.concatenate([rng.normal(2.0, 5.0, (30, n)), extreme])


@pytest.mark.parametrize("code", _WIDE_CHECK_CODES, ids=lambda code: code.name)
@pytest.mark.parametrize("scale", [0.5, 6.0, 20.0, 28.0])
def test_unclipped_check_messages_equal_the_clipped_path(code, scale):
    # the LLRs times DEFAULT_CLAMP / scale: from most inputs at the clamp (0.5) to fewer (28)
    graph = bp.TannerGraph(code.H)
    llr = _random_and_extreme_llrs(code.n, int(scale * 10)) * (bp.DEFAULT_CLAMP / scale)
    target = np.random.default_rng(3).integers(0, 2, code.n).astype(np.float64)

    def decode():
        taped = bp.bp_forward(llr, graph, 4)
        values = [taped.soft, bp.bp_forward(llr, graph, 4, record_tape=False).soft,
                  bp.bp_forward(llr, graph, 4, early_stop=True, record_tape=False).soft]
        values += [bp.bp_backward(taped.tape, x) for x in (np.zeros(code.n), target)]
        return taped.tape, [value.tobytes() for value in values]

    assert not graph.clamp_acts
    tape, skipped = decode()
    assert tape.c2v_pre == [] and len(tape.v2c_pre) == 4
    graph.clamp_acts = True  # the general path
    tape, clipped = decode()
    assert len(tape.c2v_pre) == 4
    assert max(np.abs(u).max() for u in tape.c2v_pre) < bp.DEFAULT_CLAMP
    assert skipped == clipped


@pytest.mark.parametrize("H, scale", [(codes.repetition_code(5).H, 0.5),
                                      (codes.repetition_code(5).H, 20.0),
                                      (_IRREGULAR_H, 6.0),  # a degree-1 check
                                      (codes.ldpc_64_32().H, 28.5),
                                      (codes.ldpc_64_32().H, 40.0)])
def test_a_clamp_that_can_act_keeps_the_clipped_path(H, scale):
    # the LLRs times DEFAULT_CLAMP / scale; the LDPC graph's checks all have degree >= 3,
    # so its messages cannot reach the clamp, and its decision is forced
    graph = bp.TannerGraph(H)
    wide = H.shape[1] == 64
    assert graph.clamp_acts != wide
    graph.clamp_acts = True
    llr = _random_and_extreme_llrs(H.shape[1], 1) * (bp.DEFAULT_CLAMP / scale)
    tape = bp.bp_forward(llr, graph, 3).tape
    assert len(tape.c2v_pre) == 3
    # at most ln cosh(20), about 19.31, where the clamp cannot act; at it or beyond elsewhere
    reach = max(np.abs(u).max() for u in tape.c2v_pre) > bp.DEFAULT_CLAMP - 0.5
    assert reach != wide
    work = bp._WorkSet(graph, 8, 3, taped=True)
    assert work.u.shape[0] == 3 and work.c2v is not None


def test_a_taped_set_keeps_one_check_message_plane_where_the_clamp_cannot_act():
    graph = bp.TannerGraph(codes.ldpc_64_32().H)
    work = bp._WorkSet(graph, bp.BLOCK_LANES, 5, taped=True)
    assert work.u.shape == (1, graph.n_edges, bp.BLOCK_LANES) and work.c2v is None
    assert work.t.shape[0] == work.v2c.shape[0] == 5


def test_an_untaped_set_shares_its_planes_and_records_no_tape():
    graph = _LDPC_GRAPH
    work = bp._WorkSet(graph, bp.EARLY_STOP_LANES, 5)
    assert work.u is work.t and work.v2c is None and not hasattr(work, "d_w")
    assert np.shares_memory(work.pre, work.acc) and work.acc.shape[0] == graph.n_edges + 1
    L = _noisy_llrs(8, 44)
    with pytest.raises(ValueError, match="recording a tape needs a work set built with one"):
        bp.bp_forward(L, graph, 5, work=work)
    taped = bp.bp_forward(L, graph, 5)
    with pytest.raises(ValueError, match="backward pass needs a work set built with a tape"):
        bp.bp_backward(taped.tape, np.zeros(64), work=work)
