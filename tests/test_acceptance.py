"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line (run with `pytest -s` to watch them).
Everything is seeded; the heavy searches take a few minutes in total.
"""

import itertools
import math
import time

import numpy as np
import pytest

from friendlyfec import (attack, bp, channel, codes, gf2, modem, montecarlo)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rel_err(a, b, floor=1e-12):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


@pytest.fixture(scope="module")
def ldpc():
    return codes.ldpc_64_32()


def search_point(code, decoder, seed=11):
    sigma = attack.find_search_sigma(code, decoder, "bpsk", seed=seed)
    return sigma, channel.sigma_to_ebn0(sigma, code.rate, 1)


def paired_comparison(code, decoder, av, ebn0, frames_cap, min_blocks=400, seed=777):
    base = montecarlo.run_point(code, decoder, "bpsk", ebn0, frames=frames_cap,
                                seed=seed, min_block_errors=min_blocks)
    att = montecarlo.run_point(code, decoder, "bpsk", ebn0, frames=frames_cap,
                               seed=seed, attack=av, min_block_errors=min_blocks)
    separated = att.ber + att.ci95_ber < base.ber - base.ci95_ber
    gain = (base.ber - att.ber) / base.ber
    return base, att, separated, gain


def test_criterion_1_gradient_correctness(ldpc):
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_ldpc = 0.0
    graph = bp.TannerGraph(ldpc.H)
    target = np.zeros(64)
    sigma = 0.8
    for _ in range(2):
        llr = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal(64))
        out = bp.bp_forward(llr, graph, iters=5)
        grad = bp.bp_backward(out.tape, target)
        coords = rng.choice(64, size=10, replace=False)
        fd = bp.finite_difference(
            lambda v: bp.bp_loss(bp.bp_forward(v, graph, 5), target), llr, h=1e-4,
            coords=coords)
        worst_ldpc = max(worst_ldpc, float(rel_err(grad[coords], fd).max()))

    rep = codes.repetition_code(3)
    graph_r = bp.TannerGraph(rep.H)
    worst_rep = 0.0
    for _ in range(5):
        llr = rng.normal(0, 2, 3)
        out = bp.bp_forward(llr, graph_r, iters=3)
        grad = bp.bp_backward(out.tape, np.zeros(3))
        fd = bp.finite_difference(
            lambda v: bp.bp_loss(bp.bp_forward(v, graph_r, 3), np.zeros(3)), llr, h=1e-4)
        worst_rep = max(worst_rep, float(rel_err(grad, fd).max()))

    # demapper adjoint against the same finite-difference oracle
    worst_demod = 0.0
    for scheme in ("bpsk", "qam4"):
        const = modem.get_constellation(scheme)
        y = rng.normal(0, 1, 16)
        w = rng.normal(0, 1, 16)
        fd = bp.finite_difference(lambda v: float(w @ modem.demodulate_llr(v, 0.7, const)), y)
        worst_demod = max(worst_demod, float(rel_err(modem.demodulate_adjoint(w, 0.7, const), fd).max()))

    ok = worst_ldpc < 1e-3 and worst_rep < 1e-6 and worst_demod < 1e-6
    report("criterion 1 gradient correctness", ok,
           f"ldpc {worst_ldpc:.2e} (<1e-3), repetition {worst_rep:.2e} (<1e-6), "
           f"demod {worst_demod:.2e}, {time.time()-t0:.0f}s")


def bitwise_map_llr(code, llr):
    """Brute-force bitwise MAP LLRs by enumerating all 2^k codewords."""
    msgs = np.array(list(itertools.product([0, 1], repeat=code.k)), dtype=np.uint8)
    words = gf2.encode(msgs, code.G)
    metric = 0.5 * ((1.0 - 2.0 * words.astype(float)) @ llr)

    def lse(v):
        m = v.max()
        return m + math.log(np.exp(v - m).sum())

    return np.array([lse(metric[words[:, i] == 0]) - lse(metric[words[:, i] == 1])
                     for i in range(code.n)])


def test_criterion_2_bp_exactness():
    t0 = time.time()
    rep = codes.repetition_code(5)
    graph = bp.TannerGraph(rep.H)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        llr = rng.normal(0, 2, 5)
        out = bp.bp_forward(llr, graph, iters=6)
        worst = max(worst, float(np.abs(out.soft[-1] - bitwise_map_llr(rep, llr)).max()))

    ham = codes.hamming_7_4()
    gh = bp.TannerGraph(ham.H)
    words = gf2.encode(np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8), ham.G)
    signs = 1.0 - 2.0 * words.astype(float)
    sigma = channel.ebn0_to_sigma(4.0, ham.rate, 1)
    const = modem.get_constellation("bpsk")
    rng_f = channel.FrameRng(2024)
    agree = 0
    total = 10_000
    for start in range(0, total, 1000):
        msgs = np.stack([gen.integers(0, 2, 4) for gen in
                         rng_f.frames(start, start + 1000, channel.STREAM_MESSAGE)]).astype(np.uint8)
        x = gf2.encode(msgs, ham.G)
        z = sigma * np.stack([gen.standard_normal(7) for gen in
                              rng_f.frames(start, start + 1000, channel.STREAM_CHANNEL)])
        llr = modem.demodulate_llr(modem.modulate(x, const) + z, sigma, const)
        out = bp.bp_forward(llr, gh, iters=20, early_stop=True, record_tape=False)
        ml = words[np.argmax(llr @ signs.T, axis=1)]
        agree += int(((out.soft[-1] < 0).astype(np.uint8) == ml).all(axis=1).sum())

    ok = worst < 1e-9 and agree / total >= 0.99
    report("criterion 2 BP exactness", ok,
           f"tree max err {worst:.2e} (<1e-9), ML agreement {agree/total:.4f} (>=0.99), "
           f"{time.time()-t0:.0f}s")


def test_criterion_3_power_constraint(ldpc):
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for scheme in ("bpsk", "qam4"):
        const = modem.get_constellation(scheme)
        cps = const.coords_per_symbol
        s0 = modem.modulate(np.zeros(64, dtype=np.uint8), const)
        a = attack.normalize_power(s0 + 0.2 * rng.normal(0, 1, 64), coords_per_symbol=cps)[0] - s0
        msgs = rng.integers(0, 2, (10_000, 32)).astype(np.uint8)
        s = modem.modulate(gf2.encode(msgs, ldpc.G), const)
        out = attack.apply_attack(s, a, const)
        n_symbols = 64 // cps
        energy = np.sum(out**2, axis=-1) / n_symbols
        worst = max(worst, float(np.abs(energy - 1.0).max()))
    ok = worst < 1e-9
    report("criterion 3 power constraint", ok,
           f"max relative energy error {worst:.2e} (<1e-9) over 2x10^4 frames, "
           f"{time.time()-t0:.0f}s")


def test_criterion_4_friendly_attack_efficacy(ldpc):
    t0 = time.time()
    details = []
    ok = True
    for iters in (3, 5):
        decoder = bp.DecoderConfig(iters=iters)
        sigma, eb_search = search_point(ldpc, decoder)
        bler = montecarlo.run_point(ldpc, decoder, "bpsk",
                                    channel.sigma_to_ebn0(sigma, ldpc.rate, 1),
                                    frames=3000, seed=123, message_source="all_zero").bler
        assert 0.1 <= bler <= 0.5, f"auto sigma off target: BLER {bler}"
        cfg = attack.approach_config(1, sigma=sigma)  # B=2000, I=50
        av = attack.search_attack(ldpc, decoder, "bpsk", cfg, seed=42)
        gains, seps, blocks = [], [], []
        for db_above in (2.0, 3.0):
            base, att, sep, gain = paired_comparison(
                ldpc, decoder, av, eb_search + db_above, frames_cap=120_000)
            gains.append(gain)
            seps.append(sep and att.ber < base.ber)
            blocks.append(min(base.block_errors, att.block_errors))
        this_ok = all(seps) and max(gains) >= 0.10 and min(blocks) >= 100
        ok = ok and this_ok
        details.append(f"BP-{iters}: gains {gains[0]:+.1%}/{gains[1]:+.1%}, "
                       f"CI-separated {seps}, min blocks {min(blocks)}")
    report("criterion 4 friendly-attack efficacy", ok,
           "; ".join(details) + f", {time.time()-t0:.0f}s")


def test_criterion_5_transfer_exactness(ldpc):
    t0 = time.time()
    decoder = bp.DecoderConfig(iters=4)
    rng = np.random.default_rng(6)
    a = attack.normalize_power(np.ones(64) + 0.2 * rng.normal(0, 1, 64))[0] - np.ones(64)
    av = attack.AttackVector(a=a, code_id=ldpc.name, scheme="bpsk", n=64, n_symbols=64,
                             search_sigma=0.8, seed=0, approach="1", accepted_iters=1)
    rep = montecarlo.transfer_check(av, ldpc, decoder, ebn0_db=2.5, frames=10_000, seed=7)
    ok = rep.mode == "exact" and rep.passed and rep.bit_errors_random > 0
    report("criterion 5 transfer exactness", ok,
           f"bit errors random/all-zero {rep.bit_errors_random}/{rep.bit_errors_allzero}, "
           f"block {rep.block_errors_random}/{rep.block_errors_allzero}, bit-exact match: "
           f"{rep.passed}, {time.time()-t0:.0f}s")


def test_criterion_6_polar_pipeline():
    t0 = time.time()
    # frozen set for n=8 against an independent recursive recomputation
    n, k, design = 8, 4, 1.0
    code8 = codes.polar_construct(n, k, design)
    z0 = codes.design_z0(design, rate=k / n)

    def recurse(bits, z):
        for b in bits:
            z = z * z if b else 2 * z - z * z
        return z

    oracle = np.array([recurse([(i >> (2 - l)) & 1 for l in range(3)], z0) for i in range(8)])
    frozen_ok = set(code8.frozen) == set(np.argsort(-oracle, kind="stable")[:4].tolist())

    polar = codes.polar_construct(64, 32, design_ebn0_db=2.0)
    decoder = bp.DecoderConfig(iters=5)
    sweep = montecarlo.sweep([1.0, 2.0, 3.0, 4.0, 5.0], polar, decoder, "bpsk",
                             frames=3000, seed=2)
    bers = [r.ber for r in sweep]
    monotone_ok = all(b <= a for a, b in zip(bers, bers[1:]))

    sigma = attack.find_search_sigma(polar, decoder, "bpsk", seed=11, frames=400)
    eb_search = channel.sigma_to_ebn0(sigma, polar.rate, 1)
    cfg = attack.approach_config(1, sigma=sigma, batch_size=500, accepted_iters=25)
    av = attack.search_attack(polar, decoder, "bpsk", cfg, seed=42)
    improved = []
    for db_above in (1.0, 2.0):
        base, att, sep, gain = paired_comparison(polar, decoder, av,
                                                 eb_search + db_above, frames_cap=40_000)
        improved.append(sep and att.ber < base.ber and base.block_errors >= 100)
    attack_ok = any(improved)

    ok = frozen_ok and monotone_ok and attack_ok
    report("criterion 6 polar pipeline", ok,
           f"n=8 frozen {'ok' if frozen_ok else 'WRONG'}, baseline monotone "
           f"{'ok' if monotone_ok else f'VIOLATED {bers}'}, CI-separated improvement at "
           f">=1 point: {attack_ok}, {time.time()-t0:.0f}s")


def test_criterion_7_reproducibility(ldpc):
    t0 = time.time()
    decoder = bp.DecoderConfig(iters=5)
    counts = []
    for workers in (1, 4, 8):
        res = montecarlo.run_point(ldpc, decoder, "bpsk", 2.0, frames=4096, seed=3,
                                   workers=workers)
        counts.append((res.frames, res.bit_errors, res.block_errors))
    ok = counts[0] == counts[1] == counts[2]
    report("criterion 7 reproducibility", ok,
           f"counts for workers 1/4/8: {counts}, {time.time()-t0:.0f}s")


def test_criterion_8_degenerate_search(ldpc):
    t0 = time.time()
    decoder = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(1, sigma=1e-6, batch_size=100, accepted_iters=5,
                                 max_trials=40, epsilon0=0.1)
    av = attack.search_attack(ldpc, decoder, "bpsk", cfg, seed=2)
    ok = av.is_zero and av.accepted_iters == 0
    report("criterion 8 degenerate-search behavior", ok,
           f"zero vector {av.is_zero}, accepted {av.accepted_iters}, {time.time()-t0:.0f}s")
