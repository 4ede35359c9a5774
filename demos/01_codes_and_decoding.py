"""Build codes, push one frame through the chain, and decode it.

Walks the basic pipeline: parity-check matrix -> generator -> encode ->
modulate -> noisy channel -> LLR demapping -> sum-product decoding.
"""

import numpy as np

from friendlyfec import bp, channel, codes, gf2, modem

rng = channel.FrameRng(seed=7)

# Three code families. The bundled LDPC is the (64, 32) irregular code the
# rest of the demos use; the polar code is constructed on the fly.
for code in (codes.hamming_7_4(), codes.ldpc_64_32(), codes.polar_construct(64, 32, 2.0)):
    print(f"\n=== {code.name}: n={code.n} k={code.k} rate={code.rate:.2f} ===")
    print("G H^T == 0:", not gf2.matmul(code.G, code.H.T).any())

    message = rng.bits(0, 1, code.k, channel.STREAM_MESSAGE)[0]
    word = gf2.encode(message, code.G)
    print("message:", "".join(map(str, message[:16])), "...")

    const = modem.get_constellation("bpsk")
    s = modem.modulate(word, const)

    ebn0_db = 4.0
    sigma = channel.ebn0_to_sigma(ebn0_db, code.rate, const.bits_per_symbol)
    params = channel.ChannelParams(sigma=sigma)
    draws = channel.draw(params, next(rng.frames(0, 1)), s.shape)
    y = channel.transmit(s, params, draws)

    llr = modem.demodulate_llr(y, sigma, const)
    graph = bp.TannerGraph(code.H)
    out = bp.bp_forward(llr, graph, iters=10, early_stop=True, record_tape=False)

    hard = (out.soft[-1] < 0).astype(np.uint8)
    decoded = code.message_from_codeword(hard)
    print(f"decoded after {out.iterations} iteration(s), syndrome ok: {graph.syndrome_ok(hard)}")
    print("message recovered:", bool(np.array_equal(decoded, message)))
