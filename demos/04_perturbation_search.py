"""Search a helpful transmit perturbation and measure what it buys.

The search descends the decoding loss on batches of noisy all-zero
transmissions, keeping only power-neutral steps that improve the batch
error rate. The resulting vector transfers to every codeword by the
per-coordinate sign adaptation, which the transfer check verifies bit-exactly.

Takes a couple of minutes at these settings.
"""

import numpy as np

from friendlyfec import attack, bp, channel, codes, montecarlo

code = codes.ldpc_64_32()
decoder = bp.DecoderConfig(iters=3)

# pick the noise level where the decoder actually corrects errors
sigma = attack.find_search_sigma(code, decoder, "bpsk", seed=11)
eb_search = channel.sigma_to_ebn0(sigma, code.rate, 1)
print(f"search noise: sigma={sigma:.4f} ({eb_search:.2f} dB)")

config = attack.approach_config(1, sigma=sigma)  # large batch, few iterations
av = attack.search_attack(code, decoder, "bpsk", config, seed=42)
print(f"accepted {av.accepted_iters} updates, ||a|| = {np.linalg.norm(av.a):.3f}")

for db_above in (1.0, 2.0):
    ebn0 = eb_search + db_above
    # both rows on the same messages and noise; each stops at its own 300 block errors
    base, att = montecarlo.run_rows(code, decoder, "bpsk", ebn0, frames=40_000, seed=777,
                                    attacks=[None, av], min_block_errors=300)
    gain = (base.ber - att.ber) / base.ber
    print(f"Eb/N0 {ebn0:.2f} dB: BER {base.ber:.5f} -> {att.ber:.5f} ({gain:+.1%})")

# all-zero -> random-codeword transfer is exact for BPSK and 4-QAM over AWGN
rep = montecarlo.transfer_check(av, code, decoder, ebn0_db=eb_search + 1.0,
                                frames=5_000, seed=9)
print(f"transfer check ({rep.mode}): bit-exact = {rep.passed}")

attack.save_attack(av, "ldpc_attack.json")
print("wrote ldpc_attack.json")
