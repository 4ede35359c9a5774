"""Repeated small searches, clustered into a few candidate vectors.

When the loss landscape has several descent directions, one long search
can wander between them. Running many short searches and clustering the
outcomes with k-means yields a handful of candidates; a Monte Carlo referee
picks the winner. With k = 1 the one candidate is the plain mean of the
nonzero runs, which is how approach 4 selects its vector.

Desk-scale settings so the demo finishes quickly.
"""

import numpy as np

from friendlyfec import attack, bp, channel, codes

code = codes.ldpc_64_32()
decoder = bp.DecoderConfig(iters=3)
sigma = 0.756
eb_val = channel.sigma_to_ebn0(sigma, code.rate, 1) + 1.0

config = attack.approach_config(3, sigma=sigma, batch_size=20, accepted_iters=5,
                                runs=12, max_trials=40, cluster_k=3)
vectors = attack.run_regime(code, decoder, "bpsk", config, seed=7)
nonzero = [v for v in vectors if not v.is_zero]
print(f"{len(vectors)} runs -> {len(nonzero)} nonzero vectors")
print("norms:", [round(float(np.linalg.norm(v.a)), 3) for v in nonzero])

candidates = attack.cluster_attacks(vectors, "kmeans", k=3, seed=0)
print("k-means centroids:", [round(float(np.linalg.norm(c.a)), 3) for c in candidates])

mean = attack.cluster_attacks(vectors, "kmeans", k=1)
print("plain mean:       ", [round(float(np.linalg.norm(c.a)), 3) for c in mean])

best = attack.select_best(candidates, code, decoder, ebn0_db=eb_val,
                          frames=8_000, seed=31)
print(f"validation at {eb_val:.2f} dB picks {best.approach!r}")
