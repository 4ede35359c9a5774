"""The differentiable decoding chain, verified against finite differences.

The perturbation search needs d(loss)/d(symbols) through demapper and
decoder. The decoder gradient comes from a hand-written reverse sweep over
the taped message schedule; this demo checks it coordinate by coordinate.
"""

import numpy as np

from friendlyfec import bp, codes, modem

code = codes.ldpc_64_32()
graph = bp.TannerGraph(code.H)
rng = np.random.default_rng(0)

sigma = 0.8
const = modem.get_constellation("bpsk")
target = np.zeros(code.n)

# a received vector around the all-zero codeword
y = 1.0 + sigma * rng.standard_normal(code.n)
llr = modem.demodulate_llr(y, sigma, const)

out = bp.bp_forward(llr, graph, iters=5)
print("loss at y:", bp.bp_loss(out, target))

# chain rule: d(loss)/dy = demapper adjoint of d(loss)/d(llr)
grad_llr = bp.bp_backward(out.tape, target)
grad_y = modem.demodulate_adjoint(grad_llr, sigma, const)

coords = rng.choice(code.n, size=8, replace=False)
fd = bp.finite_difference(
    lambda v: bp.bp_loss(bp.bp_forward(modem.demodulate_llr(v, sigma, const), graph, 5), target),
    y, coords=coords)

print(f"{'coord':>6} {'analytic':>12} {'finite diff':>12} {'rel err':>10}")
for c, f in zip(coords, fd):
    a = grad_y[c]
    rel = abs(a - f) / max(abs(a), abs(f), 1e-12)
    print(f"{c:>6} {a:>12.6f} {f:>12.6f} {rel:>10.2e}")
