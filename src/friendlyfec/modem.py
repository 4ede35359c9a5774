"""Bit-to-symbol mapping and exact per-bit LLR demapping with its adjoint.

Symbols are real coordinate vectors throughout: BPSK uses one coordinate
per symbol, 4-QAM two (interleaved re/im). Gray-mapped square QAM over a
memoryless Gaussian channel separates exactly into one antipodal
sub-channel per coordinate, so both schemes share the same formulas up to
the coordinate amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks


@dataclass(frozen=True)
class Constellation:
    scheme: str
    points: np.ndarray       # (num_points, coords_per_symbol), unit mean energy
    bits_per_symbol: int
    bit_labels: np.ndarray   # (num_points, bits_per_symbol) Gray labels
    s0: np.ndarray           # coordinates of the point labeled by all-zero bits

    @property
    def coords_per_symbol(self) -> int:
        return self.points.shape[1]

    @property
    def amplitude(self) -> float:
        """Per-coordinate magnitude; every point here is (+-A, ..., +-A)."""
        return float(self.s0[0])


def _bpsk() -> Constellation:
    return Constellation(
        scheme="bpsk",
        points=np.array([[1.0], [-1.0]]),
        bits_per_symbol=1,
        bit_labels=np.array([[0], [1]], dtype=np.uint8),
        s0=np.array([1.0]),
    )


def _qam4() -> Constellation:
    a = 1.0 / math.sqrt(2.0)
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    # first bit sets the real sign, second bit the imaginary sign
    points = a * (1.0 - 2.0 * labels.astype(np.float64))
    return Constellation("qam4", points, 2, labels, points[0].copy())


_CONSTELLATIONS = {"bpsk": _bpsk(), "qam4": _qam4()}


def get_constellation(scheme: str) -> Constellation:
    try:
        return _CONSTELLATIONS[scheme]
    except KeyError:
        raise ValueError(f"unknown modulation scheme {scheme!r}") from None


def modulate(bits, constellation: Constellation) -> np.ndarray:
    """Map bits to symbol coordinates; accepts (n,) or (batch, n) bits.

    BPSK: s = 1 - 2x. 4-QAM: bit pairs map to (+-1 +-1j)/sqrt(2) with bits
    00 -> (+, +), which per coordinate is again A * (1 - 2x).
    """
    x = np.asarray(bits)
    if np.any((x != 0) & (x != 1)):
        raise ValueError("bits must be 0 or 1")
    if x.shape[-1] % constellation.bits_per_symbol:
        raise ValueError(
            f"bit count {x.shape[-1]} not divisible by {constellation.bits_per_symbol}")
    return constellation.amplitude * (1.0 - 2.0 * x.astype(np.float64))


def _coordinate_scale(shape, sigma, constellation: Constellation, gains) -> np.ndarray | float:
    """The demapper's per-coordinate scale 2 A g / sigma^2 for an array of `shape`."""
    checks.noise_std("sigma", sigma)
    scale = 2.0 * constellation.amplitude / (sigma ** 2)
    if gains is None:
        return scale
    gains = np.asarray(gains, dtype=np.float64)
    expected = shape[-1] // constellation.coords_per_symbol
    if gains.shape[-1] != expected:
        raise ValueError(f"expected {expected} per-symbol gains, got {gains.shape[-1]}")
    return scale * np.repeat(gains, constellation.coords_per_symbol, axis=-1)


def demodulate_llr(y, sigma: float, constellation: Constellation, gains=None,
                   out=None) -> np.ndarray:
    """Exact per-bit LLRs log Pr(bit=0|y) - log Pr(bit=1|y).

    Per coordinate with amplitude A and (known) gain g this is
    L = 2 A g y / sigma^2; positive LLR favors bit 0. `sigma` is the noise
    std per real dimension, and `gains` the per-symbol fading gains that
    `channel.draw` made (None: no fading). The LLRs are written into
    `out`, a float64 array of y's shape, which may be y itself, or into a
    fresh array when it is None.
    """
    y = np.asarray(y, dtype=np.float64)
    out = checks.out_array(out, y.shape)
    return np.multiply(_coordinate_scale(y.shape, sigma, constellation, gains), y, out=out)


def demodulate_adjoint(dj_dllr, sigma: float, constellation: Constellation,
                       gains=None, out=None) -> np.ndarray:
    """Jacobian-transpose product of the demapper: dJ/dy from dJ/dL.

    The demapper is coordinatewise linear, so the adjoint is the same
    diagonal scale as the forward map. Since y = s + a + z, this is also
    dJ/ds for the additive-channel case. `out` is as in `demodulate_llr`,
    and may be dj_dllr itself.
    """
    d = np.asarray(dj_dllr, dtype=np.float64)
    out = checks.out_array(out, d.shape)
    return np.multiply(_coordinate_scale(d.shape, sigma, constellation, gains), d, out=out)
