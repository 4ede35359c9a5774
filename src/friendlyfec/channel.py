"""Stochastic channels (AWGN, Rayleigh fading, bursty AWGN) with Eb/N0
bookkeeping and counter-based per-frame random streams.

Noise is parameterized by the std per real dimension, so the BPSK LLR
formula L = 2y/sigma^2 holds verbatim and 4-QAM behaves as two real
sub-channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RAYLEIGH_SCALE = 1.0 / math.sqrt(2.0)  # unit mean-square gain

# stream ids for per-frame generators
STREAM_MESSAGE = 0
STREAM_CHANNEL = 1
STREAM_SEARCH = 2
STREAM_PROBE = 3


@dataclass(frozen=True)
class ChannelParams:
    sigma: float
    kind: str = "awgn"
    sigma_b: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("awgn", "rayleigh", "bursty"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.kind == "bursty":
            # defaults when unspecified: strong, sparse interference
            if self.sigma_b is None:
                object.__setattr__(self, "sigma_b", 2.0 * self.sigma)
            if self.rho is None:
                object.__setattr__(self, "rho", 0.1)
            if not 0 < self.sigma_b < math.inf:
                raise ValueError(f"sigma_b must be positive and finite, got {self.sigma_b!r}")
            if not 0.0 <= self.rho <= 1.0:
                raise ValueError("rho must lie in [0, 1]")


@dataclass(frozen=True)
class FrameRng:
    """Counter-based per-frame random streams.

    The stream for (seed, frame, stream id) is fixed by the Philox counter
    block alone, so results never depend on worker assignment or call
    order. Frame indices must fit in 64 bits.
    """

    seed: int

    def __post_init__(self):
        _check_seed(self.seed)

    def frames(self, start: int, stop: int, stream: int = STREAM_CHANNEL):
        """Yield the generator of each frame in [start, stop).

        Frame i draws from Philox(key=seed) at counter [0, 0, i, stream].
        One Philox is re-keyed per frame by resetting its state, which is
        much cheaper than building a generator per frame. The same
        generator object is yielded every time: draw from it before
        advancing to the next frame.
        """
        if start < 0:
            raise ValueError("frame index must be non-negative")
        bit_gen = np.random.Philox(key=self.seed)
        state = bit_gen.state  # fresh: empty output buffer, no cached uint32
        gen = np.random.Generator(bit_gen)
        for index in range(start, stop):
            state["state"]["counter"][:] = (0, 0, index, stream)
            bit_gen.state = state
            yield gen


def _check_seed(seed) -> None:
    """Raise ValueError unless the seed is an integer (not a bool) in Philox's key range."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def child_seed(seed: int, *key: int) -> int:
    """Derive an independent 64-bit seed from (seed, key...); deterministic."""
    _check_seed(seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def ebn0_to_sigma(ebn0_db: float, rate: float, bits_per_symbol: int) -> float:
    """Noise std per real dimension at the given Eb/N0, under unit symbol energy."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    if bits_per_symbol not in (1, 2):
        raise ValueError("bits_per_symbol must be 1 or 2")
    if not math.isfinite(ebn0_db):
        raise ValueError(f"Eb/N0 must be finite, got {ebn0_db!r} dB")
    try:
        return math.sqrt(1.0 / (2.0 * rate * bits_per_symbol * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"Eb/N0 {ebn0_db!r} dB is out of range") from None


def sigma_to_ebn0(sigma: float, rate: float, bits_per_symbol: int) -> float:
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    return -10.0 * math.log10(2.0 * rate * bits_per_symbol * sigma * sigma)


def transmit(s, params: ChannelParams, rng: np.random.Generator,
             coords_per_symbol: int = 1) -> tuple[np.ndarray, np.ndarray | None]:
    """Push symbol coordinates through the channel.

    awgn:     y = s + z
    rayleigh: y = g s + z, g per symbol, Rayleigh with unit mean square;
              the receiver knows g, so the gains are returned
    bursty:   y = s + z + w, w ~ N(0, sigma_b^2) with probability rho

    The draw order (gains, noise, burst mask, burst noise) is fixed so a
    given generator state always yields the same realization.
    """
    s = np.asarray(s, dtype=np.float64)
    y = s
    gains = None
    if params.kind == "rayleigh":
        n_sym = s.shape[-1] // coords_per_symbol
        gains = rng.rayleigh(scale=RAYLEIGH_SCALE, size=s.shape[:-1] + (n_sym,))
        y = np.repeat(gains, coords_per_symbol, axis=-1) * s
    y = y + params.sigma * rng.standard_normal(s.shape)
    if params.kind == "bursty":
        mask = rng.random(s.shape) < params.rho
        w = params.sigma_b * rng.standard_normal(s.shape)
        y = y + np.where(mask, w, 0.0)
    return y, gains
