"""Stochastic channels (AWGN, Rayleigh fading, bursty AWGN) with Eb/N0
bookkeeping and counter-based per-frame random streams.

Noise is parameterized by the std per real dimension, so the BPSK LLR
formula L = 2y/sigma^2 holds verbatim and 4-QAM behaves as two real
sub-channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import checks

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
    sigma_b: float | None = None   # bursty only
    rho: float | None = None       # bursty only

    def __post_init__(self):
        if self.kind not in ("awgn", "rayleigh", "bursty"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        checks.positive("sigma", self.sigma)
        if self.kind != "bursty":
            for name in ("sigma_b", "rho"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} applies to a bursty channel only, "
                                     f"not {self.kind!r}")
            return
        # defaults when unspecified: strong, sparse interference
        if self.sigma_b is None:
            object.__setattr__(self, "sigma_b", 2.0 * self.sigma)
        if self.rho is None:
            object.__setattr__(self, "rho", 0.1)
        checks.positive("sigma_b", self.sigma_b)
        if not (checks.is_real(self.rho) and 0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")


@dataclass(frozen=True)
class FrameRng:
    """Counter-based per-frame random streams.

    The stream for (seed, frame, stream id) is fixed by the Philox counter
    block alone, so results never depend on worker assignment or call
    order. Frame indices must fit in 64 bits.
    """

    seed: int

    def __post_init__(self):
        checks.seed("seed", self.seed)

    def frames(self, start: int, stop: int, stream: int = STREAM_CHANNEL):
        """An iterator over the generator of each frame in [start, stop).

        Frame i draws from Philox(key=seed) at counter [0, 0, i, stream].
        One Philox is re-keyed per frame by setting its state, which is
        much cheaper than building a generator per frame. The state is a
        dict of plain Python ints and lists, taken once from the fresh
        generator (empty output buffer, no cached uint32), and only its
        counter word 2 is written per frame, so the setter reads no numpy
        array. The same generator object is yielded every time: draw from
        it before advancing to the next frame. The range is checked at the
        call, before any generator is made.
        """
        _check_frame_range(start, stop)
        bit_gen = np.random.Philox(key=self.seed)
        fresh = bit_gen.state
        counter = [0, 0, 0, int(stream)]
        state = {**fresh, "state": {"counter": counter, "key": fresh["state"]["key"].tolist()},
                 "buffer": fresh["buffer"].tolist()}
        gen = np.random.Generator(bit_gen)

        def each_frame():
            for index in range(start, stop):
                counter[2] = index
                bit_gen.state = state
                yield gen

        return each_frame()

    def bits(self, start: int, stop: int, k: int, stream: int = STREAM_MESSAGE) -> np.ndarray:
        """The (stop - start, k) uint8 bits that `gen.integers(0, 2, k)` draws
        from each frame's generator of `frames(start, stop, stream)`, all
        frames at once.

        numpy's Philox encrypts its counter after incrementing it, so frame
        i's j-th block of four 64-bit outputs is Philox4x64-10 of the
        counter [j + 1, 0, i, stream]. Each output gives its low 32-bit word,
        then its high one, and a bounded draw over {0, 1} never rejects and
        returns a word's top bit.
        """
        _check_frame_range(start, stop)
        k = checks.count("bit count", k, minimum=0)
        frames, blocks = max(stop - start, 0), -(-k // 8)
        counter = np.zeros((4, frames, blocks), dtype=np.uint64)
        counter[0] = np.arange(1, blocks + 1, dtype=np.uint64)
        counter[2] = np.uint64(start) + np.arange(frames, dtype=np.uint64)[:, None]
        counter[3] = stream
        seed = int(self.seed)
        out = _philox4x64(counter.reshape(4, -1), (seed & _MASK64, seed >> 64))
        out = out.reshape(4, frames, blocks).transpose(1, 2, 0)  # (frame, block, output)
        # little-endian, so each output's low 32-bit word comes before its high one
        words = np.ascontiguousarray(out, dtype="<u8").view("<u4")
        return (words >> 31).astype(np.uint8).reshape(frames, 8 * blocks)[:, :k]


_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
# Philox4x64 multipliers and key increments (Salmon et al., SC'11; numpy's Philox)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _philox4x64(counter, key) -> np.ndarray:
    """Philox4x64-10 of the (4, n) uint64 counter blocks under the key (k0, k1).

    Counter words 0 and 2 are multiplied as one (2, n) array, each 64x64 ->
    128-bit product's high word built from 32-bit halves whose partial sums
    cannot overflow. The round keys are summed as Python integers, so no
    numpy scalar overflows.
    """
    counter = np.asarray(counter, dtype=np.uint64)
    even, odd = counter[0::2], counter[1::2]  # words (0, 2) and (1, 3), each (2, n)
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    m_lo, m_hi = m & mask, m >> shift
    round_keys = np.array([[[(word + r * bump) & _MASK64] for word, bump in zip(key, _PHILOX_W)]
                           for r in range(10)], dtype=np.uint64)
    for round_key in round_keys:
        a_lo, a_hi = even & mask, even >> shift
        mid = a_hi * m_lo
        mid += (a_lo * m_lo) >> shift
        low_mid = mid & mask
        low_mid += a_lo * m_hi
        hi = a_hi * m_hi
        hi += mid >> shift
        hi += low_mid >> shift
        lo = even * m  # the low word wraps
        # (c0, c1, c2, c3) -> (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        even, odd = hi[::-1] ^ odd ^ round_key, lo[::-1]
    out = np.empty_like(counter)
    out[0::2], out[1::2] = even, odd
    return out


def _check_frame_range(start, stop) -> None:
    """Raise ValueError unless [start, stop) holds frame indices that fit in 64 bits."""
    checks.count("frame start", start, minimum=0)
    checks.count("frame stop", stop, minimum=0)
    if stop > 2**64:
        raise ValueError(f"frame indices must be below 2**64, got a range ending at {stop}")


def child_seed(seed: int, *key: int) -> int:
    """Derive an independent 64-bit seed from (seed, key...); deterministic."""
    checks.seed("seed", seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def ebn0_to_sigma(ebn0_db: float, rate: float, bits_per_symbol: int) -> float:
    """Noise std per real dimension at the given Eb/N0, under unit symbol energy."""
    checks.rate("rate", rate)
    checks.count("bits_per_symbol", bits_per_symbol)
    return math.sqrt(1.0 / (2.0 * rate * bits_per_symbol * checks.decibels("ebn0_db", ebn0_db)))


def sigma_to_ebn0(sigma: float, rate: float, bits_per_symbol: int) -> float:
    """The Eb/N0 in dB at which `ebn0_to_sigma` gives `sigma`."""
    checks.positive("sigma", sigma)
    checks.rate("rate", rate)
    checks.count("bits_per_symbol", bits_per_symbol)
    return -10.0 * math.log10(2.0 * rate * bits_per_symbol * sigma * sigma)


class Draws(NamedTuple):
    """The random arrays of one pass through the channel (see `draw`)."""
    gains: np.ndarray | None
    noise: np.ndarray
    burst_u: np.ndarray | None
    burst_z: np.ndarray | None


def draw(params: ChannelParams, rng, shape, coords_per_symbol: int = 1) -> Draws:
    """The channel's random arrays for symbol coordinates of `shape`.

    Returns (gains, noise, burst uniforms, burst noise): Rayleigh gains of
    shape[:-1] + (symbols,) or None, standard normals of `shape`, and for
    bursty channels uniforms and standard normals of `shape` (else None).
    `rng` is one Generator, which draws each array whole, or an iterable
    of one Generator per index of the first axis, such as
    `FrameRng.frames` or one search generator per run, which draws that
    row of each array. Either way a generator draws in the fixed order
    gains, noise, burst uniforms, burst noise, so a given generator state
    always yields the same realization. Every signal reaches `transmit`
    through a realization made here, so several signals can pass through
    one realization that is drawn once.
    """
    n_sym = shape[-1] // coords_per_symbol
    gains = np.empty(shape[:-1] + (n_sym,)) if params.kind == "rayleigh" else None
    noise = np.empty(shape)
    burst_u, burst_z = (np.empty(shape), np.empty(shape)) if params.kind == "bursty" else (None, None)
    if isinstance(rng, np.random.Generator):
        rows = [(rng, ...)]
    else:
        rows = zip(rng, range(shape[0]), strict=True)
    for gen, row in rows:
        if gains is not None:
            gains[row] = gen.rayleigh(scale=RAYLEIGH_SCALE, size=gains[row].shape)
        gen.standard_normal(out=noise[row])
        if burst_u is not None:
            gen.random(out=burst_u[row])
            gen.standard_normal(out=burst_z[row])
    return Draws(gains, noise, burst_u, burst_z)


def transmit(s, params: ChannelParams, draws: Draws, coords_per_symbol: int = 1) -> np.ndarray:
    """Push symbol coordinates through the channel realization `draws`.

    awgn:     y = s + sigma z
    rayleigh: y = g s + sigma z, g per symbol, Rayleigh with unit mean
              square; the receiver knows g and reads it from `draws.gains`
    bursty:   y = s + sigma z + w, w ~ N(0, sigma_b^2) with probability rho

    `draws` are what `draw` made for an array of s's shape and this
    channel kind; the formulas apply once to the whole array, and the
    draws are not changed, so other signals can pass through them too.
    """
    s = np.asarray(s, dtype=np.float64)
    gains, noise, burst_u, burst_z = draws
    if (noise.shape != s.shape or (gains is None) != (params.kind != "rayleigh")
            or (burst_u is None) != (params.kind != "bursty")):
        raise ValueError(f"the draws do not fit a {params.kind} channel for a signal "
                         f"of shape {s.shape}")
    y = s if gains is None else np.repeat(gains, coords_per_symbol, axis=-1) * s
    y = y + params.sigma * noise
    if params.kind == "bursty":
        y = y + np.where(burst_u < params.rho, params.sigma_b * burst_z, 0.0)
    return y
