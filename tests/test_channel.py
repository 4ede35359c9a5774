import math

import numpy as np
import pytest

from friendlyfec import channel, modem


def test_ebn0_to_sigma_values():
    assert channel.ebn0_to_sigma(0.0, 0.5, 1) == pytest.approx(1.0)
    assert channel.ebn0_to_sigma(0.0, 1.0, 1) == pytest.approx(1 / math.sqrt(2))
    sigmas = [channel.ebn0_to_sigma(db, 0.5, 1) for db in range(0, 30, 3)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))  # monotone to zero
    with pytest.raises(ValueError):
        channel.ebn0_to_sigma(0.0, 0.0, 1)
    assert channel.ebn0_to_sigma(0.0, 0.5, 4) == pytest.approx(0.5)  # any whole bit count
    for ebn0 in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            channel.ebn0_to_sigma(ebn0, 0.5, 1)
    for ebn0 in (-1e4, 1e4):  # finite, but sigma under- or overflows
        with pytest.raises(ValueError, match="out of range"):
            channel.ebn0_to_sigma(ebn0, 0.5, 1)
    for sigma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            channel.sigma_to_ebn0(sigma, 0.5, 1)


def test_sigma_ebn0_round_trip():
    for db in (-3.0, 0.0, 2.5, 7.0):
        sigma = channel.ebn0_to_sigma(db, 0.5, 2)
        assert channel.sigma_to_ebn0(sigma, 0.5, 2) == pytest.approx(db, abs=1e-12)


def make_rng(seed=0, frame=0):
    return next(channel.FrameRng(seed).frames(frame, frame + 1))


def send(s, params, rng, coords_per_symbol=1):
    """s through the channel on the realization `draw` makes from rng: (y, gains)."""
    draws = channel.draw(params, rng, np.shape(s), coords_per_symbol)
    return channel.transmit(s, params, draws, coords_per_symbol), draws.gains


def test_transmit_degenerate_noise():
    params = channel.ChannelParams(sigma=1e-12)
    s = np.linspace(-1, 1, 32)
    y, gains = send(s, params, make_rng())
    assert gains is None
    assert np.max(np.abs(y - s)) < 1e-9


def test_awgn_sample_variance():
    params = channel.ChannelParams(sigma=1.0)
    s = np.zeros(1_000_000)
    y, _ = send(s, params, make_rng(1))
    assert 0.99 <= np.var(y - s) <= 1.01


def test_bursty_statistics():
    # sigma -> 0 isolates the burst component
    params = channel.ChannelParams(sigma=1e-12, kind="bursty", sigma_b=3.0, rho=0.3)
    s = np.zeros(1_000_000)
    y, _ = send(s, params, make_rng(2))
    w = y - s
    hits = np.abs(w) > 1e-6
    assert 0.297 <= hits.mean() <= 0.303
    assert np.var(w[hits]) == pytest.approx(9.0, rel=0.01)


def test_bursty_defaults():
    params = channel.ChannelParams(sigma=0.5, kind="bursty")
    assert params.sigma_b == pytest.approx(1.0)
    assert params.rho == pytest.approx(0.1)


def test_rayleigh_unit_mean_square():
    params = channel.ChannelParams(sigma=0.5, kind="rayleigh")
    s = np.ones(1_000_000)
    y, gains = send(s, params, make_rng(3))
    assert gains.shape == (1_000_000,)
    assert np.mean(gains**2) == pytest.approx(1.0, rel=0.01)


def test_rayleigh_per_symbol_gains_for_pairs():
    params = channel.ChannelParams(sigma=1e-12, kind="rayleigh")
    s = np.ones(10)
    y, gains = send(s, params, make_rng(5), coords_per_symbol=2)
    assert gains.shape == (5,)
    assert np.allclose(y, np.repeat(gains, 2), atol=1e-9)


def test_noise_independent_of_signal():
    rng = np.random.default_rng(0)
    s = rng.normal(0, 1, 200_000)
    params = channel.ChannelParams(sigma=1.0)
    y, _ = send(s, params, make_rng(6))
    corr = np.corrcoef(s, y - s)[0, 1]
    assert abs(corr) < 3 / math.sqrt(len(s))


def test_frame_streams_deterministic_and_order_free():
    params = channel.ChannelParams(sigma=1.0)
    s = np.zeros(64)
    rng = channel.FrameRng(1234)
    y5_first, _ = send(s, params, next(rng.frames(5, 6)))
    y2, _ = send(s, params, next(rng.frames(2, 3)))
    y5_again, _ = send(s, params, next(channel.FrameRng(1234).frames(5, 6)))
    assert np.array_equal(y5_first, y5_again)
    assert not np.array_equal(y5_first, y2)
    # distinct stream ids are distinct
    a = next(channel.FrameRng(7).frames(0, 1, channel.STREAM_MESSAGE)).standard_normal(8)
    b = next(channel.FrameRng(7).frames(0, 1, channel.STREAM_CHANNEL)).standard_normal(8)
    assert not np.array_equal(a, b)


def _transmit_draws(gen):
    # every kind of draw transmit and the message draw make, an odd count first
    return (gen.integers(0, 2, 31), gen.rayleigh(channel.RAYLEIGH_SCALE, 7),
            gen.standard_normal(13), gen.random(5), gen.standard_normal(3))


@pytest.mark.parametrize("stream", [channel.STREAM_MESSAGE, channel.STREAM_CHANNEL,
                                    channel.STREAM_SEARCH, channel.STREAM_PROBE])
@pytest.mark.parametrize("start", [0, 37])
def test_frame_range_draws_equal_frame(stream, start):
    seed = channel.child_seed(21, stream)
    rng = channel.FrameRng(seed)
    seen = []
    for gen in rng.frames(start, start + 6, stream):
        i = start + len(seen)
        # the stream's definition: Philox keyed by the seed at counter [0, 0, i, stream]
        ref = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, i, stream]))
        got, want = _transmit_draws(gen), _transmit_draws(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        seen.append(i)
    assert seen == list(range(start, start + 6))
    assert list(rng.frames(start, start, stream)) == []
    with pytest.raises(ValueError):
        next(rng.frames(-1, 2, stream))


@pytest.mark.parametrize("seed", [5, 2**128 - 1, np.int64(2**63 - 1)])
def test_frames_rekey_at_the_top_of_the_counter_range(seed):
    # frames in a row, each drawing an odd integer count first, so that a
    # cached uint32 or a buffered block left by one frame would show in the next
    rng = channel.FrameRng(seed)
    for stream in (channel.STREAM_MESSAGE, channel.STREAM_CHANNEL,
                   channel.STREAM_SEARCH, channel.STREAM_PROBE):
        for start in (2**63, 2**64 - 2):
            for i, gen in enumerate(rng.frames(start, start + 2, stream), start):
                counter = np.array([0, 0, i, stream], dtype=np.uint64)
                ref = np.random.Generator(np.random.Philox(key=int(seed), counter=counter))
                got, want = _transmit_draws(gen), _transmit_draws(ref)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_child_seed_deterministic():
    assert channel.child_seed(9, 1) == channel.child_seed(9, 1)
    assert channel.child_seed(9, 1) != channel.child_seed(9, 2)
    assert 0 <= channel.child_seed(9, 3) < 2**64


def test_channel_params_validation():
    for sigma in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            channel.ChannelParams(sigma=sigma)
        with pytest.raises(ValueError, match="sigma_b must be positive and finite"):
            channel.ChannelParams(sigma=1.0, kind="bursty", sigma_b=sigma)
    with pytest.raises(ValueError):
        channel.ChannelParams(sigma=1.0, kind="laplace")
    with pytest.raises(ValueError):
        channel.ChannelParams(sigma=1.0, kind="bursty", rho=1.5)


def test_channel_params_reject_bools_strings_and_unused_burst_settings():
    for name, opts in [("sigma", dict(sigma=True)), ("sigma", dict(sigma="1")),
                       ("sigma_b", dict(sigma=1.0, kind="bursty", sigma_b=True)),
                       ("sigma_b", dict(sigma=1.0, kind="bursty", sigma_b="2")),
                       ("rho", dict(sigma=1.0, kind="bursty", rho=True)),
                       ("rho", dict(sigma=1.0, kind="bursty", rho="0.1"))]:
        with pytest.raises(ValueError, match=f"^{name} must .*got {opts[name]!r}"):
            channel.ChannelParams(**opts)
    for kind in ("awgn", "rayleigh"):
        for name in ("sigma_b", "rho"):
            with pytest.raises(ValueError, match=f"^{name} applies to a bursty channel only"):
                channel.ChannelParams(sigma=1.0, kind=kind, **{name: 0.5})
    burst = channel.ChannelParams(sigma=np.float64(0.5), kind="bursty", sigma_b=1, rho=0)
    assert (burst.sigma_b, burst.rho) == (1, 0)


# Random123's known-answer vectors for Philox4x64-10: (counter, key) -> output
PHILOX4X64_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554d9eca36314c, 0xdb20fe9d672d0fdc, 0xd7e772cee186176b, 0x7e68b68aec7ba23b)),
    ((2**64 - 1,) * 4, (2**64 - 1,) * 2,
     (0x87b092c3013fe90b, 0x438c3c67be8d0224, 0x9cc7d7c69cd777b6, 0xa09caebf594f0ba0)),
    ((0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0, 0x082efa98ec4e6c89),
     (0x452821e638d01377, 0xbe5466cf34e90c6c),
     (0xa528f45403e61d95, 0x38c72dbd566e9788, 0xa5a1610e72fd18b5, 0x57bd43b5e52b7fe6)),
]


def test_philox4x64_known_answers():
    counters = np.array([c for c, _, _ in PHILOX4X64_KAT], dtype=np.uint64).T
    for col, (_, key, want) in enumerate(PHILOX4X64_KAT):
        got = channel._philox4x64(counters[:, col:col + 1], key)[:, 0]
        assert [int(v) for v in got] == list(want)


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 7, 2**128 - 1, np.int64(2**63 - 1)])
def test_bits_equal_per_frame_integer_draws(seed):
    rng = channel.FrameRng(seed)
    for start in (0, 37, 2**64 - 3):
        for stream in (channel.STREAM_MESSAGE, channel.STREAM_CHANNEL,
                       channel.STREAM_SEARCH, channel.STREAM_PROBE):
            for k in (1, 7, 8, 9, 32, 33, 129, 300):
                got = rng.bits(start, start + 3, k, stream)
                want = [gen.integers(0, 2, k) for gen in rng.frames(start, start + 3, stream)]
                assert got.dtype == np.uint8 and got.shape == (3, k)
                assert np.array_equal(got, np.array(want))
    for k in (0, 1, 33):
        assert rng.bits(5, 5, k).shape == (0, k)
    assert rng.bits(5, 9, 0).shape == (4, 0)


def test_frame_ranges_end_at_two_to_the_64():
    rng = channel.FrameRng(3)
    # rejected when asked for, before any generator is made or bit drawn
    for bad in (lambda: rng.frames(2**64 - 2, 2**64 + 1), lambda: rng.bits(2**64 - 2, 2**64 + 1, 8)):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            bad()
    for bad in (lambda: rng.frames(-1, 2), lambda: rng.bits(-1, 2, 8)):
        with pytest.raises(ValueError, match="frame start must be an integer >= 0, got -1"):
            bad()
    for k in (-1, 2.0, True):
        with pytest.raises(ValueError, match="bit count"):
            rng.bits(0, 2, k)
    assert len(list(rng.frames(2**64 - 2, 2**64))) == 2
    assert rng.bits(2**64 - 2, 2**64, 16).shape == (2, 16)


def per_row_transmit(s, params, gens, coords_per_symbol):
    """Each row through the channel on its own generator, drawn and combined
    one row at a time: the definition the block transmit must equal."""
    ys, gs = [], []
    for row, gen in zip(s, gens):
        y = row
        if params.kind == "rayleigh":
            g = gen.rayleigh(scale=channel.RAYLEIGH_SCALE, size=len(row) // coords_per_symbol)
            y = np.repeat(g, coords_per_symbol) * row
            gs.append(g)
        y = y + params.sigma * gen.standard_normal(len(row))
        if params.kind == "bursty":
            mask = gen.random(len(row)) < params.rho
            w = params.sigma_b * gen.standard_normal(len(row))
            y = y + np.where(mask, w, 0.0)
        ys.append(y)
    return np.stack(ys), (np.stack(gs) if gs else None)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh", "bursty"])
@pytest.mark.parametrize("coords_per_symbol", [1, 2])
def test_block_transmit_equals_per_row_transmit(kind, coords_per_symbol):
    params = channel.ChannelParams(sigma=0.7, kind=kind)
    s = np.random.default_rng(4).choice([-1.0, 1.0], size=(37, 64)) / math.sqrt(coords_per_symbol)
    rng = channel.FrameRng(2**64 + 7)
    y, gains = send(s, params, rng.frames(100, 137), coords_per_symbol)
    y_ref, gains_ref = per_row_transmit(s, params, rng.frames(100, 137), coords_per_symbol)
    assert y.tobytes() == y_ref.tobytes()
    if kind == "rayleigh":
        assert gains.shape == (37, 64 // coords_per_symbol)
        assert gains.tobytes() == gains_ref.tobytes()
    else:
        assert gains is None
    # a row's realization is its frame's alone: one row sent by itself is the same
    y_one, _ = send(s[5], params, next(rng.frames(105, 106)), coords_per_symbol)
    assert y_one.tobytes() == y[5].tobytes()


def test_block_transmit_needs_one_generator_per_row():
    params = channel.ChannelParams(sigma=1.0)
    rng = channel.FrameRng(1)
    for frames in (rng.frames(0, 3), rng.frames(0, 5)):
        with pytest.raises(ValueError):
            send(np.zeros((4, 8)), params, frames)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh", "bursty"])
@pytest.mark.parametrize("scheme", ["bpsk", "qam4"])
def test_transmit_on_shared_draws_equals_transmit(kind, scheme):
    params = channel.ChannelParams(sigma=0.7, kind=kind)
    const = modem.get_constellation(scheme)
    bits = np.random.default_rng(8).integers(0, 2, (37, 64)).astype(np.uint8)
    s = modem.modulate(bits, const)
    rng = channel.FrameRng(31)
    draws = channel.draw(params, rng.frames(3, 40), s.shape, const.coords_per_symbol)
    # several signals pass through the one realization drawn once
    for signal in (s, s[::-1], 0.5 * s):
        y = channel.transmit(signal, params, draws, const.coords_per_symbol)
        y_ref, gains_ref = send(signal, params, rng.frames(3, 40), const.coords_per_symbol)
        assert y.tobytes() == y_ref.tobytes()
        if kind == "rayleigh":
            assert draws.gains.shape == (37, 64 // const.coords_per_symbol)
            assert draws.gains.tobytes() == gains_ref.tobytes()
        else:
            assert draws.gains is None and gains_ref is None


def test_transmit_rejects_draws_made_for_another_signal_or_kind():
    awgn = channel.ChannelParams(sigma=1.0)
    draws = channel.draw(awgn, channel.FrameRng(1).frames(0, 4), (4, 8))
    with pytest.raises(ValueError, match="shape"):
        channel.transmit(np.zeros((4, 6)), awgn, draws)
    for kind in ("rayleigh", "bursty"):
        with pytest.raises(ValueError, match=f"a {kind} channel"):
            channel.transmit(np.zeros((4, 8)), channel.ChannelParams(sigma=1.0, kind=kind), draws)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh", "bursty"])
@pytest.mark.parametrize("scheme", ["bpsk", "qam4"])
def test_out_forms_give_the_bytes_of_the_allocating_forms(kind, scheme):
    # the demapper and its adjoint, each into a separate `out` and into its own input
    params = channel.ChannelParams(sigma=0.7, kind=kind)
    const = modem.get_constellation(scheme)
    cps = const.coords_per_symbol
    bits = np.random.default_rng(9).integers(0, 2, (37, 64)).astype(np.uint8)
    s = modem.modulate(bits, const)
    draws = channel.draw(params, channel.FrameRng(32).frames(0, 37), s.shape, cps)
    drawn = [None if a is None else a.tobytes() for a in draws]
    sent = s.copy()
    x = channel.transmit(s, params, draws, cps)
    assert s.tobytes() == sent.tobytes()
    steps = [lambda x, **out: modem.demodulate_llr(x, 0.7, const, draws.gains, **out),
             lambda x, **out: modem.demodulate_adjoint(x, 0.7, const, draws.gains, **out)]
    for step in steps:
        before = x.copy()
        want = step(x)
        assert x.tobytes() == before.tobytes()  # without `out`, the input is left as it was
        separate = np.full_like(x, np.nan)
        assert step(x, out=separate) is separate and separate.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        aliased = x.copy()
        assert step(aliased, out=aliased) is aliased and aliased.tobytes() == want.tobytes()
        x = want
    assert [None if a is None else a.tobytes() for a in draws] == drawn


def test_a_bad_out_is_rejected_before_anything_is_written():
    const = modem.get_constellation("bpsk")
    s = np.ones((4, 8))
    steps = [lambda out: modem.demodulate_llr(s, 0.7, const, out=out),
             lambda out: modem.demodulate_adjoint(s, 0.7, const, out=out)]
    read_only = np.full((4, 8), 7.0)
    read_only.flags.writeable = False
    for step in steps:
        for bad in (np.full((4, 7), 7.0), np.full((8, 4), 7.0), np.full((4, 8), 7.0, np.float32),
                    read_only):
            with pytest.raises(ValueError, match="^out must be a writeable float64 array"):
                step(bad)
            assert np.all(bad == 7.0)
        with pytest.raises(ValueError, match="^out must be"):
            step([[0.0] * 8] * 4)
    assert np.all(s == 1.0)
