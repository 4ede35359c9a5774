import multiprocessing
import os
import re
import tempfile
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from friendlyfec import attack, bp, channel, codes, gf2, modem, montecarlo, split


@pytest.fixture(scope="module")
def ldpc():
    return codes.ldpc_64_32()


@pytest.mark.parametrize("epsilon0", [0.1, None])
def test_every_trial_steps_by_one_step_size(ldpc, epsilon0):
    # epsilon0, or the size calibrated from the first batch, for every trial, accepted or not
    cfg = attack.approach_config(1, sigma=0.756, batch_size=100, accepted_iters=3,
                                 max_trials=12, epsilon0=epsilon0)
    trace = []
    attack.search_attack(ldpc, bp.DecoderConfig(iters=3), "bpsk", cfg, seed=5,
                         on_trial=trace.append)
    steps = {rec["epsilon"] for rec in trace}
    assert len(trace) > 3 and len(steps) == 1
    assert steps == {0.1} if epsilon0 else 0 < steps.pop() != 0.1


def test_search_config_validation():
    with pytest.raises(ValueError):
        attack.SearchConfig(batch_size=0)
    with pytest.raises(ValueError):
        attack.SearchConfig(epsilon0=-0.1)
    for bad in ({"epsilon0": np.nan}, {"epsilon0": np.inf}, {"runs": 0}, {"cluster_k": 0},
                {"sigma": np.nan}, {"sigma": np.inf}, {"sigma": -1.0}, {"sigma": 0.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            attack.SearchConfig(**bad)
    with pytest.raises(ValueError):
        attack.SearchConfig(accepted_iters=10, max_trials=5)
    with pytest.raises(TypeError):  # a regime's runs are reduced by k-means alone
        attack.SearchConfig(cluster="kmeans")
    for number in (2, 5):
        with pytest.raises(ValueError, match="approach must be 1, 3 or 4"):
            attack.approach_config(number)


def test_approach_config_takes_only_an_integer_approach():
    # True and 1.0 would pick preset 1 and label it 'True' or '1.0'
    for bad in (True, np.True_, 1.0, np.float64(2.0), "1"):
        with pytest.raises(ValueError, match=re.escape(f"approach must be an integer >= 1, got {bad!r}")):
            attack.approach_config(bad)
    assert attack.approach_config(np.int64(3)).approach == "3"


@pytest.mark.parametrize("name, message", [("sigma", "positive and finite"),
                                           ("epsilon0", "positive and finite")])
def test_search_config_float_settings_are_numbers(name, message):
    # a bool would act as 1.0; a string would fail inside a comparison
    for bad in (True, np.True_, "0.5"):
        with pytest.raises(ValueError, match=f"{name} must be {message}, got {re.escape(repr(bad))}"):
            attack.SearchConfig(**{name: bad})
    assert getattr(attack.SearchConfig(**{name: np.float64(0.5)}), name) == 0.5


def test_attack_vector_search_sigma_is_a_number():
    for bad in (True, "0.8", None):
        with pytest.raises(ValueError, match="attack field 'search_sigma' must be positive"):
            replace(_vec([0.0, 0.0]), search_sigma=bad)
    assert replace(_vec([0.0, 0.0]), search_sigma=2).search_sigma == 2


@pytest.mark.parametrize("name", ["batch_size", "accepted_iters", "max_trials", "runs",
                                  "cluster_k"])
def test_search_config_counts_are_integers(name):
    # a fraction or a bool fails deep in the search, or silently means 1
    for bad in (1.5, 2.5, 100.0, True):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {bad!r}"):
            attack.SearchConfig(**{name: bad})
    assert getattr(attack.SearchConfig(**{name: np.int64(100)}), name) == 100


def test_normalize_power():
    s = np.array([1.0, 1.0])
    scaled, c = attack.normalize_power(s)
    assert c == pytest.approx(1.0)
    assert np.array_equal(scaled, s)

    scaled, c = attack.normalize_power(np.array([2.0, 0.0]))
    assert c == pytest.approx(1 / np.sqrt(2))
    assert np.allclose(scaled, [np.sqrt(2), 0.0])

    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.normal(0, 3, 16)
        scaled, _ = attack.normalize_power(v)
        assert np.sum(scaled**2) / 16 == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        attack.normalize_power(np.zeros(4))


def test_apply_attack_bpsk_formula():
    c = modem.get_constellation("bpsk")
    rng = np.random.default_rng(1)
    raw = 0.1 * rng.normal(0, 1, 8)
    # fold the power constraint into a, like the search does
    s0 = np.ones(8)
    normed, _ = attack.normalize_power(s0 + raw)
    a = normed - s0

    out = attack.apply_attack(s0, a, c)
    assert np.allclose(out, s0 + a, atol=1e-12)  # all-zero word: out = s + a, C = 1

    s = modem.modulate(np.array([1, 0, 1, 1, 0, 0, 1, 0]), c)
    out = attack.apply_attack(s, a, c)
    assert np.allclose(out, s * (1.0 + a), atol=1e-12)  # sign-coupled coordinates
    assert np.sum(out**2) == pytest.approx(8.0, rel=1e-9)


def test_apply_attack_zero_is_noop():
    c = modem.get_constellation("bpsk")
    s = modem.modulate(np.array([0, 1, 1, 0]), c)
    assert np.array_equal(attack.apply_attack(s, np.zeros(4), c), s)


def test_apply_attack_rejects_zeroed_word(ldpc):
    c = modem.get_constellation("bpsk")
    s = modem.modulate(np.array([[0, 1, 1, 0], [1, 1, 0, 0]]), c)
    with pytest.raises(ValueError, match="zeroes the sent word"):
        attack.apply_attack(s, -np.ones(4), c)
    # the Monte Carlo path fails at the attack, not in the decoder
    with pytest.raises(ValueError, match="zeroes the sent word"):
        montecarlo.run_point(ldpc, bp.DecoderConfig(iters=5), "bpsk", 2.0, frames=8, seed=0,
                             attack=-np.ones(64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme, entry", [("bpsk", 1e300), ("qam4", 1e300), ("qam4", 1.7e308)])
def test_perturbation_whose_norm_overflows_is_rejected(ldpc, monkeypatch, scheme, entry):
    # the norm of the sent word overflows, and its scale to the power budget would be 0
    def no_draws(*args, **kwargs):
        raise AssertionError("the channel was drawn")

    monkeypatch.setattr(channel, "draw", no_draws)
    c, a = modem.get_constellation(scheme), np.full(64, entry)
    s = modem.modulate(np.zeros(64, dtype=np.uint8), c)
    for call in (lambda: attack.attacked_zero_word(a, c), lambda: attack.apply_attack(s, a, c),
                   lambda: montecarlo.run_point(ldpc, bp.DecoderConfig(iters=5), scheme, 2.0,
                                                frames=512, seed=0, attack=a)):
        with pytest.raises(ValueError, match="norm is not finite"):
            call()
    with pytest.raises(ValueError, match="norm is not finite"):
        attack.normalize_power(np.full(4, 1e300))


@pytest.mark.parametrize("label", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["00", "01", "10", "11"])
def test_apply_attack_qam4_signs_each_coordinate(label):
    # each coordinate's perturbation enters with that coordinate's sign, on
    # all four labels: for 01 and 10 a per-symbol phase rotation would swap
    # the real and imaginary parts instead
    c = modem.get_constellation("qam4")
    a = np.array([0.1, -0.05])  # one complex symbol perturbation
    s = modem.modulate(np.array(label), c)
    sign = 1.0 - 2.0 * np.array(label)
    out = attack.apply_attack(s, a, c)
    want, _ = attack.normalize_power(s + sign * a, coords_per_symbol=2)
    assert np.allclose(out, want, atol=1e-12)
    s0 = modem.modulate(np.array([0, 0]), c)
    assert np.array_equal(out, sign * attack.apply_attack(s0, a, c))


def test_check_fits_rejects_scheme_and_code_mismatch(ldpc):
    def vec(code_id, scheme="bpsk"):
        return attack.AttackVector(a=np.zeros(64), code_id=code_id, scheme=scheme, n=64,
                                   n_symbols=64 // modem.get_constellation(scheme).bits_per_symbol,
                                   search_sigma=1.0, seed=0, approach="1", accepted_iters=0)
    vec(ldpc.name).check_fits(ldpc, "bpsk")
    with pytest.raises(ValueError, match="scheme 'bpsk' does not match 'qam4'"):
        vec(ldpc.name).check_fits(ldpc, "qam4")
    with pytest.raises(ValueError, match="scheme 'qam4' does not match 'bpsk'"):
        vec(ldpc.name, "qam4").check_fits(ldpc, "bpsk")
    for code_id in ("other_code", ""):  # an empty id fits no code
        with pytest.raises(ValueError, match=f"code id '{code_id}' does not match"):
            vec(code_id).check_fits(ldpc, "bpsk")


def test_power_conservation_many_words(ldpc):
    rng = np.random.default_rng(2)
    c = modem.get_constellation("bpsk")
    raw = 0.2 * rng.normal(0, 1, 64)
    normed, _ = attack.normalize_power(np.ones(64) + raw)
    a = normed - np.ones(64)
    msgs = rng.integers(0, 2, (200, 32)).astype(np.uint8)
    s = modem.modulate((msgs @ ldpc.G.astype(np.int64) & 1).astype(np.uint8), c)
    out = attack.apply_attack(s, a, c)
    energy = np.sum(out**2, axis=-1) / 64
    assert np.max(np.abs(energy - 1.0)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["bpsk", "qam4"]), data=st.data(),
       msgs=st.lists(st.lists(st.integers(0, 1), min_size=32, max_size=32), min_size=1, max_size=5))
def test_apply_attack_meets_the_power_budget_property(ldpc, scheme, data, msgs):
    # every attacked codeword carries N P exactly, whatever the word and the vector,
    # and sends its signs times the all-zero codeword's word: one power profile
    const = modem.get_constellation(scheme)
    s = modem.modulate(gf2.encode(np.array(msgs, dtype=np.uint8), ldpc.G), const)
    a = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=64, max_size=64)))
    try:
        out = attack.apply_attack(s, a, const)
    except ValueError as exc:  # a zeroed word has its own test
        if "zeroes the sent word" not in str(exc):
            raise
        reject()
    budget = (64 // const.bits_per_symbol) * attack.POWER
    assert np.all(np.abs(np.sum(out**2, axis=-1) / budget - 1.0) <= 1e-12)
    word = attack.attacked_zero_word(a, const)
    assert out.tobytes() == ((s / const.amplitude) * word).tobytes()
    assert np.abs(out).tobytes() == np.tile(np.abs(word), (len(out), 1)).tobytes()


@pytest.mark.parametrize("scheme", ["bpsk", "qam4"])
def test_sign_coupling_transfer_identity(ldpc, scheme):
    # decoding an attacked codeword under noise z matches decoding the
    # attacked all-zero word under sign-coupled noise, error for error
    c = modem.get_constellation(scheme)
    g = bp.TannerGraph(ldpc.H)
    dec = bp.DecoderConfig(iters=4)
    rng = np.random.default_rng(3)
    s0 = modem.modulate(np.zeros(64, dtype=np.uint8), c)
    raw = 0.15 * rng.normal(0, 1, 64)
    a = attack.normalize_power(s0 + raw, c.coords_per_symbol)[0] - s0
    for _ in range(20):
        m = rng.integers(0, 2, 32).astype(np.uint8)
        x = ((m @ ldpc.G.astype(np.int64)) & 1).astype(np.uint8)
        t = 1.0 - 2.0 * x.astype(float)
        z = 0.8 * rng.standard_normal(64)
        y_word = attack.apply_attack(modem.modulate(x, c), a, c) + z
        y_zero = attack.apply_attack(s0, a, c) + t * z
        out_word = bp.bp_forward(modem.demodulate_llr(y_word, 0.8, c), g, dec.iters)
        out_zero = bp.bp_forward(modem.demodulate_llr(y_zero, 0.8, c), g, dec.iters)
        assert np.array_equal((out_word.soft[-1] < 0) ^ x, out_zero.soft[-1] < 0)


def test_search_degenerate_noise_returns_zero(ldpc):
    dec = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(1, sigma=1e-6, batch_size=50, accepted_iters=3,
                                 max_trials=30, epsilon0=0.1)
    av = attack.search_attack(ldpc, dec, "bpsk", cfg, seed=2)
    assert av.is_zero
    assert av.accepted_iters == 0


def test_search_deterministic(ldpc):
    dec = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(1, sigma=0.75, batch_size=100, accepted_iters=4, max_trials=20)
    a1 = attack.search_attack(ldpc, dec, "bpsk", cfg, seed=21)
    a2 = attack.search_attack(ldpc, dec, "bpsk", cfg, seed=21)
    assert np.array_equal(a1.a, a2.a)
    assert a1.accepted_iters == a2.accepted_iters


def test_search_takes_a_numpy_integer_seed(ldpc):
    # the seed is checked by FrameRng and stored as a Python int, so no trial is wasted
    dec = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(1, sigma=0.8, batch_size=64, accepted_iters=2, max_trials=10)
    want = attack.search_attack(ldpc, dec, "bpsk", cfg, seed=3)
    got = attack.search_attack(ldpc, dec, "bpsk", cfg, seed=np.int64(3))
    assert want.accepted_iters > 0
    assert got.a.tobytes() == want.a.tobytes()
    assert got.seed == 3 and type(got.seed) is int


def test_search_repetition_never_hurts():
    # BP on the repetition chain is exact MAP, so no power-neutral
    # perturbation can strictly improve a batch; the search must return
    # zero and paired evaluation ties the baseline
    code = codes.repetition_code(3)
    dec = bp.DecoderConfig(iters=2)
    sigma = 3.159  # baseline BLER ~ 0.29
    cfg = attack.approach_config(1, sigma=sigma, batch_size=4000, accepted_iters=20,
                                 max_trials=60)
    av = attack.search_attack(code, dec, "bpsk", cfg, seed=21)
    assert np.sum((np.ones(3) + av.a) ** 2) == pytest.approx(3.0, rel=1e-9)
    ebn0 = channel.sigma_to_ebn0(sigma, code.rate, 1)
    base = montecarlo.run_point(code, dec, "bpsk", ebn0, frames=20000, seed=777)
    att = montecarlo.run_point(code, dec, "bpsk", ebn0, frames=20000, seed=777, attack=av)
    assert att.ber <= base.ber


def test_search_accepts_exactly_the_trials_its_criterion_improves(ldpc):
    # the criterion is the batch BER; the batch BLER is recorded only
    dec = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(1, sigma=0.756, batch_size=200, accepted_iters=4, max_trials=20)
    trace = []
    av = attack.search_attack(ldpc, dec, "bpsk", cfg, seed=42, on_trial=trace.append)
    assert av.accepted_iters == sum(rec["accepted"] for rec in trace) > 0
    for rec in trace:
        assert rec["accepted"] == (rec["ber_new"] < rec["ber"])


def test_search_qam4_smoke(ldpc):
    dec = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(1, sigma=0.53, batch_size=200, accepted_iters=4, max_trials=20)
    av = attack.search_attack(ldpc, dec, "qam4", cfg, seed=42)
    assert av.scheme == "qam4"
    assert av.a.shape == (64,)       # 2N interleaved re/im coordinates
    assert av.n_symbols == 32
    assert av.accepted_iters > 0
    const = modem.get_constellation("qam4")
    out = attack.apply_attack(modem.modulate(np.zeros(64, dtype=np.uint8), const), av.a, const)
    assert np.sum(out**2) / 32 == pytest.approx(1.0, rel=1e-9)


def test_search_nonfinite_soft_output_stops_before_the_backward_pass(ldpc, monkeypatch):
    # the epsilon calibration is the first taped decode; poison one lane of its second block
    forward, backward = bp.bp_forward, bp.bp_backward
    taped_blocks, backward_tapes = [], []

    def poisoned_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        if out.tape is not None:
            taped_blocks.append(out.tape)
            if len(taped_blocks) == 2:
                out.soft[-1][5] = np.nan
        return out

    def recorded_backward(tape, *args, **kwargs):
        backward_tapes.append(tape)
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(bp, "bp_forward", poisoned_forward)
    monkeypatch.setattr(bp, "bp_backward", recorded_backward)
    cfg = attack.SearchConfig(batch_size=300, accepted_iters=2, sigma=0.8)
    with pytest.raises(RuntimeError, match="non-finite soft output during the search"):
        attack.search_attack(ldpc, bp.DecoderConfig(iters=3), "bpsk", cfg, seed=1)
    assert len(taped_blocks) == 2 and taped_blocks[1].input_llr.shape == (128, 64)
    assert len(backward_tapes) == 1 and backward_tapes[0] is taped_blocks[0]


class _CountedHelpers(split.Helpers):
    """The helpers of split decodes, each start recorded as (helpers, lanes)."""
    started = []

    def __init__(self, receiver, count, lanes):
        self.started.append((count, lanes))
        super().__init__(receiver, count, lanes)


@pytest.fixture
def one_helper(monkeypatch):
    """Split decodes use one helper process, however many CPUs there are; returns the starts."""
    monkeypatch.setattr(split, "helper_count", lambda: 1)
    monkeypatch.setattr(_CountedHelpers, "started", [])
    monkeypatch.setattr(split, "Helpers", _CountedHelpers)
    return _CountedHelpers.started


def test_a_split_search_gives_the_bytes_of_a_search_in_one_process(ldpc, one_helper, monkeypatch):
    # 1100 lanes, not a multiple of 128, split as 512 + 588; the probe calibrates the step size
    cfg = attack.SearchConfig(batch_size=1100, accepted_iters=3, max_trials=4, sigma=0.8)
    results = []
    for helpers in (1, 0):
        monkeypatch.setattr(split, "helper_count", lambda: helpers)
        trials = []
        vec = attack.search_attack(ldpc, bp.DecoderConfig(iters=5), "bpsk", cfg, seed=3,
                                   on_trial=trials.append)
        results.append((vec.a.tobytes(), vec.accepted_iters, repr(trials)))
        assert len(trials) >= 3 and multiprocessing.active_children() == []
    assert one_helper == [(1, 588)]  # one start, for the probe and every trial
    assert results[0] == results[1]


def test_searches_below_the_split_size_start_no_process(ldpc, one_helper):
    dec = bp.DecoderConfig(iters=3)
    attack.search_attack(ldpc, dec, "bpsk", attack.SearchConfig(
        batch_size=bp.SPLIT_LANES - 1, accepted_iters=1, max_trials=2, sigma=0.8), seed=1)
    attack.run_regime(ldpc, dec, "bpsk", attack.approach_config(
        3, sigma=0.8, batch_size=20, accepted_iters=2, runs=6, max_trials=3), seed=1)
    assert one_helper == []


def test_a_search_trial_holds_one_batch_buffer_beside_its_noise(ldpc, one_helper):
    # 8192 lanes split as 4096 + 4096. The traced peak holds this process's arrays: the
    # noise, the one buffer, the taped work set and the bits, near 3.2 batch buffers; the
    # helper's part and the shared mapping are not traced
    B = 8192
    cfg = attack.SearchConfig(batch_size=B, accepted_iters=1, max_trials=1, sigma=0.8,
                              epsilon0=0.05)
    tracemalloc.start()
    try:
        attack.search_attack(ldpc, bp.DecoderConfig(iters=5), "bpsk", cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one_helper == [(1, B // 2)] and multiprocessing.active_children() == []
    assert peak <= 4 * B * ldpc.n * 8


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_split_search_raises_a_part_error_and_leaves_no_process(ldpc, one_helper, where,
                                                                  monkeypatch):
    # the non-finite soft output of a taped block, in the helper's part or in the caller's
    forward, caller = bp.bp_forward, os.getpid()

    def poisoned_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        if out.tape is not None and (os.getpid() == caller) == (where == "caller"):
            out.soft[-1][5] = np.nan
        return out

    monkeypatch.setattr(bp, "bp_forward", poisoned_forward)
    cfg = attack.SearchConfig(batch_size=1100, accepted_iters=2, sigma=0.8)
    with pytest.raises(RuntimeError) as raised:
        attack.search_attack(ldpc, bp.DecoderConfig(iters=3), "bpsk", cfg, seed=1)
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == "decoder produced non-finite soft output during the search"
    assert one_helper == [(1, 588)] and multiprocessing.active_children() == []


def test_run_regime_deterministic_and_smoke(ldpc):
    dec = bp.DecoderConfig(iters=3)
    cfg = attack.approach_config(3, sigma=0.756, batch_size=20, accepted_iters=3,
                                 runs=6, max_trials=30, cluster_k=2)
    vecs = attack.run_regime(ldpc, dec, "bpsk", cfg, seed=7)
    assert len(vecs) == 6
    assert sum(not v.is_zero for v in vecs) >= 1
    again = attack.run_regime(ldpc, dec, "bpsk", cfg, seed=7)
    assert all(np.array_equal(a.a, b.a) for a, b in zip(vecs, again))
    with pytest.raises(ValueError):
        attack.run_regime(ldpc, dec, "bpsk", attack.SearchConfig(runs=1, sigma=0.7), seed=7)


@pytest.mark.parametrize("scheme, sigma, epsilon0", [("bpsk", 0.8, None), ("bpsk", 0.8, 0.05),
                                                    ("qam4", 0.55, None)])
def test_run_regime_equals_a_loop_of_searches(ldpc, scheme, sigma, epsilon0, monkeypatch):
    # the runs stop at different trials, and 13 runs form lockstep groups of 6, 6 and 1
    dec = bp.DecoderConfig(iters=3)
    width = bp.BLOCK_LANES // 20
    cfg = attack.approach_config(3, sigma=sigma, batch_size=20, accepted_iters=5,
                                 max_trials=12, runs=2 * width + 1, epsilon0=epsilon0)
    lanes, decode = [], bp.Receiver.decode

    def counted(self, llr, **kwargs):
        lanes.append(len(llr))
        return decode(self, llr, **kwargs)

    monkeypatch.setattr(bp.Receiver, "decode", counted)
    records = []
    vecs = attack.run_regime(ldpc, dec, scheme, cfg, seed=11, on_trial=records.append)
    monkeypatch.undo()
    # a full group's first decode stacks one decode block's worth of runs: 120 lanes
    assert (width, lanes[0], max(lanes), lanes[-1]) == (6, 120, 120, 20)
    want_records, ends = [], []
    for run, vec in enumerate(vecs):
        one = []
        want = attack.search_attack(ldpc, dec, scheme, replace(cfg, approach=f"3:run{run}"),
                                    seed=channel.child_seed(11, run), on_trial=one.append)
        want_records += one
        ends.append(len(one))
        assert vec.a.tobytes() == want.a.tobytes()
        assert (vec.seed, vec.approach, vec.accepted_iters) == \
            (want.seed, want.approach, want.accepted_iters)
    assert records == want_records
    assert len(set(ends)) > 1


class _Stopped(Exception):
    pass


def test_search_sends_every_batch_through_transmit_on_its_trial_draws(ldpc, transmit_calls):
    config = attack.SearchConfig(batch_size=30, accepted_iters=3, max_trials=6, sigma=0.8)
    trials = []
    vec = attack.search_attack(ldpc, bp.DecoderConfig(iters=3), "bpsk", config, seed=4,
                               on_trial=trials.append)
    assert len(transmit_calls) == 1 + 2 * len(trials)  # the step-size probe, then two per trial
    params, rng = channel.ChannelParams(sigma=0.8), channel.FrameRng(4)
    frames = [rng.frames(0, 1, channel.STREAM_PROBE)]
    frames += [rng.frames(t, t + 1, channel.STREAM_SEARCH) for t in range(len(trials))
               for _ in range(2)]  # trial t + 1 draws frame t, and both its decodes send on it
    for (s, draws), gens in zip(transmit_calls, frames):
        want = channel.draw(params, gens, (1, 30, 64))
        assert draws.noise.tobytes() == want.noise.tobytes()
        assert draws.gains is None and draws.burst_u is None
        assert s.shape == (1, 30, 64) and np.all(s == s[:, :1])  # one word per run
    word = np.ones(64)
    assert np.array_equal(transmit_calls[0][0][0, 0], word)
    for i, rec in enumerate(trials):
        assert np.array_equal(transmit_calls[1 + 2 * i][0][0, 0], word)  # the word held, then
        if rec["accepted"]:
            word = transmit_calls[2 + 2 * i][0][0, 0]  # the candidate, kept when accepted
    assert np.array_equal(vec.a, word - 1.0)


def test_regime_sends_each_stacked_batch_on_its_runs_draws(ldpc, transmit_calls):
    config = attack.SearchConfig(batch_size=20, accepted_iters=2, max_trials=3, runs=3,
                                 sigma=0.8)
    attack.run_regime(ldpc, bp.DecoderConfig(iters=3), "bpsk", config, seed=8)
    params = channel.ChannelParams(sigma=0.8)
    rngs = [channel.FrameRng(channel.child_seed(8, run)) for run in range(3)]
    want = channel.draw(params, [next(rng.frames(0, 1, channel.STREAM_PROBE)) for rng in rngs],
                        (3, 20, 64))
    # one probe call for the group, then the first trial's decode and re-decode
    assert transmit_calls[0][1].noise.tobytes() == want.noise.tobytes()
    want = channel.draw(params, [next(rng.frames(0, 1, channel.STREAM_SEARCH)) for rng in rngs],
                        (3, 20, 64))
    for s, draws in transmit_calls[1:3]:
        assert s.shape == (3, 20, 64)
        assert draws.noise.tobytes() == want.noise.tobytes()


def test_search_delivers_each_record_before_the_next_trial(ldpc, monkeypatch):
    decode, calls, seen = bp.Receiver.decode, [], []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return decode(self, *args, **kwargs)

    def on_trial(rec):
        seen.append((rec["trial"], len(calls)))
        if rec["trial"] == 2:
            raise _Stopped

    monkeypatch.setattr(bp.Receiver, "decode", counted)
    cfg = attack.approach_config(1, sigma=0.8, batch_size=20, accepted_iters=5,
                                 max_trials=10, epsilon0=0.05)
    with pytest.raises(_Stopped):
        attack.search_attack(ldpc, bp.DecoderConfig(iters=3), "bpsk", cfg, seed=1,
                             on_trial=on_trial)
    # a taped decode and a re-decode per trial, and nothing after the raise
    assert seen == [(1, 2), (2, 4)] and len(calls) == 4


def _vec(arr, tag="v"):
    return attack.AttackVector(a=np.asarray(arr, float), code_id="c", scheme="bpsk",
                               n=len(arr), n_symbols=len(arr), search_sigma=1.0,
                               seed=0, approach=tag, accepted_iters=1)


def test_cluster_single_cluster_is_mean():
    # k = 1 is approach 4's selection: bit for bit the plain mean of the nonzero vectors
    vs = [_vec([1.0, 0.0]), _vec([3.0, 2.0]), _vec([0.0, 0.0]), _vec([2.0, 1.3])]
    out = attack.cluster_attacks(vs, "kmeans", 1)
    assert len(out) == 1
    assert out[0].a.tobytes() == np.mean([vs[0].a, vs[1].a, vs[3].a], axis=0).tobytes()
    with pytest.raises(ValueError, match="cluster count k must be an integer >= 1, got 0"):
        attack.cluster_attacks(vs, "kmeans", 0)


def test_cluster_two_blobs():
    rng = np.random.default_rng(8)
    blob_a = rng.normal(+10.0, 0.3, (12, 5))
    blob_b = rng.normal(-10.0, 0.3, (12, 5))
    vs = [_vec(v) for v in np.concatenate([blob_a, blob_b])]
    cents = sorted(attack.cluster_attacks(vs, "kmeans", 2), key=lambda v: v.a[0])
    assert np.linalg.norm(cents[0].a - blob_b.mean(axis=0)) < 0.5
    assert np.linalg.norm(cents[1].a - blob_a.mean(axis=0)) < 0.5


def test_cluster_attacks_rejects_an_unknown_method(monkeypatch):
    # by name, before any clustering runs
    def clustered(*args, **kwargs):
        raise AssertionError("clustering ran")

    monkeypatch.setattr(attack, "_kmeans", clustered)
    vs = [_vec([1.0, 0.0]), _vec([3.0, 2.0]), _vec([2.0, 1.0])]
    for method in ("agglomerative", "KMeans", "none", None):
        with pytest.raises(ValueError, match=re.escape(f"unknown cluster method {method!r}")):
            attack.cluster_attacks(vs, method, 2)


def test_cluster_degenerate_k_equals_n():
    vs = [_vec([float(i), 0.0]) for i in range(1, 5)]
    out = attack.cluster_attacks(vs, "kmeans", 4)
    got = sorted(float(v.a[0]) for v in out)
    assert got == [1.0, 2.0, 3.0, 4.0]


def test_cluster_requires_enough_nonzero():
    vs = [_vec([1.0, 1.0]), _vec([0.0, 0.0])]
    with pytest.raises(ValueError, match="nonzero"):
        attack.cluster_attacks(vs, "kmeans", 2)


def test_select_best(ldpc):
    dec = bp.DecoderConfig(iters=3)
    good = attack.search_attack(
        ldpc, dec, "bpsk",
        attack.approach_config(1, sigma=0.756, batch_size=400, accepted_iters=8, max_trials=40),
        seed=42)
    zero = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                               n_symbols=64, search_sigma=0.756, seed=0, approach="zero",
                               accepted_iters=0)
    single = attack.select_best([zero], ldpc, dec, ebn0_db=4.4, frames=2000, seed=5)
    assert single is zero
    best = attack.select_best([good, zero], ldpc, dec, ebn0_db=4.4, frames=6000, seed=5)
    flipped = attack.select_best([zero, good], ldpc, dec, ebn0_db=4.4, frames=6000, seed=5)
    assert np.array_equal(best.a, flipped.a)  # order-independent winner


def test_select_best_checks_every_candidate_first(ldpc, monkeypatch):
    calls = []
    monkeypatch.setattr(channel, "draw", lambda *a, **kw: calls.append(a))
    ok = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="ok",
                             accepted_iters=0)
    bad = [replace(ok, code_id="other_code"), replace(ok, scheme="qam4", n_symbols=32),
           replace(ok, a=np.full(64, -1.0))]
    for last, match in zip(bad, ("other_code", "scheme", "zeroes the sent word")):
        with pytest.raises(ValueError, match=match):
            attack.select_best([ok, ok, last], ldpc, bp.DecoderConfig(iters=3), ebn0_db=4.0,
                               frames=100, seed=5)
    assert calls == []  # no validation run started


def test_select_best_draws_each_chunk_once(ldpc, monkeypatch):
    draw, calls = channel.draw, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return draw(*args, **kwargs)

    monkeypatch.setattr(channel, "draw", counted)
    rng = np.random.default_rng(3)
    ok = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="ok",
                             accepted_iters=0)
    candidates = [replace(ok, a=attack.normalize_power(1.0 + 0.1 * rng.normal(size=64))[0] - 1.0)
                  for _ in range(4)]
    attack.select_best(candidates, ldpc, bp.DecoderConfig(iters=3), ebn0_db=3.0, frames=1100,
                       seed=5)
    assert calls == [(512, 64), (512, 64), (76, 64)]  # one draw per chunk, for every candidate


def test_find_search_sigma_rejects_target_outside_unit_interval(ldpc):
    for target in (0.0, 1.0, 5.0, -0.3, np.nan):
        with pytest.raises(ValueError, match="target_bler"):
            attack.find_search_sigma(ldpc, bp.DecoderConfig(iters=3), "bpsk", seed=0,
                                     target_bler=target)


def test_find_search_sigma_matches_the_recorded_value(ldpc):
    # the search sigma the benchmark pins; it moves if the bisection bracket or step count does
    assert attack.find_search_sigma(ldpc, bp.DecoderConfig(iters=5), "bpsk",
                                    seed=11) == 0.8049697875976561


def test_attack_persistence_round_trip(tmp_path):
    av = _vec(np.linspace(-0.2, 0.3, 6), tag="1")
    path = tmp_path / "attack.json"
    attack.save_attack(av, path)
    back = attack.load_attack(path)
    assert np.array_equal(back.a, av.a)
    assert (back.code_id, back.scheme, back.n, back.n_symbols) == ("c", "bpsk", 6, 6)
    assert back.approach == "1"


def test_attack_load_ignores_unknown_fields(tmp_path):
    import json
    av = _vec([0.1, 0.2])
    rec = attack.attack_record(av)
    rec["future_extension"] = {"nested": True}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(rec))
    back = attack.load_attack(path)
    assert np.array_equal(back.a, av.a)


def test_attack_load_missing_field(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"version": 1, "a": [0.0]}')
    with pytest.raises(ValueError, match="missing"):
        attack.load_attack(path)
    path.write_text('[1, 2]')
    with pytest.raises(ValueError, match="JSON object"):
        attack.load_attack(path)


@pytest.mark.parametrize("field, value, named", [
    ("version", 99, "version"),
    ("a", [0.0] * 10, "a"),
    ("N", 3, "N"),
    ("scheme", "qam4", "N"),  # qam4 carries N = n // 2 symbols
    ("a", ["x"] + [0.0] * 5, "a"),
    ("a", [True] * 6, "a"),
    ("a", 0.5, "a"),
    ("n", "three", "n"),
    ("n", 6.0, "n"),
    ("seed", 1.5, "seed"),
    ("seed", -3, "seed"),
    ("accepted_iters", False, "accepted_iters"),
    ("search_sigma", "1.0", "search_sigma"),
    pytest.param("search_sigma", 10**400, "search_sigma", id="search_sigma-10**400"),
    ("a", [10**400] + [0.0] * 5, "a"),
    ("code_id", None, "code_id"),
    ("created", 5, "created"),
    ("search_sigma", -1.0, "search_sigma"),
    ("search_sigma", 0, "search_sigma"),
])
def test_attack_load_rejects_inconsistent_record(tmp_path, field, value, named):
    import json
    rec = attack.attack_record(_vec([0.1] * 6))
    rec[field] = value
    path = tmp_path / "a.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match=f"field '{named}'"):
        attack.load_attack(path)


def test_attack_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        _vec([np.nan, 0.0])
    for bad in ({"search_sigma": np.nan}, {"search_sigma": np.inf}, {"seed": -3},
                {"seed": 1.5}, {"accepted_iters": -2}, {"accepted_iters": True}):
        with pytest.raises(ValueError, match=f"field '{next(iter(bad))}'"):
            replace(_vec([0.0, 0.0]), **bad)


_SCHEMES = st.sampled_from(["bpsk", "qam4"])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 80), scheme=_SCHEMES, data=st.data())
def test_attack_save_load_round_trip_property(n, scheme, data):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    av = attack.AttackVector(
        a=np.array(data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=np.float64),
        code_id=data.draw(st.text(max_size=12)), scheme=scheme, n=n,
        n_symbols=n // modem.get_constellation(scheme).bits_per_symbol,
        search_sigma=data.draw(st.floats(0.0, exclude_min=True, allow_infinity=False)), seed=data.draw(st.integers(0, 2**63)),
        approach=data.draw(st.text(max_size=12)), accepted_iters=data.draw(st.integers(0, 10**6)),
        created=data.draw(st.text(max_size=12)))
    with tempfile.TemporaryDirectory() as d:
        attack.save_attack(av, d + "/a.json")
        back = attack.load_attack(d + "/a.json")
    assert np.array_equal(back.a, av.a) and back.a.dtype == np.float64
    for f in fields(attack.AttackVector):
        if f.name != "a":
            assert getattr(back, f.name) == getattr(av, f.name), f.name


@settings(max_examples=50, deadline=None)
@given(n=st.integers(6, 80), scheme=_SCHEMES, named=st.sampled_from(["a", "N"]),
       delta=st.integers(-5, 5).filter(bool))
def test_inconsistent_attack_vector_names_the_field_property(n, scheme, named, delta):
    length, n_symbols = n, n // modem.get_constellation(scheme).bits_per_symbol
    if named == "a":
        length += delta
    else:
        n_symbols += delta
    with pytest.raises(ValueError, match=f"field '{named}'"):
        attack.AttackVector(a=np.zeros(length), code_id="c", scheme=scheme, n=n,
                            n_symbols=n_symbols, search_sigma=1.0, seed=0, approach="1",
                            accepted_iters=0)
