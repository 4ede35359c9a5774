import io
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from friendlyfec import attack, bp, channel, codes, gf2, modem, montecarlo


@pytest.fixture(scope="module")
def ldpc():
    return codes.ldpc_64_32()


@pytest.fixture(scope="module")
def dec3():
    return bp.DecoderConfig(iters=3)


def test_noiseless_point(ldpc, dec3):
    res = montecarlo.run_point(ldpc, dec3, "bpsk", ebn0_db=90.0, frames=1000, seed=0)
    assert res.ber == 0.0 and res.bler == 0.0
    assert res.frames == 1000


def test_numpy_integer_iterations_give_the_python_int_digest(ldpc):
    # the digest hashes repr(decoder); iters is stored as an int however it is given
    runs = [montecarlo.run_point(ldpc, bp.DecoderConfig(iters=iters), "bpsk", ebn0_db=2.0,
                                 frames=100, seed=0) for iters in (2, np.int64(2))]
    assert runs[0].config_digest == runs[1].config_digest == "c14a3c78086f"
    assert runs[0].bit_errors == runs[1].bit_errors == 530
    assert all(type(r.iters) is int for r in runs)


def test_uncoded_bpsk_matches_q_function():
    # hard decision on the LLR sign of uncoded BPSK at sigma = 1:
    # BER = Q(1) = 0.158655...
    code = codes.uncoded(64)
    dec = bp.DecoderConfig(iters=0)
    ebn0 = channel.sigma_to_ebn0(1.0, 1.0, 1)
    res = montecarlo.run_point(code, dec, "bpsk", ebn0, frames=15625, seed=9)
    q1 = 0.5 * math.erfc(1 / math.sqrt(2))
    assert abs(res.ber - q1) < 3 * res.ci95_ber


def test_counts_and_rates_consistent(ldpc, dec3):
    res = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=3000, seed=4)
    assert res.ber == pytest.approx(res.bit_errors / (res.frames * ldpc.k))
    assert res.bler == pytest.approx(res.block_errors / res.frames)
    # a block error implies 1..k bit errors
    assert res.block_errors <= res.bit_errors <= ldpc.k * res.block_errors
    assert 0.0 <= res.ber <= 1.0 and 0.0 <= res.bler <= 1.0


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_count_invariance(ldpc, dec3, workers):
    base = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=2048, seed=3, workers=1)
    par = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=2048, seed=3, workers=workers)
    assert (base.bit_errors, base.block_errors) == (par.bit_errors, par.block_errors)


def test_min_block_errors_prefix_rule(ldpc, dec3):
    full = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=4096, seed=5)
    stop = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=4096, seed=5,
                                min_block_errors=100)
    assert stop.block_errors >= 100
    assert stop.frames <= full.frames
    stop_par = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=4096, seed=5,
                                    min_block_errors=100, workers=3)
    assert (stop.frames, stop.bit_errors, stop.block_errors) == \
        (stop_par.frames, stop_par.bit_errors, stop_par.block_errors)


def test_all_zero_message_source(ldpc, dec3):
    res = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=512, seed=6,
                               message_source="all_zero")
    assert res.frames == 512
    with pytest.raises(ValueError):
        montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=10, seed=0,
                             message_source="typical")


def test_attack_mismatch_rejected(ldpc, dec3, monkeypatch):
    av = attack.AttackVector(a=np.zeros(64), code_id="other_code", scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="1",
                             accepted_iters=0)
    with pytest.raises(ValueError, match="other_code"):
        montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=10, seed=0, attack=av)
    with pytest.raises(ValueError, match="other_code"):
        montecarlo.transfer_check(av, ldpc, dec3, ebn0_db=2.0, frames=10, seed=0)
    av2 = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="qam4", n=64,
                              n_symbols=32, search_sigma=0.7, seed=0, approach="1",
                              accepted_iters=0)
    with pytest.raises(ValueError, match="scheme"):
        montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=10, seed=0, attack=av2)
    # sweep checks the attack before it simulates its first baseline point
    calls = []
    monkeypatch.setattr(montecarlo, "run_rows", lambda *a, **kw: calls.append(a))
    for bad in (av, av2):
        with pytest.raises(ValueError, match="does not match"):
            montecarlo.sweep([1.0, 2.0], ldpc, dec3, "bpsk", frames=10, seed=0, attack=bad)
    assert calls == []


def test_zeroing_attack_rejected_before_any_point(ldpc, dec3, monkeypatch):
    # a = -1 sends every BPSK word to zero, for both attack forms
    av = attack.AttackVector(a=np.full(64, -1.0), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="1",
                             accepted_iters=0)
    calls = []
    monkeypatch.setattr(montecarlo, "run_rows", lambda *a, **kw: calls.append(a))
    for bad in (av, av.a):
        with pytest.raises(ValueError, match="zeroes the sent word"):
            montecarlo.sweep([1.0, 2.0], ldpc, dec3, "bpsk", frames=20000, seed=0, attack=bad)
    assert calls == []


_STRONG = 0.4 * np.random.default_rng(5).standard_normal(64)  # raises the error rate
_MILD = 0.1 * np.random.default_rng(6).standard_normal(64)


def test_every_row_is_checked_before_anything_is_drawn(ldpc, dec3, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the channel was drawn")

    monkeypatch.setattr(channel, "draw", no_draws)
    for pos in range(3):
        rows = [None, _MILD]
        rows.insert(pos, np.full(64, -1.0))  # sends every BPSK word to zero
        with pytest.raises(ValueError, match="zeroes the sent word"):
            montecarlo.run_rows(ldpc, dec3, "bpsk", 2.0, 1024, 0, rows)
    # burst settings on a channel that ignores them would only change the digest
    with pytest.raises(ValueError, match="rho applies to a bursty channel only"):
        montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, 1024, 0, channel_opts={"rho": 0.5})


@pytest.mark.parametrize("kind, ebn0_db", [("awgn", 4.0), ("rayleigh", 8.0), ("bursty", 6.0)])
@pytest.mark.parametrize("scheme", ["bpsk", "qam4"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("min_block_errors", [None, 40])
def test_each_row_equals_its_own_run(ldpc, dec3, kind, ebn0_db, scheme, workers,
                                     min_block_errors):
    attacks = [None, _STRONG, _MILD]
    opts = dict(channel_kind=kind, workers=workers, min_block_errors=min_block_errors)
    rows = montecarlo.run_rows(ldpc, dec3, scheme, ebn0_db, 2048, 7, attacks, **opts)
    alone = [montecarlo.run_point(ldpc, dec3, scheme, ebn0_db, 2048, 7, attack=a, **opts)
             for a in attacks]
    assert rows == alone  # every field, counts and digest included
    assert [r.attacked for r in rows] == [False, True, True]
    if min_block_errors is not None:
        # the strong row stops chunks before the baseline, which keeps running
        assert rows[1].frames == 512 < rows[0].frames < 2048


def test_raw_attack_array_checked(ldpc, dec3):
    # the (512, 64) array would broadcast against a full first chunk
    bad = [(np.full(64, np.nan), "must be finite"), (np.zeros((2, 64)), r"shape \(2, 64\)"),
           (np.zeros((512, 64)), r"shape \(512, 64\)")]
    for a, match in bad:
        with pytest.raises(ValueError, match="raw attack array.*" + match):
            montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=512, seed=0, attack=a)
    # a valid (n,) array still runs, and the zero array is a no-op
    res = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=100, seed=0, attack=np.zeros(64))
    base = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=100, seed=0)
    assert res.attacked
    assert (res.bit_errors, res.block_errors) == (base.bit_errors, base.block_errors)


def test_min_block_errors_must_be_positive(ldpc, dec3):
    # 0 would stop after the first wave and report a truncated run as complete
    for bad in (0, -1):
        with pytest.raises(ValueError, match="min_block_errors"):
            montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=2048, seed=0,
                                 min_block_errors=bad)
    one = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=2048, seed=0, min_block_errors=1)
    assert one.block_errors >= 1


def test_frames_and_workers_must_be_positive(ldpc, dec3, monkeypatch):
    av = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="1",
                             accepted_iters=0)

    def no_draws(seed):
        raise AssertionError("random streams were opened")

    monkeypatch.setattr(channel, "FrameRng", no_draws)
    # a fractional count or a bool is rejected by name, not left to fail in `range`
    for frames in (0, -5, 2.5, True, "10"):
        named = r"frames must be an integer >= 1, got " + re.escape(repr(frames))
        with pytest.raises(ValueError, match=named):
            montecarlo.transfer_check(av, ldpc, dec3, ebn0_db=2.0, frames=frames, seed=1)
        with pytest.raises(ValueError, match=named):
            montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=frames, seed=0)
    with pytest.raises(ValueError, match="transfer_check needs an attack"):
        montecarlo.transfer_check(None, ldpc, dec3, ebn0_db=2.0, frames=10, seed=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=10, seed=0, workers=workers)


@pytest.mark.parametrize("name, bad", [("workers", 1.5), ("workers", True), ("workers", "2"),
                                       ("min_block_errors", True), ("min_block_errors", 2.5)])
def test_worker_and_error_counts_are_integers(ldpc, dec3, monkeypatch, name, bad):
    def no_draws(seed):
        raise AssertionError("random streams were opened")

    monkeypatch.setattr(channel, "FrameRng", no_draws)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {re.escape(repr(bad))}"):
        montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=10, seed=0, **{name: bad})


def test_seeds_are_checked_before_any_draw(ldpc, dec3, monkeypatch):
    # a numpy integer is an integer (as a seed or a frame count); the largest
    # Philox key is a seed
    assert channel.FrameRng(2**128 - 1).seed == 2**128 - 1
    res, res_np = (montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=f, seed=s)
                   for s, f in ((5, 300), (np.int64(5), np.int64(300))))
    assert (res.bit_errors, res.block_errors) == (res_np.bit_errors, res_np.block_errors)

    def no_draws(*args, **kwargs):
        raise AssertionError("a random stream was drawn from")

    monkeypatch.setattr(channel.FrameRng, "frames", no_draws)
    av = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="1",
                             accepted_iters=0)
    search = attack.SearchConfig(batch_size=10, accepted_iters=1, sigma=0.8, epsilon0=0.1)
    for seed in (1.5, True, -1, 2**128, "3", None):
        named = r"seed must be an integer in \[0, 2\*\*128\), got " + re.escape(repr(seed))
        for run in (lambda: channel.FrameRng(seed),
                    lambda: montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=10, seed=seed),
                    lambda: montecarlo.sweep([2.0], ldpc, dec3, "bpsk", frames=10, seed=seed),
                    lambda: montecarlo.transfer_check(av, ldpc, dec3, 2.0, frames=10, seed=seed),
                    lambda: attack.search_attack(ldpc, dec3, "bpsk", search, seed=seed)):
            with pytest.raises(ValueError, match=named):
                run()


def test_fading_and_bursty_run(ldpc, dec3):
    ray = montecarlo.run_point(ldpc, dec3, "bpsk", 6.0, frames=512, seed=1,
                               channel_kind="rayleigh")
    awgn = montecarlo.run_point(ldpc, dec3, "bpsk", 6.0, frames=512, seed=1)
    assert ray.ber >= awgn.ber  # fading can only hurt at equal Eb/N0
    burst = montecarlo.run_point(ldpc, dec3, "bpsk", 6.0, frames=512, seed=1,
                                 channel_kind="bursty", channel_opts={"rho": 0.2})
    assert burst.ber >= awgn.ber


def test_sweep_single_point_equals_run_point(ldpc, dec3):
    res = montecarlo.sweep([2.0], ldpc, dec3, "bpsk", frames=1024, seed=11)
    direct = montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=1024,
                                  seed=channel.child_seed(11, 0))
    assert len(res) == 1
    assert (res[0].bit_errors, res[0].block_errors) == (direct.bit_errors, direct.block_errors)


def test_sweep_ordering_and_pairing(ldpc, dec3):
    av = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.7, seed=0, approach="1",
                             accepted_iters=0)
    res = montecarlo.sweep([3.0, 1.0, 2.0], ldpc, dec3, "bpsk", frames=512, seed=1, attack=av)
    assert [r.ebn0_db for r in res] == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    for base, att in zip(res[0::2], res[1::2]):
        assert (base.attacked, att.attacked) == (False, True)
        assert base.seed == att.seed  # paired noise
        # the zero attack is a no-op, so paired counts coincide exactly
        assert (base.bit_errors, base.block_errors) == (att.bit_errors, att.block_errors)


def test_sweep_baseline_monotone(ldpc, dec3):
    res = montecarlo.sweep([1.0, 2.5, 4.0, 5.5], ldpc, dec3, "bpsk", frames=3000, seed=2)
    bers = [r.ber for r in res]
    for a, b in zip(bers, bers[1:]):
        assert b <= a


def test_transfer_check_exact_bpsk(ldpc, dec3):
    rng = np.random.default_rng(12)
    raw = 0.2 * rng.normal(0, 1, 64)
    a = attack.normalize_power(np.ones(64) + raw)[0] - np.ones(64)
    av = attack.AttackVector(a=a, code_id=ldpc.name, scheme="bpsk", n=64, n_symbols=64,
                             search_sigma=0.75, seed=0, approach="1", accepted_iters=1)
    rep = montecarlo.transfer_check(av, ldpc, dec3, ebn0_db=3.0, frames=2000, seed=3)
    assert rep.mode == "exact"
    assert rep.passed
    assert rep.bit_errors_random == rep.bit_errors_allzero
    assert rep.block_errors_random == rep.block_errors_allzero
    assert rep.bit_errors_random > 0  # the check saw actual errors


def test_transfer_check_sends_both_words_through_transmit_on_each_chunks_draws(
        ldpc, dec3, transmit_calls):
    a = attack.normalize_power(np.ones(64) + np.linspace(-0.2, 0.2, 64))[0] - np.ones(64)
    rep = montecarlo.transfer_check(a, ldpc, dec3, ebn0_db=2.0, frames=600, seed=3)
    assert rep.mode == "exact" and rep.passed
    chunks = [(0, 512), (512, 600)]
    assert len(transmit_calls) == 2 * len(chunks)  # the random words, then the all-zero word
    const, rng = modem.get_constellation("bpsk"), channel.FrameRng(3)
    params = channel.ChannelParams(sigma=channel.ebn0_to_sigma(2.0, ldpc.rate, 1))
    s_zero = attack.apply_attack(np.ones(64), a, const)
    sent = zip(chunks, transmit_calls[0::2], transmit_calls[1::2])
    for (start, stop), (s_rand, draws_r), (s_sent_zero, draws_z) in sent:
        s = modem.modulate(gf2.encode(rng.bits(start, stop, ldpc.k), ldpc.G), const)
        want = channel.draw(params, rng.frames(start, stop, channel.STREAM_CHANNEL), s.shape)
        assert draws_r.noise.tobytes() == want.noise.tobytes()
        assert np.array_equal(s_rand, attack.apply_attack(s, a, const))
        assert draws_z.noise.tobytes() == (s * want.noise).tobytes()  # sign-coupled noise
        assert np.array_equal(s_sent_zero, np.broadcast_to(s_zero, s.shape))


def _unadapted(s, a, constellation):
    # the same a added to every word, whatever the word's signs
    out = s + a
    return out * np.sqrt(s.shape[-1] / np.sum(out * out, axis=-1, keepdims=True))


def _phase_rotated(s, a, constellation):
    # each 4-QAM symbol's perturbation times the symbol's phase relative to
    # s0, which swaps the perturbation's parts on the symbols labelled 01 and 10
    sc = s[..., 0::2] + 1j * s[..., 1::2]
    oc = sc + sc * (a[0::2] + 1j * a[1::2]) / complex(*constellation.s0)
    out = np.empty_like(s)
    out[..., 0::2], out[..., 1::2] = oc.real, oc.imag
    return out * np.sqrt(s.shape[-1] / 2 / np.sum(out * out, axis=-1, keepdims=True))


@pytest.mark.parametrize("scheme, adaptation", [("bpsk", _unadapted), ("qam4", _phase_rotated)])
def test_transfer_check_fails_unadapted_attack(ldpc, dec3, monkeypatch, scheme, adaptation):
    # an adaptation other than each coordinate's sign breaks the equivalence:
    # the exact check must notice
    c = modem.get_constellation(scheme)
    s0 = modem.modulate(np.zeros(64, dtype=np.uint8), c)
    rng = np.random.default_rng(12)
    a = attack.normalize_power(s0 + 0.2 * rng.normal(0, 1, 64), c.coords_per_symbol)[0] - s0
    av = attack.AttackVector(a=a, code_id=ldpc.name, scheme=scheme, n=64,
                             n_symbols=64 // c.bits_per_symbol, search_sigma=0.75, seed=0,
                             approach="1", accepted_iters=1)
    monkeypatch.setattr(attack, "apply_attack", adaptation)
    rep = montecarlo.transfer_check(av, ldpc, dec3, ebn0_db=2.5, frames=1024, seed=3)
    assert rep.mode == "exact"
    assert not rep.passed
    assert rep.bit_errors_random != rep.bit_errors_allzero


def test_transfer_check_uncoded_proxy(ldpc):
    # iters = 0 decides straight off the LLR sign, as run_point does
    a = attack.normalize_power(np.ones(64) + np.linspace(-0.2, 0.2, 64))[0] - np.ones(64)
    av = attack.AttackVector(a=a, code_id=ldpc.name, scheme="bpsk", n=64, n_symbols=64,
                             search_sigma=0.75, seed=0, approach="1", accepted_iters=1)
    dec0 = bp.DecoderConfig(iters=0)
    rep = montecarlo.transfer_check(av, ldpc, dec0, ebn0_db=3.0, frames=600, seed=3)
    assert rep.mode == "exact" and rep.passed
    assert rep.bit_errors_random == rep.bit_errors_allzero > 0


def test_transfer_check_zero_attack(ldpc, dec3):
    av = attack.AttackVector(a=np.zeros(64), code_id=ldpc.name, scheme="bpsk", n=64,
                             n_symbols=64, search_sigma=0.75, seed=0, approach="1",
                             accepted_iters=0)
    rep = montecarlo.transfer_check(av, ldpc, dec3, ebn0_db=3.0, frames=500, seed=4)
    assert rep.passed


def test_transfer_check_exact_qam4(ldpc, dec3):
    rng = np.random.default_rng(13)
    raw = 0.1 * rng.normal(0, 1, 64)
    base = modem.modulate(np.zeros(64, dtype=np.uint8), modem.get_constellation("qam4"))
    a = attack.normalize_power(base + raw, coords_per_symbol=2)[0] - base
    av = attack.AttackVector(a=a, code_id=ldpc.name, scheme="qam4", n=64, n_symbols=32,
                             search_sigma=0.75, seed=0, approach="1", accepted_iters=1)
    rep = montecarlo.transfer_check(av, ldpc, dec3, ebn0_db=3.0, frames=2000, seed=5)
    assert rep.mode == "exact"
    assert rep.passed
    assert rep.bit_errors_random == rep.bit_errors_allzero > 0
    assert rep.block_errors_random == rep.block_errors_allzero > 0


def test_csv_round_trip(ldpc, dec3, tmp_path):
    res = montecarlo.sweep([1.0, 3.0], ldpc, dec3, "bpsk", frames=768, seed=8)
    buf = io.StringIO()
    montecarlo.write_csv(res, buf)
    text = buf.getvalue()
    header = text.splitlines()[0]
    assert header == ",".join(montecarlo.CSV_COLUMNS)
    assert len(text.strip().splitlines()) == 3
    back = montecarlo.read_csv(io.StringIO(text))
    for orig, rd in zip(res, back):
        assert (rd.frames, rd.bit_errors, rd.block_errors) == \
            (orig.frames, orig.bit_errors, orig.block_errors)
        assert rd.ber == orig.ber and rd.bler == orig.bler
        assert rd.ebn0_db == orig.ebn0_db and rd.code_id == orig.code_id
    path = tmp_path / "out.csv"
    montecarlo.write_csv(res, path)
    assert montecarlo.read_csv(path)[0].frames == res[0].frames


_BY_ANNOTATION = {"int": st.integers(), "float": st.floats(allow_nan=False, allow_infinity=False),
                  "str": st.text(), "bool": st.booleans()}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.builds(montecarlo.MonteCarloResult,
                          **{f.name: _BY_ANNOTATION[f.type]
                             for f in fields(montecarlo.MonteCarloResult)}), max_size=4))
def test_csv_round_trip_property(results):
    buf = io.StringIO()
    montecarlo.write_csv(results, buf)
    back = montecarlo.read_csv(io.StringIO(buf.getvalue()))
    assert len(back) == len(results)
    for orig, rd in zip(results, back):
        assert rd.config_digest == ""  # not in the file
        for f in fields(montecarlo.MonteCarloResult):
            if f.name != "config_digest":  # repr: same type, and -0.0 stays -0.0
                assert repr(getattr(rd, f.name)) == repr(getattr(orig, f.name)), f.name


def test_numpy_ebn0_round_trips_through_csv(ldpc, dec3):
    res = montecarlo.run_point(ldpc, dec3, "bpsk", np.float64(2.0), frames=64, seed=3)
    assert type(res.ebn0_db) is float
    buf = io.StringIO()
    montecarlo.write_csv([res], buf)
    assert buf.getvalue().splitlines()[1].startswith("2.0,64,")
    assert montecarlo.read_csv(io.StringIO(buf.getvalue()))[0].ebn0_db == 2.0


def _csv_text(ldpc, dec3):
    buf = io.StringIO()
    montecarlo.write_csv([montecarlo.run_point(ldpc, dec3, "bpsk", 2.0, frames=64, seed=3)] * 2, buf)
    return buf.getvalue()


def test_read_csv_names_a_missing_column(ldpc, dec3):
    lines = _csv_text(ldpc, dec3).splitlines()
    drop = montecarlo.CSV_COLUMNS.index("bit_errors")
    cut = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                    for line in lines)
    with pytest.raises(ValueError, match="CSV file has no column 'bit_errors'"):
        montecarlo.read_csv(io.StringIO(cut))
    # a row cut short reads its missing cells as empty, and the last one fails
    with pytest.raises(ValueError, match="CSV line 2, column 'seed': cannot read ''"):
        montecarlo.read_csv(io.StringIO(lines[0] + "\n" + lines[1].rsplit(",", 3)[0]))


@pytest.mark.parametrize("column, cell", [("frames", "ten"), ("attacked", "yes"),
                                          ("ber", "x"), ("seed", "")])
def test_read_csv_names_the_column_and_line_of_a_bad_cell(ldpc, dec3, column, cell):
    lines = _csv_text(ldpc, dec3).splitlines()
    cells = lines[2].split(",")
    cells[montecarlo.CSV_COLUMNS.index(column)] = cell
    lines[2] = ",".join(cells)
    with pytest.raises(ValueError, match=f"CSV line 3, column '{column}': cannot read '{cell}'"):
        montecarlo.read_csv(io.StringIO("\n".join(lines)))


def test_paired_runs_have_lower_difference_variance():
    # common random numbers: paired baseline/attacked differences vary less
    # than unpaired ones on the repetition code
    code = codes.repetition_code(3)
    dec = bp.DecoderConfig(iters=2)
    rng = np.random.default_rng(14)
    raw = 0.05 * rng.normal(0, 1, 3)
    a = attack.normalize_power(np.ones(3) + raw)[0] - np.ones(3)
    ebn0 = channel.sigma_to_ebn0(2.0, code.rate, 1)
    paired, unpaired = [], []
    for trial in range(12):
        s_base = channel.child_seed(100, trial)
        s_other = channel.child_seed(200, trial)
        b = montecarlo.run_point(code, dec, "bpsk", ebn0, frames=2000, seed=s_base)
        t_p = montecarlo.run_point(code, dec, "bpsk", ebn0, frames=2000, seed=s_base, attack=a)
        t_u = montecarlo.run_point(code, dec, "bpsk", ebn0, frames=2000, seed=s_other, attack=a)
        paired.append(t_p.ber - b.ber)
        unpaired.append(t_u.ber - b.ber)
    assert np.var(paired) < np.var(unpaired)


@settings(max_examples=30, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(2, 9)), iters=st.integers(1, 5),
       ebn0_db=st.floats(-2.0, 8.0), frames=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_bpsk_transfer_is_exact_on_random_small_codes_property(shape, iters, ebn0_db, frames,
                                                               seed, data):
    m, n = shape
    H = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n)),
                 dtype=np.uint8).reshape(m, n)
    assume(gf2.rank(H) < n)  # k >= 1
    code = codes.CodeSpec.from_parity("random", H)
    raw = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    a = attack.normalize_power(np.ones(n) + np.array(raw))[0] - np.ones(n)
    rep = montecarlo.transfer_check(a, code, bp.DecoderConfig(iters=iters), ebn0_db,
                                    frames=frames, seed=seed)
    assert rep.mode == "exact"
    assert rep.passed
