"""Each boundary that takes a count, a positive and finite level, a noise std, a
seed or an Eb/N0 rejects a bad value by the rules of `friendlyfec.checks`: a ValueError
that names the setting, or for a command-line key or flag exit code 2 with
the key named, raised before any random stream is drawn or any block decoded."""

from __future__ import annotations

import re

import numpy as np
import pytest

from friendlyfec import attack, bp, channel, checks, cli, codes, modem, montecarlo

REP3 = codes.repetition_code(3)
GRAPH = bp.TannerGraph(REP3.H)
DEC = bp.DecoderConfig(iters=2)
BPSK = modem.get_constellation("bpsk")


def _vector(**changes):
    """A valid attack vector for the length-3 repetition code, with `changes` applied."""
    return attack.AttackVector(**dict(code_id=REP3.name, scheme="bpsk", n=3, n_symbols=3,
                                      a=np.zeros(3), search_sigma=1.0, seed=0, approach="1",
                                      accepted_iters=0) | changes)


_VECTORS = [_vector(a=np.array([0.5, 0.0, 0.0])), _vector(a=np.array([0.0, 0.5, 0.0]))]

# (the setting the error names, a call that gives it a bad value); a bool,
# a string, a fraction, a negative, nan or inf, as the setting's type allows
LIBRARY = {
    "DecoderConfig.iters bool": ("iteration count", lambda: bp.DecoderConfig(iters=True)),
    "DecoderConfig.iters fraction": ("iteration count", lambda: bp.DecoderConfig(iters=2.5)),
    "DecoderConfig.iters zero": ("iteration count", lambda: bp.DecoderConfig(iters=0)),
    "bp_forward iters bool": ("iteration count", lambda: bp.bp_forward(np.zeros(3), GRAPH, True)),
    "bp_forward iters fraction": ("iteration count",
                                  lambda: bp.bp_forward(np.zeros(3), GRAPH, 2.5)),
    "SearchConfig.batch_size fraction": ("batch_size",
                                         lambda: attack.SearchConfig(batch_size=2.5)),
    "SearchConfig.accepted_iters bool": ("accepted_iters",
                                         lambda: attack.SearchConfig(accepted_iters=True)),
    "SearchConfig.max_trials string": ("max_trials", lambda: attack.SearchConfig(max_trials="99")),
    "SearchConfig.runs fraction": ("runs", lambda: attack.SearchConfig(runs=3.0)),
    "SearchConfig.cluster_k bool": ("cluster_k", lambda: attack.SearchConfig(cluster_k=True)),
    "SearchConfig.sigma nan": ("sigma", lambda: attack.SearchConfig(sigma=np.nan)),
    "SearchConfig.sigma squared to zero": ("sigma", lambda: attack.SearchConfig(sigma=1e-200)),
    "SearchConfig.sigma squared to inf": ("sigma", lambda: attack.SearchConfig(sigma=1e200)),
    "SearchConfig.epsilon0 bool": ("epsilon0", lambda: attack.SearchConfig(epsilon0=True)),
    "AttackVector.seed negative": ("attack field 'seed'", lambda: _vector(seed=-1)),
    "AttackVector.accepted_iters fraction": ("attack field 'accepted_iters'",
                                             lambda: _vector(accepted_iters=1.5)),
    "AttackVector.search_sigma inf": ("attack field 'search_sigma'",
                                      lambda: _vector(search_sigma=np.inf)),
    "cluster_attacks k bool": ("cluster count k",
                               lambda: attack.cluster_attacks(_VECTORS, "kmeans", True)),
    "cluster_attacks k fraction": ("cluster count k",
                                   lambda: attack.cluster_attacks(_VECTORS, "kmeans", 2.5)),
    "FrameRng.bits k bool": ("bit count", lambda: channel.FrameRng(1).bits(0, 2, True)),
    "FrameRng.frames stop fraction": ("frame stop", lambda: channel.FrameRng(1).frames(0, 2.5)),
    "FrameRng.frames start negative": ("frame start",
                                       lambda: channel.FrameRng(1).frames(-1, 2)),
    "FrameRng seed bool": ("seed", lambda: channel.FrameRng(True)),
    "child_seed seed string": ("seed", lambda: channel.child_seed("3", 1)),
    "ChannelParams.sigma negative": ("sigma", lambda: channel.ChannelParams(sigma=-1.0)),
    "ChannelParams.sigma beyond float range": ("sigma",
                                               lambda: channel.ChannelParams(sigma=10**400)),
    "ChannelParams.sigma_b inf": ("sigma_b", lambda: channel.ChannelParams(
        sigma=1.0, kind="bursty", sigma_b=np.inf)),
    "ebn0_to_sigma nan": ("ebn0_db", lambda: channel.ebn0_to_sigma(np.nan, 0.5, 1)),
    "design_z0 design bool": ("design_ebn0_db", lambda: codes.design_z0(True, 0.5)),
    "finite beyond float range": ("ebn0_db", lambda: checks.finite("ebn0_db", 10**400)),
    "run_rows ebn0_db beyond float range": ("ebn0_db", lambda: montecarlo.run_point(
        REP3, DEC, "bpsk", -10**400, frames=10, seed=1)),
    "ebn0_to_sigma bool": ("ebn0_db", lambda: channel.ebn0_to_sigma(True, 0.5, 1)),
    "sigma_to_ebn0 bool": ("sigma", lambda: channel.sigma_to_ebn0(True, 0.5, 1)),
    "sigma_to_ebn0 sigma squared to zero": ("sigma",
                                            lambda: channel.sigma_to_ebn0(1e-200, 0.5, 1)),
    "sigma_to_ebn0 sigma squared to inf": ("sigma",
                                           lambda: channel.sigma_to_ebn0(1e200, 0.5, 1)),
    "ebn0_to_sigma bits_per_symbol bool": ("bits_per_symbol",
                                           lambda: channel.ebn0_to_sigma(2.0, 0.5, True)),
    "ebn0_to_sigma bits_per_symbol zero": ("bits_per_symbol",
                                           lambda: channel.ebn0_to_sigma(2.0, 0.5, 0)),
    "ebn0_to_sigma rate bool": ("rate", lambda: channel.ebn0_to_sigma(2.0, True, 1)),
    "ebn0_to_sigma rate zero": ("rate", lambda: channel.ebn0_to_sigma(2.0, 0.0, 1)),
    "sigma_to_ebn0 bits_per_symbol bool": ("bits_per_symbol",
                                           lambda: channel.sigma_to_ebn0(0.8, 0.5, True)),
    "sigma_to_ebn0 bits_per_symbol zero": ("bits_per_symbol",
                                           lambda: channel.sigma_to_ebn0(0.8, 0.5, 0)),
    "sigma_to_ebn0 bits_per_symbol fraction": ("bits_per_symbol",
                                               lambda: channel.sigma_to_ebn0(0.8, 0.5, 1.5)),
    "sigma_to_ebn0 bits_per_symbol negative": ("bits_per_symbol",
                                               lambda: channel.sigma_to_ebn0(0.8, 0.5, -1)),
    "sigma_to_ebn0 rate bool": ("rate", lambda: channel.sigma_to_ebn0(0.8, True, 1)),
    "sigma_to_ebn0 rate negative": ("rate", lambda: channel.sigma_to_ebn0(0.8, -0.5, 1)),
    "design_z0 rate bool": ("rate", lambda: codes.design_z0(2.0, True)),
    "demodulate_llr sigma bool": ("sigma", lambda: modem.demodulate_llr(np.ones(3), True, BPSK)),
    "demodulate_adjoint sigma zero": ("sigma",
                                      lambda: modem.demodulate_adjoint(np.ones(3), 0.0, BPSK)),
    "demodulate_llr sigma squared to zero": ("sigma", lambda: modem.demodulate_llr(
        np.ones(3), 1e-200, BPSK)),
    "demodulate_adjoint sigma squared to inf": ("sigma", lambda: modem.demodulate_adjoint(
        np.ones(3), 1e200, BPSK)),
    "run_rows frames fraction": ("frames", lambda: montecarlo.run_point(
        REP3, DEC, "bpsk", 2.0, frames=2.5, seed=1)),
    "run_rows workers bool": ("workers", lambda: montecarlo.run_point(
        REP3, DEC, "bpsk", 2.0, frames=10, seed=1, workers=True)),
    "run_rows min_block_errors zero": ("min_block_errors", lambda: montecarlo.run_point(
        REP3, DEC, "bpsk", 2.0, frames=10, seed=1, min_block_errors=0)),
    "run_rows ebn0_db string": ("ebn0_db", lambda: montecarlo.run_point(
        REP3, DEC, "bpsk", "3", frames=10, seed=1)),
    "sweep grid string": ("ebn0_grid entry", lambda: montecarlo.sweep(
        ["3", True], REP3, DEC, "bpsk", frames=10, seed=1)),
    "sweep grid bool": ("ebn0_grid entry", lambda: montecarlo.sweep(
        [True], REP3, DEC, "bpsk", frames=10, seed=1)),
    "transfer_check frames bool": ("frames", lambda: montecarlo.transfer_check(
        _VECTORS[0], REP3, DEC, 2.0, frames=True, seed=1)),
}

# (the key the error names, a config line, extra flags); the base config is valid
CLI = {
    "eval.frames zero": ("eval.frames", "eval.frames = 0", []),
    "search.validation_frames negative": ("search.validation_frames",
                                          "search.validation_frames = -1", []),
    "eval.min_block_errors zero": ("eval.min_block_errors", "eval.min_block_errors = 0", []),
    "eval.seed too large": ("eval.seed", f"eval.seed = {2**128}", []),
    "eval.ebn0_db nan": ("eval.ebn0_db", "eval.ebn0_db = nan", []),
    "eval.grid inf": ("eval.grid", "eval.grid = 1.0, inf", []),
    "search.validation_ebn0_db -inf": ("search.validation_ebn0_db",
                                       "search.validation_ebn0_db = -inf", []),
    "code.design_ebn0_db inf": ("code.design_ebn0_db", "code.design_ebn0_db = inf", []),
    "code.design_ebn0_db -inf": ("code.design_ebn0_db", "code.design_ebn0_db = -inf", []),
    "code.design_ebn0_db nan": ("code.design_ebn0_db", "code.design_ebn0_db = nan", []),
    "search.sigma negative": ("search.sigma", "search.sigma = -0.5", []),
    "search.sigma squared to zero": ("search.sigma", "search.sigma = 1e-200", []),
    "search.sigma squared to inf": ("search.sigma", "search.sigma = 1e200", []),
    "--seed negative": ("--seed", "", ["--seed", "-1"]),
    "--workers zero": ("--workers", "", ["--workers", "0"]),
}


@pytest.fixture
def no_numerics(monkeypatch):
    """Fail any random draw or decode: a bad value must be rejected before one."""
    def fail(*args, **kwargs):
        raise AssertionError("a random stream was drawn or a block decoded")

    monkeypatch.setattr(np.random, "Philox", fail)
    monkeypatch.setattr(channel, "_philox4x64", fail)
    monkeypatch.setattr(bp.Receiver, "decode", fail)


@pytest.mark.parametrize("case", LIBRARY)
def test_library_rejects_a_bad_value_naming_it(no_numerics, case):
    name, call = LIBRARY[case]
    with pytest.raises(ValueError, match=re.escape(name) + " must be "):
        call()


@pytest.mark.parametrize("case", CLI)
def test_cli_rejects_a_bad_key_or_flag_naming_it(no_numerics, tmp_path, capsys, case):
    key, line, flags = CLI[case]
    path = tmp_path / "run.cfg"
    path.write_text(f"code.family = hamming\n{line}\n")
    if not flags:  # a key is rejected as the config is read
        with pytest.raises(cli.ConfigError, match=re.escape(key) + " must be "):
            cli.parse_config(path.read_text())
    assert cli.main(["eval", "--config", str(path)] + flags) == cli.EXIT_CONFIG
    assert f"config error: {key} must be " in capsys.readouterr().err


def test_decibels_is_the_power_ratio_of_a_level_in_range():
    for db in (-3075.9, -3.0, 0, 2.5, 3081.9):
        assert checks.decibels("ebn0_db", db) == 10.0 ** (db / 10.0)
    for db in (-1e308, -3076, 3082, 1e308, 10**400):
        with pytest.raises(ValueError, match="ebn0_db .* out of range|must be finite"):
            checks.decibels("ebn0_db", db)


@pytest.mark.parametrize("key", ["code.design_ebn0_db", "eval.ebn0_db", "eval.grid",
                                 "search.validation_ebn0_db"])
@pytest.mark.parametrize("value", ["1e308", "-1e308"])
def test_cli_rejects_a_db_level_out_of_range_naming_it(no_numerics, tmp_path, capsys, key,
                                                       value):
    # 10^(value / 10) over- or underflows a float: a config error, not a traceback
    path = tmp_path / "run.cfg"
    path.write_text(f"code.family = polar\n{key} = {value}\n")
    assert cli.main(["eval", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"config error: {key} {float(value)!r} dB is out of range" in capsys.readouterr().err


def test_numpy_integers_are_counts_and_become_python_ints():
    assert type(checks.count("frames", np.int64(5))) is int
    vector = _vector(seed=np.int64(3), accepted_iters=np.uint8(2))
    assert (type(vector.seed), vector.seed, type(vector.accepted_iters)) == (int, 3, int)
