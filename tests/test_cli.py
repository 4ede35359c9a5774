import json
import multiprocessing
import os
import string
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlyfec import attack, bp, channel, cli, codes, modem, montecarlo, split

REP_SEARCH_CFG = """\
code.family = repetition
code.n = 3
decoder.iters = 2
search.sigma = 3.16
search.batch_size = 100
search.iters = 3
search.max_trials = 10
eval.ebn0_db = -8.0
eval.frames = 1500
eval.seed = 5
"""

HAMMING_CFG = "code.family = hamming\ndecoder.iters = 3\nsearch.sigma = 0.8\neval.frames = 100\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_defaults_and_comments():
    cfg = cli.parse_config("# nothing but comments\n\n  # more\n")
    assert cfg.code_family == "ldpc"
    assert cfg.decoder == bp.DecoderConfig(iters=5) and cfg.search == {}
    cfg = cli.parse_config("decoder.iters = 7 # trailing comment\neval.grid = 1, 2.5, 4\n")
    assert cfg.decoder == bp.DecoderConfig(iters=7)
    assert cfg.eval_grid == (1.0, 2.5, 4.0)


_TEXT = st.text(alphabet=string.ascii_letters + string.digits + "./_-=", max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NOISE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_DB = st.floats(-3075.0, 3081.0)  # a level whose power ratio is a normal float
_SIGMA = st.floats(1e-150, 1e150)  # a noise std whose demapper scale 2 / sigma^2 is finite and nonzero
# a strategy per value parser, and for the keys parse_config validates
_BY_PARSER = {int: st.integers(-10**12, 10**12), float: _FINITE, str: _TEXT,
              cli._parse_bool: st.booleans(),
              cli._parse_grid: st.lists(_FINITE, max_size=4).map(tuple)}
_VALID = {
    "code.family": st.sampled_from(["ldpc", "polar", "repetition", "hamming", "uncoded"]),
    "modem.scheme": st.sampled_from(["bpsk", "qam4"]),
    "channel.kind": st.sampled_from(["awgn", "rayleigh", "bursty"]),
    "eval.message_source": st.sampled_from(["random", "all_zero"]),
    "decoder.iters": st.integers(1, 10**6),
    "eval.frames": st.integers(1, 10**12),
    "search.validation_frames": st.integers(1, 10**12),
    "search.target_bler": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "eval.ebn0_db": _DB,
    "search.validation_ebn0_db": _DB,
    "code.design_ebn0_db": _DB,
    "eval.grid": st.lists(_DB, max_size=4).map(tuple),
    "search.sigma": _SIGMA,
    "channel.sigma_b": _NOISE,
    "channel.rho": st.floats(0.0, 1.0),
    "eval.min_block_errors": st.integers(1, 10**12),
    "eval.seed": st.integers(0, 10**12),
    "search.approach": st.sampled_from([1, 3, 4]),
    "search.batch_size": st.integers(1, 10**12),
    "search.iters": st.integers(1, 2000),
    "search.max_trials": st.integers(2000, 10**12),  # >= search.iters under every preset
    "search.epsilon0": _NOISE,
    "search.runs": st.integers(1, 10**12),
    "search.cluster_k": st.integers(1, 10**12),
    "search.cluster": st.sampled_from(["none", "kmeans"]),
}
_BOOL_WORDS = {True: ["1", "true", "Yes", "ON"], False: ["0", "False", "no", "off"]}
_BURST_KEYS = ("channel.sigma_b", "channel.rho")  # read on a bursty channel only


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_config_round_trip_property(data):
    # every key of the table, set or left out (None), in any order
    values = {None: {}, "decoder": {}, "search": {}}  # by the section that receives them
    lines = []
    for key, (section, name, conv) in cli._KEYS.items():
        if key in _BURST_KEYS and values[None].get("channel_kind") != "bursty":
            continue  # an error on another kind; channel.kind comes first in the table
        value = data.draw(st.none() | _VALID.get(key, _BY_PARSER[conv]))
        if value is None:
            continue
        values[section][name] = value
        if conv is cli._parse_bool:
            text = data.draw(st.sampled_from(_BOOL_WORDS[value]))
        elif conv is float:
            text = repr(value)
        elif conv is cli._parse_grid:
            text = data.draw(st.sampled_from([", ", " ", ","])).join(map(repr, value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    text = "\n".join(data.draw(st.permutations(lines))) + "\n"
    want = cli.RunConfig(**values[None], search=values["search"],
                         decoder=bp.DecoderConfig(**{"iters": 5} | values["decoder"]))
    assert cli.parse_config(text) == want


def test_parse_config_rejects_unknown_key():
    # a typo, a bare field name, an unknown section and removed keys: the step
    # schedules', agglomerative clustering's, the accept rule's (a step is
    # accepted when its batch BER falls), the loss's (the search scores the
    # last iteration's output) and the clamp's (every decode clamps at 20)
    for key in ("search.bacth_size", "search_batch_size", "codes.n", "channel.si",
                "search.scheduler", "search.decay", "search.step_len", "search.linkage",
                "search.accept", "decoder.loss_mode", "decoder.clamp"):
        with pytest.raises(cli.ConfigError, match=f"line 1: unknown configuration key '{key}'"):
            cli.parse_config(f"{key} = 100\n")


def test_every_runconfig_field_is_a_key():
    # RunConfig field `section_key` is key `section.key`; its fields `decoder` and
    # `search` take one key per DecoderConfig and SearchConfig field instead
    samples = {"bool": ("on", True), "tuple[float, ...]": ("1 2", (1.0, 2.0)),
               "int": ("7", 7), "float": ("0.5", 0.5)}
    # values the search's own rules take: a preset number, and a cap of at least search.iters
    by_key = {"search.approach": ("3", 3), "search.max_trials": ("70", 70)}
    cases = [(f.name.replace("_", ".", 1), f, lambda cfg, name=f.name: getattr(cfg, name))
             for f in fields(cli.RunConfig) if f.name not in ("decoder", "search")]
    cases += [("decoder." + f.name, f, lambda cfg, name=f.name: getattr(cfg.decoder, name))
              for f in fields(bp.DecoderConfig)]
    cases += [("search." + {"accepted_iters": "iters"}.get(f.name, f.name), f,
               lambda cfg, name=f.name: cfg.search[name])
              for f in fields(attack.SearchConfig) if f.name != "approach"]
    assert sorted(key for key, _, _ in cases) == sorted(cli._KEYS)
    assert len(cli._KEYS) == 30
    for key, f, read in cases:
        text, want = by_key.get(key) or samples.get(f.type.removesuffix(" | None"), (None, None))
        if text is None:  # str: the default is a value that passes validation
            text = want = f.default or "x"
        kind = "channel.kind = bursty\n" if key in _BURST_KEYS else ""
        assert read(cli.parse_config(f"{kind}{key} = {text}\n")) == want, key


def test_runconfig_repeats_no_decoder_or_search_field():
    search_keys = {{"accepted_iters": "iters"}.get(f.name, f.name)
                   for f in fields(attack.SearchConfig) if f.name != "approach"}
    for f in fields(cli.RunConfig):
        section, _, name = f.name.partition("_")
        assert section != "decoder" or not name, f.name
        assert section != "search" or name not in search_keys, f.name


def _parsed(cfg, attr):
    """RunConfig field `attr`, or for `search_<SearchConfig field>` the built search's field."""
    if hasattr(cfg, attr):
        return getattr(cfg, attr)
    return getattr(cli.build_search(cfg), attr.removeprefix("search_"))


@pytest.mark.parametrize("line, attr, value", [
    ("search.require_nonzero = off", "search_require_nonzero", False),
    ("eval.grid = 1, 2", "eval_grid", (1.0, 2.0)),
    ("search.cluster = kmeans", "search_cluster", "kmeans"),
    ("code.design_ebn0_db = 1.5", "code_design_ebn0_db", 1.5),
    ("eval.min_block_errors = 10", "eval_min_block_errors", 10),
])
def test_parse_config_value_types(line, attr, value):
    got = _parsed(cli.parse_config(line + "\n"), attr)
    assert got == value
    assert type(got) is type(value)


def test_parse_config_rejects_bad_values():
    with pytest.raises(cli.ConfigError, match="line 1"):
        cli.parse_config("decoder.iters = many\n")
    with pytest.raises(cli.ConfigError, match=r"line 1: .*search\.require_nonzero"):
        cli.parse_config("search.require_nonzero = maybe\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("just some words\n")
    with pytest.raises(cli.ConfigError, match="scheme"):
        cli.parse_config("modem.scheme = qam256\n")
    # settings read only after the searches or simulations start are checked up front
    for line, named in [("search.validation_frames = 0", "validation_frames"),
                        ("search.target_bler = 1.0", "target_bler"),
                        ("search.target_bler = 5.0", "target_bler"),
                        ("search.target_bler = 0", "target_bler"),
                        ("search.target_bler = nan", "target_bler"),
                        ("eval.ebn0_db = -inf", "eval.ebn0_db"),
                        ("eval.ebn0_db = nan", "eval.ebn0_db"),
                        ("eval.grid = 1.0, inf", "eval.grid"),
                        ("search.validation_ebn0_db = nan", "validation_ebn0_db"),
                        ("search.sigma = nan", "search.sigma"),
                        ("search.sigma = -1.0", "search.sigma"),
                        ("search.sigma = 1e-200", "search.sigma"),
                        ("search.sigma = 1e200", "search.sigma"),
                        ("channel.kind = bursty\nchannel.sigma_b = inf", "channel.sigma_b"),
                        ("channel.kind = bursty\nchannel.sigma_b = 0", "channel.sigma_b")]:
        with pytest.raises(cli.ConfigError, match=named):
            cli.parse_config(line + "\n")


@pytest.mark.parametrize("line, reason", [
    ("decoder.iters = 0", "iteration count must be an integer >= 1, got 0"),
    ("decoder.iters = -1", "iteration count must be an integer >= 1, got -1"),
])
def test_bad_decoder_value_names_its_line_key_and_reason(line, reason):
    key, value = line.split(" = ")
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(f"eval.seed = 1\n{line}\neval.frames = 0\n")
    assert str(exc.value) == f"line 2: bad value {value!r} for {key}: {reason}"


def test_unknown_key_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.cfg", "search.bacth_size = 100\n")
    rc = cli.main(["search", "--config", path])
    assert rc == cli.EXIT_CONFIG
    assert "bacth_size" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    rc = cli.main(["eval", "--config", str(tmp_path / "absent.cfg")])
    assert rc == cli.EXIT_CONFIG


def test_search_writes_loadable_attack(tmp_path, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    out = str(tmp_path / "attack.json")
    rc = cli.main(["search", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "trial=1" in err and "accept=" in err
    av = attack.load_attack(out)
    assert av.code_id == "repetition_3"
    assert av.n == 3


def test_alist_attack_fits_the_matrix_not_the_path(tmp_path):
    # an attack searched on one alist file fits that H at any path, and no
    # other H written to the same path
    path = tmp_path / "code.alist"
    path.write_text(codes.save_alist(codes.hamming_7_4().H))
    cfg = cli.parse_config(f"code.alist = {path}\n")
    ham = cli.build_code(cfg)
    av = attack.AttackVector(a=[0.0] * 7, code_id=ham.name, scheme="bpsk", n=7, n_symbols=7,
                             search_sigma=0.8, seed=0, approach="1", accepted_iters=0)
    moved = tmp_path / "elsewhere.alist"
    moved.write_text(path.read_text())
    av.check_fits(cli.build_code(cli.parse_config(f"code.alist = {moved}\n")), "bpsk")
    path.write_text(codes.save_alist(codes.repetition_code(7).H))
    rep = cli.build_code(cfg)
    assert rep.k == 1
    with pytest.raises(ValueError, match="code id"):
        av.check_fits(rep, "bpsk")


def test_search_deterministic_modulo_timestamp(tmp_path):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    out1, out2 = str(tmp_path / "a1.json"), str(tmp_path / "a2.json")
    assert cli.main(["search", "--config", cfg, "--out", out1]) == 0
    assert cli.main(["search", "--config", cfg, "--out", out2]) == 0
    r1 = json.loads(open(out1).read())
    r2 = json.loads(open(out2).read())
    r1.pop("created"), r2.pop("created")
    assert r1 == r2


def test_search_require_nonzero_exit_3(tmp_path):
    # near-zero search noise: no update is ever accepted
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG.replace(
        "search.sigma = 3.16", "search.sigma = 1e-6") + "search.require_nonzero = true\n")
    rc = cli.main(["search", "--config", cfg, "--out", str(tmp_path / "a.json")])
    assert rc == cli.EXIT_SEARCH


def test_search_nonfinite_output_exit_3(tmp_path, monkeypatch, capsys):
    def nonfinite(*args, **kwargs):
        raise RuntimeError("decoder produced non-finite soft output during the search")

    monkeypatch.setattr(attack, "search_attack", nonfinite)
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    rc = cli.main(["search", "--config", cfg, "--out", str(tmp_path / "a.json")])
    assert rc == cli.EXIT_SEARCH
    assert "search failed: decoder produced non-finite" in capsys.readouterr().err


def test_a_split_search_failure_exits_3(tmp_path, monkeypatch, capsys):
    # the decoder's non-finite output in a helper process reaches the command's exit code
    forward, caller = bp.bp_forward, os.getpid()

    def poisoned_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        if out.tape is not None and os.getpid() != caller:
            out.soft[-1][0] = np.nan
        return out

    monkeypatch.setattr(split, "helper_count", lambda: 1)
    monkeypatch.setattr(bp, "bp_forward", poisoned_forward)
    cfg = write(tmp_path, "split.cfg", HAMMING_CFG + "search.batch_size = 1100\n")
    rc = cli.main(["search", "--config", cfg, "--out", str(tmp_path / "a.json")])
    assert rc == cli.EXIT_SEARCH and not (tmp_path / "a.json").exists()
    assert "search failed: decoder produced non-finite" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_eval_emits_paired_csv(tmp_path, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    out = str(tmp_path / "attack.json")
    cli.main(["search", "--config", cfg, "--out", out])
    capsys.readouterr()
    rc = cli.main(["eval", "--config", cfg, "--attack", out])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(montecarlo.CSV_COLUMNS)
    assert len(lines) == 3  # baseline + attacked
    assert lines[1].split(",")[8] == "0" and lines[2].split(",")[8] == "1"


def test_sweep_csv_shape(tmp_path, capsys):
    cfg = write(tmp_path, "s.cfg", REP_SEARCH_CFG + "eval.grid = -9 -8 -7 -6 -5\n")
    rc = cli.main(["sweep", "--config", cfg])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # header + 5 points

    out = str(tmp_path / "sweep.csv")
    rc = cli.main(["sweep", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    rows = montecarlo.read_csv(out)
    assert [r.ebn0_db for r in rows] == [-9.0, -8.0, -7.0, -6.0, -5.0]
    # counts survive the round trip exactly
    again = montecarlo.read_csv(out)
    assert [(r.frames, r.bit_errors) for r in rows] == [(r.frames, r.bit_errors) for r in again]


def test_eval_attack_mismatch_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    out = str(tmp_path / "attack.json")
    cli.main(["search", "--config", cfg, "--out", out])
    other = write(tmp_path, "other.cfg", REP_SEARCH_CFG.replace("code.n = 3", "code.n = 5"))
    rc = cli.main(["eval", "--config", other, "--attack", out])
    assert rc == cli.EXIT_CONFIG
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--workers", "0"], "workers"),
    (["--attack", "{bad_n}"], "field 'N'"),
    (["--attack", "{not_json}"], "t.json is not JSON"),
])
def test_eval_bad_workers_or_attack_file_exit_2(tmp_path, monkeypatch, capsys, flags, named):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    rec = attack.attack_record(attack.AttackVector(
        a=[0.0] * 3, code_id="repetition_3", scheme="bpsk", n=3, n_symbols=3,
        search_sigma=1.0, seed=0, approach="1", accepted_iters=0))
    paths = {"bad_n": write(tmp_path, "n.json", json.dumps(rec | {"N": 2})),
             "not_json": write(tmp_path, "t.json", "")}

    def no_draws(seed):
        raise AssertionError("random streams were opened")

    monkeypatch.setattr(montecarlo.channel, "FrameRng", no_draws)
    for command in ("eval", "sweep"):
        argv = [command, "--config", cfg] + [f.format(**paths) for f in flags]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("record, named", [
    ({"version": 1}, "missing field"),
    ({"a": "not a list"}, "field 'a'"),
    ({"a": [-1.0] * 3}, "zeroes the sent word"),  # s0 + s0 a = 0 for every word
    ([1, 2, 3], "JSON object"),
    ({"a": [1e300] * 3}, "norm is not finite"),  # the norm overflows: the scale would be 0
])
def test_malformed_attack_file_is_a_config_error_naming_the_file(tmp_path, capsys, record, named):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    rec = attack.attack_record(attack.AttackVector(
        a=[0.0] * 3, code_id="repetition_3", scheme="bpsk", n=3, n_symbols=3,
        search_sigma=1.0, seed=0, approach="1", accepted_iters=0))
    if isinstance(record, dict):
        record = {"version": rec["version"]} if "version" in record else rec | record
    path = write(tmp_path, "broken-attack.json", json.dumps(record))
    assert cli.main(["eval", "--config", cfg, "--attack", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and path in err and named in err


@pytest.mark.parametrize("command, extra, argv, named", [
    ("eval", "decoder.iters = 0\n", [], "decoder.iters"),
    ("eval", "channel.kind = bursty\nchannel.rho = 2\n", [], "channel.rho"),
    ("eval", "eval.min_block_errors = 0\n", [], "eval.min_block_errors"),
    ("eval", "eval.seed = -1\n", [], "eval.seed"),
    ("eval", "", ["--seed", "-1"], "--seed"),
    ("eval", "modem.scheme = qam4\n", [], "divisible by 2"),
    ("eval", "code.n = 1\n", [], "repetition"),
    ("eval", "code.family = polar\ncode.n = 64\ncode.k = 32\ncode.design_ebn0_db = 40\n", [],
     "design_ebn0_db = 40.0 ties"),
    ("search", "decoder.iters = 0\n", [], "decoder.iters"),
    ("sweep", "decoder.iters = 0\n", [], "decoder.iters"),
    ("gradcheck", "decoder.iters = 0\n", [], "decoder.iters"),
    ("search", "search.sigma = 1e-200\n", [], "search.sigma"),
    ("search", "search.sigma = 1e200\nsearch.runs = 2\n", [], "search.sigma"),
])
def test_settings_that_fail_inside_the_numerics_are_config_errors(tmp_path, capsys, command,
                                                                   extra, argv, named):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG + extra)
    assert cli.main([command, "--config", cfg] + argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and named in err


@pytest.mark.parametrize("command, cfg_text, key, sigma", [
    # on the Hamming code under BPSK, 3081 dB is a level in dB, but its sigma is not one
    ("eval", HAMMING_CFG + "eval.ebn0_db = 3081\n", "eval.ebn0_db", "8.34e-155"),
    ("gradcheck", HAMMING_CFG + "eval.ebn0_db = 3081\n", "eval.ebn0_db", "8.34e-155"),
    ("sweep", HAMMING_CFG + "eval.grid = 1 3081\n", "eval.grid", "8.34e-155"),
    ("search", HAMMING_CFG + "search.validation_ebn0_db = 3081\nsearch.runs = 2\n",
     "search.validation_ebn0_db", "8.34e-155"),
    ("eval", HAMMING_CFG + "eval.ebn0_db = -3000\n", None, None),  # sigma 9.4e149 is one
    # at rate 1/64, -3075 dB gives a sigma whose square overflows
    ("eval", "code.family = repetition\ncode.n = 64\neval.ebn0_db = -3075\n", "eval.ebn0_db",
     "inf"),
])
def test_an_ebn0_is_checked_against_the_sigma_it_gives_on_the_code(tmp_path, capsys, monkeypatch,
                                                                   command, cfg_text, key, sigma):
    if key is not None:  # the level is rejected before any numerics run
        monkeypatch.setattr(modem, "demodulate_llr", None)
        monkeypatch.setattr(attack, "find_search_sigma", None)
    rc = cli.main([command, "--config", write(tmp_path, "levels.cfg", cfg_text)])
    err = capsys.readouterr().err
    if key is None:
        assert rc == cli.EXIT_OK
    else:
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: {key} ") and f"noise std {sigma} " in err


@pytest.mark.parametrize("command", ["eval", "search"])
@pytest.mark.parametrize("line, message", [
    ("search.batch_size = 0", "search.batch_size must be an integer >= 1, got 0"),
    ("search.iters = 0", "search.iters must be an integer >= 1, got 0"),
    ("search.max_trials = 2", "search.max_trials must be >= search.iters"),
    ("search.cluster = bogus", "unknown search.cluster method 'bogus'"),
    ("search.cluster = runs", "unknown search.cluster method 'runs'"),  # a value is not renamed
    ("search.approach = 2", "search.approach must be 1, 3 or 4"),
    ("search.approach = 5", "search.approach must be 1, 3 or 4"),
])
def test_every_search_key_is_checked_as_the_config_is_read(tmp_path, capsys, command, line,
                                                           message):
    # eval never builds the search, and search builds it after the code; both name the key
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG + line + "\n")
    assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("line, key", [("channel.rho = 0.5", "channel.rho"),
                                       ("channel.sigma_b = 9.0", "channel.sigma_b")])
def test_burst_settings_on_another_channel_are_config_errors(tmp_path, capsys, kind, line, key):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG + f"channel.kind = {kind}\n{line}\n")
    assert cli.main(["eval", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} applies to a bursty channel only" in err


def test_channel_opts_pass_burst_settings_in_field_order():
    # the order feeds config_digest, so it must not follow the config's line order
    cfg = cli.parse_config("channel.rho = 0.2\nchannel.sigma_b = 1.5\nchannel.kind = bursty\n")
    assert list(cli._channel_opts(cfg).items()) == [("sigma_b", 1.5), ("rho", 0.2)]
    assert cli._channel_opts(cli.parse_config("channel.kind = bursty\n")) == {}


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)

    def broken(*args, **kwargs):
        raise ValueError("internal numeric fault")

    monkeypatch.setattr(montecarlo, "run_rows", broken)
    with pytest.raises(ValueError, match="internal numeric fault"):
        cli.main(["eval", "--config", cfg])
    assert "config error" not in capsys.readouterr().err


def test_gradcheck_default_ldpc_passes(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", "decoder.iters = 5\neval.ebn0_db = 2.0\neval.seed = 3\n")
    rc = cli.main(["gradcheck", "--config", cfg])
    assert rc == cli.EXIT_OK
    assert "max rel error" in capsys.readouterr().out


def test_gradcheck_repetition_tight(tmp_path):
    cfg = cli.parse_config("code.family = repetition\ncode.n = 3\ndecoder.iters = 2\n"
                           "eval.ebn0_db = -8\n")
    report = cli.run_gradcheck(cfg, seed=3)
    assert report.passed
    assert max(report.max_rel_demod, report.max_rel_bp) < 1e-6


def test_gradcheck_exit_code_mapping(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, "g.cfg", "decoder.iters = 2\n")
    failing = cli.GradcheckReport(max_rel_demod=1e-9, max_rel_bp=0.5,
                                  worst="bp case 0 coordinate 7")
    assert not failing.passed
    monkeypatch.setattr(cli, "run_gradcheck", lambda *a, **k: failing)
    rc = cli.main(["gradcheck", "--config", cfg])
    assert rc == cli.EXIT_GRADCHECK
    assert "coordinate 7" in capsys.readouterr().err


def test_gradcheck_names_the_worst_error_of_either_kind(monkeypatch):
    # a 1% demapper-adjoint error must be named even though BP cases follow it
    exact = modem.demodulate_adjoint
    monkeypatch.setattr(modem, "demodulate_adjoint", lambda *a, **k: 1.01 * exact(*a, **k))
    cfg = cli.parse_config("decoder.iters = 5\neval.ebn0_db = 2.0\n")
    report = cli.run_gradcheck(cfg, seed=3)
    assert not report.passed
    assert report.max_rel_demod > 1e-3 > report.max_rel_bp
    assert report.worst.startswith("demod case ")


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    rc = cli.main(["eval", "--config", cfg, "--seed", "99"])
    assert rc == cli.EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.split(",")[-1] == "99"


def test_search_rejects_non_awgn(tmp_path):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG + "channel.kind = bursty\n")
    assert cli.main(["search", "--config", cfg]) == cli.EXIT_CONFIG


def test_build_search_approach_preset_with_overrides():
    cfg = cli.parse_config("search.approach = 3\nsearch.runs = 12\nsearch.sigma = 0.8\n")
    sc = cli.build_search(cfg)
    assert sc.batch_size == 20 and sc.accepted_iters == 30  # preset 3 shape
    assert sc.runs == 12  # explicit override wins
    assert sc.cluster == "kmeans"
    assert sc.sigma == 0.8


@pytest.mark.parametrize("argv", [
    ["search", "--workers", "2"],
    ["search", "--attack", "a.json"],
    ["gradcheck", "--out", "o.csv"],
    ["gradcheck", "--workers", "2"],
])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, argv, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--config", cfg] + argv[1:])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_workers_flag_matches_single_worker(tmp_path, capsys):
    cfg = write(tmp_path, "rep.cfg", REP_SEARCH_CFG)
    cli.main(["eval", "--config", cfg, "--workers", "1"])
    row1 = capsys.readouterr().out.strip().splitlines()[1]
    cli.main(["eval", "--config", cfg, "--workers", "4"])
    row4 = capsys.readouterr().out.strip().splitlines()[1]
    assert row1 == row4


LDPC_REGIME_CFG = """\
decoder.iters = 3
search.sigma = 0.756
search.batch_size = 20
search.iters = 3
search.max_trials = 30
search.runs = 3
search.cluster_k = 2
search.validation_frames = 200
eval.seed = 7
"""


@pytest.mark.parametrize("cluster", ["kmeans", "none", "approach4"])
def test_search_runs_select_a_validated_candidate(tmp_path, capsys, monkeypatch, cluster):
    text = LDPC_REGIME_CFG + f"search.cluster = {cluster}\n"
    if cluster == "approach4":  # the preset's k-means with k = 1, on small runs
        text = LDPC_REGIME_CFG.replace("search.cluster_k = 2\n", "search.approach = 4\n")
        # its one candidate, the mean, is written without a validation run
        monkeypatch.setattr(montecarlo, "run_rows", lambda *a, **k: pytest.fail("validated"))
    cfg = write(tmp_path, "regime.cfg", text)
    out = str(tmp_path / "attack.json")
    assert cli.main(["search", "--config", cfg, "--out", out, "--seed", "7"]) == cli.EXIT_OK
    err = capsys.readouterr().err
    av = attack.load_attack(out)
    av.check_fits(codes.ldpc_64_32(), "bpsk")
    assert not av.is_zero
    assert "3 runs, " in err
    if cluster == "none":
        assert av.approach.startswith("custom:run")
    else:  # a centroid carries the regime's seed and its label under the preset's
        preset = "4" if cluster == "approach4" else "custom"
        assert av.seed == 7 and av.approach.startswith(f"{preset}:kmeans-centroid-")
    if cluster == "approach4":  # bit for bit the plain mean of the nonzero runs
        parsed = cli.parse_config(text)
        runs = attack.run_regime(codes.ldpc_64_32(), parsed.decoder, "bpsk",
                                 cli.build_search(parsed), seed=7)
        nonzero = [v.a for v in runs if not v.is_zero]
        assert len(nonzero) >= 2 and av.approach == "4:kmeans-centroid-0"
        assert av.a.tobytes() == np.mean(nonzero, axis=0).tobytes()
        assert "one candidate '4:kmeans-centroid-0': nothing to validate" in err
    else:  # no validation Eb/N0 is set: it is 1 dB above the search point
        val_ebn0 = channel.sigma_to_ebn0(0.756, 0.5, 1) + 1.0
        assert f"selected candidate {av.approach!r} at validation Eb/N0 {val_ebn0:.3f} dB" in err


def test_search_without_sigma_finds_one(tmp_path, capsys):
    text = REP_SEARCH_CFG.replace("search.sigma = 3.16\n", "")
    cfg = write(tmp_path, "rep.cfg", text)
    out = str(tmp_path / "attack.json")
    assert cli.main(["search", "--config", cfg, "--out", out]) == cli.EXIT_OK
    parsed = cli.parse_config(text)
    sigma = attack.find_search_sigma(cli.build_code(parsed), parsed.decoder, "bpsk",
                                     seed=5, target_bler=parsed.search_target_bler)
    assert attack.load_attack(out).search_sigma == sigma
    assert f"auto search sigma {sigma:.6g} (" in capsys.readouterr().err
