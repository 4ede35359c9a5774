"""Command-line front end: search / eval / sweep / gradcheck.

Configuration is flat `section.key = value` text. Logs go to stderr; CSV
data goes to stdout or --out. Exit codes: 0 success, 2 configuration
error, 3 search failure, 4 gradient-check failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import attack as attack_mod
from . import bp, channel, checks, codes, modem, montecarlo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SEARCH = 3
EXIT_GRADCHECK = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """The settings of a run. A field `section_key` is set by key `section.key`;
    `decoder` by the keys `decoder.<DecoderConfig field>`, and `search`, the
    SearchConfig overrides by field name, by `search.<SearchConfig field>`."""

    code_family: str = "ldpc"
    code_alist: str = ""
    code_n: int = 64
    code_k: int = 32
    code_design_ebn0_db: float = 2.0
    decoder: bp.DecoderConfig = bp.DecoderConfig(iters=5)
    modem_scheme: str = "bpsk"
    channel_kind: str = "awgn"
    channel_sigma_b: float | None = None
    channel_rho: float | None = None
    search: dict = field(default_factory=dict)  # without sigma: auto at target BLER
    search_approach: int | None = None          # the preset the overrides apply to
    search_target_bler: float = 0.3
    search_require_nonzero: bool = False
    search_validation_ebn0_db: float | None = None  # None: 1 dB above the search point
    search_validation_frames: int = 20000
    eval_frames: int = 10000
    eval_ebn0_db: float = 3.0
    eval_grid: tuple[float, ...] = ()
    eval_seed: int = 0
    eval_message_source: str = "random"
    eval_min_block_errors: int | None = None
    output_attack: str = "attack.json"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# key -> (the section the value goes to, the field it sets, the value parser),
# keys as RunConfig's docstring says (accepted_iters is `search.iters`, and the
# label `approach` is no key); the parser follows the field's annotation
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple[float, ...]": _parse_grid}


def _parser(f):
    return _PARSERS[f.type.removesuffix(" | None")]


_KEYS = {f.name.replace("_", ".", 1): (None, f.name, _parser(f))
         for f in fields(RunConfig) if f.name not in ("decoder", "search")}
_KEYS |= {"decoder." + f.name: ("decoder", f.name, _parser(f)) for f in fields(bp.DecoderConfig)}
_KEYS |= {"search." + {"accepted_iters": "iters"}.get(f.name, f.name): ("search", f.name, _parser(f))
          for f in fields(attack_mod.SearchConfig) if f.name != "approach"}
# SearchConfig field (and approach_config's `approach`) -> the key that sets it
_SEARCH_KEYS = {name: key for key, (section, name, _) in _KEYS.items() if section == "search"}
_SEARCH_KEYS["approach"] = "search.approach"


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; unknown keys and bad values are rejected by line."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        section, name, conv = _KEYS[key]
        try:
            parsed = conv(value)
            if section == "decoder":  # DecoderConfig checks the value here
                cfg.decoder = replace(cfg.decoder, **{name: parsed})
            elif section == "search":
                cfg.search[name] = parsed
            else:
                setattr(cfg, name, parsed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key}: {exc}") from None
    _validate(cfg)
    return cfg


# code.family -> the code it names; with code.alist set, ldpc reads that file instead
_CODES = {
    "ldpc": lambda cfg: codes.ldpc_64_32(),
    "polar": lambda cfg: codes.polar_construct(cfg.code_n, cfg.code_k, cfg.code_design_ebn0_db),
    "repetition": lambda cfg: codes.repetition_code(cfg.code_n),
    "hamming": lambda cfg: codes.hamming_7_4(),
    "uncoded": lambda cfg: codes.uncoded(cfg.code_n),
}


def _validate(cfg: RunConfig) -> None:
    if cfg.code_family not in _CODES:
        raise ConfigError(f"unknown code family {cfg.code_family!r}")
    try:  # each module checks the values it acts on; the shared rules name the key
        modem.get_constellation(cfg.modem_scheme)
        montecarlo.check_message_source(cfg.eval_message_source)
        checks.count("eval.frames", cfg.eval_frames)
        checks.count("search.validation_frames", cfg.search_validation_frames)
        if cfg.eval_min_block_errors is not None:
            checks.count("eval.min_block_errors", cfg.eval_min_block_errors)
        checks.seed("eval.seed", cfg.eval_seed)
        for key, ebn0 in _channel_levels(cfg) + [("code.design_ebn0_db", cfg.code_design_ebn0_db)]:
            checks.decibels(key, ebn0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    build_search(cfg)  # every search.* key, for every command
    try:  # any sigma will do: the kind and the burst settings set for it are checked
        channel.ChannelParams(sigma=1.0, kind=cfg.channel_kind, **_channel_opts(cfg))
    except ValueError as exc:  # a burst setting's message begins with its field name
        raise ConfigError(f"channel.{exc}" if str(exc).startswith(("sigma_b", "rho"))
                          else str(exc)) from None
    if not 0 < cfg.search_target_bler < 1:
        raise ConfigError("search.target_bler must be in (0, 1)")


def _channel_levels(cfg: RunConfig) -> list[tuple[str, float]]:
    """(key, Eb/N0 in dB) of each level that sets a channel's noise std."""
    levels = [("eval.ebn0_db", cfg.eval_ebn0_db)] + [("eval.grid", x) for x in cfg.eval_grid]
    if cfg.search_validation_ebn0_db is not None:
        levels.append(("search.validation_ebn0_db", cfg.search_validation_ebn0_db))
    return levels


def build_code(cfg: RunConfig) -> codes.CodeSpec:
    """The configured code; a malformed alist raises `codes.AlistError`, and
    a code the settings cannot build or the scheme cannot carry a ConfigError,
    as does an Eb/N0 key whose noise std on this code the demapper cannot take."""
    if cfg.code_family == "ldpc" and cfg.code_alist:
        try:
            with open(cfg.code_alist) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read alist file: {exc}") from None
        code = codes.code_from_alist(text)
    else:
        try:
            code = _CODES[cfg.code_family](cfg)
        except ValueError as exc:  # a bad code.n or code.k
            raise ConfigError(f"cannot build the {cfg.code_family} code: {exc}") from None
    bits = modem.get_constellation(cfg.modem_scheme).bits_per_symbol
    if code.k < 1 or code.n % bits:
        raise ConfigError(f"code {code.name} (n = {code.n}, k = {code.k}) carries no "
                          f"messages under {cfg.modem_scheme}: it needs k >= 1 and n "
                          f"divisible by {bits}")
    for key, ebn0 in _channel_levels(cfg):
        sigma = channel.ebn0_to_sigma(ebn0, code.rate, bits)
        try:
            checks.noise_std("sigma", sigma)
        except ValueError:
            raise ConfigError(f"{key} {ebn0!r} dB gives the noise std {sigma:.3g} on {code.name} "
                              f"under {cfg.modem_scheme}, outside the demapper's range") from None
    return code


def build_search(cfg: RunConfig) -> attack_mod.SearchConfig:
    """The `search.*` overrides on top of the approach preset, or of the defaults.

    A value SearchConfig rejects is a ConfigError whose message names
    each field by its key, outside the quoted value (`accepted_iters` is
    `search.iters`)."""
    try:
        if cfg.search_approach is not None:
            return attack_mod.approach_config(cfg.search_approach, **cfg.search)
        return attack_mod.SearchConfig(**cfg.search)
    except ValueError as exc:
        raise ConfigError(re.sub(r"'[^']*'|\w+", lambda m: _SEARCH_KEYS.get(m[0], m[0]),
                                 str(exc))) from None


def _channel_opts(cfg: RunConfig) -> dict:
    """The burst settings that are set, sigma_b before rho (a key order `config_digest` reads)."""
    opts = {"sigma_b": cfg.channel_sigma_b, "rho": cfg.channel_rho}
    return {name: value for name, value in opts.items() if value is not None}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_search(cfg: RunConfig, out_path: str | None, seed: int) -> int:
    code = build_code(cfg)
    decoder = cfg.decoder
    search_cfg = build_search(cfg)
    if cfg.channel_kind != "awgn":
        raise ConfigError("the perturbation search runs over the AWGN channel only")
    bits = modem.get_constellation(cfg.modem_scheme).bits_per_symbol
    if search_cfg.sigma is None:
        sigma = attack_mod.find_search_sigma(code, decoder, cfg.modem_scheme, seed=seed,
                                             target_bler=cfg.search_target_bler)
        _log(f"auto search sigma {sigma:.6g} "
             f"({channel.sigma_to_ebn0(sigma, code.rate, bits):.3f} dB)")
        search_cfg = replace(search_cfg, sigma=sigma)

    def trace(rec):
        _log("trial={trial} eps={epsilon:.6g} ber={ber:.6g} ber_new={ber_new:.6g} "
             "bler={bler:.6g} bler_new={bler_new:.6g} accept={acc}".format(
                 acc="yes" if rec["accepted"] else "no", **rec))

    if search_cfg.runs > 1:
        vectors = attack_mod.run_regime(code, decoder, cfg.modem_scheme, search_cfg, seed)
        nonzero = [v for v in vectors if not v.is_zero]
        _log(f"{len(vectors)} runs, {len(nonzero)} nonzero vectors")
        if search_cfg.cluster != "none" and len(nonzero) >= search_cfg.cluster_k:
            # a centroid names the regime: its seed, and its label under the preset's
            candidates = [replace(c, seed=seed, approach=f"{search_cfg.approach}:{c.approach}")
                          for c in attack_mod.cluster_attacks(vectors, search_cfg.cluster,
                                                              search_cfg.cluster_k, seed=seed)]
        else:
            candidates = nonzero or vectors[:1]
        if len(candidates) == 1:
            best = candidates[0]
            _log(f"one candidate {best.approach!r}: nothing to validate")
        else:
            val_ebn0 = cfg.search_validation_ebn0_db
            if val_ebn0 is None:
                val_ebn0 = channel.sigma_to_ebn0(search_cfg.sigma, code.rate, bits) + 1.0
            best = attack_mod.select_best(candidates, code, decoder, ebn0_db=val_ebn0,
                                          frames=cfg.search_validation_frames,
                                          seed=channel.child_seed(seed, 9))
            _log(f"selected candidate {best.approach!r} at validation Eb/N0 {val_ebn0:.3f} dB")
    else:
        best = attack_mod.search_attack(code, decoder, cfg.modem_scheme, search_cfg,
                                        seed, on_trial=trace)
        _log(f"accepted {best.accepted_iters} updates")

    if cfg.search_require_nonzero and best.is_zero:
        _log("search failed: attack vector is zero but a nonzero one was required")
        return EXIT_SEARCH
    path = out_path or cfg.output_attack
    attack_mod.save_attack(best, path)
    _log(f"wrote {path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, attack_path: str | None, out_path: str | None,
             seed: int, workers: int, grid: bool) -> int:
    code = build_code(cfg)
    decoder = cfg.decoder
    av = None
    if attack_path:
        try:
            av = attack_mod.load_attack(attack_path)
            montecarlo.attack_array(av, cfg.modem_scheme, code)
        except ValueError as exc:
            raise ConfigError(f"attack file {attack_path}: {exc}") from None
    shared = dict(frames=cfg.eval_frames, seed=seed, message_source=cfg.eval_message_source,
                  channel_kind=cfg.channel_kind, channel_opts=_channel_opts(cfg),
                  workers=workers, min_block_errors=cfg.eval_min_block_errors)
    if grid:
        points = cfg.eval_grid or (cfg.eval_ebn0_db,)
        results = montecarlo.sweep(points, code, decoder, cfg.modem_scheme,
                                   attack=av, **shared)
    else:
        results = montecarlo.run_rows(code, decoder, cfg.modem_scheme, cfg.eval_ebn0_db,
                                      attacks=[None] if av is None else [None, av], **shared)
    if out_path:
        montecarlo.write_csv(results, out_path)
        _log(f"wrote {out_path}")
    else:
        montecarlo.write_csv(results, sys.stdout)
    return EXIT_OK


@dataclass
class GradcheckReport:
    max_rel_demod: float
    max_rel_bp: float
    worst: str = ""
    checks: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return max(self.max_rel_demod, self.max_rel_bp) < 1e-3


def run_gradcheck(cfg: RunConfig, seed: int) -> GradcheckReport:
    """Finite-difference validation of the demapper adjoint and BP gradient."""
    code = build_code(cfg)
    const = modem.get_constellation(cfg.modem_scheme)
    receiver = bp.Receiver(code, cfg.decoder)
    rng = np.random.default_rng(seed)
    sigma = channel.ebn0_to_sigma(cfg.eval_ebn0_db, code.rate, const.bits_per_symbol)
    report = GradcheckReport(0.0, 0.0)

    def rel(a, b):
        return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-9)

    def note(kind, case, r, coords):
        """Fold one case's relative errors r at `coords` into the report's max_rel_<kind>."""
        top = float(r.max())
        if top > max(report.max_rel_demod, report.max_rel_bp):  # the worst so far, of both kinds
            report.worst = f"{kind} case {case} coordinate {int(coords[int(np.argmax(r))])}"
        setattr(report, f"max_rel_{kind}", max(getattr(report, f"max_rel_{kind}"), top))
        report.checks.append(f"{kind} case {case}: max rel {top:.3g}")

    for case in range(3):
        y = rng.normal(0.0, 1.0, code.n)
        weights = rng.normal(0.0, 1.0, code.n)
        analytic = modem.demodulate_adjoint(weights, sigma, const)
        fd = bp.finite_difference(lambda v: float(weights @ modem.demodulate_llr(v, sigma, const)), y)
        note("demod", case, rel(analytic, fd), range(code.n))

        llr = rng.normal(0.0, 2.0 / sigma, code.n)
        grad = receiver.decode(llr[None], gradient=True)[1][0]
        coords = rng.choice(code.n, size=min(10, code.n), replace=False)
        fd = bp.finite_difference(receiver.loss, llr, coords=coords)
        note("bp", case, rel(grad[coords], fd), coords)
    return report


def cmd_gradcheck(cfg: RunConfig, seed: int) -> int:
    report = run_gradcheck(cfg, seed)
    for line in report.checks:
        _log(line)
    print(f"demod adjoint max rel error: {report.max_rel_demod:.3g}")
    print(f"bp gradient max rel error:   {report.max_rel_bp:.3g}")
    if not report.passed:
        _log(f"gradcheck FAILED (worst: {report.worst or 'demod adjoint'})")
        return EXIT_GRADCHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads; argparse rejects the rest."""
    parser = argparse.ArgumentParser(prog="friendlyfec")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("search", "eval", "sweep", "gradcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        if name != "gradcheck":
            p.add_argument("--out", default=None)
        if name in ("eval", "sweep"):
            p.add_argument("--attack", default=None)
            p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        seed = args.seed if args.seed is not None else cfg.eval_seed
        try:  # the flags obey the rules of the settings they stand for
            checks.seed("--seed", seed)
            if args.command in ("eval", "sweep"):
                checks.count("--workers", args.workers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if args.command == "search":
            try:
                return cmd_search(cfg, args.out, seed)
            except RuntimeError as exc:  # non-finite decoder output aborts the search
                _log(f"search failed: {exc}")
                return EXIT_SEARCH
        if args.command == "eval":
            return cmd_eval(cfg, args.attack, args.out, seed, args.workers, grid=False)
        if args.command == "sweep":
            return cmd_eval(cfg, args.attack, args.out, seed, args.workers, grid=True)
        return cmd_gradcheck(cfg, seed)
    except (OSError, ConfigError, codes.AlistError) as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
