"""Seeded Monte Carlo measurement of BER/BLER with confidence intervals.

Frames are simulated in fixed-size chunks whose random streams derive from
(seed, frame index) alone, so exact integer error counts are identical for
any worker count or chunk assignment. BER is counted on message bits.
"""

from __future__ import annotations

import csv
import hashlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import attack as attack_mod
from . import bp, channel, gf2, modem

CHUNK_FRAMES = 512
Z95 = 1.96


@dataclass(frozen=True)
class MonteCarloResult:
    frames: int
    bit_errors: int
    block_errors: int
    ber: float
    bler: float
    ci95_ber: float
    ci95_bler: float
    ebn0_db: float
    seed: int
    attacked: bool = False
    code_id: str = ""
    decoder: str = "bp"
    iters: int = 0
    scheme: str = "bpsk"
    channel_kind: str = "awgn"
    config_digest: str = ""   # not written to CSV, so read back as ""


def _digest(*parts) -> str:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode())
    return h.hexdigest()[:12]


def _result(frames, bit_errors, block_errors, k, meta) -> MonteCarloResult:
    ber = bit_errors / (frames * k)
    bler = block_errors / frames
    return MonteCarloResult(
        frames=frames, bit_errors=bit_errors, block_errors=block_errors,
        ber=ber, bler=bler,
        ci95_ber=float(Z95 * np.sqrt(ber * (1.0 - ber) / (frames * k))),
        ci95_bler=float(Z95 * np.sqrt(bler * (1.0 - bler) / frames)),
        **meta)


def _check_frames(frames) -> None:
    if isinstance(frames, bool) or not isinstance(frames, (int, np.integer)) or frames < 1:
        raise ValueError(f"frames must be an integer >= 1, got {frames!r}")


def _counts(errs) -> tuple[int, int, int]:
    """(frames, bit errors, block errors) of a message-bit error matrix."""
    return len(errs), int(errs.sum()), int(np.any(errs, axis=-1).sum())


def _attack_array(attack, scheme, code) -> np.ndarray | None:
    """The perturbation as an array; an AttackVector must match scheme and code,
    and a raw array must be finite with shape (code.n,)."""
    if attack is None:
        return None
    if isinstance(attack, attack_mod.AttackVector):
        attack.check_fits(code, scheme)
        return attack.a
    a = np.asarray(attack, dtype=np.float64)
    if a.shape != (code.n,):
        raise ValueError(f"raw attack array has shape {a.shape}, expected ({code.n},)")
    if not np.all(np.isfinite(a)):
        raise ValueError("raw attack array entries must be finite")
    return a


def _chunk_counts(receiver, const, params, attack_a, message_source, rng, bounds):
    """Exact (frames, bit errors, block errors) for frames [start, stop)."""
    start, stop = bounds
    code = receiver.code

    if message_source == "all_zero":
        msgs = np.zeros((stop - start, code.k), dtype=np.uint8)
    else:
        msgs = rng.bits(start, stop, code.k, channel.STREAM_MESSAGE)
    s = modem.modulate(gf2.encode(msgs, code.G), const)
    if attack_a is not None:
        s = attack_mod.apply_attack(s, attack_a, const)

    y, gains = channel.transmit(s, params, rng.frames(start, stop, channel.STREAM_CHANNEL),
                                const.coords_per_symbol)
    side = modem.ChannelSide(sigma=params.sigma, gains=gains)
    llr = modem.demodulate_llr(y, side, const)
    return _counts(receiver.decode(llr, early_stop=True)[0] != msgs)


def run_point(code, decoder: bp.DecoderConfig, scheme: str, ebn0_db: float,
              frames: int, seed: int, attack=None, message_source: str = "random",
              channel_kind: str = "awgn", channel_opts: dict | None = None,
              workers: int = 1, min_block_errors: int | None = None) -> MonteCarloResult:
    """Simulate one operating point and return exact error counts.

    Per frame: draw the message, encode, modulate, apply the perturbation
    when given, transmit, demodulate, decode (early syndrome stop on), and
    count message-bit and block errors. With `min_block_errors`, chunks are
    consumed in order until that many block errors have accumulated, so the
    reported counts stay worker-invariant.
    """
    _check_frames(frames)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if message_source not in ("random", "all_zero"):
        raise ValueError(f"unknown message source {message_source!r}")
    if min_block_errors is not None and min_block_errors < 1:
        raise ValueError("min_block_errors must be >= 1")
    rng = channel.FrameRng(seed)
    ebn0_db = float(ebn0_db)
    const = modem.get_constellation(scheme)
    sigma = channel.ebn0_to_sigma(ebn0_db, code.rate, const.bits_per_symbol)
    params = channel.ChannelParams(sigma=sigma, kind=channel_kind, **(channel_opts or {}))
    attack_a = _attack_array(attack, scheme, code)

    job = partial(_chunk_counts, bp.Receiver(code, decoder), const, params, attack_a,
                  message_source, rng)
    chunks = [(start, min(start + CHUNK_FRAMES, frames))
              for start in range(0, frames, CHUNK_FRAMES)]
    # waves keep the early-stop decision a prefix property of the fixed
    # chunk order, independent of the worker count
    wave = len(chunks) if min_block_errors is None else workers
    totals = (0, 0, 0)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool is not None else map
        in_order = (counts for pos in range(0, len(chunks), wave)
                    for counts in mapper(job, chunks[pos:pos + wave]))
        for counts in in_order:
            totals = tuple(map(sum, zip(totals, counts)))
            if min_block_errors is not None and totals[2] >= min_block_errors:
                break

    meta = dict(ebn0_db=ebn0_db, seed=seed, attacked=attack_a is not None,
                code_id=code.name, decoder="bp", iters=decoder.iters, scheme=scheme,
                channel_kind=channel_kind,
                config_digest=_digest(code.name, decoder, scheme, channel_kind,
                                      channel_opts, ebn0_db, message_source))
    return _result(*totals, code.k, meta)


def sweep(ebn0_grid, code, decoder: bp.DecoderConfig, scheme: str, frames: int,
          seed: int, attack=None, message_source: str = "random",
          channel_kind: str = "awgn", channel_opts: dict | None = None,
          workers: int = 1, min_block_errors: int | None = None) -> list[MonteCarloResult]:
    """run_point over an Eb/N0 grid with per-point derived seeds.

    Results are ordered by Eb/N0; with an attack, each point yields a
    baseline row followed by an attacked row sharing the same seed, so the
    pair sees identical noise (common random numbers).
    """
    grid = sorted(float(x) for x in ebn0_grid)
    if not grid:
        raise ValueError("the Eb/N0 grid must be nonempty")
    attack = _attack_array(attack, scheme, code)
    results = []
    for idx, point in enumerate(grid):
        point_seed = channel.child_seed(seed, idx)
        shared = dict(frames=frames, seed=point_seed, message_source=message_source,
                      channel_kind=channel_kind, channel_opts=channel_opts,
                      workers=workers, min_block_errors=min_block_errors)
        results.append(run_point(code, decoder, scheme, point, **shared))
        if attack is not None:
            results.append(run_point(code, decoder, scheme, point, attack=attack, **shared))
    return results


# ---------------------------------------------------------------------------
# all-zero -> random-codeword transfer check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferReport:
    mode: str                 # "exact" | "statistical"
    frames: int
    bit_errors_random: int
    block_errors_random: int
    bit_errors_allzero: int
    block_errors_allzero: int
    passed: bool
    ber_random: float = 0.0
    ber_allzero: float = 0.0
    ci_sum: float = 0.0


def transfer_check(attack, code, decoder: bp.DecoderConfig, ebn0_db: float,
                   frames: int, seed: int) -> TransferReport:
    """Verify that the all-zero-codeword perturbation transfers to random words.

    BPSK/AWGN: the error counts of (random codeword, adapted perturbation,
    noise z) and (all-zero word, perturbation, sign-coupled noise t*z) are
    compared frame by frame; they must agree bit-exactly. qam4 falls back
    to a statistical check: the BER confidence intervals of all-zero and
    random-codeword runs must overlap.
    """
    _check_frames(frames)
    if attack is None:
        raise ValueError("transfer_check needs an attack: an AttackVector or a raw array")
    scheme = attack.scheme if isinstance(attack, attack_mod.AttackVector) else "bpsk"
    if scheme != "bpsk":
        base = run_point(code, decoder, scheme, ebn0_db, frames=frames, seed=seed,
                         attack=attack, message_source="all_zero")
        rnd = run_point(code, decoder, scheme, ebn0_db, frames=frames,
                        seed=channel.child_seed(seed, 77), attack=attack,
                        message_source="random")
        ci = base.ci95_ber + rnd.ci95_ber
        return TransferReport(
            mode="statistical", frames=frames,
            bit_errors_random=rnd.bit_errors, block_errors_random=rnd.block_errors,
            bit_errors_allzero=base.bit_errors, block_errors_allzero=base.block_errors,
            passed=abs(base.ber - rnd.ber) <= ci,
            ber_random=rnd.ber, ber_allzero=base.ber, ci_sum=ci)

    const = modem.get_constellation("bpsk")
    receiver = bp.Receiver(code, decoder)
    sigma = channel.ebn0_to_sigma(ebn0_db, code.rate, 1)
    side = modem.ChannelSide(sigma=sigma)
    params = channel.ChannelParams(sigma=sigma)
    rng = channel.FrameRng(seed)
    a = _attack_array(attack, scheme, code)
    s_zero = attack_mod.apply_attack(modem.modulate(np.zeros(code.n, dtype=np.uint8), const),
                                     a, const)

    totals_r = totals_z = (0, 0, 0)
    match = True
    for start in range(0, frames, CHUNK_FRAMES):
        stop = min(start + CHUNK_FRAMES, frames)
        msgs = rng.bits(start, stop, code.k, channel.STREAM_MESSAGE)
        x = gf2.encode(msgs, code.G)
        t = 1.0 - 2.0 * x.astype(np.float64)
        noise = channel.draw(params, rng.frames(start, stop, channel.STREAM_CHANNEL), x.shape)[1]
        z = sigma * noise
        s_rand = attack_mod.apply_attack(modem.modulate(x, const), a, const)
        err_r = receiver.decode(modem.demodulate_llr(s_rand + z, side, const),
                                early_stop=True)[0] != msgs
        err_z = receiver.decode(modem.demodulate_llr(s_zero + t * z, side, const),
                                early_stop=True)[0] != 0
        totals_r = tuple(map(sum, zip(totals_r, _counts(err_r))))
        totals_z = tuple(map(sum, zip(totals_z, _counts(err_z))))
        match = match and bool(np.array_equal(err_r, err_z))

    return TransferReport(
        mode="exact", frames=frames,
        bit_errors_random=totals_r[1], block_errors_random=totals_r[2],
        bit_errors_allzero=totals_z[1], block_errors_allzero=totals_z[2],
        passed=match)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

# each column holds the MonteCarloResult field of its name, except `channel`
CSV_COLUMNS = ["ebn0_db", "frames", "bit_errors", "block_errors", "ber", "bler",
               "ci95_ber", "ci95_bler", "attacked", "code_id", "decoder", "iters",
               "scheme", "channel", "seed"]
_CSV_FIELDS = [{"channel": "channel_kind"}.get(col, col) for col in CSV_COLUMNS]
# cell parser per field annotation; a bool is written as 0 or 1
_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda cell: bool(int(cell))}


def _opened(fh, mode):
    """A context yielding a file: a path is opened (and closed on exit), an open file is lent."""
    if isinstance(fh, (str, bytes)) or hasattr(fh, "__fspath__"):
        return open(fh, mode, newline="")
    return nullcontext(fh)


def write_csv(results: list[MonteCarloResult], fh) -> None:
    with _opened(fh, "w") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in results:
            w.writerow([int(v) if isinstance(v, bool) else v
                        for v in (getattr(r, name) for name in _CSV_FIELDS)])


def read_csv(fh) -> list[MonteCarloResult]:
    """Results from a file written by `write_csv`; a missing column raises
    ValueError naming it, and a cell that does not parse one naming its
    column and line."""
    parse = {f.name: _PARSERS[f.type] for f in fields(MonteCarloResult)}

    def result(row, line):
        values = {}
        for col, name in zip(CSV_COLUMNS, _CSV_FIELDS):
            try:
                values[name] = parse[name](row[col])
            except ValueError:
                raise ValueError(f"CSV line {line}, column {col!r}: "
                                 f"cannot read {row[col]!r}") from None
        return MonteCarloResult(**values)

    with _opened(fh, "r") as f:
        reader = csv.DictReader(f, restval="")  # a short row reads its last cells as ""
        missing = [col for col in CSV_COLUMNS if col not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"CSV file has no column {missing[0]!r}")
        return [result(row, reader.line_num) for row in reader]
