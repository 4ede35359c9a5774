"""Seeded Monte Carlo measurement of BER/BLER with confidence intervals.

Frames are simulated in fixed-size chunks whose random streams derive from
(seed, frame index) alone, so exact integer error counts are identical for
any worker count or chunk assignment. BER is counted on message bits.
`run_rows` evaluates several perturbations at one point and seed: each
chunk's messages and channel draws are made once and shared by all rows,
and each row is decoded and counted on its own, so its counts equal those
of `run_point` on that row alone.
"""

from __future__ import annotations

import csv
import hashlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from . import attack as attack_mod
from . import bp, channel, checks, gf2, modem

CHUNK_FRAMES = 512
Z95 = 1.96


def check_message_source(source) -> None:
    if source not in ("random", "all_zero"):
        raise ValueError(f"unknown message source {source!r}")


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


def _counts(errs) -> tuple[int, int, int]:
    """(frames, bit errors, block errors) of a message-bit error matrix."""
    return len(errs), int(errs.sum()), int(np.any(errs, axis=-1).sum())


def attack_array(attack, scheme, code) -> np.ndarray | None:
    """The perturbation as an array. An AttackVector must match scheme and code
    (its own checks make it finite with shape (n,)); a raw array must be
    finite with shape (code.n,). Either must leave the word the all-zero
    codeword sends nonzero, or it zeroes every word."""
    if attack is None:
        return None
    if isinstance(attack, attack_mod.AttackVector):
        attack.check_fits(code, scheme)
        attack = attack.a
    a = np.asarray(attack, dtype=np.float64)
    if a.shape != (code.n,):
        raise ValueError(f"raw attack array has shape {a.shape}, expected ({code.n},)")
    if not np.all(np.isfinite(a)):
        raise ValueError("raw attack array entries must be finite")
    attack_mod.attacked_zero_word(a, modem.get_constellation(scheme))
    return a


def _chunk(code, const, params, message_source, rng, start, stop):
    """The messages of frames [start, stop), their modulated codewords and the
    channel realization `channel.draw` makes for those frames."""
    if message_source == "all_zero":
        msgs = np.zeros((stop - start, code.k), dtype=np.uint8)
    else:
        msgs = rng.bits(start, stop, code.k, channel.STREAM_MESSAGE)
    s = modem.modulate(gf2.encode(msgs, code.G), const)
    draws = channel.draw(params, rng.frames(start, stop, channel.STREAM_CHANNEL), s.shape,
                         const.coords_per_symbol)
    return msgs, s, draws


def _decoded(receiver, const, params, s, draws) -> np.ndarray:
    """The message bits the receiver decodes, early syndrome stop on, from s sent on `draws`."""
    y = channel.transmit(s, params, draws, const.coords_per_symbol)
    llr = modem.demodulate_llr(y, params.sigma, const, draws.gains)
    return receiver.decode(llr, early_stop=True)[0]


def _chunk_counts(receiver, const, params, attacks, message_source, rng, job):
    """Exact (frames, bit errors, block errors) for frames [start, stop), one per listed row.

    The messages and the channel realization are drawn once; each row then
    applies its perturbation, is sent through `channel.transmit` on those
    draws, demapped and decoded in its own call, so a row's counts do not
    depend on which other rows share the chunk.
    """
    (start, stop), rows = job
    msgs, s, draws = _chunk(receiver.code, const, params, message_source, rng, start, stop)
    counts = []
    for row in rows:
        a = attacks[row]
        sent = s if a is None else attack_mod.apply_attack(s, a, const)
        counts.append(_counts(_decoded(receiver, const, params, sent, draws) != msgs))
    return counts


_worker_job = None  # the chunk job of a `run_rows` worker process, set once by `_start_worker`


def _start_worker(job) -> None:
    """A `run_rows` worker's initializer: keep the job, and so one receiver and its work
    sets, for every chunk the worker counts."""
    global _worker_job
    _worker_job = job


def _worker_counts(chunk):
    return _worker_job(chunk)


def run_rows(code, decoder: bp.DecoderConfig, scheme: str, ebn0_db: float,
             frames: int, seed: int, attacks: list, message_source: str = "random",
             channel_kind: str = "awgn", channel_opts: dict | None = None,
             workers: int = 1, min_block_errors: int | None = None
             ) -> list[MonteCarloResult]:
    """Simulate one operating point once per perturbation and return exact error counts.

    `attacks` lists the perturbations, None for an unperturbed row; the
    result holds one row per entry, in the order given. Every entry is
    checked before anything is drawn. Per chunk the message bits, their
    encoding and modulation and the channel draws are made once and shared
    by every row (common random numbers); each row then applies its
    perturbation, is transmitted on those draws, demodulated, decoded
    (early syndrome stop on) in its own call, and counted on its message
    bits. A row's counts are thus those of the same row simulated alone.
    With `min_block_errors`, each row consumes chunks in order until it
    has that many block errors and is not decoded after; the loop ends
    when every row has stopped, and the counts stay worker-invariant.
    """
    checks.count("frames", frames)
    checks.count("workers", workers)
    check_message_source(message_source)
    if min_block_errors is not None:
        checks.count("min_block_errors", min_block_errors)
    rng = channel.FrameRng(seed)
    ebn0_db = checks.finite("ebn0_db", ebn0_db)
    const = modem.get_constellation(scheme)
    sigma = channel.ebn0_to_sigma(ebn0_db, code.rate, const.bits_per_symbol)
    params = channel.ChannelParams(sigma=sigma, kind=channel_kind, **(channel_opts or {}))
    arrays = [attack_array(a, scheme, code) for a in attacks]

    job = partial(_chunk_counts, bp.Receiver(code, decoder), const, params, arrays,
                  message_source, rng)
    chunks = [(start, min(start + CHUNK_FRAMES, frames))
              for start in range(0, frames, CHUNK_FRAMES)]
    # waves keep each row's early-stop decision a prefix property of the
    # fixed chunk order, independent of the worker count
    wave = len(chunks) if min_block_errors is None else workers
    totals = [(0, 0, 0)] * len(arrays)
    live = list(range(len(arrays)))
    pool = (ProcessPoolExecutor(max_workers=workers, initializer=_start_worker, initargs=(job,))
            if workers > 1 else nullcontext())
    with pool:
        run = partial(map, job) if workers == 1 else partial(pool.map, _worker_counts)
        for pos in range(0, len(chunks), wave):
            rows = tuple(live)  # fixed for the wave: each job's counts follow this order
            if not rows:
                break
            for counts in run([(bounds, rows) for bounds in chunks[pos:pos + wave]]):
                for row, row_counts in zip(rows, counts):
                    if row in live:
                        totals[row] = tuple(map(sum, zip(totals[row], row_counts)))
                        if min_block_errors is not None and totals[row][2] >= min_block_errors:
                            live.remove(row)

    meta = dict(ebn0_db=ebn0_db, seed=seed, code_id=code.name, decoder="bp",
                iters=decoder.iters, scheme=scheme, channel_kind=channel_kind,
                config_digest=_digest(code.name, decoder, scheme, channel_kind,
                                      channel_opts, ebn0_db, message_source))
    return [_result(*row_totals, code.k, dict(meta, attacked=a is not None))
            for row_totals, a in zip(totals, arrays)]


def run_point(code, decoder: bp.DecoderConfig, scheme: str, ebn0_db: float,
              frames: int, seed: int, attack=None, **options) -> MonteCarloResult:
    """Simulate one operating point with one perturbation (or none): `run_rows`
    with the one row `attack`, taking the same keyword options."""
    return run_rows(code, decoder, scheme, ebn0_db, frames, seed, [attack], **options)[0]


def sweep(ebn0_grid, code, decoder: bp.DecoderConfig, scheme: str, frames: int,
          seed: int, attack=None, **options) -> list[MonteCarloResult]:
    """`run_rows` over an Eb/N0 grid with per-point derived seeds.

    Results are ordered by Eb/N0; with an attack, each point yields a
    baseline row followed by an attacked row, evaluated together on the
    same draws, so the pair sees identical noise (common random numbers).
    The attack is checked before the first point. Keyword options are
    those of `run_rows`.
    """
    grid = sorted(checks.finite("ebn0_grid entry", x) for x in ebn0_grid)
    if not grid:
        raise ValueError("the Eb/N0 grid must be nonempty")
    attack = attack_array(attack, scheme, code)
    rows = [None] if attack is None else [None, attack]
    results = []
    for idx, point in enumerate(grid):
        results += run_rows(code, decoder, scheme, point, frames, channel.child_seed(seed, idx),
                            rows, **options)
    return results


# ---------------------------------------------------------------------------
# all-zero -> random-codeword transfer check
# ---------------------------------------------------------------------------

class TransferReport(NamedTuple):
    """The counts and verdict of `transfer_check`, as plain values: a kept report
    keeps no module alive, as a dataclass's generated methods would through
    their globals."""

    mode: str                 # always "exact"
    frames: int
    bit_errors_random: int
    block_errors_random: int
    bit_errors_allzero: int
    block_errors_allzero: int
    passed: bool


def transfer_check(attack, code, decoder: bp.DecoderConfig, ebn0_db: float,
                   frames: int, seed: int) -> TransferReport:
    """Verify that the all-zero-codeword perturbation transfers to random words.

    The check is exact for BPSK and 4-QAM over AWGN (a raw array is taken
    as BPSK). Per chunk, random codewords s sent with `apply_attack`
    receive y = (s / A) w + sigma n on the chunk's draws, and the all-zero
    side sends w = `attack.attacked_zero_word` on the noise (s / A) n. As
    s / A is exactly +-1, it receives exactly (s / A) y, so the check's
    exactness rests only on the receiver's sign symmetry: the two decodes'
    errors must agree frame by frame and bit for bit.
    """
    checks.count("frames", frames)
    if attack is None:
        raise ValueError("transfer_check needs an attack: an AttackVector or a raw array")
    scheme = attack.scheme if isinstance(attack, attack_mod.AttackVector) else "bpsk"
    const = modem.get_constellation(scheme)
    receiver = bp.Receiver(code, decoder)
    params = channel.ChannelParams(
        sigma=channel.ebn0_to_sigma(ebn0_db, code.rate, const.bits_per_symbol))
    rng = channel.FrameRng(seed)
    a = attack_array(attack, scheme, code)
    s_zero = attack_mod.attacked_zero_word(a, const)

    totals_r = totals_z = (0, 0, 0)
    match = True
    for start in range(0, frames, CHUNK_FRAMES):
        msgs, s, draws = _chunk(code, const, params, "random", rng, start,
                                min(start + CHUNK_FRAMES, frames))
        err_r = _decoded(receiver, const, params, attack_mod.apply_attack(s, a, const),
                         draws) != msgs
        err_z = _decoded(receiver, const, params, np.broadcast_to(s_zero, s.shape),
                         draws._replace(noise=(s / const.amplitude) * draws.noise)) != 0
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
