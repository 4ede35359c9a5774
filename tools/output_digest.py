"""Print one SHA-256 over the decoder's and the search's outputs, to show two commits agree.

    PYTHONPATH=src python tools/output_digest.py [--verbose]

The digest covers, on the bundled (64, 32) LDPC code:
- `search_attack` vectors and every `on_trial` record, for BP-3 and BP-5
  (a 300-frame batch, so two full decode blocks and a short one, with the
  step size calibrated);
- `bp_backward` against the all-zero target and a random codeword-length
  target, for a batch and for one frame;
- untaped and early-stopped soft outputs of `bp_forward` and `decode_blocks`;
- `run_regime` vectors, accepted counts and approach labels and every
  `on_trial` record in the order delivered, for 7 runs of 20-frame batches
  that stop at different trials (BPSK with the step size given and
  calibrated, and 4-QAM), with `cluster_attacks` and `select_best` on
  their vectors;
- `run_point` error counts at a waterfall and a high Eb/N0 point, with and
  without an attack;
- every field of the baseline and attacked `sweep` rows for AWGN, Rayleigh
  and bursty channels, BPSK and 4-QAM, random and all-zero messages and 1
  and 2 workers, some with a `min_block_errors` at which the two rows stop
  at different chunks, and the CSV that the CLI's `eval` writes for one
  point with an attack file;
- the same forward and backward outputs on a small H with a variable on no
  check, a check on no variable and a degree-1 check, whose check messages
  take the clipped path, fed LLRs that hold exact zeros of both signs;
- exact `transfer_check` reports for BP-3 and BP-5: BPSK at a waterfall
  and a high Eb/N0 point, and 4-QAM;
- `cli.run_gradcheck` reports for BPSK and for 4-QAM;
- a search on the (9, 1) repetition code, whose degree-2 checks keep the
  clipped path in a taped set;
- `run_regime` vectors and records for 13 runs of 20-frame batches: two
  lockstep groups that fill a decode block and one run on its own;
- early-stopped `decode_blocks` soft outputs for 600 lanes (two full
  blocks and a short one) at the waterfall, a mid point and near 5 dB, so
  that converged lanes are held in some iterations and compacted in others;
- `attacked_zero_word` and `apply_attack` outputs for BPSK and 4-QAM on 300
  random codewords under three vectors, one of them all zeros;
- the message bits and gradients of one BP-5 `Receiver` that runs
  early-stopped, gradient and untaped decodes of 300 and of 20 lanes in
  turn, so that its work sets serve decodes of each kind and both widths.
- a BP-5 search on a 1100-frame batch, which reaches `bp.SPLIT_LANES`,
  so that on a machine with two or more CPUs its decodes split across
  helper processes (512 + 588 lanes on two), with the step size calibrated.

Every value is hashed as its exact bytes (floats) or `repr` (records and
counts), so a last-bit or signed-zero difference changes the digest. The
kernel's tanh is numpy's vectorised one, whose last bits can depend on the
CPU and the numpy build: compare two commits on one machine, never against
a digest recorded elsewhere. `--verbose` prints one digest per part, to
find which output differs. Takes a few seconds.

    PYTHONPATH=src python tools/output_digest.py --against REV

checks REV out into a temporary `git worktree`, runs the same parts on
that tree's `src/` in a child process, prints both digests of each part,
and exits 1 if any part differs. A part that fails on REV, or that REV's
code does not reach, is reported as new; a part that REV runs and this
tree does not (one renamed or dropped) is reported as gone, and counts
as a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import traceback

import numpy as np

from friendlyfec import attack, bp, channel, cli, codes, gf2, modem, montecarlo

SIGMA = 0.8  # search noise near BLER 0.3 for BP-5 on the bundled code
TOOLS = os.path.dirname(os.path.abspath(__file__))


def _search_parts(code):
    for iters in (3, 5):
        decoder = bp.DecoderConfig(iters=iters)
        config = attack.SearchConfig(batch_size=300, accepted_iters=3, max_trials=5, sigma=SIGMA)
        trials = []
        vec = attack.search_attack(code, decoder, "bpsk", config, seed=iters,
                                   on_trial=trials.append)
        yield f"search BP-{iters}", [vec.a, repr(vec.accepted_iters), repr(trials)]


def _regime_parts(code):
    decoder = bp.DecoderConfig(iters=3)
    for scheme, sigma, epsilon0 in (("bpsk", SIGMA, None), ("bpsk", SIGMA, 0.05),
                                    ("qam4", 0.55, None)):
        config = attack.SearchConfig(batch_size=20, accepted_iters=5, max_trials=12, runs=7,
                                     sigma=sigma, epsilon0=epsilon0, approach="3")
        trials = []
        vectors = attack.run_regime(code, decoder, scheme, config, seed=11, on_trial=trials.append)
        centroids = attack.cluster_attacks(vectors, "kmeans", 2, seed=11)
        best = attack.select_best(centroids, code, decoder, ebn0_db=2.0, frames=256, seed=13)
        yield f"regime {scheme} epsilon0={epsilon0}", [
            *(v.a for v in vectors), repr([(v.accepted_iters, v.approach) for v in vectors]),
            repr(trials), *(c.a for c in centroids), best.a, repr(best.approach)]


def _decoder_parts(code):
    graph = bp.TannerGraph(code.H)
    rng = np.random.default_rng(17)
    sigma = rng.uniform(0.45, 1.0, (200, 1))
    llr = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((200, code.n)))
    random_target = rng.integers(0, 2, code.n).astype(np.float64)
    for iters in (3, 5):
        taped = bp.bp_forward(llr, graph, iters)
        single = bp.bp_forward(llr[0], graph, iters)
        values = [taped.soft]
        for target in (np.zeros(code.n), random_target):
            values += [bp.bp_backward(taped.tape, target), bp.bp_backward(single.tape, target)]
        yield f"backward BP-{iters}", values
        decoder = bp.DecoderConfig(iters=iters)
        yield f"forward BP-{iters}", [
            bp.bp_forward(llr, graph, iters, record_tape=False).soft,
            bp.bp_forward(llr, graph, iters, early_stop=True, record_tape=False).soft,
            *bp.decode_blocks(llr, graph, decoder)[:1],
            *bp.decode_blocks(llr, graph, decoder, early_stop=True)[:1],
            *bp.decode_blocks(llr, graph, decoder, target=np.zeros(code.n))]


# variable 5 is on no check and variable 6 on one, check 4 is on no variable and check 0 on one
_IRREGULAR_H = np.array([[1, 0, 0, 0, 0, 0, 0],
                         [1, 1, 0, 1, 0, 0, 1],
                         [0, 1, 1, 0, 1, 0, 0],
                         [0, 0, 1, 1, 1, 0, 0],
                         [0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)


def _irregular_parts():
    graph = bp.TannerGraph(_IRREGULAR_H)
    rng = np.random.default_rng(23)
    llr = rng.normal(0.0, 3.0, (40, 7))
    llr[rng.random(llr.shape) < 0.2] = 0.0
    llr[rng.random(llr.shape) < 0.2] = -0.0
    target = rng.integers(0, 2, 7).astype(np.float64)
    taped = bp.bp_forward(llr, graph, 4)
    yield "irregular BP-4", [
        taped.soft, bp.bp_backward(taped.tape, np.zeros(7)), bp.bp_backward(taped.tape, target),
        bp.bp_forward(llr, graph, 4, early_stop=True, record_tape=False).soft]


def _count_parts(code):
    decoder = bp.DecoderConfig(iters=5)
    a = 0.3 * np.random.default_rng(5).standard_normal(code.n)
    for ebn0_db in (1.25, 5.0):
        for attack_array in (None, a):
            res = montecarlo.run_point(code, decoder, "bpsk", ebn0_db=ebn0_db, frames=1024,
                                       seed=9, attack=attack_array)
            yield (f"run_point {ebn0_db} dB {'attacked' if res.attacked else 'baseline'}",
                   [repr((res.frames, res.bit_errors, res.block_errors, res.config_digest))])


# (scheme, channel kind, channel options, message source, workers, min_block_errors, grid);
# at a bound of 40 block errors the attacked row stops chunks before the baseline
_SWEEPS = (("bpsk", "awgn", None, "random", 1, None, (2.0, 4.0)),
           ("bpsk", "rayleigh", None, "random", 2, None, (8.0,)),
           ("bpsk", "bursty", {"rho": 0.2}, "random", 2, 40, (8.0,)),
           ("qam4", "awgn", None, "all_zero", 1, 40, (4.0,)),
           ("qam4", "rayleigh", None, "random", 2, 40, (8.0,)),
           ("qam4", "bursty", {"sigma_b": 1.5}, "all_zero", 1, None, (6.0,)))

_EVAL_CFG = """\
code.family = ldpc
decoder.iters = 3
channel.kind = bursty
channel.rho = 0.2
eval.ebn0_db = 8.0
eval.frames = 2048
eval.seed = 21
eval.min_block_errors = 40
"""


def _sweep_parts(code):
    decoder = bp.DecoderConfig(iters=3)
    a = 0.4 * np.random.default_rng(7).standard_normal(code.n)
    for scheme, kind, opts, source, workers, min_errors, grid in _SWEEPS:
        rows = montecarlo.sweep(grid, code, decoder, scheme, frames=2048, seed=21, attack=a,
                                message_source=source, channel_kind=kind, channel_opts=opts,
                                workers=workers, min_block_errors=min_errors)
        yield (f"sweep {scheme} {kind} {source} workers={workers} "
               f"min_block_errors={min_errors}", [repr(rows)])
    vec = attack.AttackVector(a=a, code_id=code.name, scheme="bpsk", n=code.n,
                              n_symbols=code.n, search_sigma=SIGMA, seed=0, approach="digest",
                              accepted_iters=0)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("eval.cfg", "attack.json", "eval.csv")]
        with open(paths[0], "w") as fh:
            fh.write(_EVAL_CFG)
        attack.save_attack(vec, paths[1])
        with contextlib.redirect_stderr(io.StringIO()):  # its "wrote <path>" line
            cli.main(["eval", "--config", paths[0], "--attack", paths[1], "--out", paths[2],
                      "--workers", "2"])
        with open(paths[2]) as fh:
            yield "cli eval bursty workers=2 min_block_errors=40", [fh.read()]


# the report's counts and verdict, without fields that only some versions carry
_TRANSFER_FIELDS = ("frames", "bit_errors_random", "block_errors_random", "bit_errors_allzero",
                    "block_errors_allzero", "passed")


def _transfer_parts(code):
    a = 0.3 * np.random.default_rng(5).standard_normal(code.n)
    qam = attack.AttackVector(a=a, code_id=code.name, scheme="qam4", n=code.n,
                              n_symbols=code.n // 2, search_sigma=SIGMA, seed=0,
                              approach="digest", accepted_iters=0)
    for iters in (3, 5):
        decoder = bp.DecoderConfig(iters=iters)
        for vector, ebn0_db in ((a, 1.25), (a, 5.0), (qam, 4.0)):
            report = montecarlo.transfer_check(vector, code, decoder, ebn0_db=ebn0_db,
                                               frames=1100, seed=31)
            yield (f"transfer_check BP-{iters} {report.mode} {ebn0_db} dB",
                   [repr([getattr(report, name) for name in _TRANSFER_FIELDS])])


def _gradcheck_parts():
    for scheme in ("bpsk", "qam4"):
        cfg = cli.parse_config(f"modem.scheme = {scheme}\neval.ebn0_db = 2.0\n")
        yield f"gradcheck {scheme}", [repr(cli.run_gradcheck(cfg, seed=3))]


def _repetition_parts():
    code = codes.repetition_code(9)
    config = attack.SearchConfig(batch_size=150, accepted_iters=3, max_trials=8, sigma=3.0)
    trials = []
    vec = attack.search_attack(code, bp.DecoderConfig(iters=3), "bpsk", config, seed=5,
                               on_trial=trials.append)
    yield "search repetition-9 BP-3", [vec.a, repr(vec.accepted_iters), repr(trials)]


def _wide_regime_parts(code):
    config = attack.SearchConfig(batch_size=20, accepted_iters=5, max_trials=12, runs=13,
                                 sigma=SIGMA, approach="3")
    trials = []
    vectors = attack.run_regime(code, bp.DecoderConfig(iters=3), "bpsk", config, seed=19,
                                on_trial=trials.append)
    yield "regime bpsk 13 runs", [*(v.a for v in vectors),
                                  repr([(v.accepted_iters, v.approach) for v in vectors]),
                                  repr(trials)]


def _early_stop_parts(code):
    graph, decoder = bp.TannerGraph(code.H), bp.DecoderConfig(iters=5)
    rng = np.random.default_rng(37)
    values = []
    for ebn0_db in (1.25, 3.0, 5.0):
        sigma = channel.ebn0_to_sigma(ebn0_db, code.rate, 1)
        llr = (2.0 / sigma**2) * (1.0 + sigma * rng.standard_normal((600, code.n)))
        values.append(bp.decode_blocks(llr, graph, decoder, early_stop=True)[0])
    yield "early-stopped decode_blocks 600 lanes at 1.25, 3 and 5 dB", values


def _apply_attack_parts(code):
    rng = np.random.default_rng(41)
    bits = gf2.encode(rng.integers(0, 2, (300, code.k)).astype(np.uint8), code.G)
    vectors = (np.zeros(code.n), 0.3 * rng.standard_normal(code.n),
               rng.uniform(-0.9, 0.9, code.n))
    values = []
    for scheme in ("bpsk", "qam4"):
        const = modem.get_constellation(scheme)
        for a in vectors:
            values += [attack.attacked_zero_word(a, const),
                       attack.apply_attack(modem.modulate(bits, const), a, const)]
    yield "apply_attack bpsk and qam4, 300 words, 3 vectors", values


def _receiver_parts(code):
    receiver = bp.Receiver(code, bp.DecoderConfig(iters=5))
    rng = np.random.default_rng(43)
    values = []
    for frames in (300, 20):
        for kwargs in (dict(early_stop=True), dict(gradient=True), dict()):
            llr = (2.0 / SIGMA**2) * (1.0 + SIGMA * rng.standard_normal((frames, code.n)))
            values += [x for x in receiver.decode(llr, **kwargs) if x is not None]
    yield "one receiver: early-stopped, gradient and untaped decodes of 300 and 20 lanes", values


def _split_search_parts(code):
    config = attack.SearchConfig(batch_size=1100, accepted_iters=3, max_trials=3, sigma=SIGMA)
    trials = []
    vec = attack.search_attack(code, bp.DecoderConfig(iters=5), "bpsk", config, seed=47,
                               on_trial=trials.append)
    yield "search BP-5 1100 frames", [vec.a, repr(vec.accepted_iters), repr(trials)]


def _groups():
    """The parts, group by group: each group yields (part name, values) pairs."""
    code = codes.ldpc_64_32()
    return (_search_parts(code), _regime_parts(code), _decoder_parts(code), _irregular_parts(),
            _count_parts(code), _sweep_parts(code), _transfer_parts(code), _gradcheck_parts(),
            _repetition_parts(), _wide_regime_parts(code),
            _early_stop_parts(code), _apply_attack_parts(code), _receiver_parts(code),
            _split_search_parts(code))


def _digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        _feed(h, value)
    return h.hexdigest()


def _digests():
    """(part name, hex digest) of every part, in order."""
    for group in _groups():
        for name, values in group:
            yield name, _digest(values)


def _feed(h, value):
    if isinstance(value, str):
        h.update(value.encode())
    else:
        array = np.ascontiguousarray(value)
        h.update(repr((array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())


def print_parts() -> None:
    """Print "<digest>  <part name>" for each part that runs; a group that fails
    prints its traceback to stderr, and the parts it had left do not run."""
    for group in _groups():
        try:
            for name, values in group:
                print(f"{_digest(values)}  {name}", flush=True)
        except Exception:  # the other groups still run: their parts are compared
            traceback.print_exc()


def _parts_of(src: str) -> dict:
    """Part name -> digest, from `print_parts` run on the package in `src` in a child
    process; a child that fails, even to import the package, returns the parts it printed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, TOOLS]))
    out = subprocess.run([sys.executable, "-c", "import output_digest; output_digest.print_parts()"],
                         env=env, stdout=subprocess.PIPE, text=True).stdout
    return {name: digest for digest, name in (line.split("  ", 1) for line in out.splitlines())}


def compare(rev: str) -> int:
    """Run the parts here and on REV's `src/`, print both digests of each part, and
    return 1 if any part REV runs differs here or is gone from this tree, else 0."""
    root = subprocess.run(["git", "-C", TOOLS, "rev-parse", "--show-toplevel"], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    here = dict(_digests())
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "-C", root, "worktree", "add", "--detach", "--quiet", tree, rev],
                       check=True)
        try:
            there = _parts_of(os.path.join(tree, "src"))
        finally:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", tree], check=True)
    print(f"{rev[:16]:16}  {'this tree':16}")
    differ = 0
    for name, digest in here.items():
        old = there.get(name)
        status = "new" if old is None else "same" if old == digest else "DIFFERS"
        differ += status == "DIFFERS"
        print(f"{(old or '-')[:16]:16}  {digest[:16]}  {status:7}  {name}")
    gone = [name for name in there if name not in here]
    for name in gone:
        print(f"{there[name][:16]:16}  {'-':16}  {'gone':7}  {name}")
    differ += len(gone)
    print(f"{len(here)} parts: {differ} differ ({len(gone)} gone), "
          f"{sum(name not in there for name in here)} new")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="also print one digest per part")
    parser.add_argument("--against", metavar="REV",
                        help="compare each part with the same part run on REV's src/")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.against)
    total = hashlib.sha256()
    for name, digest in _digests():
        total.update(bytes.fromhex(digest))
        if args.verbose:
            print(f"{digest[:16]}  {name}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
