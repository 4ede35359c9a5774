"""The three benchmark workloads and the checks on their outputs.

Every workload uses the bundled (64, 32) LDPC code, BPSK and a BP-5
decoder with the default clamp, and runs with workers=1. A workload runs
in whole rounds, each on a fresh set-up; every round repeats the same
operations on the same inputs, so its outputs must equal those of the
first round. The program receives only inputs made
here from the benchmark seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference

ITERS = 5
SCHEME = "bpsk"

# Eb/N0 points of mc_sweep: the low one in the waterfall, where most lanes
# run every iteration; the high one where most lanes converge in one or two.
LOW_DB = 1.25
HIGH_DB = 5.0

# Search noise at a baseline BLER near 0.3 for BP-5, fixed so that the
# search workloads do not change when find_search_sigma does. Made by
#   attack.find_search_sigma(codes.ldpc_64_32(), bp.DecoderConfig(iters=5), "bpsk", seed=11)
SEARCH_SIGMA = 0.8049697875976561

ATTACK_STEP = 0.15          # size of the seeded perturbation before renormalisation
KMEANS_K = 3

SIZES = {
    "full": dict(mc_frames=4096, transfer_frames=2048, search_batch=2000, search_trials=8,
                 regime_runs=16, regime_batch=20, regime_trials=30, validation_frames=2048,
                 check_frames=4),
    "smoke": dict(mc_frames=512, transfer_frames=256, search_batch=100, search_trials=3,
                  regime_runs=6, regime_batch=20, regime_trials=6, validation_frames=256,
                  check_frames=2),
}


@dataclass
class Setup:
    ff: object                   # the friendlyfec package
    seed: int
    size: dict
    code: object
    decoder: object
    extra: dict = field(default_factory=dict)


@dataclass
class Round:
    outputs: dict                # what the checks and the determinism test look at
    ops: int                     # operations completed
    frames: int                  # frames decoded by bp_forward
    op_s: list[float]            # duration of each operation the benchmark can time
    trials: list[dict] = field(default_factory=list)   # on_trial records


def _base(ff, seed, size) -> Setup:
    return Setup(ff, seed, size, ff.codes.ldpc_64_32(), ff.bp.DecoderConfig(iters=ITERS))


def _counts(row) -> tuple[int, int, int]:
    return (row.frames, row.bit_errors, row.block_errors)


def _power_error(a) -> float:
    """Relative gap between ||s0 + a||^2 and N P for the BPSK all-zero word s0 = 1."""
    n = a.shape[-1]
    return abs(float(np.sum((1.0 + a) ** 2)) - n) / n


def _frames_at(seed, code, ebn0_db, count, stream) -> tuple[np.ndarray, np.ndarray]:
    """Random codewords and their channel LLRs at ebn0_db, from the benchmark seed."""
    rng = np.random.default_rng([seed, stream])
    sigma = reference.ebn0_to_sigma(ebn0_db, code.rate)
    x = reference.encode(rng.integers(0, 2, (count, code.k)), code.G)
    y = (1.0 - 2.0 * x) + sigma * rng.standard_normal(x.shape)
    return x, 2.0 * y / sigma ** 2


class McSweep:
    name = "mc_sweep"

    def setup(self, ff, seed, size) -> Setup:
        st = _base(ff, seed, size)
        g = np.random.default_rng([seed, 1]).standard_normal(st.code.n)
        s = 1.0 + ATTACK_STEP * g
        s *= math.sqrt(st.code.n) / np.linalg.norm(s)
        st.extra["attack"] = ff.attack.AttackVector(
            a=s - 1.0, code_id=st.code.name, scheme=SCHEME, n=st.code.n,
            n_symbols=st.code.n, search_sigma=SEARCH_SIGMA, seed=seed,
            approach="seeded", accepted_iters=0)
        ff.montecarlo.run_point(st.code, st.decoder, SCHEME, LOW_DB, frames=512,
                                seed=seed + 3, attack=st.extra["attack"])
        return st

    def run_round(self, st: Setup) -> Round:
        mc = st.ff.montecarlo
        t0 = perf_counter()
        rows = mc.sweep([LOW_DB, HIGH_DB], st.code, st.decoder, SCHEME,
                        frames=st.size["mc_frames"], seed=st.seed,
                        attack=st.extra["attack"], workers=1)
        t1 = perf_counter()
        report = mc.transfer_check(st.extra["attack"], st.code, st.decoder, LOW_DB,
                                   frames=st.size["transfer_frames"], seed=st.seed + 1)
        t2 = perf_counter()
        return Round(outputs=dict(rows=[_counts(r) for r in rows], transfer=report,
                                  bler=[r.bler for r in rows], ber=[r.ber for r in rows]),
                     ops=len(rows) + 1,
                     frames=len(rows) * st.size["mc_frames"] + 2 * st.size["transfer_frames"],
                     op_s=[(t1 - t0) / len(rows)] * len(rows) + [t2 - t1])

    def describe(self, first: Round) -> list[str]:
        labels = [f"{db} dB {kind}" for db in (LOW_DB, HIGH_DB) for kind in ("baseline", "attacked")]
        lines = [f"  {label}: frames={f} bit_errors={b} block_errors={k}"
                 for label, (f, b, k) in zip(labels, first.outputs["rows"])]
        t = first.outputs["transfer"]
        lines.append(f"  transfer check at {LOW_DB} dB ({t.mode}): frames={t.frames} "
                     f"bit_errors={t.bit_errors_random} block_errors={t.block_errors_random} "
                     f"passed={t.passed}")
        return lines

    def check(self, st: Setup, first: Round) -> list[str]:
        ff, code, dec = st.ff, st.code, st.decoder
        out = first.outputs
        fails = []
        for frames, bits, blocks in out["rows"]:
            if not (blocks <= frames and blocks <= bits <= code.k * blocks):
                fails.append(f"row counts inconsistent: frames={frames} bits={bits} blocks={blocks}")
        if not out["bler"][2] < out["bler"][0]:
            fails.append(f"baseline BLER at {HIGH_DB} dB is not below {LOW_DB} dB: {out['bler']}")
        uncoded = reference.uncoded_bpsk_ber(HIGH_DB)
        if not out["ber"][2] < uncoded:
            fails.append(f"coded BER {out['ber'][2]} at {HIGH_DB} dB not below uncoded {uncoded}")
        if out["transfer"].mode != "exact" or not out["transfer"].passed:
            fails.append(f"transfer check failed: {out['transfer']}")

        rerun = ff.montecarlo.run_point(code, dec, SCHEME, LOW_DB, frames=st.size["mc_frames"],
                                        seed=ff.channel.child_seed(st.seed, 0),
                                        attack=st.extra["attack"], workers=2)
        if _counts(rerun) != out["rows"][1]:
            fails.append(f"workers=2 rerun gave {_counts(rerun)}, workers=1 {out['rows'][1]}")

        graph = ff.bp.TannerGraph(code.H)
        for stream, db in ((10, LOW_DB), (11, HIGH_DB)):
            _, llr = _frames_at(st.seed, code, db, st.size["check_frames"], stream)
            for early in (False, True):
                soft = ff.bp.bp_forward(llr, graph, ITERS, early_stop=early, record_tape=False).soft
                for lane in range(llr.shape[0]):
                    ref = reference.sum_product(llr[lane], code.H, ITERS, ff.bp.DEFAULT_CLAMP, early)
                    ref = np.concatenate([ref, np.repeat(ref[-1:], soft.shape[0] - len(ref), 0)])
                    if not np.allclose(soft[:, lane], ref, rtol=1e-9, atol=0.0):
                        err = np.max(np.abs(soft[:, lane] - ref) / np.abs(ref))
                        fails.append(f"bp_forward(early_stop={early}) differs from the reference "
                                     f"decoder at {db} dB: relative error {err:.3g}")
        return fails


def _search_config(ff, batch, trials, **extra):
    return ff.attack.approach_config(extra.pop("approach", 1), sigma=SEARCH_SIGMA,
                                     batch_size=batch, accepted_iters=trials,
                                     max_trials=trials, **extra)


def _accept_fails(trials) -> list[str]:
    bad = [t["trial"] for t in trials if t["accepted"] != (t["ber_new"] < t["ber"])]
    return [f"accept decisions disagree with ber_new < ber at trials {bad}"] if bad else []


class SearchB2000:
    name = "search_b2000"

    def setup(self, ff, seed, size) -> Setup:
        st = _base(ff, seed, size)
        st.extra["config"] = _search_config(ff, size["search_batch"], size["search_trials"])
        ff.attack.search_attack(st.code, st.decoder, SCHEME,
                                _search_config(ff, 64, 1), seed=seed + 3)
        return st

    def run_round(self, st: Setup) -> Round:
        trials, stamps = [], []

        def on_trial(rec):
            stamps.append(perf_counter())
            trials.append(rec)

        vec = st.ff.attack.search_attack(st.code, st.decoder, SCHEME, st.extra["config"],
                                         seed=st.seed, on_trial=on_trial)
        batch = st.size["search_batch"]
        return Round(outputs=dict(a=vec.a, trials=trials), ops=len(trials),
                     frames=batch + 2 * batch * len(trials),
                     op_s=list(np.diff(stamps)), trials=trials)

    def describe(self, first: Round) -> list[str]:
        accepted = sum(t["accepted"] for t in first.trials)
        return [f"  trials={len(first.trials)} accepted={accepted} "
                f"||a||={np.linalg.norm(first.outputs['a']):.6f}"]

    def check(self, st: Setup, first: Round) -> list[str]:
        ff, code = st.ff, st.code
        a = first.outputs["a"]
        fails = []
        if len(first.trials) != st.size["search_trials"]:
            fails.append(f"{len(first.trials)} trials, configured {st.size['search_trials']}")
        fails += _accept_fails(first.trials)
        if not np.all(np.isfinite(a)):
            fails.append("attack vector is not finite")
        elif _power_error(a) > 1e-9:
            fails.append(f"||s0 + a||^2 misses N P by {_power_error(a):.3g} (relative)")

        graph = ff.bp.TannerGraph(code.H)
        target = np.zeros(code.n)
        ebn0 = reference.sigma_to_ebn0(SEARCH_SIGMA, code.rate)
        _, llrs = _frames_at(st.seed, code, ebn0, st.size["check_frames"], 12)

        def loss(llr):
            return ff.bp.bp_loss(ff.bp.bp_forward(llr, graph, ITERS), target)

        for llr in llrs:
            grad = ff.bp.bp_backward(ff.bp.bp_forward(llr, graph, ITERS).tape, target)
            fd = reference.central_difference(loss, llr, 1e-5)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            if not rel <= 1e-3:
                fails.append(f"bp_backward differs from finite differences by {rel:.3g} (relative)")
        return fails


class RegimeB20:
    name = "regime_b20"

    def setup(self, ff, seed, size) -> Setup:
        st = _base(ff, seed, size)
        st.extra["config"] = _search_config(ff, size["regime_batch"], size["regime_trials"],
                                            approach=3, runs=size["regime_runs"],
                                            cluster_k=KMEANS_K)
        st.extra["validation_db"] = reference.sigma_to_ebn0(SEARCH_SIGMA, st.code.rate) + 1.0
        warm = ff.attack.run_regime(st.code, st.decoder, SCHEME,
                                    _search_config(ff, size["regime_batch"], 2,
                                                   approach=3, runs=2), seed=seed + 3)
        ff.attack.select_best(warm, st.code, st.decoder, st.extra["validation_db"],
                              frames=256, seed=seed + 3)
        return st

    def run_round(self, st: Setup) -> Round:
        atk = st.ff.attack
        cfg = st.extra["config"]
        trials, ends = [], []

        def on_trial(rec):
            trials.append(rec)
            if rec["trial"] == cfg.trial_cap:
                ends.append(perf_counter())

        t0 = perf_counter()
        vectors = atk.run_regime(st.code, st.decoder, SCHEME, cfg, seed=st.seed, on_trial=on_trial)
        centroids = atk.cluster_attacks(vectors, "kmeans", KMEANS_K, seed=st.seed)
        best = atk.select_best(centroids, st.code, st.decoder, st.extra["validation_db"],
                               frames=st.size["validation_frames"], seed=st.seed + 2)
        per_run = cfg.batch_size * (1 + 2 * cfg.trial_cap)
        return Round(outputs=dict(vectors=[v.a for v in vectors],
                                  centroids=[c.a for c in centroids],
                                  best=next(i for i, c in enumerate(centroids) if c is best)),
                     ops=len(vectors),
                     frames=len(vectors) * per_run + len(centroids) * st.size["validation_frames"],
                     op_s=list(np.diff([t0] + ends)), trials=trials)

    def describe(self, first: Round) -> list[str]:
        nonzero = sum(bool(np.any(a)) for a in first.outputs["vectors"])
        return [f"  runs={len(first.outputs['vectors'])} nonzero={nonzero} "
                f"selected=centroid-{first.outputs['best']}"]

    def check(self, st: Setup, first: Round) -> list[str]:
        ff = st.ff
        cfg = st.extra["config"]
        vectors = first.outputs["vectors"]
        centroids = first.outputs["centroids"]
        fails = []
        if len(vectors) != cfg.runs:
            fails.append(f"{len(vectors)} vectors from {cfg.runs} runs")
        if len(first.trials) != cfg.runs * cfg.trial_cap:
            fails.append(f"{len(first.trials)} trials, configured {cfg.runs * cfg.trial_cap}")
        fails += _accept_fails(first.trials)
        worst = max(_power_error(a) for a in vectors)
        if worst > 1e-9:
            fails.append(f"a vector misses the power budget by {worst:.3g} (relative)")

        X = np.stack([a for a in vectors if np.any(a)])
        C = np.stack(centroids)
        if len(C) != KMEANS_K:
            fails.append(f"{len(C)} centroids, expected {KMEANS_K}")
        labels = np.argmin(((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2), axis=1)
        for j, c in enumerate(C):
            members = X[labels == j]
            if not len(members) or not np.allclose(c, members.mean(axis=0), rtol=0, atol=1e-12):
                fails.append(f"centroid {j} is not the mean of its nearest vectors")

        keys = []
        for i, cand in enumerate(centroids):
            res = ff.montecarlo.run_point(st.code, st.decoder, SCHEME, st.extra["validation_db"],
                                          frames=st.size["validation_frames"],
                                          seed=st.seed + 2, attack=cand)
            keys.append((res.ber, res.bler, i))
        if min(keys)[2] != first.outputs["best"]:
            fails.append(f"select_best chose {first.outputs['best']}, validation ranks {sorted(keys)}")
        return fails


WORKLOADS = {w.name: w for w in (McSweep(), SearchB2000(), RegimeB20())}


def same_outputs(a: Round, b: Round) -> bool:
    """True when two rounds produced identical results (integers and floats alike)."""
    return _canonical(a.outputs) == _canonical(b.outputs) and _canonical(a.trials) == _canonical(b.trials)


def _canonical(obj):
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return tuple((k, _canonical(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return _canonical(vars(obj))
    return obj


def median(values) -> float:
    return float(statistics.median(values))
