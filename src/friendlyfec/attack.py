"""Gradient search for transmit-side perturbations that help a fixed decoder.

The search perturbs the modulated all-zero codeword, descending the decoding
loss through channel + demapper + decoder on batches of noise realizations;
a candidate step is kept only if it lowers the batch's bit error rate
at constant transmit power. Code linearity then lets the same vector be
applied to any codeword through a per-coordinate sign adaptation.

A regime of many searches on small batches (approach 3: B = 20) runs its
searches in lockstep groups, stacking the batches of a group's runs into
each decode call, so that the decoder's per-call overhead is shared by up
to one decode block of `bp.BLOCK_LANES` lanes. Each run keeps its own
draws, step size and stop rule, and its results equal those of a search
on its own. `cluster_attacks` reduces a regime's vectors by k-means; with
k = 1 (approach 4) its one centroid is the plain mean of the nonzero runs.
"""

from __future__ import annotations

import datetime as _dt
import json
import reprlib
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import bp, channel, checks, modem

POWER = 1.0  # average power constraint per symbol
SIGMA_BRACKET, SIGMA_STEPS = (0.05, 4.0), 14  # find_search_sigma's interval and halvings

ATTACK_FILE_VERSION = 1


@dataclass(frozen=True)
class AttackVector:
    """A perturbation a of the modulated all-zero codeword, plus the metadata to
    reproduce the search (qam4 vectors hold 2N interleaved re/im coordinates).
    Every codeword sends its signs times `attacked_zero_word(a)`, so the attack
    is one per-position power profile, on BPSK and on each Gray-mapped 4-QAM
    sub-channel alike. Construction rejects an `a` that is not finite with
    shape (n,), an unknown scheme, N != n // bits per symbol, a search sigma
    that is not positive and finite, and a seed or accepted count that is
    not an integer >= 0. A k-means centroid's `accepted_iters` is 0, as it
    is a mean of searches. The attack file holds these fields in this order."""

    code_id: str
    scheme: str
    n: int                  # code bits
    n_symbols: int
    a: np.ndarray
    search_sigma: float
    seed: int
    approach: str
    accepted_iters: int
    created: str = ""

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise ValueError("attack vector entries must be finite")
        if a.shape != (self.n,):
            raise ValueError(f"attack field 'a' has shape {a.shape}, expected ({self.n},)")
        bits = modem.get_constellation(self.scheme).bits_per_symbol
        if self.n_symbols != self.n // bits:
            raise ValueError(f"attack field 'N' is {self.n_symbols}, expected n // {bits} = "
                             f"{self.n // bits} for {self.scheme}")
        checks.positive("attack field 'search_sigma'", self.search_sigma)
        for name in ("seed", "accepted_iters"):  # Python ints, which the attack file holds
            value = checks.count(f"attack field '{name}'", getattr(self, name), minimum=0)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "a", a)

    def check_fits(self, code, scheme: str) -> None:
        """Raise ValueError unless this vector was searched for `scheme` on `code`."""
        if self.scheme != scheme:
            raise ValueError(f"attack scheme {self.scheme!r} does not match {scheme!r}")
        if self.code_id != code.name:
            raise ValueError(f"attack code id {self.code_id!r} does not match {code.name!r}")

    @property
    def is_zero(self) -> bool:
        return not np.any(self.a)


@dataclass(frozen=True)
class SearchConfig:
    batch_size: int = 2000
    accepted_iters: int = 50          # I: budget of updates that lowered the batch BER
    max_trials: int | None = None     # default 20 * accepted_iters
    sigma: float | None = None        # None: caller resolves (see find_search_sigma)
    epsilon0: float | None = None     # step size of every trial; None: calibrated per run
    runs: int = 1
    cluster: str = "none"             # none | kmeans (k = 1: the plain mean of the runs)
    cluster_k: int = 3
    approach: str = "custom"

    def __post_init__(self):
        counts = ["batch_size", "accepted_iters", "runs", "cluster_k"]
        if self.max_trials is not None:
            counts.append("max_trials")
        for name in counts:
            checks.count(name, getattr(self, name))
        if self.sigma is not None:  # None: resolved by the caller
            checks.noise_std("sigma", self.sigma)
        if self.epsilon0 is not None:  # None: calibrated by the search
            checks.positive("epsilon0", self.epsilon0)
        if self.cluster not in ("none", "kmeans"):
            raise ValueError(f"unknown cluster method {self.cluster!r}")
        if self.max_trials is not None and self.max_trials < self.accepted_iters:
            raise ValueError("max_trials must be >= accepted_iters")

    @property
    def trial_cap(self) -> int:
        return self.max_trials if self.max_trials is not None else 20 * self.accepted_iters


def approach_config(number: int, **overrides) -> SearchConfig:
    """Preset search shapes: (1) big batch, few iterations; (3) many short runs +
    k-means; (4) many tiny runs and their plain mean (k-means with k = 1)."""
    presets = {
        1: dict(batch_size=2000, accepted_iters=50),
        3: dict(batch_size=20, accepted_iters=30, runs=2000, cluster="kmeans", cluster_k=3),
        4: dict(batch_size=2000, accepted_iters=3, runs=200, cluster="kmeans", cluster_k=1),
    }
    if checks.count("approach", number) not in presets:
        raise ValueError("approach must be 1, 3 or 4")
    params = presets[number] | overrides
    return SearchConfig(approach=str(number), **params)


EPSILON_GRAD_SCALE = 0.07  # auto epsilon0 = this / mean |gradient| of the first batch


def normalize_power(s, coords_per_symbol: int = 1):
    """Scale s so that its squared norm equals n_symbols * POWER exactly.

    Returns (scaled, C) with C = sqrt(N P) / ||s||. A norm that overflows
    (huge finite entries) is rejected, as its scale would zero s.
    """
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(s))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    if not np.isfinite(norm):
        raise ValueError(f"cannot normalize a vector whose norm is not finite ({norm})")
    n_symbols = s.shape[-1] // coords_per_symbol
    c = np.sqrt(n_symbols * POWER) / norm
    return c * s, c


def attacked_zero_word(a, constellation: modem.Constellation) -> np.ndarray:
    """The word the all-zero codeword sends under `a`: s0 + s0 * a / A at the power
    budget. A perturbation that zeroes it (a = -A everywhere), or whose word's
    norm overflows, is rejected."""
    s0 = np.full(np.shape(a), constellation.amplitude)
    with np.errstate(over="ignore"):  # an entry that overflows makes the norm infinite
        word = s0 + s0 * (a / s0)
    if not np.any(word):
        raise ValueError("the perturbation zeroes the sent word; "
                         "it cannot be scaled to the power budget")
    return normalize_power(word, constellation.coords_per_symbol)[0]


def apply_attack(s, a, constellation: modem.Constellation) -> np.ndarray:
    """The words s sent under the all-zero-codeword perturbation a: their signs s / A
    times `attacked_zero_word(a)`, one per-position power profile for every codeword."""
    s = np.asarray(s, dtype=np.float64)
    if np.shape(a)[-1] != s.shape[-1]:
        raise ValueError(f"attack length {np.shape(a)[-1]} does not match symbols {s.shape[-1]}")
    return (s / constellation.amplitude) * attacked_zero_word(a, constellation)


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------

def search_attack(code, decoder: bp.DecoderConfig, scheme: str, config: SearchConfig,
                  seed: int, on_trial=None) -> AttackVector:
    """Iterative gradient search on the all-zero codeword over an AWGN channel.

    Per trial: draw a batch of noise realizations at the search sigma,
    decode, take the mean over per-sample gradients of the decoding loss,
    step against it, re-decode the same noise with the renormalized
    candidate, and accept it only if the batch BER strictly falls (the
    batch BLER is recorded, not tested). Stops after the accepted-update
    budget or the trial cap.
    Each trial's record goes to `on_trial` before the next trial runs.
    Decodes of `bp.SPLIT_LANES` lanes or more split across the machine's
    CPUs, with the same bytes (see `bp.Receiver`); the helper processes
    stop when the search returns or raises.
    """
    receiver = bp.Receiver(code, decoder)
    with receiver.split_decodes():
        return _search_runs(receiver, scheme, config, [(seed, config.approach)], on_trial)[0]


def _search_runs(receiver: bp.Receiver, scheme: str, config: SearchConfig, runs,
                 on_trial=None) -> list[AttackVector]:
    """The searches of `runs`, (seed, approach label) pairs, in lockstep; one vector per run.

    Each run is the search `search_attack` describes, with its own
    `FrameRng(seed)` draws, step size and stop rule. Every trial of a run
    steps by `epsilon0`, or, when that is None, by the step size its own
    probe calibrates. The probes of every run go into one taped decode,
    and each trial stacks the batches of the runs still searching, run
    after run, into one taped decode and one untaped re-decode; a run
    leaves the stack at its accepted-update budget or the trial cap. The
    probes, and each trial's batches, are one `channel.draw` realization
    with one generator per run, and both decodes of a trial send the words
    through `channel.transmit` on that same realization. A lane's decode
    does not depend on the lanes beside it, so every run's records and
    vector are those of its search on its own, to the byte. The first
    run's records go to `on_trial` as they happen, the other runs' when
    the last run stops, run after run.
    """
    if config.sigma is None:
        raise ValueError("search sigma is unresolved; pass one or use find_search_sigma")
    code = receiver.code
    const = modem.get_constellation(scheme)
    cps = const.coords_per_symbol
    params = channel.ChannelParams(sigma=config.sigma)
    rngs = [channel.FrameRng(seed) for seed, _ in runs]
    s_base = modem.modulate(np.zeros(code.n, dtype=np.uint8), const)
    n_real = s_base.shape[0]

    def draw(gens):  # one batch of channel realizations per generator: (runs, B, n_real)
        return channel.draw(params, gens, (len(gens), config.batch_size, n_real), cps)

    def decode(words, draws, gradient):
        """Send words[r] on run r's batch of `draws` and decode every run in one
        stacked call. Per run: the batch BER and BLER (the word sent is all-zero,
        so its decoded bits are its errors), and with `gradient` the batch mean of
        d(loss)/d(s) (else None)."""
        shape = draws.noise.shape
        y = channel.transmit(np.broadcast_to(words[:, None, :], shape), params, draws, cps)
        llr = modem.demodulate_llr(y.reshape(-1, n_real), config.sigma, const)
        errs, dj_dllr = receiver.decode(llr, gradient=gradient)
        errs = errs.reshape(shape[0], shape[1], -1)
        grad = (modem.demodulate_adjoint(dj_dllr, config.sigma, const).reshape(shape).mean(axis=1)
                if gradient else None)
        return grad, errs.mean(axis=(1, 2)).tolist(), np.any(errs, axis=2).mean(axis=1).tolist()

    epsilons = [config.epsilon0] * len(runs)
    if config.epsilon0 is None:
        # calibrate each run's step size against this decoder's gradient scale
        probes = decode(np.tile(s_base, (len(runs), 1)),
                        draw([next(rng.frames(0, 1, channel.STREAM_PROBE)) for rng in rngs]),
                        gradient=True)[0]
        epsilons = [EPSILON_GRAD_SCALE / max(float(np.mean(np.abs(grad))), 1e-12)
                    for grad in probes]

    trials = [rng.frames(0, config.trial_cap, channel.STREAM_SEARCH) for rng in rngs]
    words = np.tile(s_base, (len(runs), 1))
    accepted = [0] * len(runs)
    held = [[] for _ in runs]  # records of runs after the first, until every run stops
    live = list(range(len(runs)))
    for trial in range(1, config.trial_cap + 1):
        eps = [epsilons[r] for r in live]
        draws = draw([next(trials[r]) for r in live])
        grad, ber0, bler0 = decode(words[live], draws, gradient=True)
        # evaluate each candidate exactly as it would be transmitted: at the
        # power budget, so acceptance can never come from power inflation
        cands = np.stack([normalize_power(w + -e * g, cps)[0]
                          for w, e, g in zip(words[live], eps, grad)])
        _, ber1, bler1 = decode(cands, draws, gradient=False)
        for i, r in enumerate(live):
            ok = ber1[i] < ber0[i]
            if ok:
                accepted[r] += 1
                words[r] = cands[i]
            if on_trial is not None:
                rec = dict(trial=trial, epsilon=eps[i], accepted=ok, ber=ber0[i],
                           ber_new=ber1[i], bler=bler0[i], bler_new=bler1[i],
                           accepted_total=accepted[r])
                if r:
                    held[r].append(rec)
                else:
                    on_trial(rec)
        live = [r for r in live if accepted[r] < config.accepted_iters]
        if not live:
            break
    for rec in (rec for records in held for rec in records):
        on_trial(rec)

    created = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return [AttackVector(a=word - s_base, code_id=code.name, scheme=scheme, n=code.n,
                         n_symbols=n_real // cps,
                         search_sigma=config.sigma, seed=int(seed), approach=approach,
                         accepted_iters=count, created=created)
            for word, count, (seed, approach) in zip(words, accepted, runs)]


def run_regime(code, decoder: bp.DecoderConfig, scheme: str, config: SearchConfig,
               seed: int, on_trial=None) -> list[AttackVector]:
    """Repeat the search with per-run derived seeds; keeps zero results too.

    Run r is the search of `search_attack` with seed `child_seed(seed, r)`
    and approach label "<approach>:run<r>": its vector and `on_trial`
    records are the same to the byte, and the records arrive in run order.
    The runs search in lockstep groups of bp.BLOCK_LANES // batch_size
    runs (at least one), so that a group's batches fill one decode block
    (6 runs, 120 lanes, at B = 20); at a batch size of BLOCK_LANES or more
    every run searches on its own. Decodes split across CPUs as in
    `search_attack`, with helpers shared by every run until the regime ends.
    """
    if config.runs < 2:
        raise ValueError("run_regime needs runs >= 2; call search_attack directly")
    receiver = bp.Receiver(code, decoder)
    runs = [(channel.child_seed(seed, run), f"{config.approach}:run{run}")
            for run in range(config.runs)]
    width = max(1, bp.BLOCK_LANES // config.batch_size)
    with receiver.split_decodes():
        return [vector for lo in range(0, len(runs), width)
                for vector in _search_runs(receiver, scheme, config, runs[lo:lo + width],
                                           on_trial)]


# ---------------------------------------------------------------------------
# clustering of attack vectors from repeated runs
# ---------------------------------------------------------------------------

def _kmeans(X, k, seed=0, iters=100):
    """Lloyd's algorithm with deterministic farthest-point seeding."""
    rng = np.random.default_rng(seed)
    centroids = [X[int(rng.integers(len(X)))]]
    for _ in range(k - 1):
        d = np.min([np.sum((X - c) ** 2, axis=1) for c in centroids], axis=0)
        centroids.append(X[int(np.argmax(d))])
    centroids = np.array(centroids)
    labels = None
    for _ in range(iters):
        d = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = X[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids


def cluster_attacks(vectors: list[AttackVector], method: str, k: int,
                    seed: int = 0) -> list[AttackVector]:
    """Cluster nonzero attack vectors by k-means and return per-cluster mean vectors.

    Zero vectors from failed runs are dropped first, since they drag
    centroids toward the no-op; with k = 1 the one centroid is the plain
    mean of the nonzero vectors. A method other than "kmeans" is rejected
    before anything is clustered.
    """
    checks.count("cluster count k", k)
    if method != "kmeans":
        raise ValueError(f"unknown cluster method {method!r}")
    nonzero = [v for v in vectors if not v.is_zero]
    if len(nonzero) < k:
        raise ValueError(f"need at least k={k} nonzero vectors, have {len(nonzero)}")
    centroids = _kmeans(np.stack([v.a for v in nonzero]), k, seed=seed)
    proto = nonzero[0]
    return [replace(proto, a=c, approach=f"{method}-centroid-{i}",
                    accepted_iters=0) for i, c in enumerate(centroids)]


def select_best(candidates: list[AttackVector], code, decoder: bp.DecoderConfig,
                ebn0_db: float, frames: int, seed: int) -> AttackVector:
    """Monte Carlo validation of each candidate at a fixed Eb/N0.

    Returns the candidate with the lowest BER (ties: lowest BLER, then
    lowest index). All candidates are evaluated in one `run_rows` call,
    on the same messages and channel draws. Each must fit `code` and the
    first candidate's scheme, and must not zero the word, which is
    checked before anything is drawn.
    """
    from . import montecarlo  # deferred: montecarlo uses apply_attack

    if not candidates:
        raise ValueError("need at least one candidate")
    rows = montecarlo.run_rows(code, decoder, candidates[0].scheme, ebn0_db, frames, seed,
                               candidates)
    best = min(range(len(rows)), key=lambda i: (rows[i].ber, rows[i].bler, i))
    return candidates[best]


def find_search_sigma(code, decoder: bp.DecoderConfig, scheme: str, seed: int,
                      target_bler: float = 0.3, frames: int = 600) -> float:
    """Bisect `SIGMA_BRACKET` for the noise level where baseline BLER is near the target.

    Useful perturbations only emerge where the decoder actually corrects
    errors, empirically around BLER 0.1-0.5, so the default target is 0.3.
    Deterministic for a fixed seed.
    """
    from . import montecarlo

    if not 0 < target_bler < 1:
        raise ValueError(f"target_bler must be in (0, 1), got {target_bler!r}")
    const = modem.get_constellation(scheme)

    def bler_at(sigma):
        ebn0 = channel.sigma_to_ebn0(sigma, code.rate, const.bits_per_symbol)
        res = montecarlo.run_point(code, decoder, scheme, ebn0_db=ebn0, frames=frames,
                                   seed=channel.child_seed(seed, 1000), message_source="all_zero")
        return res.bler

    lo, hi = SIGMA_BRACKET
    for _ in range(SIGMA_STEPS):
        mid = 0.5 * (lo + hi)
        if bler_at(mid) > target_bler:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# the file writes `version`, then each AttackVector field under its name,
# except n_symbols as `N`; `a` is a list of floats
_FILE_KEYS = {f.name: {"n_symbols": "N"}.get(f.name, f.name) for f in fields(AttackVector)}


def _is_finite_number(value) -> bool:
    """A JSON number (not true/false) that a float64 holds without overflow."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# per field annotation: what the JSON value must be, and the test for it
_JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _is_finite_number),
    "np.ndarray": ("a list of finite numbers",
                   lambda v: isinstance(v, list) and all(map(_is_finite_number, v))),
}


def save_attack(attack: AttackVector, path) -> None:
    with open(path, "w") as fh:
        json.dump(attack_record(attack), fh, indent=1, allow_nan=False)
        fh.write("\n")


def attack_record(attack: AttackVector) -> dict:
    rec = {"version": ATTACK_FILE_VERSION}
    for name, key in _FILE_KEYS.items():
        value = getattr(attack, name)
        rec[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return rec


def load_attack(path) -> AttackVector:
    """Read an attack record; unknown fields are ignored, `created` may be absent.

    A record with a missing field, a value of the wrong JSON type, an
    unknown version, or a vector whose length disagrees with `n`, `N` and
    the scheme raises ValueError naming the field.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"attack file {path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("attack file does not hold a JSON object")
    try:
        if raw["version"] != ATTACK_FILE_VERSION:
            raise ValueError(f"attack field 'version' is {raw['version']!r}, "
                             f"this program reads version {ATTACK_FILE_VERSION}")
        values = {}
        for f in fields(AttackVector):
            key = _FILE_KEYS[f.name]
            if key not in raw and f.default is not MISSING:
                continue
            expected, fits = _JSON_TYPES[f.type]
            if not fits(raw[key]):
                raise ValueError(f"attack field '{key}' must be {expected}, "
                                 f"got {reprlib.repr(raw[key])}")
            values[f.name] = float(raw[key]) if f.type == "float" else raw[key]
        return AttackVector(**values)
    except KeyError as missing:
        raise ValueError(f"attack file is missing field {missing}") from None
