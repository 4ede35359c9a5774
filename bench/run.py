"""Benchmark of friendlyfec: Monte Carlo sweep, large-batch search, small-batch regime.

Run from the repository root:

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30    # every workload
    python3 bench/run.py --workload regime_b20 --trace 1         # per-layer metrics

One run alternates set-ups and whole rounds of the workload for
`--seconds`, checks the program's outputs, and prints the metrics by
name and unit. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
traced run spends the first half of its time untraced and the second half
traced, reports the gap as `trace.overhead_pct`, and writes its spans to
`bench/out/`.
With `--workload all` each workload runs in its own process, one after
the other. `--size smoke` shrinks every workload for the benchmark's own
tests. The program is imported from `src/` next to this directory; the
run fails when it is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER, SpanRecorder
from workloads import SIZES, WORKLOADS, median, same_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7

# (name, unit) of every end-to-end metric, and the workload-specific name
# each stands for on one workload (printed alongside for readers)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("frames_per_s", "frames/s"),
              ("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB"))
ALIASES = {
    ("mc_sweep", "frames_per_s"): "mc_frames_per_s",
    ("search_b2000", "ops_per_s"): "search_trials_per_s",
    ("search_b2000", "op_ms_p50"): "trial_ms_p50",
    ("regime_b20", "ops_per_s"): "regime_runs_per_s",
}


def fresh_import():
    """Import friendlyfec anew from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "friendlyfec" or m.startswith("friendlyfec.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("friendlyfec")


def measure(workload, seed, size, seconds):
    """Alternate set-ups and whole rounds until `seconds` have passed.

    Set-up (fresh import, construction, warm-up) is timed SETUP_REPEATS
    times or more, spread over the run like the rounds, so that both see
    the same machine. Each round runs on the newest set-up. Returns the
    last set-up, the set-up times, the rounds and their wall times.
    """
    setup_times, rounds, walls = [], [], []
    start = perf_counter()
    while len(setup_times) < SETUP_REPEATS or perf_counter() - start < seconds:
        t0 = perf_counter()
        st = workload.setup(fresh_import(), seed, size)
        setup_times.append(perf_counter() - t0)
        if not rounds or perf_counter() - start < seconds:
            t0 = perf_counter()
            rounds.append(workload.run_round(st))
            walls.append(perf_counter() - t0)
    return st, setup_times, rounds, walls


def run_rounds(workload, st, seconds):
    """Whole rounds on one set-up until `seconds` have passed; returns (rounds, wall times)."""
    rounds, walls = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        t0 = perf_counter()
        rounds.append(workload.run_round(st))
        walls.append(perf_counter() - t0)
    return rounds, walls


def accept_ratio(rounds) -> float:
    trials = [t for r in rounds for t in r.trials]
    return sum(t["accepted"] for t in trials) / len(trials) if trials else 0.0


def end_to_end(setup_times, rounds, walls, peak_rss_mb) -> dict[str, float]:
    """End-to-end metrics of the untraced rounds.

    The machine's speed drifts over tens of seconds, so the round-level
    figures are means over the rounds of a run, which spans several of
    those phases; a median would jump between them from run to run.
    """
    total = sum(walls)
    return {
        "setup_s": median(setup_times),
        "wall_s": total / len(walls),
        "frames_per_s": sum(r.frames for r in rounds) / total,
        "ops_per_s": sum(r.ops for r in rounds) / total,
        "op_ms_p50": 1e3 * sum(median(r.op_s) for r in rounds) / len(rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(name, seed, seconds, trace, size_name) -> int:
    if not (SRC / "friendlyfec" / "__init__.py").is_file():
        print(f"error: the friendlyfec sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    imported = Path(fresh_import().__file__).resolve().parent
    if imported != SRC / "friendlyfec":
        print(f"error: imported friendlyfec from {imported}", file=sys.stderr)
        return 2

    workload = WORKLOADS[name]
    budget = seconds / 2 if trace else seconds
    st, setup_times, rounds, walls = measure(workload, seed, SIZES[size_name], budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced_rounds = []
    if trace:
        recorder = SpanRecorder()
        recorder.install(st.ff)
        try:
            traced_rounds, traced_walls = run_rounds(workload, st, budget)
        finally:
            recorder.uninstall()
        overhead_pct = 100.0 * (median(traced_walls) / median(walls) - 1.0)
        metrics = recorder.per_layer(len(traced_rounds), accept_ratio(traced_rounds), overhead_pct)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setup_times, rounds, walls, peak_rss_mb)
        units = dict(END_TO_END)

    fails = workload.check(st, rounds[0])
    if not all(same_outputs(rounds[0], r) for r in rounds[1:] + traced_rounds):
        fails.append("rounds on identical inputs gave different outputs")

    attempted = sum(r.ops for r in rounds + traced_rounds)
    print(f"workload {name} seed={seed} size={size_name} trace={trace} set-ups={len(setup_times)} "
          f"rounds={len(rounds)} traced_rounds={len(traced_rounds)} ops={attempted} "
          f"op_samples={sum(len(r.op_s) for r in rounds)}")
    for line in workload.describe(rounds[0]):
        print(line)
    for key, value in metrics.items():
        alias = ALIASES.get((name, key))
        print(f"  {key:<48} {value:>16.6g} {units[key]}" + (f"  ({alias})" if alias else ""))
    for fail in fails:
        print(f"CHECK FAILED: {fail}", file=sys.stderr)
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.json.gz"
        recorder.write(path, dict(workload=name, seed=seed, size=size_name,
                                  rounds=len(traced_rounds), metrics=metrics))
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps(dict(correct=not fails, attempted=attempted, failed=0,
                          metrics={k: dict(value=v, unit=units[k]) for k, v in metrics.items()})))
    return 0 if not fails else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
