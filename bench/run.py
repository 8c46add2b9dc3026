"""qsphere benchmark: one workload per run, one result line of JSON.

    python3 bench/run.py --workload contraction --seed 1 --seconds 20 --trace 0

Workloads: contraction, distance, symbolic (see README.md).  The run
repeats whole rounds of the workload's operations until the timed rounds
add up to --seconds, checks every round's outputs outside the timed
section, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s (the time of
one round, each operation's fastest time over the rounds summed), setup_s
(fastest set-up time over fresh processes) and peak_rss_mb.
With --trace 1 they are the per-layer figures of one traced set-up plus
one traced round (see tracer.py), and the tracing overhead against the
untraced rounds of the same run.  BLAS runs on one thread.  The program
is imported from the src/ directory beside this one; without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_TIMEOUT = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("contraction", "distance", "symbolic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def setup_seconds(q_text: str) -> float:
    """Fastest set-up time over fresh processes.

    The host runs in fast and slow stretches of a few seconds (see
    README.md); the set-up does the same work every time, so its fastest
    run is the figure a slow stretch moves least."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, q_text], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return min(times)


def run_rounds(wl, seconds: float, tally: dict) -> list:
    """Untraced rounds until their operations' time adds up to `seconds`;
    returns each round's list of operation times.  Checks run between
    rounds, outside the timing.  Each round starts from a collected heap
    holding nothing of earlier rounds, so neither the garbage collector's
    work nor the peak memory depends on how many rounds ran before."""
    rounds = []
    while sum(sum(r) for r in rounds) < seconds:
        gc.collect()
        out, op_times = wl.run_round()
        rounds.append(op_times)
        tally_round(tally, wl.check(out))
        del out     # the outputs hold the round's algebra and its caches
    return rounds


def round_seconds(rounds: list) -> float:
    """Time of one round: each operation's fastest time over the rounds,
    summed.

    Every round does the same work, and the host's slow stretches only
    add to an operation's time; the fastest time drops a stretch that
    missed the operation in at least one round."""
    return sum(min(op) for op in zip(*rounds))


def tally_round(tally: dict, res) -> None:
    tally["attempted"] += res.attempted
    tally["failed"] += res.failed
    tally["problems"].extend(res.problems)
    for note in res.notes:
        if note not in tally["notes"]:
            tally["notes"].append(note)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsphere", "__init__.py")):
        print(f"error: no qsphere sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tally = {"attempted": 0, "failed": 0, "problems": [], "notes": []}

    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        wl = cls(args.seed)
        tr.uninstall()
        rounds = run_rounds(wl, args.seconds, tally)
        gc.collect()
        tr.install()
        out, op_times = wl.run_round()
        tr.uninstall()
        tally_round(tally, wl.check(out))
        metrics = tr.metrics()
        untraced = round_seconds(rounds)
        traced = sum(op_times)
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.traced_wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_share"] = ((traced - untraced) / untraced,
                                           "ratio")
    else:
        setup_s = setup_seconds(cls.q_text)
        wl = cls(args.seed)
        rounds = run_rounds(wl, args.seconds, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (round_seconds(rounds), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    print(f"workload {args.workload} seed {args.seed}: untraced rounds of "
          + ", ".join(f"{sum(r):.3f}" for r in rounds) + " s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(f"  attempted {tally['attempted']}, failed {tally['failed']}")
    for note in tally["notes"]:
        print(f"  note: {note}")
    for problem in tally["problems"][:20]:
        print(f"  problem: {problem}")
    result = {
        "correct": not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
