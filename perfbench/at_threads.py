"""Throughput of one workload with the harness at another thread count.

Usage (from the root of a checkout):

    python3 perfbench/at_threads.py --workload scan_survey --threads 2 --seed 1 --seconds 20

Runs the rounds of `perfbench/run.py` with `threads` set in every config;
the numerical-library pools stay pinned to one thread. Prints the
wall-clock and the host-normalised trials_per_s, and whether the outputs
passed their checks. This makes the README's threads=2 reference figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.config = dataclasses.replace(wl.config, threads=args.threads)
    out_dir = run.OUT / f"threads{args.threads}-{args.workload}"
    out_dir.mkdir(parents=True, exist_ok=True)
    totals = [0, 0]
    try:
        run.run_rounds(wl, out_dir, totals, 0, count=1)
        rounds = run.run_rounds(wl, out_dir, totals, 1, seconds=args.seconds)
        problems = wl.check()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    units = sum(r[1] for r in rounds)
    print(json.dumps({"workload": args.workload, "threads": args.threads,
                      "seed": args.seed, "rounds": len(rounds), "correct": not problems,
                      "wall_trials_per_s": units / sum(r[3] for r in rounds),
                      "trials_per_s": units / sum(r[0] for r in rounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
