"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload scan_survey --seeds 1-10 --seconds 20

Runs `perfbench/run.py` once per seed, one run at a time, and prints per
metric the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the distance between them as a share of the median, plus the failed share
of every run. Add `--trace 1` to summarise the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    correct = True
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        correct &= result["correct"]
        shares.add((result["failed"], result["attempted"]))
        line = {k: v["value"] for k, v in result["metrics"].items()}
        if "wall_trials_per_s" in info:
            line["(unnormalised) wall_trials_per_s"] = info["wall_trials_per_s"]
        for key, value in line.items():
            values.setdefault(key, []).append(value)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in line.items()
                         if args.trace == 0), flush=True)
    print(f"workload {args.workload}, {len(args.seeds)} runs, all correct: {correct}")
    print("failed shares: " + ", ".join(sorted({f"{f / a:.6f}" for f, a in shares})))
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{key:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
