"""cs-toolkit benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload detect_sweep --seed 1 --seconds 20 --trace 0

Workloads: detect_sweep, recover_small, recover_large, scan_survey (see
perfbench/README.md). The program is imported from the checkout's `src`;
without it the benchmark exits with code 2 and prints no result.

--trace 0 measures with no tracing code loaded and reports setup_s,
trials_per_s and peak_rss_mb. --trace 1 runs the same rounds untraced and
then traced, checks that both wrote byte-identical reports, and reports the
per-layer metrics and trace.overhead_s. Either way the outputs are checked,
the environment stamp is printed, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Every numerical-library pool is pinned to one thread, as is the harness
# (threads=1 in each config). Set before numpy loads, and inherited by the
# set-up probes.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "CS_TOOLKIT_THREADS": "1"}
os.environ.update(THREAD_PINS)

import checks  # noqa: E402
import hostspeed  # noqa: E402

SETUP_PROBES = 3
WORKLOADS = ("detect_sweep", "recover_small", "recover_large", "scan_survey")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters, host-normalised.

    One import lasts about a second, so the median probe is scaled by the
    median of all kernel times taken between the probes rather than probe by
    probe.
    """
    probe = str(HERE / "setup_probe.py")
    times = []
    kernels = hostspeed.samples(1.0)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - start)
        kernels += hostspeed.samples(times[-1])
    return statistics.median(times) * hostspeed.REF_SECONDS / statistics.median(kernels)


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        lib = config["Build Dependencies"]["blas"]
        blas = f"{lib['name']} {lib['version']}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": dict(THREAD_PINS, config_threads=1)}


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def run_rounds(wl, out_dir, totals, first, count=None, seconds=None, tracer=None):
    """Run whole rounds from index `first`: `count` of them, or until their
    wall time reaches `seconds`.

    Returns per round (host-normalised seconds, units, report digest, wall
    seconds). The reference kernel is sampled before the first round and
    after each one; a round's time is scaled by REF_SECONDS over the median
    of the kernel times on either side of it.
    """
    results = []
    spent = 0.0
    before = hostspeed.samples(1.0)
    while len(results) < count if count is not None else spent < seconds:
        index = first + len(results)
        start = time.perf_counter()
        if tracer is None:
            outcome = wl.run_round(index, out_dir)
        else:
            tracer.round = index
            outcome = tracer.span("bench.round", wl.run_round, index, out_dir)
        elapsed = time.perf_counter() - start
        after = hostspeed.samples(elapsed)
        scale = hostspeed.REF_SECONDS / statistics.median(before + after)
        before = after
        spent += elapsed
        totals[0] += outcome.attempted
        totals[1] += outcome.failed
        results.append((elapsed * scale, outcome.units, digest(outcome.reports),
                        elapsed))
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cs_toolkit" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'cs_toolkit'} is missing", file=sys.stderr)
        return 2
    broken = checks.self_test()
    if broken:
        print("check self-test failed:\n" + "\n".join(broken), file=sys.stderr)
        return 3

    metrics = {}
    if args.trace == 0:
        metrics["setup_s"] = {"value": setup_seconds(args.workload, args.seed),
                              "unit": "s"}

    sys.path.insert(0, str(SRC))
    import cs_toolkit
    if Path(cs_toolkit.__file__).resolve().parent != SRC / "cs_toolkit":
        print(f"cs_toolkit imported from {cs_toolkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    totals = [0, 0]  # attempted, failed
    problems = []
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        run_rounds(wl, out_dir, totals, 0, count=1)  # warm-up: lazy imports, FFT plans
        if args.trace == 0:
            rounds = run_rounds(wl, out_dir, totals, 1, seconds=args.seconds)
            units = sum(r[1] for r in rounds)
            metrics["trials_per_s"] = {"value": units / sum(r[0] for r in rounds),
                                       "unit": "1/s"}
            info["rounds"] = len(rounds)
            info["wall_trials_per_s"] = units / sum(r[3] for r in rounds)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
        else:
            import tracing
            plain = run_rounds(wl, out_dir, totals, 1, seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rounds(wl, out_dir, totals, 1, count=len(plain), tracer=tracer)
            finally:
                tracer.uninstall()
            for index, (a, b) in enumerate(zip(plain, traced), start=1):
                if a[2] != b[2]:
                    problems.append(f"round {index}: traced report differs from untraced")
            overhead = sum(r[0] for r in traced) - sum(r[0] for r in plain)
            info["rounds"] = len(plain)
            metrics = tracer.metrics(sum(r[1] for r in traced), overhead)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        problems += wl.check()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"env": environment(), **info}))
    print(json.dumps({"correct": not problems, "attempted": totals[0],
                      "failed": totals[1], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
