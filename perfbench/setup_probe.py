"""Set-up of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports cs_toolkit from the checkout's `src`, builds the workload's inputs
and prints the monotonic clock reading at which the first trial is ready.
The caller reads the clock before it starts this interpreter; on Linux
`time.perf_counter` is CLOCK_MONOTONIC, which every process shares, so the
difference is the whole set-up, interpreter start included.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cs_toolkit  # noqa: E402,F401
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter()))
