"""Host speed reference for normalising the benchmark's times.

The sandbox shares its CPUs with other tenants, and its speed drifts by up
to a quarter over tens of seconds: process CPU time tracks wall time, so the
cores themselves run slower, not less often. A fixed reference kernel, timed
right before and right after each measured interval, drifts with it. Each
time is scaled by REF_SECONDS / (the kernel's time around that interval), so
it reads what it would on a host that runs the kernel in REF_SECONDS. The
kernel uses Python and numpy only, never cs_toolkit, so no change to the
program moves it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Median kernel time on the 2-CPU reference sandbox (see README).
REF_SECONDS = 0.022
_ROUNDS = 400
# Share of a measured interval spent sampling the kernel after it.
SAMPLE_SHARE = 0.03


def kernel() -> float:
    """Mix of the work the toolkit does: small vector ops, FFT, matmul, loops."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(_ROUNDS):
        x = rng.standard_normal(1024)
        acc += float(x @ x)
        acc += float(np.abs(np.fft.rfft(x)[:8]).sum())
        acc += sum(v * v for v in x[:64].tolist())
        m = x.reshape(32, 32)
        acc += float(np.linalg.norm(m @ m.T))
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def samples(interval: float) -> list[float]:
    """Kernel times, as many as fit SAMPLE_SHARE of `interval` (at least one).

    A single kernel time swings by a third, so longer intervals, whose
    scale matters more, get more samples.
    """
    count = max(1, math.ceil(SAMPLE_SHARE * interval / REF_SECONDS))
    return [kernel_seconds() for _ in range(count)]
