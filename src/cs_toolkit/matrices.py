"""Sensing matrices: Gaussian, Bernoulli, partial circulant, partial Toeplitz.

Structured schemes store only their generator vector and apply in
O(n log n) through FFT correlation/convolution; dense schemes store m*n
entries. Also provides coherence and restricted-isometry diagnostics and
measurement-count heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import signal as sp_signal

from .signals import SparseSignal

__all__ = [
    "SensingMatrix",
    "MeasurementVector",
    "build_matrix",
    "compress",
    "mutual_coherence",
    "rip_estimate",
    "required_measurements",
]

SCHEMES = ("gaussian", "bernoulli", "circulant", "toeplitz")


@dataclass(frozen=True)
class MeasurementVector:
    """Length-m compressed observations plus noise metadata."""

    values: np.ndarray
    noise_variance: float = 0.0
    quantized: bool = False

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SensingMatrix:
    """An m x n measurement operator with a fast-apply contract.

    For circulant, entry(i, j) = scale * c[(j - rows[i]) mod n].
    For toeplitz, entry(i, j) = scale * g[(j - rows[i]) + diag_offset], so all
    descending diagonals are constant. Dense schemes keep their entries in
    `generator` with shape (m, n) and scale 1. The circulant generator's
    spectrum is computed once and cached, so the generator must not be
    mutated after construction.
    """

    scheme: str
    m: int
    n: int
    generator: np.ndarray
    seed: int
    scale: float
    rows: np.ndarray = field(default=None)
    diag_offset: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def storage_size(self) -> int:
        """Number of stored defining values; O(n+m) for structured schemes."""
        return int(self.generator.size)

    @cached_property
    def _generator_spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.generator)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Fast apply y = A x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected length-{self.n} vector, got {x.shape}")
        if self.scheme in ("gaussian", "bernoulli"):
            return self.generator @ x
        if self.scheme == "circulant":
            # row i holds c cyclically shifted: (Cx)[i] = sum_d c[d] x[(i+d) mod n],
            # a circular cross-correlation
            fx = np.fft.rfft(x)
            full = np.fft.irfft(fx * np.conj(self._generator_spectrum), self.n)
            return self.scale * full[self.rows]
        # toeplitz: full row i is a windowed correlation against the generator
        corr = sp_signal.fftconvolve(self.generator, x[::-1])
        idx = self.diag_offset + self.n - 1 - self.rows
        return self.scale * corr[idx]

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Fast transpose apply u = A^T v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected length-{self.m} vector, got {v.shape}")
        if self.scheme in ("gaussian", "bernoulli"):
            return self.generator.T @ v
        if self.scheme == "circulant":
            pad = np.zeros(self.n)
            pad[self.rows] = v
            fp = np.fft.rfft(pad)
            return self.scale * np.fft.irfft(self._generator_spectrum * fp, self.n)
        pad = np.zeros(int(self.rows.max()) + 1)
        pad[self.rows] = v
        conv = sp_signal.fftconvolve(pad, self.generator)
        return self.scale * conv[self.diag_offset : self.diag_offset + self.n]

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix (oracle/diagnostic use)."""
        if self.scheme in ("gaussian", "bernoulli"):
            return self.generator.copy()
        j = np.arange(self.n)
        if self.scheme == "circulant":
            idx = (j[None, :] - self.rows[:, None]) % self.n
        else:
            idx = (j[None, :] - self.rows[:, None]) + self.diag_offset
        return self.scale * self.generator[idx]

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.to_dense(), axis=0)


def _masked_rademacher(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    gen = rng.choice([-1.0, 1.0], size=size)
    if p < 1.0:
        gen *= rng.random(size) < p
    return gen


def build_matrix(
    scheme: str, m: int, n: int, seed: int = 0, options: dict | None = None
) -> SensingMatrix:
    """Construct an m x n sensing matrix.

    gaussian:  entries i.i.d. N(0, 1/m)
    bernoulli: entries +-1/sqrt(m)
    circulant: length-n generator, rows are right cyclic shifts; partial =
               first m rows (or a random row subset with options["random_rows"])
    toeplitz:  constant-diagonal matrix from an (n+m-1)-length generator

    options:
        p            probability a structured-generator entry is nonzero
                     (Rademacher +-1 masked; default 1.0)
        random_rows  pick m random rows instead of the first m (structured)
        generator    explicit generator vector (overrides the random draw)
        scale        explicit normalization (default 1/sqrt(m) for structured
                     and bernoulli-style scaling baked into dense entries)
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    opts = dict(options or {})
    p = float(opts.get("p", 1.0))
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    rng = np.random.default_rng(seed)

    if scheme == "gaussian":
        entries = rng.standard_normal((m, n)) / math.sqrt(m)
        return SensingMatrix(scheme, m, n, entries, seed, 1.0,
                             rows=np.arange(m), diag_offset=0)
    if scheme == "bernoulli":
        entries = rng.choice([-1.0, 1.0], size=(m, n)) / math.sqrt(m)
        return SensingMatrix(scheme, m, n, entries, seed, 1.0,
                             rows=np.arange(m), diag_offset=0)

    random_rows = bool(opts.get("random_rows", False))
    if random_rows:
        rows = np.sort(rng.choice(n, size=m, replace=False))
    else:
        rows = np.arange(m)
    scale = float(opts.get("scale", 1.0 / math.sqrt(m)))

    if scheme == "circulant":
        gen = opts.get("generator")
        gen = (np.array(gen, dtype=float) if gen is not None
               else _masked_rademacher(rng, n, p))
        if gen.shape != (n,):
            raise ValueError("circulant generator must have length n")
        return SensingMatrix(scheme, m, n, gen, seed, scale,
                             rows=rows, diag_offset=0)

    # toeplitz generator covers diagonal indices j - i for the selected rows
    max_row = int(rows.max())
    gen_len = n + max_row
    gen = opts.get("generator")
    gen = (np.array(gen, dtype=float) if gen is not None
           else _masked_rademacher(rng, gen_len, p))
    if gen.shape != (gen_len,):
        raise ValueError(f"toeplitz generator must have length {gen_len}")
    return SensingMatrix(scheme, m, n, gen, seed, scale,
                         rows=rows, diag_offset=max_row)


def compress(
    matrix: SensingMatrix,
    x,
    noise_variance: float = 0.0,
    seed: int = 0,
) -> MeasurementVector:
    """Measure y = A x + w with w i.i.d. N(0, noise_variance)."""
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    vec = x.samples if isinstance(x, SparseSignal) else np.asarray(x, dtype=float)
    if vec.shape != (matrix.n,):
        raise ValueError(f"signal length {vec.shape} does not match n={matrix.n}")
    y = matrix.matvec(vec)
    if noise_variance > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.standard_normal(matrix.m) * math.sqrt(noise_variance)
    return MeasurementVector(values=y, noise_variance=float(noise_variance))


def mutual_coherence(matrix: SensingMatrix) -> float:
    """Largest |<a_i, a_j>| over distinct l2-normalized columns."""
    if matrix.n < 2:
        raise ValueError("need at least two columns")
    dense = matrix.to_dense()
    norms = np.linalg.norm(dense, axis=0)
    if np.any(norms == 0):
        raise ValueError("matrix has a zero column")
    cols = dense / norms
    gram = np.abs(cols.T @ cols)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def rip_estimate(
    matrix: SensingMatrix, k: int, trials: int = 1000, seed: int = 0
) -> float:
    """Monte-Carlo lower bound on the restricted isometry constant delta_k.

    Samples random k-sparse unit vectors u and returns max |  ||Au||^2 - 1 |.
    A lower bound only; the exact constant is combinatorial.
    """
    if not 1 <= k <= matrix.n:
        raise ValueError("need 1 <= k <= n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    u = np.zeros(matrix.n)
    for _ in range(trials):
        support = rng.choice(matrix.n, size=k, replace=False)
        coeffs = rng.standard_normal(k)
        nrm = np.linalg.norm(coeffs)
        if nrm == 0.0:
            continue
        u[:] = 0.0
        u[support] = coeffs / nrm
        dev = abs(float(np.sum(matrix.matvec(u) ** 2)) - 1.0)
        worst = max(worst, dev)
    return worst


def required_measurements(
    n: int, k: int, scheme: str = "multi_bit", constant: float = 2.0
) -> int:
    """Heuristic measurement count, clamped to [max(1, k), n].

    multi_bit: ceil(constant * k * log(n/k))
    one_bit:   ceil(constant * log(n/k))  (k-independent rule)

    Both rules are exposed; published guidance assigns the k log(n/k) and
    log(n/k) growth rates inconsistently, so the caller picks.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if scheme not in ("multi_bit", "one_bit"):
        raise ValueError(f"unknown measurement rule {scheme!r}")
    ratio = math.log(n / k) if k < n else 0.0
    if scheme == "multi_bit":
        raw = math.ceil(constant * k * ratio)
    else:
        raw = math.ceil(constant * ratio)
    return int(min(n, max(1, k, raw)))
