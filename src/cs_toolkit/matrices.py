"""Sensing matrices: Gaussian, Bernoulli, partial circulant, partial Toeplitz.

Structured schemes store only their generator vector and apply in
O(n log n) through one FFT path: both are rows of a circulant, the partial
Toeplitz matrix of a zero-padded one. Dense schemes store m*n entries.
Also provides coherence and restricted-isometry diagnostics and
measurement-count heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .signals import _samples

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

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SensingMatrix:
    """An m x n measurement operator with a fast-apply contract.

    A structured entry(i, j) is scale * g[(j - rows[i] + diag_offset) mod len(g)]
    (`columns`), with diag_offset 0 for circulant and max(rows) for toeplitz,
    whose index never wraps, so its descending diagonals are constant. Row i
    is position (rows[i] - diag_offset) mod P of a circulant of period P whose
    generator is g zero-padded to P: P = n for circulant, and for toeplitz the
    smallest 2^a 3^b 5^c at or above len(g), so no Toeplitz row wraps around.
    Dense schemes keep their entries in `generator` with shape (m, n) and
    scale 1. The generator's spectrum is computed once and cached, so the
    generator must not be mutated after construction.

    `matvec`/`rmatvec` apply A and A^T to one vector, or to every row of an
    (R, n) or (R, m) block. Structured schemes run one FFT formula along the
    last axis, so block rows are bit-identical to single applies. Dense
    schemes apply either as one product with the rows on the left, which may
    differ from single applies in the last bit for a block.
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
    def _period(self) -> int:
        # a toeplitz generator padded to any length at or above its own never
        # wraps; a 5-smooth length keeps the FFT fast (generator sizes like
        # 3 * 853 are slow) and pads less than a power of two (2560, not 4096,
        # at 512 x 2048)
        if self.scheme == "circulant":
            return self.n
        return _next_5_smooth(self.generator.size)

    @cached_property
    def _generator_spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.generator, self._period)

    @cached_property
    def _positions(self) -> np.ndarray:
        # each row's position in the circulant of period _period; negative
        # positions wrap
        return self.rows - self.diag_offset

    @cached_property
    def _column_base(self) -> np.ndarray:
        # each row's generator index in column 0, in [0, len(g))
        return (self.diag_offset - self.rows) % self.generator.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Fast apply y = A x, row by row for an (R, n) block."""
        x = _vector_or_rows(x, self.n)
        if self.scheme in ("gaussian", "bernoulli"):
            return x @ self.generator.T
        return self._fft_apply(x)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Fast transpose apply u = A^T v, row by row for an (R, m) block."""
        v = _vector_or_rows(v, self.m)
        if self.scheme in ("gaussian", "bernoulli"):
            return v @ self.generator
        return self._fft_rapply(v)

    def _fft_apply(self, x: np.ndarray) -> np.ndarray:
        # row r of the circulant holds c cyclically shifted:
        # (Cx)[r] = sum_d c[d] x[(r+d) mod P], a circular cross-correlation;
        # negative row positions wrap modulo the period P. Every vector along
        # the last axis is transformed on its own, so a block's rows match
        # the single-vector apply bit for bit.
        fx = np.fft.rfft(x, self._period, axis=-1)
        # in place, with fx kept first: complex products do not commute bit
        # for bit
        np.multiply(fx, np.conj(self._generator_spectrum), out=fx)
        full = np.fft.irfft(fx, self._period, axis=-1)
        return self.scale * full.take(self._positions, axis=-1)

    def _fft_rapply(self, v: np.ndarray) -> np.ndarray:
        pad = np.zeros(v.shape[:-1] + (self._period,))
        # scatter along the last axis; the transposed views index it first,
        # which is cheaper than pad[..., positions] for a single vector
        pad.T[self._positions] = v.T
        full = np.fft.irfft(self._generator_spectrum * np.fft.rfft(pad, axis=-1),
                            self._period, axis=-1)
        return self.scale * full[..., : self.n]

    def columns(self, idx) -> np.ndarray:
        """Columns idx of A as a C-ordered (m, len(idx)) block.

        O(m) per structured column.
        """
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError(f"column index outside [0, {self.n})")
        if self.scheme in ("gaussian", "bernoulli"):
            return self.generator.take(idx, axis=1)
        # base + idx stays below twice the generator length, which is at
        # least n, so one wrap puts it in range
        pos = self._column_base[:, None] + idx
        return self.scale * self.generator.take(pos, mode="wrap")

    def to_dense(self) -> np.ndarray:
        """The full matrix, C-ordered. No solver builds it; only the Gram
        diagnostics `mutual_coherence` and `compressive_detect` do.
        """
        return self.columns(np.arange(self.n))

    def column_norms(self) -> np.ndarray:
        """The l2 norm of every column, without building the matrix.

        A structured column j holds scale * g[(j - p_i) mod P] over the row
        positions p_i = rows[i] - diag_offset, so its squared norm is
        scale^2 * (g^2 conv indicator of the p_i)[j]: one FFT convolution over
        the period. Its error is a few ulps of scale^2 * m * max g^2, which
        bounds every squared norm; values at or below period * eps times that
        bound, which include every all-zero column, come back as exact zeros.
        """
        if self.scheme in ("gaussian", "bernoulli"):
            return np.linalg.norm(self.generator, axis=0)
        period = self._period
        gen_sq = self.generator**2
        indicator = np.zeros(period)
        indicator[self._positions] = 1.0
        sq = np.fft.irfft(np.fft.rfft(gen_sq, period) * np.fft.rfft(indicator),
                          period)[: self.n]
        sq[sq <= period * np.finfo(float).eps * self.m * gen_sq.max()] = 0.0
        return abs(self.scale) * np.sqrt(sq)


def _vector_or_rows(x, length: int) -> np.ndarray:
    """x as floats, checked to be a length-`length` vector or an (R, length) block.

    Complex x is rejected: the operators are real, and a float cast would drop
    its imaginary part.
    """
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError("operator input must be real, got complex values")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != length:
        raise ValueError(f"expected a length-{length} vector or an (R, {length}) "
                         f"block, got {x.shape}")
    return x


def _next_5_smooth(size: int) -> int:
    """The smallest 2^a 3^b 5^c at or above size (size >= 1)."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            # the smallest odd * 2^a at or above size
            best = min(best, odd << (-(-size // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


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
        generator    explicit generator vector (overrides the random draw):
                     real and finite, of length n + offset (offset = the
                     largest selected row for toeplitz, 0 for circulant)
        scale        explicit finite normalization (default 1/sqrt(m) for
                     structured and bernoulli-style scaling baked into dense
                     entries)
    Raises ValueError on any option outside these ranges, and on any of them
    for a dense scheme, which draws every entry from the seed.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    opts = dict(options or {})
    rng = np.random.default_rng(seed)

    if scheme in ("gaussian", "bernoulli"):
        structured = sorted(opts.keys() & {"p", "random_rows", "generator", "scale"})
        if structured:
            raise ValueError(f"the dense {scheme} scheme takes no {', '.join(structured)} option")
        entries = (rng.standard_normal((m, n)) if scheme == "gaussian"
                   else rng.choice([-1.0, 1.0], size=(m, n))) / math.sqrt(m)
        return SensingMatrix(scheme, m, n, entries, seed, 1.0,
                             rows=np.arange(m), diag_offset=0)

    p = float(opts.get("p", 1.0))
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    random_rows = bool(opts.get("random_rows", False))
    if random_rows:
        rows = np.sort(rng.choice(n, size=m, replace=False))
    else:
        rows = np.arange(m)
    scale = float(opts.get("scale", 1.0 / math.sqrt(m)))
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")

    # a toeplitz generator covers the diagonals j - i of the selected rows
    offset = int(rows.max()) if scheme == "toeplitz" else 0
    gen_len = n + offset
    gen = opts.get("generator")
    # a copy: the matrix caches the generator's spectrum
    gen = (np.array(_samples(gen, block=False, length=gen_len, real="generator"))
           if gen is not None else _masked_rademacher(rng, gen_len, p))
    return SensingMatrix(scheme, m, n, gen, seed, scale,
                         rows=rows, diag_offset=offset)


def compress(
    matrix: SensingMatrix,
    x,
    noise_variance: float = 0.0,
    seed: int = 0,
) -> MeasurementVector:
    """Measure y = A x + w with w i.i.d. N(0, noise_variance).

    x is a `SparseSignal` or a real vector of n finite values, and
    noise_variance must be finite and nonnegative; anything else raises
    ValueError.
    """
    if not 0.0 <= noise_variance < math.inf:
        raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance}")
    vec = _samples(x, block=False, length=matrix.n, real="the signal")
    return _with_noise(matrix.matvec(vec), noise_variance, seed)


def _with_noise(clean: np.ndarray, noise_variance: float, seed: int) -> MeasurementVector:
    """clean + w with w i.i.d. N(0, noise_variance) drawn from `seed`."""
    y = clean
    if noise_variance > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.standard_normal(clean.size) * math.sqrt(noise_variance)
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
