"""Signal models and evaluation metrics.

Sparse spike vectors, QPSK pilot sequences, and AWGN channels, plus the
metric bundle (recovery error, MSE, correlation, RSNR, Hamming distance)
used by every experiment in the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseSignal",
    "PilotSignal",
    "NoisySignal",
    "MetricBundle",
    "gen_sparse_signal",
    "gen_pilot_qpsk",
    "gen_pilot_bpsk",
    "add_awgn",
    "apply_basis",
    "evaluate_metrics",
]

AMPLITUDE_LAWS = ("unit", "gaussian", "uniform")


@dataclass(frozen=True)
class SparseSignal:
    """A length-n real vector with exactly k nonzero spikes."""

    samples: np.ndarray
    sparsity_k: int
    support: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("samples must be a nonempty 1-d vector")
        if len(self.support) != self.sparsity_k:
            raise ValueError("support size must equal sparsity_k")
        nz = np.flatnonzero(self.samples)
        if not np.array_equal(np.sort(np.asarray(self.support)), nz):
            raise ValueError("support must list exactly the nonzero positions")


@dataclass(frozen=True)
class PilotSignal:
    """Known pilot sequence with unit average power."""

    samples: np.ndarray
    modulation: str
    energy_E: float

    def __post_init__(self) -> None:
        if self.energy_E <= 0:
            raise ValueError("pilot energy must be positive")
        avg_power = float(np.mean(np.abs(self.samples) ** 2))
        if abs(avg_power - 1.0) > 1e-9:
            raise ValueError("pilot average power must be 1 within 1e-9")


@dataclass(frozen=True)
class NoisySignal:
    """Received samples y = h*x + w with noise metadata."""

    samples: np.ndarray
    snr_db: float
    noise_variance: float
    channel_gain_h: complex = 1.0


@dataclass(frozen=True)
class MetricBundle:
    recovery_error_Re: float
    mse: float
    correlation_Cc: float
    rsnr: float
    hamming_Hd: int
    recovered_sparsity: int


def gen_sparse_signal(
    n: int, k: int, amplitude_law: str = "unit", seed: int = 0
) -> SparseSignal:
    """Generate a k-sparse length-n vector with random distinct spike positions.

    amplitude_law:
        "unit"     spikes of +-1 (default; matches the toolkit's figures),
        "gaussian" standard normal amplitudes,
        "uniform"  amplitudes uniform on [-1, 1] excluding 0.
    Deterministic given seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if amplitude_law not in AMPLITUDE_LAWS:
        raise ValueError(f"unknown amplitude_law {amplitude_law!r}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    if k > 0:
        if amplitude_law == "unit":
            amps = rng.choice([-1.0, 1.0], size=k)
        elif amplitude_law == "gaussian":
            amps = rng.standard_normal(k)
            amps[amps == 0.0] = 1.0
        else:
            amps = rng.uniform(-1.0, 1.0, size=k)
            amps[amps == 0.0] = 1.0
        x[support] = amps
    return SparseSignal(samples=x, sparsity_k=k, support=support, seed=seed)


def gen_pilot_qpsk(n: int, seed: int = 0) -> PilotSignal:
    """Generate n QPSK symbols from {(+-1 +- 1j)/sqrt(2)}; total energy n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], size=n)
    im = rng.choice([-1.0, 1.0], size=n)
    samples = (re + 1j * im) / math.sqrt(2.0)
    return PilotSignal(samples=samples, modulation="qpsk", energy_E=float(n))


def gen_pilot_bpsk(n: int, seed: int = 0) -> PilotSignal:
    """Generate a real +-1 pilot sequence; total energy n.

    Real-valued counterpart of the QPSK pilot, used where the closed-form
    detector statistics assume real correlations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    samples = rng.choice([-1.0, 1.0], size=n)
    return PilotSignal(samples=samples, modulation="bpsk", energy_E=float(n))


def add_awgn(
    signal: np.ndarray,
    snr_db: float,
    seed: int = 0,
    channel: str = "awgn",
) -> NoisySignal:
    """Add white Gaussian noise at the requested SNR.

    noise_variance = signal_power / 10^(snr_db/10) with signal_power the mean
    squared magnitude of the input. snr_db = +inf returns a noiseless copy;
    NaN and -inf raise ValueError, as do NaN or infinite samples.
    Complex inputs get circular complex noise (variance split between parts).
    channel = "rayleigh" applies a flat random scalar gain h ~ CN(0, 1) drawn
    once per call; default is h = 1.
    """
    x = _samples(signal, block=False)
    rng = np.random.default_rng(seed)
    if channel == "rayleigh":
        h = complex(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
    elif channel == "awgn":
        h = 1.0
    else:
        raise ValueError(f"unknown channel {channel!r}")
    power = float(np.mean(np.abs(x) ** 2))
    noise_variance = _noise_variance(power, snr_db)
    if snr_db == math.inf:
        return NoisySignal(samples=(h * x if channel == "rayleigh" else x.copy()),
                           snr_db=snr_db, noise_variance=0.0, channel_gain_h=h)
    if power == 0.0:
        raise ValueError("zero-power signal with finite snr_db")
    sigma = math.sqrt(noise_variance)
    if np.iscomplexobj(x) or channel == "rayleigh":
        w = (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)) * (
            sigma / math.sqrt(2.0)
        )
    else:
        w = rng.standard_normal(x.size) * sigma
    return NoisySignal(samples=h * x + w, snr_db=float(snr_db),
                       noise_variance=noise_variance, channel_gain_h=h)


def apply_basis(signal: SparseSignal, basis: np.ndarray | None = None) -> np.ndarray:
    """Map sparse coefficients through an orthonormal basis (default identity)."""
    if basis is None:
        return signal.samples.copy()
    basis = np.asarray(basis, dtype=float)
    n = signal.samples.size
    if basis.shape != (n, n):
        raise ValueError("basis must be n x n")
    if not np.allclose(basis.T @ basis, np.eye(n), atol=1e-10):
        raise ValueError("basis must be orthonormal")
    return basis @ signal.samples


def _as_vector(x) -> np.ndarray:
    # duck-typed so MeasurementVector/SignVector work without an import cycle
    for attr in ("samples", "values", "signs"):
        if hasattr(x, attr):
            return np.asarray(getattr(x, attr))
    return np.asarray(x)


def _samples(y, block: bool = True, length: int | None = None,
             real: str | None = None) -> np.ndarray:
    """y's samples as a length-n vector or, if `block`, an (R, n) row block.

    The one check for every sample array a public function takes: n must be
    at least 1, and equal `length` when that is given, and every sample
    finite. The samples come back as float64, or complex128 when complex.
    `real` names an input that must be real: complex samples, even with zero
    imaginary parts, are then rejected, as a float cast would drop them.
    """
    v = _as_vector(y)
    if not np.isfinite(v).all():
        raise ValueError("samples must be finite (no NaN or inf)")
    if v.ndim not in ((1, 2) if block else (1,)) or v.shape[-1] == 0:
        shapes = "a length-n vector or an (R, n) row block" if block else "a vector (1-d)"
        raise ValueError(f"expected {shapes} with n >= 1, got shape {v.shape}")
    if length is not None and v.shape[-1] != length:
        raise ValueError(f"expected a length-{length} vector, got shape {v.shape}")
    if v.dtype.kind == "c" and real:
        raise ValueError(f"{real} must be real, got complex values")
    return np.asarray(v, dtype=complex if v.dtype.kind == "c" else float)


def _integer(name: str, value) -> int:
    """value as an int; ValueError unless it is a Python or numpy integer,
    and not a bool, which Python counts as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _noise_variance(power: float, snr_db: float) -> float:
    """Noise variance putting `power` at snr_db dB; 0.0 at snr_db = +inf."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"noise needs a finite SNR or inf, got {snr_db}")
    if snr_db == math.inf:
        return 0.0
    return power / (10.0 ** (snr_db / 10.0))


def evaluate_metrics(
    x,
    x_hat,
    y=None,
    y_hat=None,
    zero_tol: float | None = None,
) -> MetricBundle:
    """Compute the recovery metric bundle for an estimate x_hat of x.

    Re   = ||x_hat - x||_2 / ||x||_2
    MSE  = (1/N) sum (x - x_hat)^2
    Cc   = Pearson correlation coefficient of x and x_hat; 0 for an all-zero
           x_hat (the empty model), so it scores Re = 1, RSNR = 1, Cc = 0 and
           recovered_sparsity 0. A constant x, or a constant nonzero x_hat,
           raises ValueError.
    RSNR = ||x||_2^2 / ||x - x_hat||_2^2  (single-realization estimate)
    Hd   = count of differing entries of y vs y_hat (when both are given)
    recovered_sparsity = count of |x_hat_i| > zero_tol
                         (zero_tol defaults to 1e-6 * max|x_hat|)

    x and x_hat are real vectors of finite values, of one length; anything
    else raises ValueError.
    """
    xv = _samples(x, block=False, real="x")
    xh = _samples(x_hat, block=False, length=xv.size, real="x_hat")
    norm_x = float(np.linalg.norm(xv))
    if norm_x == 0.0:
        raise ZeroDivisionError("recovery error undefined for ||x|| = 0")
    diff = xv - xh
    err = float(np.linalg.norm(diff))
    re = err / norm_x
    mse = float(np.mean(diff**2))
    empty = not np.any(xh)
    if np.ptp(xv) == 0.0 or (np.ptp(xh) == 0.0 and not empty):
        raise ValueError("correlation undefined for constant vectors")
    cc = 0.0 if empty else float(np.corrcoef(xv, xh)[0, 1])
    rsnr = math.inf if err == 0.0 else norm_x**2 / err**2
    hd = 0
    if y is not None and y_hat is not None:
        ya = np.asarray(_as_vector(y))
        yb = np.asarray(_as_vector(y_hat))
        if ya.shape != yb.shape:
            raise ValueError("y and y_hat must have the same length")
        hd = int(np.count_nonzero(ya != yb))
    if zero_tol is None:
        zero_tol = 1e-6 * float(np.max(np.abs(xh), initial=0.0))
    sparsity = int(np.count_nonzero(np.abs(xh) > zero_tol))
    return MetricBundle(
        recovery_error_Re=re,
        mse=mse,
        correlation_Cc=cc,
        rsnr=rsnr,
        hamming_Hd=hd,
        recovered_sparsity=sparsity,
    )
