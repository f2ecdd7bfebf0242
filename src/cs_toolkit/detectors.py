"""Narrowband detectors, the compressive detector, thresholds, closed-form ROC.

Decision directions differ by technique: energy, matched filter, and
autocorrelation declare occupied when T >= lambda; the Euclidean-distance
and wavelet detectors declare idle when their statistic reaches the
threshold (distance from a reference shape, spectral edge height).

The narrowband detectors (`energy_detect`, `matched_filter_detect`,
`autocorr_detect`, `euclid_detect` and `detect`) take either a length-n
vector or an (R, n) row block, as `SensingMatrix.matvec` does. A vector
gets one `DetectionOutcome` of floats and a decision string. A block gets
one statistic, threshold and decision per row, as length-R arrays, and its
threshold may be a scalar or one value per row. Both shapes run the same
code, and row r of a block's outcome equals, bit for bit, the
vector call on row r. Samples are computed on as float64, or complex128
when complex. Input with more than two axes, an empty last axis or a
non-finite sample is rejected with ValueError, as is a block in which one
row fails a check the vector call makes. Every detector rejects a NaN
threshold, also in one row of a block; +-inf thresholds stay legal.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .matrices import SensingMatrix
from .signals import PilotSignal, _samples

__all__ = [
    "DetectionOutcome",
    "RocPoint",
    "WaveletOpts",
    "energy_detect",
    "closed_form_roc",
    "energy_threshold",
    "autocorr_detect",
    "euclid_detect",
    "wavelet_detect",
    "matched_filter_detect",
    "quiet_time_threshold",
    "compressive_detect",
    "TECHNIQUES",
    "detect",
]

OCCUPIED = "occupied_H1"
IDLE = "idle_H0"
# narrowband detectors that `detect` dispatches by name
TECHNIQUES = ("energy", "matched_filter", "autocorr", "euclid")


@dataclass(frozen=True)
class DetectionOutcome:
    """A detector's decision on a vector, or one per row (as arrays) on a block.

    The decision is stored as `occupied`: a bool for a vector, a bool array
    for a block. `decision` is derived from it: OCCUPIED or IDLE for a
    vector, an array of them for a block.
    """

    statistic_T: float | np.ndarray
    threshold_lambda: float | np.ndarray
    occupied: bool | np.ndarray
    technique: str

    @property
    def decision(self) -> str | np.ndarray:
        if isinstance(self.occupied, np.ndarray):
            return np.where(self.occupied, OCCUPIED, IDLE)
        return OCCUPIED if self.occupied else IDLE


@dataclass(frozen=True)
class RocPoint:
    pd: float
    pfa: float
    pmd: float
    threshold: float
    snr_db: float


@dataclass(frozen=True)
class WaveletOpts:
    """Single-scale Mexican-hat transform of the periodogram."""

    scale: float = 8.0
    invert: bool = False  # flip the literal idle-on-large-edge rule


def _thresholds(lam, v: np.ndarray):
    """lam as a 0-d float array, or for an (R, n) block as one value per row.

    A NaN threshold, or a NaN in any row's, is rejected; +-inf stays legal.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim and (v.ndim != 2 or lam.shape != v.shape[:1]):
        raise ValueError(f"threshold shape {lam.shape} does not fit samples of "
                         f"shape {v.shape}: give a scalar or one value per row")
    if np.isnan(lam).any():
        raise ValueError("threshold must not be NaN")
    return lam


def _outcome(t, lam, occupied, technique: str) -> DetectionOutcome:
    """The outcome for statistic t (a scalar, or one per row) and its decision mask."""
    if t.ndim == 0:
        return DetectionOutcome(float(t), float(lam), bool(occupied), technique)
    return DetectionOutcome(t, np.array(np.broadcast_to(lam, t.shape)), occupied, technique)


def energy_detect(y, lam) -> DetectionOutcome:
    """T = sum |y(n)|^2; occupied iff T >= lambda."""
    v = _samples(y)
    lam = _thresholds(lam, v)
    t = np.vecdot(v, v).real
    return _outcome(t, lam, t >= lam, "energy")


def energy_threshold(pfa_target: float, n: int, noise_variance: float) -> float:
    """lambda = (Qinv(pfa_target) * sqrt(2n) + n) * noise_variance."""
    if not 0.0 < pfa_target < 1.0:
        raise ValueError("pfa_target must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    q_inv = -statistics.NormalDist().inv_cdf(pfa_target)
    return float((q_inv * math.sqrt(2.0 * n) + n) * noise_variance)


def _q(x: float) -> float:
    """Gaussian tail Q(x) = P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def closed_form_roc(
    technique: str,
    n: int,
    noise_variance: float,
    lam: float,
    snr_db: float | None = None,
    pilot_energy_E: float | None = None,
) -> RocPoint:
    """Gaussian-approximation (Pd, Pfa) for the energy or matched filter detector.

    energy: Pd  = Q((lambda - n(dw2+ds2)) / sqrt(2n (dw2+ds2)^2)),
            Pfa = Q((lambda - n dw2) / sqrt(2n dw2^2)), ds2 = dw2 * 10^(snr/10).
            The approximation targets n > 250; smaller n warns and computes.
    matched_filter: Pd = Q((lambda - E)/sqrt(E dw2)), Pfa = Q(lambda/sqrt(E dw2)).
    """
    dw2 = float(noise_variance)
    if dw2 <= 0:
        raise ValueError("noise_variance must be positive")
    if technique == "energy":
        if snr_db is None:
            raise ValueError("energy ROC needs snr_db")
        if n <= 250:
            warnings.warn("energy closed form is a large-n approximation; "
                          f"n={n} is below the n > 250 regime", RuntimeWarning)
        ds2 = dw2 * 10.0 ** (snr_db / 10.0)
        pd = _q((lam - n * (dw2 + ds2)) / math.sqrt(2.0 * n * (dw2 + ds2) ** 2))
        pfa = _q((lam - n * dw2) / math.sqrt(2.0 * n * dw2**2))
    elif technique == "matched_filter":
        if pilot_energy_E is None or pilot_energy_E <= 0:
            raise ValueError("matched filter ROC needs pilot_energy_E > 0")
        e = float(pilot_energy_E)
        pd = _q((lam - e) / math.sqrt(e * dw2))
        pfa = _q(lam / math.sqrt(e * dw2))
    else:
        raise ValueError(f"no closed form for technique {technique!r}")
    return RocPoint(pd=pd, pfa=pfa, pmd=1.0 - pd, threshold=float(lam),
                    snr_db=float("nan") if snr_db is None else float(snr_db))


def _autocorr(v: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation R(0..max_lag), R(e) = (1/N) sum y[t] conj(y[t-e]).

    Lags run along the first axis: a vector gives max_lag + 1 values, an
    (R, N) block a (max_lag + 1, R) array, so r[e] is lag e of every row.
    Each lag is one np.vecdot call over the whole block, which takes each
    row's dot product as it takes a vector's, so column r equals, bit for
    bit, the autocorrelation of row r on its own.
    """
    n = v.shape[-1]
    out = np.array([np.vecdot(v[..., : n - e], v[..., e:]) for e in range(max_lag + 1)])
    out /= float(n)  # a float divisor skips numpy's Python-int promotion
    return out


def _power(r: np.ndarray):
    """R(0) of the autocorrelation(s) r, rejecting zero-power input."""
    r0 = r[0].real
    if not np.all(r0 != 0.0):
        raise ValueError("zero-power input")
    return r0


def autocorr_detect(y, margin_lambda) -> DetectionOutcome:
    """Statistic |R(1)|/R(0); occupied iff it reaches the margin."""
    v = _samples(y)
    if v.shape[-1] < 2:
        raise ValueError("need at least two samples")
    # a NaN margin fails the range check, before _thresholds sees it
    lam = np.asarray(margin_lambda, dtype=float)
    if not np.all((0.0 < lam) & (lam <= 1.0)):
        raise ValueError("margin_lambda must be in (0, 1]")
    lam = _thresholds(lam, v)
    r = _autocorr(v, 1)
    t = np.abs(r[1]) / _power(r)
    return _outcome(t, lam, t >= lam, "autocorr")


def euclid_detect(y, lam, lag_count_M: int = 64) -> DetectionOutcome:
    """Distance between the normalized autocorrelation and a unit triangle.

    Reference over lags e in [-M/2, M/2] is the triangle 1 - (2/M)|e| with
    apex 1 at lag zero. D = sqrt(sum (R_yy - R_ref)^2); idle iff D >= lambda,
    otherwise occupied (a correlation shaped like the triangle marks a carrier).
    """
    v = _samples(y)
    if lag_count_M < 2 or lag_count_M % 2 != 0:
        raise ValueError("lag_count_M must be even and >= 2")
    if v.shape[-1] <= lag_count_M:
        raise ValueError("need more samples than lags")
    lam = _thresholds(lam, v)
    half = lag_count_M // 2
    r = _autocorr(v, half)
    # one row of lags per input row, in C order so that the sum below adds
    # each row's terms in the order it adds a vector's
    rn = np.ascontiguousarray((r.real / _power(r)).T)
    lags = np.arange(-half, half + 1)
    ref = 1.0 - (2.0 / lag_count_M) * np.abs(lags)
    # R(-e) mirrors R(e) for real input
    ryy = np.concatenate([rn[..., :0:-1], rn], axis=-1)
    d = np.sqrt(np.sum((ryy - ref) ** 2, axis=-1))
    return _outcome(d, lam, ~(d >= lam), "euclid")


def _ricker(scale: float) -> np.ndarray:
    half = int(math.ceil(5.0 * scale))
    t = np.arange(-half, half + 1, dtype=float)
    amp = 2.0 / (math.sqrt(3.0 * scale) * math.pi**0.25)
    return amp * (1.0 - (t / scale) ** 2) * np.exp(-(t**2) / (2.0 * scale**2))


def wavelet_detect(y, lam: float, opts: WaveletOpts = WaveletOpts()) -> DetectionOutcome:
    """Mexican-hat edge detection on the periodogram.

    m = max |CWT(PSD)| at a single scale. The literal decision rule declares
    idle when m >= lambda; set opts.invert for the occupied-on-strong-edge
    reading. The scale must be finite and positive.
    """
    v = _samples(y, block=False)
    if v.size < 16:
        raise ValueError("need at least 16 samples")
    if not 0.0 < opts.scale < math.inf:
        raise ValueError(f"wavelet scale must be finite and positive, got {opts.scale}")
    lam = _thresholds(lam, v)
    psd = np.abs(np.fft.rfft(v)) ** 2 / v.size
    kernel = _ricker(opts.scale)
    # the centred "same" slice of the full convolution, psd.size long even
    # when the psd is shorter than the kernel
    coeffs = np.convolve(psd, kernel)[kernel.size // 2:][: psd.size]
    t = np.max(np.abs(coeffs))
    big = t >= lam
    return _outcome(t, lam, big if opts.invert else ~big, "wavelet")


def matched_filter_detect(y, pilot: PilotSignal, lam) -> DetectionOutcome:
    """T = Re(sum y(n) conj(x_p(n))); occupied iff T >= lambda."""
    v = _samples(y)
    if v.shape[-1] != pilot.samples.size:
        raise ValueError("signal and pilot lengths differ")
    lam = _thresholds(lam, v)
    t = np.sum(v * np.conj(pilot.samples), axis=-1).real
    return _outcome(t, lam, t >= lam, "matched_filter")


def quiet_time_threshold(
    noise: np.ndarray,
    pilot: PilotSignal,
    factor_k: float = 1.0,
    averaging_runs: int = 32,
) -> float:
    """Dynamic matched-filter threshold from signal-free intervals.

    Splits `noise` into averaging_runs blocks of pilot length, correlates each
    against the pilot, and returns factor_k times the mean absolute
    correlation. noise must hold averaging_runs * len(pilot) finite samples,
    and factor_k must be finite and positive.
    This is the path for recorded quiet-time samples; Monte-Carlo sweeps
    (`harness.run_detection_mc`) draw the same threshold from its exact law
    under white Gaussian noise instead of synthesising the noise.
    """
    if not 0.0 < factor_k < math.inf:
        raise ValueError(f"factor_k must be finite and positive, got {factor_k}")
    if averaging_runs < 1:
        raise ValueError("averaging_runs must be >= 1")
    npil = pilot.samples.size
    w = _samples(noise, block=False, length=averaging_runs * npil)
    blocks = w.reshape(averaging_runs, npil)
    corrs = np.abs(np.real(blocks @ np.conj(pilot.samples)))
    return float(factor_k * np.mean(corrs))


def compressive_detect(
    y_compressed, Omega: SensingMatrix, template_S: np.ndarray, lam: float
) -> DetectionOutcome:
    """T = y^T (Omega Omega^T)^-1 Omega S; occupied iff T >= lambda.

    The compressed samples are a real vector of Omega.m finite values and
    the template a real one of Omega.n: Omega is real, and a complex
    statistic has no order against lambda. Anything else raises ValueError.
    """
    yv = _samples(y_compressed, block=False, length=Omega.m, real="compressed samples")
    s = _samples(template_S, block=False, length=Omega.n, real="template_S")
    lam = _thresholds(lam, yv)
    dense = Omega.to_dense()
    gram = dense @ dense.T
    try:
        t = yv @ np.linalg.solve(gram, dense @ s)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError("Omega Omega^T is singular") from exc
    return _outcome(t, lam, t >= lam, "compressive")


def detect(technique: str, samples, lam, *,
           pilot: PilotSignal | None = None, lags: int = 64) -> DetectionOutcome:
    """Run the narrowband detector named `technique` (one of TECHNIQUES).

    `samples` is a vector or an (R, n) row block, and `lam` a scalar or, for
    a block, one threshold per row. The matched filter needs `pilot`;
    euclid uses `lags` as its lag count M.
    """
    if technique == "energy":
        return energy_detect(samples, lam)
    if technique == "matched_filter":
        if pilot is None:
            raise ValueError("matched_filter needs a pilot")
        return matched_filter_detect(samples, pilot, lam)
    if technique == "autocorr":
        return autocorr_detect(samples, lam)
    if technique == "euclid":
        return euclid_detect(samples, lam, lags)
    raise ValueError(f"unknown technique {technique!r}")
