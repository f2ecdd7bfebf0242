"""Narrowband detectors, the compressive detector, thresholds, closed-form ROC.

Decision directions differ by technique: energy, matched filter, and
autocorrelation declare occupied when T >= lambda; the Euclidean-distance
and wavelet detectors declare idle when their statistic reaches the
threshold (distance from a reference shape, spectral edge height).
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .matrices import SensingMatrix
from .signals import PilotSignal, _finite_vector

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
    statistic_T: float
    threshold_lambda: float
    decision: str
    technique: str

    @property
    def occupied(self) -> bool:
        return self.decision == OCCUPIED


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


def energy_detect(y, lam: float) -> DetectionOutcome:
    """T = sum |y(n)|^2; occupied iff T >= lambda."""
    v = _finite_vector(y)
    if v.size < 1:
        raise ValueError("need at least one sample")
    t = float(np.real(np.vdot(v, v)))
    return DetectionOutcome(t, float(lam), OCCUPIED if t >= lam else IDLE, "energy")


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
    """Biased sample autocorrelation R(0..max_lag), R(e) = (1/N) sum y[t] conj(y[t-e])."""
    n = v.size
    out = np.empty(max_lag + 1, dtype=complex)
    for e in range(max_lag + 1):
        out[e] = np.vdot(v[: n - e], v[e:]) / n
    return out


def autocorr_detect(y, margin_lambda: float) -> DetectionOutcome:
    """Statistic |R(1)|/R(0); occupied iff it reaches the margin."""
    v = _finite_vector(y)
    if v.size < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < margin_lambda <= 1.0:
        raise ValueError("margin_lambda must be in (0, 1]")
    r = _autocorr(v, 1)
    r0 = float(np.real(r[0]))
    if r0 == 0.0:
        raise ValueError("zero-power input")
    t = float(np.abs(r[1]) / r0)
    return DetectionOutcome(t, float(margin_lambda),
                            OCCUPIED if t >= margin_lambda else IDLE, "autocorr")


def euclid_detect(y, lam: float, lag_count_M: int = 64) -> DetectionOutcome:
    """Distance between the normalized autocorrelation and a unit triangle.

    Reference over lags e in [-M/2, M/2] is the triangle 1 - (2/M)|e| with
    apex 1 at lag zero. D = sqrt(sum (R_yy - R_ref)^2); idle iff D >= lambda,
    otherwise occupied (a correlation shaped like the triangle marks a carrier).
    """
    v = _finite_vector(y)
    if lag_count_M < 2 or lag_count_M % 2 != 0:
        raise ValueError("lag_count_M must be even and >= 2")
    if v.size <= lag_count_M:
        raise ValueError("need more samples than lags")
    half = lag_count_M // 2
    r = _autocorr(v, half)
    r0 = float(np.real(r[0]))
    if r0 == 0.0:
        raise ValueError("zero-power input")
    rn = np.real(r) / r0
    lags = np.arange(-half, half + 1)
    ref = 1.0 - (2.0 / lag_count_M) * np.abs(lags)
    ryy = np.concatenate([rn[1:][::-1], rn])  # R(-e) mirrors R(e) for real input
    d = float(np.sqrt(np.sum((ryy - ref) ** 2)))
    return DetectionOutcome(d, float(lam), IDLE if d >= lam else OCCUPIED, "euclid")


def _ricker(scale: float) -> np.ndarray:
    half = int(math.ceil(5.0 * scale))
    t = np.arange(-half, half + 1, dtype=float)
    amp = 2.0 / (math.sqrt(3.0 * scale) * math.pi**0.25)
    return amp * (1.0 - (t / scale) ** 2) * np.exp(-(t**2) / (2.0 * scale**2))


def wavelet_detect(y, lam: float, opts: WaveletOpts = WaveletOpts()) -> DetectionOutcome:
    """Mexican-hat edge detection on the periodogram.

    m = max |CWT(PSD)| at a single scale. The literal decision rule declares
    idle when m >= lambda; set opts.invert for the occupied-on-strong-edge
    reading.
    """
    v = _finite_vector(y)
    if v.size < 16:
        raise ValueError("need at least 16 samples")
    psd = np.abs(np.fft.rfft(v)) ** 2 / v.size
    kernel = _ricker(opts.scale)
    # the centred "same" slice of the full convolution, psd.size long even
    # when the psd is shorter than the kernel
    coeffs = np.convolve(psd, kernel)[kernel.size // 2:][: psd.size]
    t = float(np.max(np.abs(coeffs)))
    big = t >= lam
    occupied = big if opts.invert else not big
    return DetectionOutcome(t, float(lam), OCCUPIED if occupied else IDLE, "wavelet")


def matched_filter_detect(y, pilot: PilotSignal, lam: float) -> DetectionOutcome:
    """T = Re(sum y(n) conj(x_p(n))); occupied iff T >= lambda."""
    v = _finite_vector(y)
    if v.size != pilot.samples.size:
        raise ValueError("signal and pilot lengths differ")
    t = float(np.real(np.sum(v * np.conj(pilot.samples))))
    return DetectionOutcome(t, float(lam),
                            OCCUPIED if t >= lam else IDLE, "matched_filter")


def quiet_time_threshold(
    noise: np.ndarray,
    pilot: PilotSignal,
    factor_k: float = 1.0,
    averaging_runs: int = 32,
) -> float:
    """Dynamic matched-filter threshold from signal-free intervals.

    Splits `noise` into averaging_runs blocks of pilot length, correlates each
    against the pilot, and returns factor_k times the mean absolute
    correlation. noise must hold averaging_runs * len(pilot) finite samples.
    This is the path for recorded quiet-time samples; Monte-Carlo sweeps
    (`harness.run_detection_mc`) draw the same threshold from its exact law
    under white Gaussian noise instead of synthesising the noise.
    """
    if factor_k <= 0:
        raise ValueError("factor_k must be positive")
    if averaging_runs < 1:
        raise ValueError("averaging_runs must be >= 1")
    w = _finite_vector(noise)
    npil = pilot.samples.size
    if w.size != averaging_runs * npil:
        raise ValueError("noise length must equal averaging_runs * pilot length")
    blocks = w.reshape(averaging_runs, npil)
    corrs = np.abs(np.real(blocks @ np.conj(pilot.samples)))
    return float(factor_k * np.mean(corrs))


def compressive_detect(
    y_compressed, Omega: SensingMatrix, template_S: np.ndarray, lam: float
) -> DetectionOutcome:
    """T = y^T (Omega Omega^T)^-1 Omega S; occupied iff T >= lambda."""
    yv = _finite_vector(y_compressed)
    s = np.asarray(template_S, dtype=float)
    if yv.size != Omega.m:
        raise ValueError("compressed length does not match Omega.m")
    if s.size != Omega.n:
        raise ValueError("template length does not match Omega.n")
    dense = Omega.to_dense()
    gram = dense @ dense.T
    try:
        t = float(yv @ np.linalg.solve(gram, dense @ s))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError("Omega Omega^T is singular") from exc
    return DetectionOutcome(t, float(lam),
                            OCCUPIED if t >= lam else IDLE, "compressive")


def detect(technique: str, samples, lam: float, *,
           pilot: PilotSignal | None = None, lags: int = 64) -> DetectionOutcome:
    """Run the narrowband detector named `technique` (one of TECHNIQUES).

    The matched filter needs `pilot`; euclid uses `lags` as its lag count M.
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
