"""Blind eigenvalue-based SNR estimation.

Delay-embeds the samples into an L x N matrix, splits signal from noise
eigenvalues with the MDL criterion, fits the noise variance by matching the
empirical noise-eigenvalue CDF against the Marchenko-Pastur CDF over a
candidate grid, and reports the SNR in dB. A small particle-swarm search
tunes the (L, K) hyperparameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

__all__ = [
    "SnrEstimate",
    "estimate_snr",
    "mdl_order",
    "mp_fit",
    "pso_tune",
]

SNR_FLOOR_DB = -40.0
MP_GRID_POINTS = 256


@dataclass(frozen=True)
class SnrEstimate:
    snr_db: float
    noise_variance_hat: float
    total_power_hat: float
    mdl_order_M: int
    smoothing_L: int
    grid_K: int
    goodness_D: float
    clamped: bool = False


def _delay_embed(samples: np.ndarray, L: int) -> np.ndarray:
    """Row i holds the samples delayed by i, truncated to the common length."""
    n_eff = samples.size - L + 1
    return np.lib.stride_tricks.sliding_window_view(samples, n_eff)[:L]


def mdl_order(eigenvalues: np.ndarray, L: int, N: int) -> int:
    """Minimum-description-length split between signal and noise eigenvalues.

    M_hat = argmin over 0 <= M <= L-1 of
        -(L - M) N log(theta(M)/phi(M)) + 0.5 M (2L - M) log N
    with theta/phi the geometric/arithmetic means of the tail
    eigenvalues M+1..L. Zero tail entries are regularized by +1e-15.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (L,):
        raise ValueError("need exactly L eigenvalues")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(lam) > 1e-12 * max(1.0, float(lam[0]))):
        raise ValueError("eigenvalues must be sorted descending")
    if N < L:
        raise ValueError("need N >= L")
    lam = lam + 1e-15
    m = np.arange(L)
    count = L - m  # tail sizes
    theta = np.exp(np.cumsum(np.log(lam)[::-1])[::-1] / count)
    phi = np.cumsum(lam[::-1])[::-1] / count
    val = -count * N * np.log(theta / phi) + 0.5 * m * (2 * L - m) * math.log(N)
    return int(np.argmin(val))


def _mp_support_and_cdf(grid: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Marchenko-Pastur CDFs for ratio q, one 256-point row per variance in grid."""
    pi_k = grid[:, None]
    lo = pi_k * (1.0 - math.sqrt(q)) ** 2
    hi = pi_k * (1.0 + math.sqrt(q)) ** 2
    # np.linspace on each row alone, bit for bit; on all rows at once it is
    # not, as one zero-width row switches every row to another formula
    v = np.arange(MP_GRID_POINTS) * ((hi - lo) / (MP_GRID_POINTS - 1)) + lo
    v[:, -1:] = hi
    inner = np.clip((v - lo) * (hi - v), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.sqrt(inner) / (2.0 * math.pi * pi_k * q * np.maximum(v, 1e-300))
    return v, cumulative_trapezoid(dens, v, axis=1, initial=0)


def mp_fit(
    noise_eigs: np.ndarray, L: int, N: int, M_hat: int, K: int
) -> tuple[float, float]:
    """Fit the noise variance by CDF matching against the Marchenko-Pastur law.

    Candidate variances pi_k are K linearly spaced points spanning the
    eigenvalue bracket [lambda_L/(1-sqrt(c))^2, lambda_{M+1}/(1+sqrt(c))^2]
    with c = L/N (swapped with a warning if inverted). For each candidate the
    empirical CDF of the noise eigenvalues is compared against the MP CDF on a
    256-point support discretization; returns the l2-distance argmin and its
    distance.
    """
    eigs = np.asarray(noise_eigs, dtype=float)
    if eigs.size < 1:
        raise ValueError("noise_eigs must be nonempty")
    if K < 2:
        raise ValueError("K must be >= 2")
    c = L / N
    if not 0.0 < c < 1.0:
        raise ValueError("need c = L/N in (0, 1)")
    sq = math.sqrt(c)
    sigma_lo = float(eigs[-1]) / (1.0 - sq) ** 2
    sigma_hi = float(eigs[0]) / (1.0 + sq) ** 2
    if sigma_lo > sigma_hi:
        warnings.warn("noise bracket inverted; swapping endpoints", RuntimeWarning)
        sigma_lo, sigma_hi = sigma_hi, sigma_lo
    q = (1.0 - M_hat / L) * c
    grid = np.linspace(sigma_lo, sigma_hi, K)
    v, mp_cdf = _mp_support_and_cdf(grid, q)
    emp_cdf = np.searchsorted(np.sort(eigs), v, side="right") / eigs.size
    # np.linalg.norm per row, bit for bit; a sum over axis 1 rounds differently
    dist = np.sqrt([np.dot(row, row) for row in emp_cdf - mp_cdf])
    dist[np.isnan(dist)] = math.inf  # never chosen; all-NaN gives (grid[0], inf)
    best = int(np.argmin(dist))
    return float(grid[best]), float(dist[best])


def estimate_snr(samples: np.ndarray, L: int = 10, K: int = 50) -> SnrEstimate:
    """Blind SNR estimate from the eigenvalues of the delay-embedded covariance.

    Builds the L-row delay matrix X, the covariance (1/N) X X^H, splits its
    descending eigenvalues with MDL, fits the noise variance by the
    Marchenko-Pastur CDF match, and returns
    gamma_hat = (P_total - sigma_z^2) / sigma_z^2 in dB. Noise-only inputs
    clamp to the -40 dB floor with the `clamped` flag set. Raises ValueError
    on non-finite or zero-power samples and on a zero noise fit (a lone impulse).
    """
    s = np.asarray(samples)
    if L < 2:
        raise ValueError("L must be >= 2")
    if K < 2:
        raise ValueError("K must be >= 2")
    if s.ndim != 1 or s.size < 2 * L:
        raise ValueError("need a 1-d sample vector with at least 2L samples")
    x = _delay_embed(s, L)
    total_power = float(np.mean(np.abs(x) ** 2))
    if not 0.0 < total_power < math.inf:  # NaN or inf samples, or all zero
        raise ValueError(f"samples must be finite with nonzero power, got {total_power}")
    n_eff = x.shape[1]
    cov = (x @ x.conj().T) / n_eff
    eigs = np.clip(np.linalg.eigvalsh(cov)[::-1].real, 0.0, None)
    m_hat = mdl_order(eigs, L, n_eff)
    sigma_hat, goodness = mp_fit(eigs[m_hat:], L, n_eff, m_hat, K)
    if sigma_hat == 0.0:
        raise ValueError("the noise variance fits to zero: the samples have no noise")
    gamma = (total_power - sigma_hat) / sigma_hat
    if gamma <= 10.0 ** (SNR_FLOOR_DB / 10.0):
        snr_db, clamped = SNR_FLOOR_DB, True
    else:
        snr_db, clamped = 10.0 * math.log10(gamma), False
    return SnrEstimate(
        snr_db=float(snr_db),
        noise_variance_hat=float(sigma_hat),
        total_power_hat=total_power,
        mdl_order_M=int(m_hat),
        smoothing_L=int(L),
        grid_K=int(K),
        goodness_D=float(goodness),
        clamped=clamped,
    )


def pso_tune(
    samples: np.ndarray,
    L_bounds: tuple[int, int],
    K_bounds: tuple[int, int],
    swarm: int = 8,
    iters: int = 15,
    seed: int = 0,
    true_snr_db: float | None = None,
) -> tuple[int, int, float]:
    """Particle-swarm search over integer (L, K) for the best estimator fit.

    Fitness defaults to the blind Marchenko-Pastur goodness_D; passing
    true_snr_db switches to the supervised |snr_hat - true| error. Standard
    global-best PSO with inertia 0.72, cognitive/social weights 1.49, clamped
    velocities, positions rounded to integers. Deterministic given seed; the
    global best only updates on strict improvement, scanning particles in
    index order.
    """
    lo = np.array([L_bounds[0], K_bounds[0]], dtype=float)
    hi = np.array([L_bounds[1], K_bounds[1]], dtype=float)
    if np.any(hi < lo):
        raise ValueError("infeasible bounds")
    if swarm < 2:
        raise ValueError("swarm must be >= 2")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    cache: dict[tuple[int, int], float] = {}

    def fitness(pos: np.ndarray) -> float:
        key = (int(round(pos[0])), int(round(pos[1])))
        if key not in cache:
            est = estimate_snr(samples, L=key[0], K=key[1])
            cache[key] = (abs(est.snr_db - true_snr_db)
                          if true_snr_db is not None else est.goodness_D)
        return cache[key]

    rng = np.random.default_rng(seed)
    span = hi - lo
    pos = lo + rng.random((swarm, 2)) * span
    vel = (rng.random((swarm, 2)) - 0.5) * span
    vmax = np.maximum(span, 1.0)
    pbest = pos.copy()
    pbest_fit = np.array([fitness(p) for p in pos])
    g_idx = int(np.argmin(pbest_fit))
    gbest, gbest_fit = pbest[g_idx].copy(), float(pbest_fit[g_idx])
    for _ in range(iters):
        r1 = rng.random((swarm, 2))
        r2 = rng.random((swarm, 2))
        vel = 0.72 * vel + 1.49 * r1 * (pbest - pos) + 1.49 * r2 * (gbest - pos)
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, lo, hi)
        for i in range(swarm):
            f = fitness(pos[i])
            if f < pbest_fit[i]:
                pbest[i] = pos[i]
                pbest_fit[i] = f
            if f < gbest_fit:
                gbest, gbest_fit = pos[i].copy(), float(f)
    return int(round(gbest[0])), int(round(gbest[1])), gbest_fit
