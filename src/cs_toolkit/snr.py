"""Blind eigenvalue-based SNR estimation.

Delay-embeds the samples into an L x N matrix, splits signal from noise
eigenvalues with the MDL criterion, fits the noise variance by matching the
empirical noise-eigenvalue CDF against the Marchenko-Pastur CDF over a
candidate grid, and reports the SNR in dB. A small particle-swarm search
tunes the (L, K) hyperparameters.

`estimate_snr` takes a length-n vector or an (R, n) row block, as
`SensingMatrix.matvec` and the detectors do. A block's rows share one
stacked covariance product, one stacked `eigvalsh` and one MDL split, then
one `mp_fit` call per model order among its rows; each row's estimate
equals, bit for bit, the vector call on that row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signals import _finite_vector, _samples

__all__ = [
    "SnrEstimate",
    "estimate_snr",
    "mdl_order",
    "mp_fit",
    "pso_tune",
]

SNR_FLOOR_DB = -40.0
MP_GRID_POINTS = 256
# rows per pass of a block noise fit, which bounds the pass's (rows, K, 256)
# temporaries: 1.6 MB each at the scan's K = 50
_FIT_CHUNK_ROWS = 16


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


def _integer(name: str, value) -> int:
    """value as an int; ValueError unless it is a Python or numpy integer."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _delay_embed(rows: np.ndarray, L: int) -> np.ndarray:
    """(R, L, n - L + 1) view: row i of block r holds row r delayed by i.

    The view is not BLAS-strided, so a product on it takes numpy's own
    matmul loop, as each row's product alone does; a contiguous copy would
    go through BLAS and round differently.
    """
    return np.lib.stride_tricks.sliding_window_view(rows, rows.shape[-1] - L + 1, axis=-1)


def mdl_order(eigenvalues: np.ndarray, L: int, N: int) -> int | np.ndarray:
    """Minimum-description-length split between signal and noise eigenvalues.

    M_hat = argmin over 0 <= M <= L-1 of
        -(L - M) N log(theta(M)/phi(M)) + 0.5 M (2L - M) log N
    with theta/phi the geometric/arithmetic means of the tail
    eigenvalues M+1..L. Zero tail entries are regularized by +1e-15.
    Takes a vector of L descending eigenvalues and returns an int, or an
    (R, L) block of eigenvalue rows and returns one order per row as an
    int array; each row's order equals the vector call on it.
    """
    L, N = _integer("L", L), _integer("N", N)
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] != L:
        raise ValueError("need exactly L eigenvalues, as a vector or one row each")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(lam) > 1e-12 * np.maximum(1.0, lam[..., :1])):
        raise ValueError("eigenvalues must be sorted descending")
    if N < L:
        raise ValueError("need N >= L")
    lam = lam + 1e-15
    m = np.arange(L)
    count = L - m  # tail sizes
    theta = np.exp(np.cumsum(np.log(lam)[..., ::-1], axis=-1)[..., ::-1] / count)
    phi = np.cumsum(lam[..., ::-1], axis=-1)[..., ::-1] / count
    val = -count * N * np.log(theta / phi) + 0.5 * m * (2 * L - m) * math.log(N)
    order = np.argmin(val, axis=-1)
    return int(order) if lam.ndim == 1 else order


def _mp_support(grid: np.ndarray, q: float) -> np.ndarray:
    """256-point Marchenko-Pastur supports for ratio q, one row per variance in grid.

    Row k spans [pi_k (1 - sqrt(q))^2, pi_k (1 + sqrt(q))^2] in equal steps.
    """
    pi_k = grid[:, None]
    lo = pi_k * (1.0 - math.sqrt(q)) ** 2
    hi = pi_k * (1.0 + math.sqrt(q)) ** 2
    # np.linspace on each row alone, bit for bit, unless a subnormal variance
    # underflows the step to zero; on all rows at once it is not, as one
    # zero-width row switches every row to another formula
    v = np.arange(MP_GRID_POINTS) * ((hi - lo) / (MP_GRID_POINTS - 1)) + lo
    v[:, -1:] = hi
    return v


@functools.lru_cache(maxsize=256)
def _mp_unit_cdf(q: float) -> np.ndarray:
    """Unit-variance Marchenko-Pastur CDF for ratio q in (0, 1) on its 256-point support.

    The cumulative trapezoid rule over the density, from 0 at the left edge.
    The law is a scale family, so this one row is also the CDF of variance
    pi at the support scaled by pi, apart from rounding. Cached per q: a
    shape (L, N) has only L values of q, one per model order. The cached
    array is read-only.
    """
    v = _mp_support(np.ones(1), q)[0]
    lo, hi = v[0], v[-1]
    dens = np.sqrt(np.clip((v - lo) * (hi - v), 0.0, None)) / (2.0 * math.pi * q * v)
    cdf = np.zeros_like(dens)
    cdf[1:] = np.cumsum(np.diff(v) * (dens[1:] + dens[:-1]) / 2.0)
    cdf.flags.writeable = False
    return cdf


def _linspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(start[r], stop[r], num) for each r, bit for bit.

    np.linspace on arrays of endpoints is not: as soon as one row's step
    underflows to zero (a subnormal span), it divides before multiplying on
    every row, which rounds the other rows differently.
    """
    delta = stop - start
    step = delta / (num - 1)
    i = np.arange(num, dtype=float)
    y = i * step[:, None]
    zero = step == 0.0
    if zero.any():
        y[zero] = (i / (num - 1)) * delta[zero, None]
    y += start[:, None]
    y[:, -1] = stop
    return y


def _empirical_cdfs(sorted_eigs: np.ndarray, grid: np.ndarray, q: float) -> np.ndarray:
    """(R, K, 256) empirical CDFs of each row's ascending eigenvalues at the
    `_mp_support` points of that row's K candidate variances in grid.

    A support's first 255 points, i * step + lo, are nondecreasing in i, so
    the CDF there is a step function of i: with p_j of these points below
    eigenvalue e_j, the CDF at point i is the count of j with p_j <= i, over
    M. Each p_j is estimated as ceil((e_j - lo)/step), then corrected by at
    most one against the points next to the estimate, computed as
    `_mp_support` computes them; no support is built. The last point, hi, is
    counted directly, as rounding can put it below the point before it.
    """
    R, K = grid.shape
    M = sorted_eigs.shape[-1]
    last = MP_GRID_POINTS - 1
    # (R, M, K) arrays: eigenvalue j of row r against candidate k
    lo = (grid * (1.0 - math.sqrt(q)) ** 2)[:, None, :]
    hi = (grid * (1.0 + math.sqrt(q)) ** 2)[:, None, :]
    step = (hi - lo) / last
    e = sorted_eigs[:, :, None]
    # a subnormal variance can underflow the step to zero, or leave it so
    # small that the quotient overflows; fmax takes the 0/0 NaN to 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.ceil((e - lo) / step)
    t = np.fmin(np.fmax(t, 0.0), last)
    # whether points t-2 .. t+1 lie below e_j, where points before the first
    # lie below every eigenvalue and points from the last one on above it
    i = t + np.arange(-2.0, 2.0)[:, None, None, None]
    below = (i < 0) | ((i < last) & (i * step + lo < e))
    p = (t - 1 + below[1] + below[2]).astype(np.intp).transpose(0, 2, 1)
    # The binary search is kept for supports where the estimate is off by
    # more than one point: a step below the rounding of lo (a tiny q)
    # collapses the points onto a few values.
    exact = (below[0] & ~below[3]).all(axis=(1, 2))
    p[~exact] = 0
    runs = np.empty((R, K, M + 2), dtype=np.intp)
    runs[..., :M] = p
    runs[..., M] = last
    runs[..., 1:M + 1] -= p
    runs[..., M + 1] = 1
    levels = np.empty((R, K, M + 2))
    levels[..., :M + 1] = np.arange(M + 1) / M
    levels[..., M + 1] = np.count_nonzero(e <= hi, axis=1) / M
    emp = np.repeat(levels.ravel(), runs.ravel()).reshape(R, K, MP_GRID_POINTS)
    for r in np.flatnonzero(~exact):
        emp[r] = np.searchsorted(sorted_eigs[r], _mp_support(grid[r], q), side="right") / M
    return emp


def mp_fit(
    noise_eigs: np.ndarray, L: int, N: int, M_hat: int, K: int
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Fit the noise variance by CDF matching against the Marchenko-Pastur law.

    Candidate variances pi_k are K linearly spaced points spanning the
    eigenvalue bracket [lambda_L/(1-sqrt(c))^2, lambda_{M+1}/(1+sqrt(c))^2]
    with c = L/N. The endpoints are swapped when the bracket is inverted,
    which is routine: on a noise-only channel the extreme eigenvalues fall
    inside the Marchenko-Pastur edges, so the lower end lands above the
    upper one. For each candidate the empirical CDF of the noise eigenvalues,
    taken at 256 points spanning the candidate's MP support, is compared
    against the MP CDF at those points. The law with ratio
    q = (1 - M_hat/L) c is a scale family (Marchenko & Pastur 1967): scaling
    the variance by pi scales the support by pi and the density by 1/pi, so
    one unit-variance CDF per call serves every candidate. Returns the
    l2-distance argmin, the first of any ties, and its distance. A zero
    candidate variance has no law and gets distance inf; when every
    candidate is zero (all-zero eigenvalues) the result is (0.0, inf).

    Takes a vector of descending noise eigenvalues and returns two floats,
    or an (R, M) block of such rows, which share M_hat, and returns two
    arrays of R; each row's fit equals the vector call on it bit for bit.
    The empirical CDFs are counted from where the eigenvalues cross each
    support, without building the supports.
    Raises ValueError on non-finite or negative eigenvalues, on eigenvalues
    so large that a candidate's support overflows, on a non-integer L, N,
    M_hat or K, and unless 0 <= M_hat < L.
    """
    L, N = _integer("L", L), _integer("N", N)
    M_hat, K = _integer("M_hat", M_hat), _integer("K", K)
    eigs = np.asarray(noise_eigs, dtype=float)
    if eigs.ndim not in (1, 2):
        raise ValueError("noise_eigs must be a vector or one row each")
    if eigs.size < 1:
        raise ValueError("noise_eigs must be nonempty")
    if not np.all(np.isfinite(eigs)) or np.any(eigs < 0):
        raise ValueError("noise_eigs must be finite and nonnegative")
    if K < 2:
        raise ValueError("K must be >= 2")
    c = L / N
    if not 0.0 < c < 1.0:
        raise ValueError("need c = L/N in (0, 1)")
    if not 0 <= M_hat < L:
        raise ValueError(f"need 0 <= M_hat < L, got M_hat={M_hat}, L={L}")
    rows = eigs.reshape(-1, eigs.shape[-1])
    sq = math.sqrt(c)
    with np.errstate(over="ignore"):
        sigma_lo = rows[:, -1] / (1.0 - sq) ** 2
        sigma_hi = rows[:, 0] / (1.0 + sq) ** 2
        # the upper edge of the largest candidate's support
        top = np.maximum(sigma_lo, sigma_hi) * (1.0 + sq) ** 2
    if not np.all(np.isfinite(top)):
        raise ValueError("noise_eigs too large for c: the candidate supports overflow")
    inverted = sigma_lo > sigma_hi
    sigma_lo, sigma_hi = (np.where(inverted, sigma_hi, sigma_lo),
                          np.where(inverted, sigma_lo, sigma_hi))
    q = (1.0 - M_hat / L) * c
    unit_cdf = _mp_unit_cdf(q)
    sorted_eigs = np.sort(rows, axis=-1)
    fitted = np.empty(len(rows))
    goodness = np.empty(len(rows))
    for r in range(0, len(rows), _FIT_CHUNK_ROWS):
        chunk = slice(r, r + _FIT_CHUNK_ROWS)
        grid = _linspace_rows(sigma_lo[chunk], sigma_hi[chunk], K)
        d = _empirical_cdfs(sorted_eigs[chunk], grid, q)
        d -= unit_cdf
        # the stacked product rounds as np.linalg.norm does on each row; a sum
        # over the last axis rounds differently
        dist = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
        dist[grid == 0.0] = math.inf
        best = np.argmin(dist, axis=-1)
        fitted[chunk] = np.take_along_axis(grid, best[:, None], axis=-1)[:, 0]
        goodness[chunk] = np.take_along_axis(dist, best[:, None], axis=-1)[:, 0]
    if eigs.ndim == 1:
        return float(fitted[0]), float(goodness[0])
    return fitted, goodness


def estimate_snr(samples, L: int = 10, K: int = 50) -> SnrEstimate | list[SnrEstimate]:
    """Blind SNR estimate from the eigenvalues of the delay-embedded covariance.

    Builds the L-row delay matrix X, the covariance (1/N) X X^H, splits its
    descending eigenvalues with MDL, fits the noise variance by the
    Marchenko-Pastur CDF match, and returns
    gamma_hat = (P_total - sigma_z^2) / sigma_z^2 in dB. Noise-only inputs
    clamp to the -40 dB floor with the `clamped` flag set.

    Takes a length-n vector and returns one SnrEstimate, or an (R, n) row
    block and returns a list of R, one per row; each equals the vector call
    on its row in every field, bit for bit. A block makes one stacked
    covariance product, one stacked `eigvalsh` and one `mdl_order` call,
    then one `mp_fit` call per distinct model order, on the block of rows
    that share it. Samples are computed on as float64, or
    complex128 when complex. Raises ValueError on a non-integer L or K, on
    n < 2L, on non-finite or zero-power samples and on a zero noise fit (a
    lone impulse); in a block, on the first row that fails a check.
    """
    L, K = _integer("L", L), _integer("K", K)
    if L < 2:
        raise ValueError("L must be >= 2")
    if K < 2:
        raise ValueError("K must be >= 2")
    s = _samples(samples)
    if s.shape[-1] < 2 * L:
        raise ValueError("need a length-n vector or an (R, n) row block with n >= 2L, "
                         f"got shape {s.shape}")
    rows = s.reshape(-1, s.shape[-1])
    x = _delay_embed(rows, L)
    n_eff = x.shape[-1]
    # one row at a time: a whole block's |x|^2 would be an (R, L, n_eff) temporary
    if x.dtype.kind == "c":
        powers = [float(np.mean(np.abs(xr) ** 2)) for xr in x]
    else:
        powers = [float(np.mean(np.square(xr))) for xr in x]
    for total_power in powers:
        if not 0.0 < total_power < math.inf:  # squares that overflow, or all zero
            raise ValueError(
                f"samples must be finite with nonzero power, got {total_power}")
    # complex rows are conjugated before the windowing, so that no (R, L, n_eff)
    # copy is made; real windows are their own conjugate
    xh = _delay_embed(rows.conj(), L) if rows.dtype.kind == "c" else x
    cov = (x @ xh.transpose(0, 2, 1)) / n_eff
    eigs = np.clip(np.linalg.eigvalsh(cov)[:, ::-1], 0.0, None)
    m_hats = mdl_order(eigs, L, n_eff)
    sigma_hats = np.empty(len(rows))
    goodness = np.empty(len(rows))
    for m_hat in np.unique(m_hats).tolist():
        group = m_hats == m_hat
        sigma_hats[group], goodness[group] = mp_fit(eigs[group, m_hat:], L, n_eff, m_hat, K)
    estimates = []
    for total_power, m_hat, sigma_hat, fit in zip(
            powers, m_hats.tolist(), sigma_hats.tolist(), goodness.tolist()):
        if sigma_hat == 0.0:
            raise ValueError("the noise variance fits to zero: the samples have no noise")
        gamma = (total_power - sigma_hat) / sigma_hat
        if gamma <= 10.0 ** (SNR_FLOOR_DB / 10.0):
            snr_db, clamped = SNR_FLOOR_DB, True
        else:
            snr_db, clamped = 10.0 * math.log10(gamma), False
        estimates.append(SnrEstimate(
            snr_db=float(snr_db),
            noise_variance_hat=float(sigma_hat),
            total_power_hat=total_power,
            mdl_order_M=m_hat,
            smoothing_L=L,
            grid_K=K,
            goodness_D=fit,
            clamped=clamped,
        ))
    return estimates if s.ndim == 2 else estimates[0]


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
    index order. Takes a sample vector, not a block.
    """
    if _finite_vector(samples).ndim != 1:
        raise ValueError("pso_tune needs a 1-d sample vector")
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
