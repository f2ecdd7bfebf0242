"""Blind eigenvalue-based SNR estimation.

Delay-embeds the samples into an L x N matrix, splits signal from noise
eigenvalues with the MDL criterion, fits the noise variance by matching the
empirical noise-eigenvalue CDF against the Marchenko-Pastur CDF over a
candidate grid, and reports the SNR in dB. A small particle-swarm search
tunes the (L, K) hyperparameters.

`estimate_snr` takes a length-n vector or an (R, n) row block, as
`SensingMatrix.matvec` and the detectors do. Each row's L x L covariance
is built from one row of lag products and the sliding-window recursion down
its diagonals (`_covariance`), not from L^2 full-length products. A block's
rows share one stacked `eigvalsh` and one MDL split, then one `mp_fit` call
per model order among its rows; each row's estimate equals, bit for bit,
the vector call on that row. The noise fit scores all its candidate
variances from where the eigenvalues cross their supports, picks the best
score, and reports its square root as the fit's distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signals import _integer, _samples

__all__ = [
    "SnrEstimate",
    "estimate_snr",
    "mdl_order",
    "mp_fit",
    "pso_tune",
]

SNR_FLOOR_DB = -40.0
MP_GRID_POINTS = 256
# the largest sample count N that mdl_order and mp_fit take: it keeps the
# noise fit's q = (L - M_hat)/N at 2**-53 or more (see _crossings)
MAX_N = 2**53


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


def _delay_embed(rows: np.ndarray, L: int) -> np.ndarray:
    """(R, L, n - L + 1) view: row i of block r holds row r delayed by i.

    `_covariance` takes only its first row of lag products on it, with
    `np.einsum`, which calls no BLAS routine and so rounds the same way
    whatever the BLAS thread count.
    """
    return np.lib.stride_tricks.sliding_window_view(rows, rows.shape[-1] - L + 1, axis=-1)


def _total_powers(rows: np.ndarray, L: int) -> np.ndarray:
    """Mean |X|^2 of each row's L-row delay matrix X: (R,) from (R, n) rows.

    Sample t lies in min(t + 1, L, n - t) of the L windows, so the mean is
    the window-count-weighted sum of |s_t|^2 over L n_eff, n_eff = n - L + 1,
    which is trace(C)/L of the covariance C in exact arithmetic. A sum of
    nonnegative terms, it overflows to inf and never computes inf - inf.
    |s_t|^2 is `np.abs` squared in place: one real (R, n) temporary, where
    s_t conj(s_t) would make complex ones for complex rows.
    """
    n = rows.shape[-1]
    t = np.arange(n)
    windows = np.minimum(np.minimum(t + 1, n - t), L).astype(float)
    squares = np.abs(rows)
    np.square(squares, out=squares)
    return np.einsum("rt,t->r", squares, windows) / (L * (n - L + 1))


def _covariance(rows: np.ndarray, L: int) -> np.ndarray:
    """(R, L, L) covariances C = X X^H / n_eff of each row's delay matrix X.

    C[i, j] = sum_t s[i + t] conj(s[j + t]) / n_eff over the n_eff = n - L + 1
    windows. Only the first row, C[0, d] = sum_t s[t] conj(s[t + d]), is a
    product over the windows: R L n_eff multiply-adds, not R L^2 n_eff. Each
    step down a diagonal slides the window by one sample,
        C[i + 1, i + 1 + d] = C[i, i + d]
            + (s[i + n_eff] conj(s[i + d + n_eff]) - s[i] conj(s[i + d])) / n_eff,
    so one cumsum over the L(L - 1)/2 corrections fills the upper triangle,
    and the lower one is its conjugate. Entry (k, k + d) times n_eff is a sum
    of n_eff + 2k products, each rounded once (twice in each part when
    complex), and each goes through at most n_eff + k additions; with the
    division it is off by at most sqrt(2) gamma_{n_eff + L + 3} times the sum
    of those products' magnitudes (Higham 2002, sections 3.1 and 3.6). Every
    row is computed on its own, so a block's rows equal the one-row calls bit
    for bit.
    """
    R, n = rows.shape
    n_eff = n - L + 1
    # lags[r, k, d] = n_eff C[k, k + d], summed down axis 1; the entries with
    # k + d >= L are never read
    lags = np.zeros((R, L, L), dtype=rows.dtype)
    lags[:, 0] = np.einsum("rdt,rt->rd", _delay_embed(rows.conj(), L), rows[:, :n_eff])
    head, tail = rows[:, :L - 1], rows[:, n_eff:]
    i, m = np.triu_indices(L - 1)
    lags[:, i + 1, m - i] = tail[:, i] * tail[:, m].conj() - head[:, i] * head[:, m].conj()
    np.cumsum(lags, axis=1, out=lags)
    lags /= n_eff
    k, j = np.triu_indices(L)
    cov = np.empty_like(lags)
    cov[:, j, k] = lags[:, k, j - k].conj()
    cov[:, k, j] = lags[:, k, j - k]
    return cov


def mdl_order(eigenvalues: np.ndarray, L: int, N: int) -> int | np.ndarray:
    """Minimum-description-length split between signal and noise eigenvalues.

    M_hat = argmin over 0 <= M <= L-1 of
        -(L - M) N log(theta(M)/phi(M)) + 0.5 M (2L - M) log N
    with theta/phi the geometric/arithmetic means of the tail
    eigenvalues M+1..L. Zero tail entries are regularized by +1e-15.
    Takes a vector of L descending eigenvalues and returns an int, or an
    (R, L) block of eigenvalue rows and returns one order per row as an
    int array; each row's order equals the vector call on it.
    Raises ValueError on non-finite, negative or unsorted eigenvalues, on a
    non-integer L or N, and unless L <= N <= MAX_N (2**53).
    """
    L, N = _integer("L", L), _integer("N", N)
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] != L:
        raise ValueError("need exactly L eigenvalues, as a vector or one row each")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(lam) > 1e-12 * np.maximum(1.0, lam[..., :1])):
        raise ValueError("eigenvalues must be sorted descending")
    if not L <= N <= MAX_N:
        raise ValueError(f"need L <= N <= 2**53, got L={L}, N={N}")
    lam = lam + 1e-15
    m = np.arange(L)
    count = L - m  # tail sizes
    theta = np.exp(np.cumsum(np.log(lam)[..., ::-1], axis=-1)[..., ::-1] / count)
    phi = np.cumsum(lam[..., ::-1], axis=-1)[..., ::-1] / count
    # count * N in floats: it rounds as the int64 product converts, and
    # cannot wrap around where a large L times N passes 2**63
    val = -count * float(N) * np.log(theta / phi) + 0.5 * m * (2 * L - m) * math.log(N)
    order = np.argmin(val, axis=-1)
    return int(order) if lam.ndim == 1 else order


def _linspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(start[r], stop[r], num) for each r, bit for bit, unless a
    row's step (stop[r] - start[r])/(num - 1) underflows to zero across a
    span of nonzero width, where np.linspace divides before it multiplies;
    `mp_fit` rejects such a grid. np.linspace on arrays of endpoints is not:
    as soon as one row's step is zero, it takes that formula on every row.
    """
    y = np.arange(num, dtype=float) * ((stop - start) / (num - 1))[:, None]
    y += start[:, None]
    y[:, -1] = stop
    return y


def _mp_support(grid: np.ndarray, q: float) -> np.ndarray:
    """256-point Marchenko-Pastur supports for ratio q, one row per variance in grid.

    Row k spans [pi_k (1 - sqrt(q))^2, pi_k (1 + sqrt(q))^2] in equal steps.
    """
    return _linspace_rows(grid * (1.0 - math.sqrt(q)) ** 2, grid * (1.0 + math.sqrt(q)) ** 2,
                          MP_GRID_POINTS)


def _mp_unit_cdf(q: float) -> np.ndarray:
    """Unit-variance Marchenko-Pastur CDF for ratio q in (0, 1) on its 256-point support.

    The cumulative trapezoid rule over the density, from 0 at the left edge.
    The law is a scale family, so this one row is also the CDF of variance
    pi at the support scaled by pi, apart from rounding. For q >= 2**-53 it
    stays in [0, 1].
    """
    v = _mp_support(np.ones(1), q)[0]
    lo, hi = v[0], v[-1]
    dens = np.sqrt(np.clip((v - lo) * (hi - v), 0.0, None)) / (2.0 * math.pi * q * v)
    cdf = np.zeros_like(dens)
    cdf[1:] = np.cumsum(np.diff(v) * (dens[1:] + dens[:-1]) / 2.0)
    return cdf


@functools.lru_cache(maxsize=256)
def _mp_unit_table(q: float) -> tuple[np.ndarray, np.ndarray, float]:
    """What `mp_fit` needs of the unit CDF u = `_mp_unit_cdf(q)`, cached per q:
    a shape (L, N) has only L values of q, one per model order.

    Returns u, its prefix sums C1[b] = u[0] + ... + u[b-1], b = 0 .. 256
    (both read-only), and the constant 255 + sum(u**2) - 2 C1[255] of
    `_run_scores`.
    """
    u = _mp_unit_cdf(q)
    c1 = np.zeros(MP_GRID_POINTS + 1)
    np.cumsum(u, out=c1[1:])
    u.flags.writeable = c1.flags.writeable = False
    return u, c1, MP_GRID_POINTS - 1 + float(u @ u) - 2.0 * c1[-2]


def _crossings(
    sorted_eigs: np.ndarray, grid: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Where each row's ascending eigenvalues cross the `_mp_support` points
    of that row's K candidate variances in grid, without building a support.

    Returns (p, top). p[r, j, k] counts the first 255 points of candidate k's
    support that lie below eigenvalue j of row r, so the empirical CDF at
    point i < 255 is the count of j with p[r, j, k] <= i, over M. top[r, k]
    is the CDF at the last point, hi, counted directly, as rounding can put
    hi below the point before it.

    The first 255 points, i * step + lo, are nondecreasing in i. Each count
    is estimated as t = ceil((e - lo)/step), which is right where point t - 1
    lies below e and point t does not, both computed as `_mp_support`
    computes them; elsewhere it is off by one and moved toward the crossing.
    With q >= 1/MAX_N the step is so far above the rounding of lo that the
    estimate is never off by more.
    """
    M = sorted_eigs.shape[-1]
    last = MP_GRID_POINTS - 1
    # (R, M, K) arrays: eigenvalue j of row r against candidate k
    lo = (grid * (1.0 - math.sqrt(q)) ** 2)[:, None, :]
    hi = (grid * (1.0 + math.sqrt(q)) ** 2)[:, None, :]
    step = (hi - lo) / last
    e = sorted_eigs[:, :, None]
    # a zero variance has a zero step, and an eigenvalue far above a small
    # candidate's support overflows the quotient; fmax takes the 0/0 NaN to 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = e - lo
        t /= step
    np.ceil(t, out=t)
    np.fmin(np.fmax(t, 0.0, out=t), last, out=t)

    def below(i):
        # points before the first lie below every eigenvalue, and points
        # from the last one on above it
        return (i < 0) | ((i < last) & (i * step + lo < e))

    p = (t - 1 + below(t - 1) + below(t)).astype(np.intp)
    top = np.count_nonzero(e <= hi, axis=1) / M
    return p, top


def _run_scores(p: np.ndarray, top: np.ndarray, q: float) -> np.ndarray:
    """Each candidate's squared CDF distance, sum_i (emp_i - u_i)^2, in O(M)
    from its crossing counts, with no CDF built: an (R, K) array.

    The empirical CDF is a run of levels: 0 on points [0, p_0), j/M on
    [p_{j-1}, p_j) and 1 on [p_{M-1}, 255), then top at point 255. Over the
    runs, emp^2 sums to 255 - sum_j (2j + 1) p_j / M^2 and emp * u to
    C1[255] - sum_j C1[p_j] / M (summation by parts), so the distance is
        255 + sum(u^2) - 2 C1[255] + top (top - 2 u_255)
            + (2M sum_j C1[p_j] - sum_j (2j + 1) p_j) / M^2.
    It is within a rounding bound delta_M = (M + 8) 256 gamma_256 of the
    squared distance of the 256-point CDF built point by point (derived in
    the tests), and can round below 0 where that distance is near 0.
    """
    u, c1, base = _mp_unit_table(q)
    M = p.shape[1]
    # the weighted count is an exact integer
    weighted = (2 * np.arange(M) + 1) @ p
    return base + top * (top - 2.0 * u[-1]) + (2.0 * M * c1[p].sum(axis=1) - weighted) / M**2


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
    one unit-variance CDF per call serves every candidate. Each candidate is
    scored in O(M) from the runs of its empirical CDF (`_run_scores`), its
    squared l2 distance from the MP CDF; no CDF is built. The fit returns
    the first score argmin and, as its goodness, the square root of that
    score (clamped at 0), so the winner is the argmin of the distance it
    reports. A zero candidate variance has no law and scores inf; when
    every candidate is zero (all-zero eigenvalues) the result is (0.0, inf).

    Takes a vector of descending noise eigenvalues and returns two floats,
    or an (R, M) block of such rows, which share M_hat, and returns two
    arrays of R; each row's fit equals the vector call on it bit for bit.
    Raises ValueError on non-finite or negative eigenvalues, on eigenvalues
    so large that a candidate's support overflows, on a non-integer L, N,
    M_hat or K, unless 0 <= M_hat < L, and on N > MAX_N (2**53), which
    keeps q >= 2**-53. Raises ValueError, too, on eigenvalues so small that
    a step underflows: a nonzero candidate's support step (hi - lo)/255
    that is subnormal or zero (subnormal tails), or a zero grid step
    (sigma_hi - sigma_lo)/(K - 1) across a bracket of nonzero width.
    """
    L, N = _integer("L", L), _integer("N", N)
    if N > MAX_N:
        raise ValueError(f"need N <= 2**53, got N={N}")
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
    span = sigma_hi - sigma_lo
    grid = _linspace_rows(sigma_lo, sigma_hi, K)
    # each candidate's support step, as `_crossings` takes it
    step = (grid * (1.0 + math.sqrt(q)) ** 2 - grid * (1.0 - math.sqrt(q)) ** 2) / (
        MP_GRID_POINTS - 1)
    if (np.any((step < np.finfo(float).tiny) & (grid > 0.0))
            or np.any((span / (K - 1) == 0.0) & (span > 0.0))):
        raise ValueError("noise_eigs too small for c and K: a candidate's support "
                         "step or the candidate grid's step underflows")
    p, at_hi = _crossings(np.sort(rows, axis=-1), grid, q)
    score = _run_scores(p, at_hi, q)
    score[grid == 0.0] = math.inf
    r = np.arange(len(rows))
    best = np.argmin(score, axis=-1)
    fitted = grid[r, best]
    goodness = np.sqrt(np.maximum(score[r, best], 0.0))
    if eigs.ndim == 1:
        return float(fitted[0]), float(goodness[0])
    return fitted, goodness


def estimate_snr(samples, L: int = 10, K: int = 50) -> SnrEstimate | list[SnrEstimate]:
    """Blind SNR estimate from the eigenvalues of the delay-embedded covariance.

    Takes the L-row delay matrix X of the samples, with N = n - L + 1
    windows, and its covariance (1/N) X X^H, built from the first row of lag
    products and the sliding-window recursion (`_covariance`). Splits the
    covariance's descending eigenvalues with MDL, fits the noise variance by
    the Marchenko-Pastur CDF match, and returns
    gamma_hat = (P_total - sigma_z^2) / sigma_z^2 in dB, where P_total, the
    mean of |X|^2, is the window-weighted mean of |s|^2 (`_total_powers`).
    Noise-only inputs clamp to the -40 dB floor with the `clamped` flag set.

    Takes a length-n vector and returns one SnrEstimate, or an (R, n) row
    block and returns a list of R, one per row; each equals the vector call
    on its row in every field, bit for bit. A block makes one stacked
    `eigvalsh` and one `mdl_order` call, then one `mp_fit` call per distinct
    model order, on the block of rows that share it. Samples are computed on
    as float64, or complex128 when complex. Raises ValueError on a
    non-integer L or K, on n < 2L, on non-finite or zero-power samples, on
    eigenvalues that `mp_fit` rejects (samples so small that a step of the
    fit underflows, such as 1e-160 times unit noise) and on a zero noise
    fit (a lone impulse). A block checks every row's power first, in row
    order, then fits each model order, then checks for zero fits in row
    order, and raises at the first failure.
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
    n_eff = rows.shape[-1] - L + 1
    # every power is checked before a lag product is taken: each lag sum and
    # correction of `_covariance` is at most L n_eff times the power, up to
    # rounding, so none overflows to make an inf - inf
    powers = _total_powers(rows, L).tolist()
    for total_power in powers:
        if not 0.0 < total_power < math.inf:  # squares that overflow, or all zero
            raise ValueError(
                f"samples must be finite with nonzero power, got {total_power}")
    eigs = np.clip(np.linalg.eigvalsh(_covariance(rows, L))[:, ::-1], 0.0, None)
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
    index order. Takes a vector of finite samples, not a block. Raises
    ValueError on other samples, infeasible bounds, swarm < 2, iters < 1 and
    a non-finite true_snr_db.
    """
    samples = _samples(samples, block=False)
    lo = np.array([L_bounds[0], K_bounds[0]], dtype=float)
    hi = np.array([L_bounds[1], K_bounds[1]], dtype=float)
    if np.any(hi < lo):
        raise ValueError("infeasible bounds")
    if swarm < 2:
        raise ValueError("swarm must be >= 2")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if true_snr_db is not None and not math.isfinite(true_snr_db):
        raise ValueError(f"true_snr_db must be finite, got {true_snr_db}")

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
