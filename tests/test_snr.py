"""Blind SNR estimation tests: MDL split, noise fit, swarm tuning."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from cs_toolkit.snr import SnrEstimate, estimate_snr, mdl_order, mp_fit, pso_tune

# the bracket swap is a routine advisory on tightly clustered eigenvalues
pytestmark = pytest.mark.filterwarnings("ignore:noise bracket inverted")


def mdl_oracle(lam, L, N):
    """Literal criterion evaluation, scanning all split points."""
    lam = np.asarray(lam, dtype=float) + 1e-15
    log_n = math.log(N)
    values = []
    for m in range(L):
        tail = lam[m:]
        theta = math.exp(float(np.mean(np.log(tail))))
        phi = float(np.mean(tail))
        values.append(-(L - m) * N * math.log(theta / phi)
                      + 0.5 * m * (2 * L - m) * log_n)
    return int(np.argmin(values))


def random_descending_eigs(rng, L):
    return np.sort(rng.gamma(shape=2.0, scale=1.0, size=L))[::-1]


def test_mdl_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(200):
        L = int(rng.integers(3, 16))
        N = int(rng.integers(L, 5000))
        eigs = random_descending_eigs(rng, L)
        assert mdl_order(eigs, L, N) == mdl_oracle(eigs, L, N)


def test_mdl_flat_spectrum_reports_no_signal():
    assert mdl_order(np.ones(8), 8, 1000) == 0


def test_mdl_strong_component_detected():
    eigs = np.array([50.0, 1.02, 1.01, 1.0, 0.99, 0.98])
    assert mdl_order(eigs, 6, 2000) == 1


def test_mdl_validation():
    with pytest.raises(ValueError):
        mdl_order(np.array([1.0, 2.0, 3.0]), 3, 100)  # ascending
    with pytest.raises(ValueError):
        mdl_order(np.array([3.0, 2.0, -1.0]), 3, 100)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            mdl_order(np.array([bad, 2.0, 1.0]), 3, 100)
    with pytest.raises(ValueError):
        mdl_order(np.ones(3), 4, 100)
    with pytest.raises(ValueError):
        mdl_order(np.ones(3), 3, 2)


def test_mp_fit_recovers_known_noise_variance():
    rng = np.random.default_rng(1)
    L, N, sigma2 = 10, 5000, 2.0
    x = rng.standard_normal((L, N)) * math.sqrt(sigma2)
    eigs = np.linalg.eigvalsh((x @ x.T) / N)[::-1]
    fitted, goodness = mp_fit(eigs, L, N, M_hat=0, K=50)
    assert fitted == pytest.approx(sigma2, rel=0.1)
    assert goodness >= 0.0


def test_mp_fit_inverted_bracket_warns_and_recovers():
    with pytest.warns(RuntimeWarning, match="bracket inverted"):
        fitted, _ = mp_fit(np.ones(10), 10, 100, M_hat=0, K=10)
    assert 0.5 < fitted < 2.2


def mp_fit_oracle(noise_eigs, L, N, M_hat, K):
    """The noise fit as one candidate at a time: a 256-point support and CDF
    per candidate, its distance by np.linalg.norm, strict improvement only."""
    eigs = np.asarray(noise_eigs, dtype=float)
    c = L / N
    sq = math.sqrt(c)
    sigma_lo = float(eigs[-1]) / (1.0 - sq) ** 2
    sigma_hi = float(eigs[0]) / (1.0 + sq) ** 2
    if sigma_lo > sigma_hi:
        sigma_lo, sigma_hi = sigma_hi, sigma_lo
    q = (1.0 - M_hat / L) * c
    sorted_eigs = np.sort(eigs)
    best_pi, best_d = None, math.inf
    grid = np.linspace(sigma_lo, sigma_hi, K)
    for pi_k in grid:
        pi_k = float(pi_k)
        lo = pi_k * (1.0 - math.sqrt(q)) ** 2
        hi = pi_k * (1.0 + math.sqrt(q)) ** 2
        v = np.linspace(lo, hi, 256)
        inner = np.clip((v - lo) * (hi - v), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.sqrt(inner) / (2.0 * math.pi * pi_k * q * np.maximum(v, 1e-300))
        mp_cdf = np.concatenate([[0.0], cumulative_trapezoid(dens, v)])
        emp_cdf = np.searchsorted(sorted_eigs, v, side="right") / eigs.size
        d = float(np.linalg.norm(emp_cdf - mp_cdf))
        if d < best_d:
            best_pi, best_d = pi_k, d
    return (float(grid[0]) if best_pi is None else best_pi), best_d


@st.composite
def descending_spectra(draw):
    """Sorted-descending eigenvalues, L in [2, 20], with a zero tail of any length."""
    L = draw(st.integers(2, 20))
    lam = np.sort(draw(st.lists(st.floats(1e-6, 1e3), min_size=L, max_size=L)))[::-1]
    lam[L - draw(st.integers(0, L)):] = 0.0
    return lam


@settings(max_examples=60, deadline=None)
@given(lam=descending_spectra(), n_extra=st.integers(1, 5000), K=st.integers(2, 80))
@example(lam=np.ones(6), n_extra=94, K=10)  # flat spectrum: inverted bracket
@example(lam=np.array([4.0, 2.0, 1.0, 0.0, 0.0]), n_extra=200, K=30)  # a NaN row
@example(lam=np.zeros(4), n_extra=50, K=5)  # every distance NaN
def test_noise_fit_and_split_equal_loop_oracles(lam, n_extra, K):
    L = lam.size
    N = L + n_extra
    assert mdl_order(lam, L, N) == mdl_oracle(lam, L, N)
    for m_hat in range(L):
        assert mp_fit(lam[m_hat:], L, N, m_hat, K) == mp_fit_oracle(
            lam[m_hat:], L, N, m_hat, K)


def test_mp_fit_skips_nan_distances():
    # a zero smallest eigenvalue puts a zero-variance candidate first, whose
    # Marchenko-Pastur density is 0/0
    fitted, goodness = mp_fit(np.array([4.0, 2.0, 1.0, 0.0]), 6, 200, M_hat=2, K=30)
    assert fitted > 0.0 and math.isfinite(goodness)
    assert mp_fit(np.zeros(4), 4, 100, M_hat=0, K=5) == (0.0, math.inf)


def test_mp_fit_validation():
    with pytest.raises(ValueError):
        mp_fit(np.array([]), 10, 100, 0, 10)
    with pytest.raises(ValueError):
        mp_fit(np.ones(5), 10, 100, 0, 1)
    with pytest.raises(ValueError):
        mp_fit(np.ones(5), 10, 5, 0, 10)  # c = L/N not in (0, 1)


def sinusoid_plus_noise(snr_db, n, seed):
    rng = np.random.default_rng(seed)
    amp = 10.0 ** (snr_db / 20.0) * math.sqrt(2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    freq = rng.uniform(0.05, 0.45)
    t = np.arange(n)
    return amp * np.cos(2.0 * math.pi * freq * t + phase) + rng.standard_normal(n)


def test_estimate_snr_accuracy_median():
    errors = []
    for seed in range(7):
        x = sinusoid_plus_noise(5.0, 5000, seed)
        est = estimate_snr(x, L=10, K=50)
        errors.append(abs(est.snr_db - 5.0))
        assert est.mdl_order_M >= 1  # the tone must register as signal
    assert float(np.median(errors)) <= 1.5


def test_estimate_snr_noise_only_clamps():
    rng = np.random.default_rng(3)
    est = estimate_snr(rng.standard_normal(4000), L=10, K=50)
    if est.clamped:
        assert est.snr_db == -40.0
    else:
        assert est.snr_db < -10.0  # blind estimate of pure noise stays low


def test_estimate_snr_deterministic():
    x = sinusoid_plus_noise(0.0, 3000, seed=4)
    a = estimate_snr(x, L=10, K=50)
    b = estimate_snr(x, L=10, K=50)
    assert a == b
    assert isinstance(a, SnrEstimate)
    assert a.smoothing_L == 10 and a.grid_K == 50


# float.hex of the estimates the one-candidate-at-a-time fit gave (numpy 2.4,
# scipy 1.17, OpenBLAS); another LAPACK build may move the eigenvalues' last
# bits and so these
PINNED = [
    (lambda: sinusoid_plus_noise(5.0, 3072, seed=21), 10, 50,
     ("0x1.48efbb1e7927ep+2", "0x1.f833901808903p-1", "0x1.0cd71db8a27cbp+2",
      "0x1.73eac3671f0f7p+0", 2, False)),
    (lambda: sinusoid_plus_noise(-5.0, 1000, seed=22), 8, 30,
     ("-0x1.18838ed289b4bp+2", "0x1.02d51f2ca1d3fp+0", "0x1.612d45dfdc784p+0",
      "0x1.8e77f45d9ea87p+0", 2, False)),
    (lambda: np.random.default_rng(23).standard_normal(3072), 10, 50,
     ("-0x1.4000000000000p+5", "0x1.0b76685d59211p+0", "0x1.0052057a170b0p+0",
      "0x1.00ba63581d6ebp+2", 0, True)),
]


@pytest.mark.parametrize("make, L, K, expected", PINNED)
def test_estimate_snr_pinned_bits(make, L, K, expected):
    est = estimate_snr(make(), L=L, K=K)
    assert (est.snr_db.hex(), est.noise_variance_hat.hex(),
            est.total_power_hat.hex(), est.goodness_D.hex(),
            est.mdl_order_M, est.clamped) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("samples, match", [
    (np.zeros(100), "power"),
    (np.full(100, 1e-200), "power"),  # squares underflow to zero
    (np.full(100, 1e200), "power"),  # squares overflow
    (np.r_[np.ones(50), math.nan, np.ones(49)], "finite"),
    (np.r_[np.ones(50), math.inf, np.ones(49)], "finite"),
    (np.r_[1.0, np.zeros(99)], "no noise"),  # a lone impulse: zero noise fit
])
def test_estimate_snr_rejects_degenerate_samples(samples, match):
    with pytest.raises(ValueError, match=match):
        estimate_snr(samples)


def test_estimate_snr_validation():
    with pytest.raises(ValueError):
        estimate_snr(np.ones(100), L=1)
    with pytest.raises(ValueError):
        estimate_snr(np.ones(100), K=1)
    with pytest.raises(ValueError):
        estimate_snr(np.ones(10), L=10)


def test_pso_deterministic_and_bounded():
    x = sinusoid_plus_noise(5.0, 2000, seed=5)
    a = pso_tune(x, (4, 16), (20, 60), swarm=6, iters=8, seed=9)
    b = pso_tune(x, (4, 16), (20, 60), swarm=6, iters=8, seed=9)
    assert a == b
    l_star, k_star, fit = a
    assert 4 <= l_star <= 16
    assert 20 <= k_star <= 60
    assert fit >= 0.0


def test_pso_supervised_fitness_consistent():
    x = sinusoid_plus_noise(5.0, 2000, seed=6)
    l_star, k_star, fit = pso_tune(x, (4, 16), (30, 30), swarm=6, iters=8,
                                   seed=10, true_snr_db=5.0)
    est = estimate_snr(x, L=l_star, K=k_star)
    assert fit == pytest.approx(abs(est.snr_db - 5.0), rel=1e-12)


def test_pso_matches_grid_search_on_small_grid():
    # swarm bounded to the same five integer candidates the grid search scans
    grid_l = (4, 5, 6, 7, 8)
    hits = 0
    for seed in range(10):
        x = sinusoid_plus_noise(5.0, 2000, seed=100 + seed)
        best_l = min(grid_l,
                     key=lambda L: abs(estimate_snr(x, L=L, K=40).snr_db - 5.0))
        l_star, _, _ = pso_tune(x, (4, 8), (40, 40), swarm=8, iters=12,
                                seed=seed, true_snr_db=5.0)
        hits += int(l_star == best_l)
    assert hits >= 8


def test_pso_validation():
    x = sinusoid_plus_noise(0.0, 500, seed=7)
    with pytest.raises(ValueError):
        pso_tune(x, (10, 4), (20, 60))
    with pytest.raises(ValueError):
        pso_tune(x, (4, 10), (20, 60), swarm=1)
    with pytest.raises(ValueError):
        pso_tune(x, (4, 10), (20, 60), iters=0)
