"""Blind SNR estimation tests: MDL split, noise fit, swarm tuning."""

import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from cs_toolkit import snr
from cs_toolkit.snr import (
    SnrEstimate,
    _mp_support,
    _mp_unit_cdf,
    estimate_snr,
    mdl_order,
    mp_fit,
    pso_tune,
)


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
    for L, N in ((3.0, 100), (3, 100.5), (3, 100.0)):
        with pytest.raises(ValueError, match="integer"):
            mdl_order(np.ones(3), L, N)
    for bad in (np.ones((2, 2, 3)), np.ones((2, 4)), np.float64(1.0)):
        with pytest.raises(ValueError, match="L eigenvalues"):
            mdl_order(bad, 3, 100)
    with pytest.raises(ValueError, match="descending"):
        mdl_order(np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]]), 3, 100)


def test_mdl_block_equals_row_calls_and_oracle():
    rng = np.random.default_rng(8)
    L, N = 9, 700
    block = np.array([random_descending_eigs(rng, L) for _ in range(40)])
    block[0] = 1.0  # flat: no signal
    block[1, 4:] = 0.0  # a zero tail
    orders = mdl_order(block, L, N)
    assert orders.shape == (40,)
    assert orders.tolist() == [mdl_order(row, L, N) for row in block]
    assert orders.tolist() == [mdl_oracle(row, L, N) for row in block]
    assert len(set(orders.tolist())) > 1


def test_mp_fit_recovers_known_noise_variance():
    rng = np.random.default_rng(1)
    L, N, sigma2 = 10, 5000, 2.0
    x = rng.standard_normal((L, N)) * math.sqrt(sigma2)
    eigs = np.linalg.eigvalsh((x @ x.T) / N)[::-1]
    fitted, goodness = mp_fit(eigs, L, N, M_hat=0, K=50)
    assert fitted == pytest.approx(sigma2, rel=0.1)
    assert goodness >= 0.0


def test_mp_fit_inverted_bracket_recovers():
    # an inverted bracket is routine on a noise-only channel: swap silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted, _ = mp_fit(np.ones(10), 10, 100, M_hat=0, K=10)
    assert 0.5 < fitted < 2.2


def noise_bracket_grid(eigs, L, N, K):
    c = L / N
    sigma_lo = float(eigs[-1]) / (1.0 - math.sqrt(c)) ** 2
    sigma_hi = float(eigs[0]) / (1.0 + math.sqrt(c)) ** 2
    if sigma_lo > sigma_hi:
        sigma_lo, sigma_hi = sigma_hi, sigma_lo
    return np.linspace(sigma_lo, sigma_hi, K)


def mp_density(v, pi_k, q):
    lo = pi_k * (1.0 - math.sqrt(q)) ** 2
    hi = pi_k * (1.0 + math.sqrt(q)) ** 2
    inner = np.clip((v - lo) * (hi - v), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(inner) / (2.0 * math.pi * pi_k * q * np.maximum(v, 1e-300))


def mp_fit_oracle(noise_eigs, L, N, M_hat, K):
    """The noise fit as one candidate at a time: each candidate's empirical
    CDF on its own 256-point support against the one unit-variance MP CDF,
    its distance by np.linalg.norm, a zero candidate at distance inf, strict
    improvement only."""
    eigs = np.asarray(noise_eigs, dtype=float)
    q = (1.0 - M_hat / L) * (L / N)
    unit_v = np.linspace((1.0 - math.sqrt(q)) ** 2, (1.0 + math.sqrt(q)) ** 2, 256)
    mp_cdf = cumulative_trapezoid(mp_density(unit_v, 1.0, q), unit_v, initial=0)
    sorted_eigs = np.sort(eigs)
    best_pi, best_d = None, math.inf
    grid = noise_bracket_grid(eigs, L, N, K)
    for pi_k in grid:
        pi_k = float(pi_k)
        v = np.linspace(pi_k * (1.0 - math.sqrt(q)) ** 2,
                        pi_k * (1.0 + math.sqrt(q)) ** 2, 256)
        emp_cdf = np.searchsorted(sorted_eigs, v, side="right") / eigs.size
        d = math.inf if pi_k == 0.0 else float(np.linalg.norm(emp_cdf - mp_cdf))
        if d < best_d:
            best_pi, best_d = pi_k, d
    return (float(grid[0]) if best_pi is None else best_pi), best_d


def per_candidate_distances(noise_eigs, L, N, M_hat, K):
    """The fit's candidate grid and each candidate's distance against an MP
    CDF built afresh on its own support (the density is 0/0 at a zero
    candidate, whose distance is then inf)."""
    eigs = np.asarray(noise_eigs, dtype=float)
    q = (1.0 - M_hat / L) * (L / N)
    sorted_eigs = np.sort(eigs)
    grid = noise_bracket_grid(eigs, L, N, K)
    dists = []
    for pi_k in grid:
        pi_k = float(pi_k)
        v = np.linspace(pi_k * (1.0 - math.sqrt(q)) ** 2,
                        pi_k * (1.0 + math.sqrt(q)) ** 2, 256)
        mp_cdf = cumulative_trapezoid(mp_density(v, pi_k, q), v, initial=0)
        emp_cdf = np.searchsorted(sorted_eigs, v, side="right") / eigs.size
        dists.append(float(np.linalg.norm(emp_cdf - mp_cdf)))
    dists = np.array(dists)
    dists[np.isnan(dists)] = math.inf
    return grid, dists


@st.composite
def descending_spectra(draw, L=None):
    """Sorted-descending eigenvalues, L in [2, 20] unless given, with a zero
    tail of any length."""
    L = draw(st.integers(2, 20)) if L is None else L
    lam = np.sort(draw(st.lists(st.floats(1e-6, 1e3), min_size=L, max_size=L)))[::-1]
    lam[L - draw(st.integers(0, L)):] = 0.0
    return lam


@st.composite
def noise_tail_blocks(draw):
    """(block, L, M_hat): the noise tails past one model order M_hat of up to
    24 spectra of one length L, as rows; more rows than one fitting pass takes."""
    L = draw(st.integers(2, 20))
    M_hat = draw(st.integers(0, L - 1))
    rows = draw(st.lists(descending_spectra(L), min_size=1, max_size=24))
    return np.array(rows)[:, M_hat:], L, M_hat


@settings(max_examples=60, deadline=None)
@given(lam=descending_spectra(), n_extra=st.integers(1, 5000), K=st.integers(2, 80))
@example(lam=np.ones(6), n_extra=94, K=10)  # flat spectrum: inverted bracket
@example(lam=np.array([4.0, 2.0, 1.0, 0.0, 0.0]), n_extra=200, K=30)  # a zero candidate
@example(lam=np.zeros(4), n_extra=50, K=5)  # every candidate zero
def test_noise_fit_and_split_equal_loop_oracles(lam, n_extra, K):
    L = lam.size
    N = L + n_extra
    assert mdl_order(lam, L, N) == mdl_oracle(lam, L, N)
    for m_hat in range(L):
        assert mp_fit(lam[m_hat:], L, N, m_hat, K) == mp_fit_oracle(
            lam[m_hat:], L, N, m_hat, K)


def fit_bits(fitted, goodness):
    return float(fitted).hex(), float(goodness).hex()


# a subnormal row, whose candidate grid's step underflows to zero, beside a
# normal one; and a block of supports narrower than lo's rounding, which the
# crossing count cannot resolve
SUBNORMAL_TAILS = np.array([[4.0, 2.0, 1.0], [3.0 * 5e-324, 2.0 * 5e-324, 5e-324]])
COLLAPSED_TAILS = np.array([[1.0, 1.0], [3.0, 2.0]])


def snap_to_supports(block, L, N, M_hat, K):
    """The block with each row's inner eigenvalues moved onto points of its
    own candidates' supports, where a crossing estimate can be one off."""
    q = (1.0 - M_hat / L) * (L / N)
    snapped = block.copy()
    for row in snapped:
        v = _mp_support(noise_bracket_grid(row, L, N, K), q)
        j = np.arange(1, row.size - 1)
        row[1:-1] = np.sort(np.clip(v[j * 7 % K, j * 37 % 256], row[-1], row[0]))[::-1]
    return snapped


@settings(max_examples=60, deadline=None)
@given(tails=noise_tail_blocks(), n_extra=st.integers(1, 5000), K=st.integers(2, 80),
       on_support=st.booleans())
@example(tails=(SUBNORMAL_TAILS, 3, 0), n_extra=297, K=5, on_support=False)
@example(tails=(np.array([[4.0, 2.0, 1.0, 0.0, 0.0], np.zeros(5)]), 5, 0),
         n_extra=200, K=30, on_support=False)  # a zero candidate, and an all-zero row
@example(tails=(np.zeros((3, 2)), 4, 2), n_extra=50, K=5,
         on_support=False)  # all-zero rows only
@example(tails=(COLLAPSED_TAILS, 2, 0), n_extra=10**30, K=50, on_support=False)
@example(tails=(np.array([[7.0, 6.0, 5.0, 3.0], [8.0, 7.0, 5.0, 4.0]]), 4, 0),
         n_extra=1000, K=10, on_support=True)
def test_block_noise_fit_equals_vector_calls_and_oracle(tails, n_extra, K, on_support):
    block, L, M_hat = tails
    N = L + n_extra
    if on_support:
        block = snap_to_supports(block, L, N, M_hat, K)
    fitted, goodness = mp_fit(block, L, N, M_hat, K)
    assert fitted.shape == goodness.shape == (len(block),)
    for row, f, g in zip(block, fitted, goodness):
        assert fit_bits(f, g) == fit_bits(*mp_fit(row, L, N, M_hat, K)) == fit_bits(
            *mp_fit_oracle(row, L, N, M_hat, K))


@pytest.mark.parametrize("tails, L, N, K, searched", [
    (SUBNORMAL_TAILS, 3, 300, 5, 0),
    (COLLAPSED_TAILS, 2, 10**30, 50, 2),
])
def test_noise_fit_counts_by_binary_search_only_where_crossings_fail(
        monkeypatch, tails, L, N, K, searched):
    # the binary search is the only caller of _mp_support once the unit CDF
    # is cached
    snr._mp_unit_cdf(L / N)
    calls = []
    support = snr._mp_support
    monkeypatch.setattr(snr, "_mp_support", lambda grid, q: calls.append(q) or support(grid, q))
    fitted, goodness = mp_fit(tails, L, N, 0, K)
    assert len(calls) == searched
    for row, f, g in zip(tails, fitted, goodness):
        assert fit_bits(f, g) == fit_bits(*mp_fit_oracle(row, L, N, 0, K))
    if searched == 0:
        # the subnormal row's candidate grid takes np.linspace's zero-step branch
        sq = math.sqrt(L / N)
        lo, hi = sorted((tails[1, -1] / (1.0 - sq) ** 2, tails[1, 0] / (1.0 + sq) ** 2))
        assert (hi - lo) / (K - 1) == 0.0 < hi - lo


@settings(max_examples=60, deadline=None)
@given(lam=descending_spectra(), n_extra=st.integers(1, 5000), K=st.integers(2, 80))
@example(lam=np.array([4.0, 2.0, 1.0, 0.0, 0.0]), n_extra=200, K=30)  # a zero candidate
@example(lam=np.zeros(4), n_extra=50, K=5)  # every candidate zero
def test_noise_fit_stays_at_the_per_candidate_minimum(lam, n_extra, K):
    # the unit CDF and a candidate's own CDF differ only by rounding, so the
    # chosen candidate is a minimum of the per-candidate distances to 1e-12
    L = lam.size
    N = L + n_extra
    for m_hat in range(L):
        fitted, goodness = mp_fit(lam[m_hat:], L, N, m_hat, K)
        grid, dists = per_candidate_distances(lam[m_hat:], L, N, m_hat, K)
        chosen = dists[int(np.flatnonzero(grid == fitted)[0])]
        assert math.isclose(chosen, float(np.min(dists)), rel_tol=1e-12)
        assert math.isclose(goodness, chosen, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(grid=st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=1,
                     max_size=80),
       q=st.floats(1e-6, 0.999))
@example(grid=[0.0, 1.0], q=0.5)  # a zero-width row
def test_mp_support_rows_equal_linspace(grid, q):
    # a subnormal variance is left out: its step underflows to zero, and
    # np.linspace then takes another formula
    v = _mp_support(np.asarray(grid), q)
    for pi_k, row in zip(grid, v):
        expected = np.linspace(pi_k * (1.0 - math.sqrt(q)) ** 2,
                               pi_k * (1.0 + math.sqrt(q)) ** 2, 256)
        assert np.array_equal(row, expected)


@settings(max_examples=100, deadline=None)
@given(spans=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
                      min_size=1, max_size=20),
       num=st.integers(2, 80))
@example(spans=[(1.0, 2.0), (5e-324, 1e-323)], num=5)  # one step underflows
def test_linspace_rows_equal_linspace(spans, num):
    start, stop = np.array(spans).T
    for (a, b), row in zip(spans, snr._linspace_rows(start, stop, num)):
        assert np.array_equal(row, np.linspace(a, b, num))


@settings(max_examples=100, deadline=None)
@given(q=st.floats(1e-6, 0.999))
def test_mp_cdf_equals_cumulative_trapezoid(q):
    v = np.linspace((1.0 - math.sqrt(q)) ** 2, (1.0 + math.sqrt(q)) ** 2, 256)
    expected = cumulative_trapezoid(mp_density(v, 1.0, q), v, initial=0)
    assert np.array_equal(_mp_unit_cdf(q), expected)


def test_mp_fit_skips_zero_variance_candidates():
    # a zero smallest eigenvalue puts a zero-variance candidate first, which
    # has no Marchenko-Pastur law
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
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mp_fit(np.array([2.0, 1.0, bad]), 10, 100, 7, 10)
    # a model order outside [0, L): no noise eigenvalue left, or q > c
    for m_hat in (10, 12, -1):
        with pytest.raises(ValueError, match="M_hat"):
            mp_fit(np.ones(3), 10, 100, m_hat, 10)
    with pytest.raises(ValueError, match="vector or one row each"):
        mp_fit(np.ones((2, 2, 3)), 10, 100, 0, 10)
    # finite eigenvalues so large that a candidate support overflows, which
    # would be counted on NaN support points
    for lam in ([1e308, 1e307], [1e306, 2e305]):
        with pytest.raises(ValueError, match="supports overflow"):
            mp_fit(np.array(lam), 9, 10, 0, 5)
    for L, N, m_hat, K in ((3.5, 100, 0, 10), (10.0, 100, 0, 10), (10, 100.0, 0, 10),
                           (10, 100, 7.0, 10), (10, 100, 7, 10.0)):
        with pytest.raises(ValueError, match="integer"):
            mp_fit(np.ones(3), L, N, m_hat, K)


def test_mp_unit_cdf_is_cached_read_only():
    cdf = _mp_unit_cdf(0.25)
    assert _mp_unit_cdf(0.25) is cdf
    with pytest.raises(ValueError, match="read-only"):
        cdf[0] = 1.0


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


# float.hex of the estimates, each fit against one unit-variance MP CDF
# (numpy 2.4, scipy 1.17, OpenBLAS); another LAPACK build may move the
# eigenvalues' last bits and so these
PINNED = [
    (lambda: sinusoid_plus_noise(5.0, 3072, seed=21), 10, 50,
     ("0x1.48efbb1e7927ep+2", "0x1.f833901808903p-1", "0x1.0cd71db8a27cbp+2",
      "0x1.73eac3671f0e2p+0", 2, False)),
    (lambda: sinusoid_plus_noise(-5.0, 1000, seed=22), 8, 30,
     ("-0x1.18838ed289b4bp+2", "0x1.02d51f2ca1d3fp+0", "0x1.612d45dfdc784p+0",
      "0x1.8e77f45d9ea86p+0", 2, False)),
    (lambda: np.random.default_rng(23).standard_normal(3072), 10, 50,
     ("-0x1.4000000000000p+5", "0x1.0b6d0e7d97fbap+0", "0x1.0052057a170b0p+0",
      "0x1.00ba63581d6f0p+2", 0, True)),
]


@pytest.mark.parametrize("make, L, K, expected", PINNED)
def test_estimate_snr_pinned_bits(make, L, K, expected):
    est = estimate_snr(make(), L=L, K=K)
    assert (est.snr_db.hex(), est.noise_variance_hat.hex(),
            est.total_power_hat.hex(), est.goodness_D.hex(),
            est.mdl_order_M, est.clamped) == expected


def test_estimate_snr_pinned_bits_as_one_block():
    # the two 3072-sample inputs at L=10, K=50 as rows of one block
    cases = [case for case in PINNED if case[1:3] == (10, 50)]
    block = np.stack([make() for make, *_ in cases])
    for est, (_, _, _, expected) in zip(estimate_snr(block, L=10, K=50), cases):
        assert (est.snr_db.hex(), est.noise_variance_hat.hex(),
                est.total_power_hat.hex(), est.goodness_D.hex(),
                est.mdl_order_M, est.clamped) == expected


def estimate_bits(est):
    """Every field of an estimate, floats as float.hex."""
    return tuple(v.hex() if isinstance(v, float) else (type(v), v)
                 for v in dataclasses.astuple(est))


def tone_block(n, seed, complex_rows=False):
    """One row each: a tone at 10, 0 and -5 dB, two tones, and noise alone.

    Complex rows add independent imaginary noise."""
    rows = [sinusoid_plus_noise(snr_db, n, seed + i)
            for i, snr_db in enumerate((10.0, 0.0, -5.0))]
    rows.append(rows[0] + 3.0 * np.cos(0.9 * np.arange(n)))
    rows.append(np.random.default_rng(seed + 9).standard_normal(n))
    block = np.array(rows)
    if complex_rows:
        block = block + 1j * np.random.default_rng(seed + 10).standard_normal(block.shape)
    return block


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("n, L, K", [(3072, 10, 50), (500, 7, 20), (2 * 12, 12, 3)])
def test_block_rows_equal_vector_calls(complex_rows, n, L, K):
    block = tone_block(n, seed=31, complex_rows=complex_rows)
    ests = estimate_snr(block, L=L, K=K)
    assert isinstance(ests, list) and len(ests) == len(block)
    for est, row in zip(ests, block):
        assert estimate_bits(est) == estimate_bits(estimate_snr(row, L=L, K=K))
    if (n, complex_rows) == (3072, False):
        # the block covers a clamped noise-only row and differing model orders
        assert any(est.clamped for est in ests)
        assert len({est.mdl_order_M for est in ests}) >= 3


def test_block_estimate_fits_each_model_order_once(monkeypatch):
    # through the module global, where a tracer wraps it
    calls = []
    fit = snr.mp_fit

    def counting_fit(noise_eigs, L, N, M_hat, K):
        calls.append((M_hat, len(noise_eigs)))
        return fit(noise_eigs, L, N, M_hat, K)

    monkeypatch.setattr(snr, "mp_fit", counting_fit)
    block = np.concatenate([tone_block(3072, seed=31)] * 2)
    orders = [est.mdl_order_M for est in estimate_snr(block, L=10, K=50)]
    assert len(set(orders)) >= 3
    assert sorted(calls) == sorted(collections.Counter(orders).items())


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float32])
def test_estimate_snr_computes_on_float64(dtype):
    rng = np.random.default_rng(12)
    block = (rng.random((3, 800)) > 0.5 if dtype is bool
             else rng.integers(-3, 4, size=(3, 800)).astype(dtype))
    for est, row in zip(estimate_snr(block), block.astype(float)):
        assert estimate_bits(est) == estimate_bits(estimate_snr(row))
    assert estimate_bits(estimate_snr(block[0])) == estimate_bits(
        estimate_snr(block[0].astype(float)))


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
    with pytest.raises(ValueError, match=match) as vector_error:
        estimate_snr(samples)
    # a block raises the same error on the same row
    good = sinusoid_plus_noise(0.0, samples.size, seed=13)
    with pytest.raises(ValueError) as block_error:
        estimate_snr(np.stack([good, samples, good]))
    assert str(block_error.value) == str(vector_error.value)


def test_estimate_snr_validation():
    with pytest.raises(ValueError):
        estimate_snr(np.ones(100), L=1)
    with pytest.raises(ValueError):
        estimate_snr(np.ones(100), K=1)
    with pytest.raises(ValueError):
        estimate_snr(np.ones(10), L=10)
    for kwargs in ({"L": 10.0}, {"K": 50.0}):
        with pytest.raises(ValueError, match="integer"):
            estimate_snr(np.ones(100), **kwargs)
    for shape in ((2, 3, 100), (4, 19)):  # 3-d, and a block with n < 2L
        with pytest.raises(ValueError, match="row block"):
            estimate_snr(np.ones(shape), L=10)


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
    with pytest.raises(ValueError, match="1-d"):
        pso_tune(np.stack([x, x]), (4, 10), (20, 60))
