"""Detector statistic, threshold, and closed-form ROC tests.

scipy is a test-only oracle here: the toolkit computes the Gaussian tail and
its inverse with the standard library.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cs_toolkit.detectors import (
    IDLE,
    OCCUPIED,
    TECHNIQUES,
    WaveletOpts,
    autocorr_detect,
    closed_form_roc,
    compressive_detect,
    detect,
    energy_detect,
    energy_threshold,
    euclid_detect,
    matched_filter_detect,
    quiet_time_threshold,
    wavelet_detect,
)
from cs_toolkit.errors import IllConditionedError
from cs_toolkit.matrices import SensingMatrix, build_matrix
from cs_toolkit.signals import PilotSignal, gen_pilot_bpsk

# frozen from the threshold formula (Qinv(0.1) * sqrt(2000) + 1000) * 1.0
LAMBDA_PFA10_N1000 = 1057.3127283445801


def test_energy_statistic_and_decision_boundary():
    v = np.array([1.0, 2.0, -2.0])
    out = energy_detect(v, 9.0)
    assert out.statistic_T == pytest.approx(9.0, rel=1e-15)
    assert out.decision == OCCUPIED  # T >= lambda at equality
    assert energy_detect(v, math.nextafter(9.0, math.inf)).decision == IDLE
    assert out.occupied
    with pytest.raises(ValueError):
        energy_detect(np.array([]), 1.0)


def test_energy_threshold_frozen_value():
    assert energy_threshold(0.1, 1000, 1.0) == pytest.approx(
        LAMBDA_PFA10_N1000, rel=1e-12)
    # reconstruction from the same published expression
    expected = (norm.isf(0.1) * math.sqrt(2000.0) + 1000.0) * 1.0
    assert energy_threshold(0.1, 1000, 1.0) == pytest.approx(expected, rel=1e-15)


def test_energy_threshold_scaling_and_monotonicity():
    base = energy_threshold(0.1, 1000, 1.0)
    assert energy_threshold(0.1, 1000, 2.5) == pytest.approx(2.5 * base, rel=1e-12)
    stricter = energy_threshold(0.01, 1000, 1.0)
    assert stricter > base
    with pytest.raises(ValueError):
        energy_threshold(0.0, 1000, 1.0)
    with pytest.raises(ValueError):
        energy_threshold(0.1, 0, 1.0)


def test_energy_threshold_matches_isf_oracle():
    for p in np.logspace(-300, -1e-9):
        expected = (norm.isf(p) * math.sqrt(2000.0) + 1000.0) * 1.0
        assert energy_threshold(p, 1000, 1.0) == pytest.approx(expected, rel=1e-15)


def assert_gaussian_tail(got, x):
    ref = float(norm.sf(x))
    if ref == 0.0:
        # scipy underflows to 0 near x = 37.7, where Q(x) is still subnormal
        assert 0.0 <= got < sys.float_info.min
    else:
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_closed_form_roc_matches_sf_oracle():
    # with E = dw2 = 1 the matched filter has Pfa = Q(lam), Pd = Q(lam - 1)
    for lam in np.linspace(-37.0, 38.0, 1501):
        point = closed_form_roc("matched_filter", 1000, 1.0, lam, pilot_energy_E=1.0)
        assert_gaussian_tail(point.pfa, lam)
        assert_gaussian_tail(point.pd, lam - 1.0)
    n, dw2 = 1000, 2.0
    for snr_db in (-10.0, 0.0, 10.0):
        ds2 = dw2 * 10.0 ** (snr_db / 10.0)
        for x in np.linspace(-38.0, 38.0, 153):
            lam = n * dw2 + x * math.sqrt(2.0 * n * dw2**2)
            point = closed_form_roc("energy", n, dw2, lam, snr_db=snr_db)
            assert_gaussian_tail(point.pfa, (lam - n * dw2)
                                 / math.sqrt(2.0 * n * dw2**2))
            assert_gaussian_tail(point.pd, (lam - n * (dw2 + ds2))
                                 / math.sqrt(2.0 * n * (dw2 + ds2) ** 2))


def test_energy_closed_form_pfa_self_consistent():
    for pfa_t in (0.01, 0.1):
        lam = energy_threshold(pfa_t, 1000, 1.0)
        point = closed_form_roc("energy", 1000, 1.0, lam, snr_db=0.0)
        assert point.pfa == pytest.approx(pfa_t, rel=1e-10)
        assert point.pd > point.pfa
        assert point.pmd == pytest.approx(1.0 - point.pd, rel=1e-12)


def test_energy_closed_form_pd_increases_with_snr():
    lam = energy_threshold(0.1, 1000, 1.0)
    pds = [closed_form_roc("energy", 1000, 1.0, lam, snr_db=s).pd
           for s in (-15.0, -10.0, -5.0, 0.0, 5.0)]
    # strict growth below saturation; the curve pins to 1.0 in double
    # precision once the deflection coefficient is large
    assert all(b > a for a, b in zip(pds[:3], pds[1:4]))
    assert all(b >= a for a, b in zip(pds, pds[1:]))
    assert pds[-1] == 1.0


def test_energy_closed_form_monte_carlo_agreement():
    n, nv, trials = 500, 1.0, 4000
    lam = energy_threshold(0.1, n, nv)
    point = closed_form_roc("energy", n, nv, lam, snr_db=0.0)
    rng = np.random.default_rng(42)
    gain = math.sqrt(nv * 1.0)  # snr 0 dB
    hits_h0 = hits_h1 = 0
    for _ in range(trials):
        w = rng.standard_normal(n) * math.sqrt(nv)
        s = gain * rng.standard_normal(n)
        hits_h0 += float(w @ w) >= lam
        y = s + rng.standard_normal(n) * math.sqrt(nv)
        hits_h1 += float(y @ y) >= lam
    assert hits_h0 / trials == pytest.approx(point.pfa, abs=0.025)
    assert hits_h1 / trials == pytest.approx(point.pd, abs=0.025)


def test_closed_form_small_n_warns():
    lam = energy_threshold(0.1, 100, 1.0)
    with pytest.warns(RuntimeWarning, match="large-n"):
        closed_form_roc("energy", 100, 1.0, lam, snr_db=0.0)


def test_matched_filter_closed_form_hand_values():
    # lam = 0: Pfa = Q(0) = 1/2 and Pd = Q(-sqrt(E)) for unit noise
    point = closed_form_roc("matched_filter", 1000, 1.0, 0.0, pilot_energy_E=100.0)
    assert point.pfa == pytest.approx(0.5, rel=1e-12)
    assert point.pd == pytest.approx(float(norm.sf(-10.0)), rel=1e-12)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_roc("energy", 1000, 1.0, 10.0)  # missing snr
    with pytest.raises(ValueError):
        closed_form_roc("matched_filter", 1000, 1.0, 10.0)  # missing E
    with pytest.raises(ValueError):
        closed_form_roc("autocorr", 1000, 1.0, 10.0)
    with pytest.raises(ValueError):
        closed_form_roc("energy", 1000, 0.0, 10.0, snr_db=0.0)


def test_autocorr_statistic_hand_worked():
    # v = [1,2,3,4]: R(0) = 30/4, R(1) = 20/4, statistic = 2/3
    out = autocorr_detect(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert out.statistic_T == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert out.decision == OCCUPIED
    assert autocorr_detect(np.array([1.0, 2.0, 3.0, 4.0]), 0.7).decision == IDLE


def test_autocorr_separates_correlated_from_white():
    rng = np.random.default_rng(0)
    flat = rng.standard_normal(4096)
    assert not autocorr_detect(flat, 0.5).occupied
    smooth = np.convolve(rng.standard_normal(4200), np.ones(64), "valid")[:4096]
    assert autocorr_detect(smooth, 0.9).occupied


def test_autocorr_validation():
    with pytest.raises(ValueError):
        autocorr_detect(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        autocorr_detect(np.ones(8), 0.0)
    with pytest.raises(ValueError):
        autocorr_detect(np.ones(8), 1.5)
    with pytest.raises(ValueError):
        autocorr_detect(np.zeros(8), 0.5)


def euclid_oracle(v: np.ndarray, lag_m: int) -> float:
    """Brute-force distance between normalized autocorr and the unit triangle."""
    n = v.size
    half = lag_m // 2
    r = np.array([float(v[: n - e] @ v[e:]) / n for e in range(half + 1)])
    rn = r / r[0]
    full = np.concatenate([rn[1:][::-1], rn])
    lags = np.arange(-half, half + 1)
    ref = 1.0 - (2.0 / lag_m) * np.abs(lags)
    return float(np.sqrt(np.sum((full - ref) ** 2)))


def test_euclid_statistic_matches_brute_force():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(70)
    out = euclid_detect(v, 0.95, lag_count_M=4)
    assert out.statistic_T == pytest.approx(euclid_oracle(v, 4), rel=1e-12)


def test_euclid_decision_direction():
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(4096)
    assert not euclid_detect(noise, 0.95, 64).occupied  # distance large -> idle
    # moving-average waveform whose autocorrelation is the matched triangle
    wave = np.convolve(rng.standard_normal(4159), np.ones(33), "valid") / math.sqrt(33)
    assert euclid_detect(wave * 100.0, 0.95, 64).occupied


def test_euclid_validation():
    with pytest.raises(ValueError):
        euclid_detect(np.ones(100), 0.95, lag_count_M=5)
    with pytest.raises(ValueError):
        euclid_detect(np.ones(10), 0.95, lag_count_M=16)
    with pytest.raises(ValueError):
        euclid_detect(np.zeros(100), 0.95, lag_count_M=4)


def ricker_oracle(scale: float) -> np.ndarray:
    half = int(math.ceil(5.0 * scale))
    t = np.arange(-half, half + 1, dtype=float)
    amp = 2.0 / (math.sqrt(3.0 * scale) * math.pi ** 0.25)
    return amp * (1.0 - (t / scale) ** 2) * np.exp(-(t ** 2) / (2.0 * scale ** 2))


def test_wavelet_statistic_matches_convolution_oracle():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(256)
    out = wavelet_detect(v, 1.0)
    psd = np.abs(np.fft.rfft(v)) ** 2 / v.size
    ref = float(np.max(np.abs(np.convolve(psd, ricker_oracle(8.0), "same"))))
    assert out.statistic_T == pytest.approx(ref, rel=1e-9)
    # psds shorter than the 81-tap kernel: the statistic stays on the
    # psd.size points centred in the full convolution (on the 64-sample
    # input, np.convolve's "same" mode keeps 81 points and reads 4% higher)
    for v in (rng.standard_normal(32), np.random.default_rng(155).standard_normal(64)):
        out = wavelet_detect(v, 1.0)
        psd = np.abs(np.fft.rfft(v)) ** 2 / v.size
        full = np.convolve(psd, ricker_oracle(8.0))
        start = (full.size - psd.size) // 2
        ref = float(np.max(np.abs(full[start:start + psd.size])))
        assert out.statistic_T == pytest.approx(ref, rel=1e-9)


def test_wavelet_literal_and_inverted_rules():
    t = np.arange(256)
    tone = 100.0 * np.cos(2.0 * math.pi * 0.1 * t)
    literal = wavelet_detect(tone, 10.0)
    assert literal.decision == IDLE  # strong spectral edge, literal rule
    flipped = wavelet_detect(tone, 10.0, WaveletOpts(invert=True))
    assert flipped.decision == OCCUPIED
    with pytest.raises(ValueError):
        wavelet_detect(np.ones(8), 1.0)


def test_matched_filter_statistic_and_decision():
    pilot = PilotSignal(samples=np.array([1.0, -1.0, 1.0, -1.0]),
                        modulation="bpsk", energy_E=4.0)
    aligned = matched_filter_detect(np.array([1.0, -1.0, 1.0, -1.0]), pilot, 3.9)
    assert aligned.statistic_T == pytest.approx(4.0, rel=1e-15)
    assert aligned.occupied
    orthogonal = matched_filter_detect(np.ones(4), pilot, 0.5)
    assert orthogonal.statistic_T == pytest.approx(0.0, abs=1e-15)
    assert not orthogonal.occupied
    with pytest.raises(ValueError):
        matched_filter_detect(np.ones(5), pilot, 1.0)


def test_quiet_time_threshold_hand_worked():
    pilot = PilotSignal(samples=np.array([1.0, -1.0]), modulation="bpsk",
                        energy_E=2.0)
    noise = np.arange(1.0, 9.0)
    # blocks [1,2] [3,4] [5,6] [7,8] correlate to -1 each; mean |corr| = 1
    lam = quiet_time_threshold(noise, pilot, factor_k=2.0, averaging_runs=4)
    assert lam == pytest.approx(2.0, rel=1e-15)
    double = quiet_time_threshold(noise, pilot, factor_k=4.0, averaging_runs=4)
    assert double == pytest.approx(2.0 * lam, rel=1e-15)


def test_quiet_time_threshold_validation():
    pilot = gen_pilot_bpsk(8, seed=0)
    with pytest.raises(ValueError):
        quiet_time_threshold(np.ones(31), pilot, 1.0, 4)
    with pytest.raises(ValueError):
        quiet_time_threshold(np.ones(32), pilot, 0.0, 4)
    with pytest.raises(ValueError):
        quiet_time_threshold(np.ones(32), pilot, 1.0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quiet_time_threshold_rejects_nonfinite_noise(bad):
    # one bad sample among 3200 used to make the threshold NaN, and a NaN
    # threshold calls even a 10x pilot idle
    pilot = gen_pilot_bpsk(100, seed=1)
    w = np.random.default_rng(2).standard_normal(32 * 100)
    w[5] = bad
    with pytest.raises(ValueError, match="finite"):
        quiet_time_threshold(w, pilot)


def test_matched_filter_quiet_threshold_separates_hypotheses():
    rng = np.random.default_rng(4)
    n = 1000
    pilot = gen_pilot_bpsk(n, seed=5)
    lam = quiet_time_threshold(rng.standard_normal(32 * n), pilot, 1.0, 32)
    hits = 0
    fas = 0
    for _ in range(100):
        gain = math.sqrt(10.0 ** (-8.0 / 10.0))
        y1 = gain * np.asarray(pilot.samples) + rng.standard_normal(n)
        y0 = rng.standard_normal(n)
        hits += matched_filter_detect(y1, pilot, lam).occupied
        fas += matched_filter_detect(y0, pilot, lam).occupied
    assert hits >= 95
    assert fas <= 60  # factor 1 sits at the noise mean, so Pfa is moderate


def test_compressive_statistic_matches_dense_oracle():
    A = build_matrix("gaussian", 12, 48, seed=6)
    rng = np.random.default_rng(7)
    template = rng.standard_normal(48)
    y = A.matvec(template)
    out = compressive_detect(y, A, template, 0.5)
    dense = A.to_dense()
    ref = float(y @ np.linalg.solve(dense @ dense.T, dense @ template))
    assert out.statistic_T == pytest.approx(ref, rel=1e-10)
    assert out.occupied  # matched template projects onto itself


def test_compressive_detect_singular_gram():
    gen = np.zeros((2, 4))
    gen[0] = [1.0, 0.0, 0.0, 0.0]
    gen[1] = gen[0]
    A = SensingMatrix("gaussian", 2, 4, gen, seed=0, scale=1.0, rows=np.arange(2))
    with pytest.raises(IllConditionedError):
        compressive_detect(np.ones(2), A, np.ones(4), 0.0)
    with pytest.raises(ValueError):
        compressive_detect(np.ones(3), A, np.ones(4), 0.0)
    with pytest.raises(ValueError):
        compressive_detect(np.ones(2), A, np.ones(5), 0.0)


def test_compressive_detect_rejects_complex_input():
    # a complex statistic has no order against lambda, and a cast to float
    # would drop the imaginary part
    A = build_matrix("gaussian", 40, 100, seed=2)
    y = np.random.default_rng(3).standard_normal(40)
    compressive_detect(y, A, np.ones(100), 0.0)
    with pytest.raises(ValueError, match="compressed samples must be real"):
        compressive_detect(y + 1j, A, np.ones(100), 0.0)
    with pytest.raises(ValueError, match="template_S must be real"):
        compressive_detect(y, A, np.ones(100) + 1j, 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), lam_scale=st.floats(0.25, 4.0))
def test_property_threshold_direction(seed, lam_scale):
    """occupied == (T >= lambda) for T-above detectors, flipped for distance."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(80)
    e = energy_detect(v, lam_scale * 40.0)
    assert e.occupied == (e.statistic_T >= e.threshold_lambda)
    a = autocorr_detect(v, min(lam_scale * 0.25, 1.0))
    assert a.occupied == (a.statistic_T >= a.threshold_lambda)
    d = euclid_detect(v, lam_scale, lag_count_M=8)
    assert d.occupied == (d.statistic_T < d.threshold_lambda)


PILOT_1000 = gen_pilot_bpsk(1000, seed=1)
OMEGA = build_matrix("gaussian", 40, 100, seed=2)
DETECTOR_CALLS = {
    "energy": lambda v: energy_detect(v, 1000.0),
    "matched_filter": lambda v: matched_filter_detect(v, PILOT_1000, 3.0),
    "autocorr": lambda v: autocorr_detect(v, 0.5),
    "euclid": lambda v: euclid_detect(v, 2.0),
    "wavelet": lambda v: wavelet_detect(v, 1.0),
    "compressive": lambda v: compressive_detect(v[:OMEGA.m], OMEGA,
                                                np.ones(OMEGA.n), 0.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("detector", sorted(DETECTOR_CALLS))
def test_detectors_reject_nonfinite_samples(detector, bad):
    v = np.random.default_rng(9).standard_normal(1000)
    DETECTOR_CALLS[detector](v)
    v[7] = bad
    with pytest.raises(ValueError, match="finite"):
        DETECTOR_CALLS[detector](v)
    with pytest.raises(ValueError, match="finite"):
        DETECTOR_CALLS[detector](v.astype(complex))


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_detect_dispatch_matches_direct_call(technique):
    y = np.random.default_rng(7).standard_normal(256)
    pilot = gen_pilot_bpsk(256, seed=1)
    direct = {
        "energy": lambda: energy_detect(y, 250.0),
        "matched_filter": lambda: matched_filter_detect(y, pilot, 3.0),
        "autocorr": lambda: autocorr_detect(y, 0.5),
        "euclid": lambda: euclid_detect(y, 2.0, 16),
    }[technique]()
    assert detect(technique, y, direct.threshold_lambda, pilot=pilot, lags=16) == direct


def test_detect_rejects_unknown_name_and_missing_pilot():
    y = np.random.default_rng(8).standard_normal(64)
    with pytest.raises(ValueError):
        detect("wavelet", y, 1.0)
    with pytest.raises(ValueError):
        detect("matched_filter", y, 1.0)


BLOCK_CALLS = {
    "energy": lambda y, lam, pilot: energy_detect(y, lam),
    "matched_filter": lambda y, lam, pilot: matched_filter_detect(y, pilot, lam),
    "autocorr": lambda y, lam, pilot: autocorr_detect(y, lam),
    "euclid": lambda y, lam, pilot: euclid_detect(y, lam, 64),
}


def block_call(technique: str, via: str):
    """The detector for `technique`, called directly or through `detect`."""
    if via == "detect":
        return lambda y, lam, pilot: detect(technique, y, lam, pilot=pilot, lags=64)
    return BLOCK_CALLS[technique]


def mixed_rows(n: int, dtype) -> np.ndarray:
    """Six rows: white noise, correlated waveforms, a pilot-bearing row."""
    rng = np.random.default_rng(n)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x
    rows = draw((6, n))
    for r in (1, 2):
        rows[r] = np.convolve(draw(n + 32), np.ones(33), "valid") * (0.5 + r)
    rows[3] += 5.0 * gen_pilot_bpsk(n, seed=2).samples
    return rows


@pytest.mark.parametrize("n", [65, 768, 1000, 3072])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("via", ["direct", "detect"])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_block_outcome_equals_its_rows(technique, via, dtype, n):
    call = block_call(technique, via)
    pilot = gen_pilot_bpsk(n, seed=2)
    block = mixed_rows(n, dtype)
    stats = np.array([call(row, 0.5, pilot).statistic_T for row in block])
    # a scalar threshold inside the statistics' range, one per row from other
    # rows, and each row's own statistic (a tie)
    for lam in (float(np.median(stats)), np.roll(stats, 1), stats):
        got = call(block, lam, pilot)
        want = [call(row, float(row_lam), pilot)
                for row, row_lam in zip(block, np.broadcast_to(lam, stats.shape))]
        assert isinstance(want[0].statistic_T, float)
        assert np.array_equal(got.statistic_T, [w.statistic_T for w in want])
        assert np.array_equal(got.threshold_lambda, [w.threshold_lambda for w in want])
        assert got.decision.tolist() == [w.decision for w in want]
        assert got.occupied.tolist() == [w.occupied for w in want]
        assert got.technique == want[0].technique
    decided = call(block, float(np.median(stats)), pilot).occupied
    assert 0 < np.count_nonzero(decided) < block.shape[0]


# float.hex of the energy, matched-filter, autocorrelation and euclid (M = 64)
# statistics of row 3 of mixed_rows(n, dtype), a noise row carrying the pilot.
# Block and vector calls share their code, so the block tests above cannot see
# a change in how a vector's statistic is summed; these frozen bits can.
PINNED_VECTOR_BITS = {
    (65, "float"): ("0x1.b9fcb83624525p+10", "0x1.4c276daebffa5p+8",
                    "0x1.eaf3251037343p-4", "0x1.2af22664f61e7p+2"),
    (65, "complex"): ("0x1.d310615ac8915p+10", "0x1.4c276daebffa4p+8",
                      "0x1.af23f6c8ec4a5p-4", "0x1.2a7a69a454582p+2"),
    (1000, "float"): ("0x1.a0b964ad6e23fp+14", "0x1.3c9a55a992af2p+12",
                      "0x1.00c12a331e532p-5", "0x1.2053326434d1ep+2"),
    (1000, "complex"): ("0x1.af20efcad7fcbp+14", "0x1.3c9a55a992af2p+12",
                        "0x1.16a5808d7c7e1p-5", "0x1.2064694b5f132p+2"),
    (3072, "float"): ("0x1.36c457fab86d8p+16", "0x1.df3204fe3864ap+13",
                      "0x1.24499e3e170fap-5", "0x1.1ed7b303ee139p+2"),
    (3072, "complex"): ("0x1.42cf9c224bc64p+16", "0x1.df3204fe38649p+13",
                        "0x1.1e061426566a0p-5", "0x1.1edeccdb07256p+2"),
}


@pytest.mark.parametrize("n, kind", list(PINNED_VECTOR_BITS))
def test_vector_statistics_pinned_bits(n, kind):
    v = mixed_rows(n, {"float": float, "complex": complex}[kind])[3]
    pilot = gen_pilot_bpsk(n, seed=2)
    got = tuple(float.hex(detect(t, v, 0.5, pilot=pilot, lags=64).statistic_T)
                for t in TECHNIQUES)
    assert got == PINNED_VECTOR_BITS[n, kind]


NAN_THRESHOLD_CASES = [(t, shape) for t in TECHNIQUES
                       for shape in ("vector", "block", "one_row")]
NAN_THRESHOLD_CASES += [("wavelet", "vector"), ("compressive", "vector")]


@pytest.mark.parametrize("detector, shape", NAN_THRESHOLD_CASES)
def test_nan_threshold_is_rejected(detector, shape):
    call = {
        **BLOCK_CALLS,
        "wavelet": lambda y, lam, pilot: wavelet_detect(y, lam),
        "compressive": lambda y, lam, pilot: compressive_detect(
            y[:OMEGA.m], OMEGA, np.ones(OMEGA.n), lam),
    }[detector]
    pilot = gen_pilot_bpsk(100, seed=2)
    rows = mixed_rows(100, float)[:3]
    y = rows[0] if shape == "vector" else rows
    lam = np.array([0.5, math.nan, 0.5]) if shape == "one_row" else math.nan
    # a NaN margin lies outside autocorrelation's range (0, 1]
    match = r"margin_lambda must be in \(0, 1\]" if detector == "autocorr" else "NaN"
    with pytest.raises(ValueError, match=match):
        call(y, lam, pilot)
    if detector != "autocorr":
        # +-inf thresholds stay legal: they are the ROC's end points
        for end in (math.inf, -math.inf):
            assert np.all(call(y, end, pilot).threshold_lambda == end)


def outcome_or_error(call):
    try:
        out = call()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", np.asarray(out.statistic_T).tolist(), np.asarray(out.decision).tolist()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_block_with_one_bad_row_fails_as_its_vector_does(technique, bad, dtype):
    call = BLOCK_CALLS[technique]
    pilot = gen_pilot_bpsk(256, seed=2)
    block = mixed_rows(256, dtype)[:4]
    if bad == "zero":
        block[2] = 0.0
    else:
        block[2, 9] = {"nan": math.nan, "inf": -math.inf}[bad]
    lam = 0.5
    row = outcome_or_error(lambda: call(block[2], lam, pilot))
    whole = outcome_or_error(lambda: call(block, lam, pilot))
    if row[0] == "error":
        assert whole == row
    else:
        # the energy detector and matched filter decide on a zero row
        assert bad == "zero" and technique in ("energy", "matched_filter")
        assert whole[0] == "ok"
        assert whole[1][2] == row[1] and whole[2][2] == row[2]


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_detectors_reject_shapes_outside_the_contract(technique):
    call = BLOCK_CALLS[technique]
    pilot = gen_pilot_bpsk(100, seed=2)
    for samples in (np.ones((2, 3, 100)), np.ones((3, 0)), np.ones(0), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"length-n vector or an \(R, n\) row block"):
            call(samples, 0.5, pilot)
    rows = mixed_rows(100, float)[:3]
    # a threshold is a scalar, or one value per row of a block
    for lam in (np.full(3, 0.5), np.full((3, 1), 0.5)):
        with pytest.raises(ValueError, match="threshold shape"):
            call(rows[0], lam, pilot)
    for lam in (np.full(2, 0.5), np.full((3, 1), 0.5), np.full((1, 3), 0.5)):
        with pytest.raises(ValueError, match="threshold shape"):
            call(rows, lam, pilot)
    # an empty block is a block of no rows
    empty = call(np.ones((0, 100)), 0.5, pilot)
    assert empty.statistic_T.shape == empty.decision.shape == (0,)


def test_vector_only_detectors_reject_blocks():
    rows = np.random.default_rng(4).standard_normal((2, 100))
    with pytest.raises(ValueError, match="expected a vector"):
        wavelet_detect(rows, 1.0)
    with pytest.raises(ValueError, match="expected a vector"):
        compressive_detect(rows[:, :OMEGA.m], OMEGA, np.ones(OMEGA.n), 0.0)


def test_autocorr_block_checks_every_margin():
    rows = mixed_rows(100, float)[:3]
    autocorr_detect(rows, np.array([0.2, 1.0, 0.7]))
    for margins in ([0.2, 0.0, 0.7], [0.2, 1.5, 0.7], [0.2, math.nan, 0.7]):
        with pytest.raises(ValueError, match=r"margin_lambda must be in \(0, 1\]"):
            autocorr_detect(rows, np.array(margins))
