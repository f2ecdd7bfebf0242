"""Signal generation and metric bundle tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_toolkit.signals import (
    NoisySignal,
    SparseSignal,
    add_awgn,
    apply_basis,
    evaluate_metrics,
    gen_pilot_bpsk,
    gen_pilot_qpsk,
    gen_sparse_signal,
)


def test_sparse_signal_exact_sparsity_and_support():
    sig = gen_sparse_signal(100, 12, seed=3)
    assert sig.samples.shape == (100,)
    assert np.count_nonzero(sig.samples) == 12
    assert np.array_equal(np.sort(sig.support), np.flatnonzero(sig.samples))
    assert len(np.unique(sig.support)) == 12


def test_sparse_signal_unit_law_amplitudes():
    sig = gen_sparse_signal(64, 8, amplitude_law="unit", seed=1)
    nz = sig.samples[sig.support]
    assert set(np.unique(nz)) <= {-1.0, 1.0}


def test_sparse_signal_other_laws_nonzero_on_support():
    for law in ("gaussian", "uniform"):
        sig = gen_sparse_signal(64, 8, amplitude_law=law, seed=2)
        assert np.all(sig.samples[sig.support] != 0.0)
    uni = gen_sparse_signal(64, 8, amplitude_law="uniform", seed=2)
    assert np.all(np.abs(uni.samples) <= 1.0)


def test_sparse_signal_deterministic_per_seed():
    a = gen_sparse_signal(50, 5, seed=7)
    b = gen_sparse_signal(50, 5, seed=7)
    c = gen_sparse_signal(50, 5, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_sparse_signal_zero_k_and_validation():
    empty = gen_sparse_signal(10, 0, seed=0)
    assert np.count_nonzero(empty.samples) == 0
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 11)
    with pytest.raises(ValueError):
        gen_sparse_signal(0, 0)
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 2, amplitude_law="cauchy")


def test_sparse_signal_dataclass_rejects_support_mismatch():
    x = np.zeros(5)
    x[1] = 1.0
    with pytest.raises(ValueError):
        SparseSignal(samples=x, sparsity_k=1, support=np.array([2]), seed=0)
    with pytest.raises(ValueError):
        SparseSignal(samples=x, sparsity_k=2, support=np.array([1]), seed=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 10_000), data=st.data())
def test_sparse_signal_property_exact_k_nonzeros(n, seed, data):
    k = data.draw(st.integers(0, n))
    sig = gen_sparse_signal(n, k, seed=seed)
    assert np.count_nonzero(sig.samples) == k
    assert sig.sparsity_k == k


def test_qpsk_pilot_alphabet_and_energy():
    pilot = gen_pilot_qpsk(256, seed=5)
    assert pilot.energy_E == 256.0
    assert pilot.modulation == "qpsk"
    # all symbols on the unit circle at the four diagonal phases
    assert np.allclose(np.abs(pilot.samples), 1.0, atol=1e-12)
    quad = pilot.samples * math.sqrt(2.0)
    assert set(np.unique(quad.real)) <= {-1.0, 1.0}
    assert set(np.unique(quad.imag)) <= {-1.0, 1.0}


def test_bpsk_pilot_alphabet_and_energy():
    pilot = gen_pilot_bpsk(128, seed=6)
    assert pilot.energy_E == 128.0
    assert set(np.unique(pilot.samples)) <= {-1.0, 1.0}
    again = gen_pilot_bpsk(128, seed=6)
    assert np.array_equal(pilot.samples, again.samples)


def test_pilot_validation():
    with pytest.raises(ValueError):
        gen_pilot_qpsk(0)
    with pytest.raises(ValueError):
        gen_pilot_bpsk(-3)


def test_awgn_noise_variance_matches_request():
    x = np.ones(50_000)
    noisy = add_awgn(x, snr_db=3.0, seed=9)
    expected_nv = 1.0 / 10.0 ** 0.3
    assert noisy.noise_variance == pytest.approx(expected_nv, rel=1e-12)
    empirical = float(np.var(noisy.samples - x))
    assert empirical == pytest.approx(expected_nv, rel=0.05)


def test_awgn_infinite_snr_is_noiseless_copy():
    x = np.arange(10.0)
    noisy = add_awgn(x, snr_db=math.inf, seed=0)
    assert noisy.noise_variance == 0.0
    assert np.array_equal(noisy.samples, x)
    assert noisy.samples is not x


def test_awgn_complex_input_gets_complex_noise():
    x = np.exp(1j * np.linspace(0, 6.0, 20_000))
    noisy = add_awgn(x, snr_db=0.0, seed=4)
    assert np.iscomplexobj(noisy.samples)
    # variance split evenly between real and imaginary parts
    w = noisy.samples - x
    assert float(np.var(w.real)) == pytest.approx(0.5, rel=0.1)
    assert float(np.var(w.imag)) == pytest.approx(0.5, rel=0.1)


def test_awgn_rayleigh_channel_gain():
    x = np.ones(100)
    noisy = add_awgn(x, snr_db=40.0, seed=11, channel="rayleigh")
    assert noisy.channel_gain_h != 1.0
    again = add_awgn(x, snr_db=40.0, seed=11, channel="rayleigh")
    assert noisy.channel_gain_h == again.channel_gain_h
    # at 40 dB the received samples sit near h * x
    assert np.allclose(noisy.samples, noisy.channel_gain_h * x, atol=0.1)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_awgn_rejects_unscalable_snr(snr_db):
    with pytest.raises(ValueError, match="finite SNR or inf"):
        add_awgn(np.ones(8), snr_db=snr_db)


def test_awgn_validation():
    with pytest.raises(ValueError):
        add_awgn(np.zeros(8), snr_db=10.0)
    with pytest.raises(ValueError):
        add_awgn(np.ones((2, 2)), snr_db=10.0)
    with pytest.raises(ValueError):
        add_awgn(np.ones(8), snr_db=10.0, channel="rice")


def test_apply_basis_identity_and_rotation():
    sig = gen_sparse_signal(32, 4, seed=1)
    assert np.array_equal(apply_basis(sig), sig.samples)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((32, 32)))
    rotated = apply_basis(sig, q)
    assert np.linalg.norm(rotated) == pytest.approx(
        np.linalg.norm(sig.samples), rel=1e-12)
    with pytest.raises(ValueError):
        apply_basis(sig, np.ones((32, 32)))
    with pytest.raises(ValueError):
        apply_basis(sig, np.eye(16))


def test_metric_bundle_hand_worked_values():
    # x = [3,0,4,0], x_hat = [3,0,0,0]: ||x|| = 5, error = 4
    x = np.array([3.0, 0.0, 4.0, 0.0])
    x_hat = np.array([3.0, 0.0, 0.0, 0.0])
    m = evaluate_metrics(x, x_hat)
    assert m.recovery_error_Re == pytest.approx(0.8, rel=1e-12)
    assert m.mse == pytest.approx(4.0, rel=1e-12)
    assert m.rsnr == pytest.approx(25.0 / 16.0, rel=1e-12)
    assert m.correlation_Cc == pytest.approx(
        float(np.corrcoef(x, x_hat)[0, 1]), rel=1e-12)
    assert m.recovered_sparsity == 1
    assert m.hamming_Hd == 0


def test_metric_bundle_perfect_recovery():
    x = np.array([1.0, -2.0, 0.0, 3.0])
    m = evaluate_metrics(x, x.copy())
    assert m.recovery_error_Re == 0.0
    assert m.mse == 0.0
    assert m.rsnr == math.inf
    assert m.correlation_Cc == pytest.approx(1.0, rel=1e-12)


def test_metric_bundle_hamming_distance():
    x = np.array([1.0, 2.0])
    m = evaluate_metrics(x, x, y=np.array([1.0, -1.0, 1.0]),
                         y_hat=np.array([1.0, 1.0, 1.0]))
    assert m.hamming_Hd == 1
    with pytest.raises(ValueError):
        evaluate_metrics(x, x, y=np.ones(3), y_hat=np.ones(4))


def test_metric_bundle_sparsity_tolerance():
    x = np.array([1.0, 0.5])
    m = evaluate_metrics(x, np.array([1e-3, 1e-12]))
    # default zero_tol = 1e-6 * max|x_hat| = 1e-9 keeps only the first entry
    assert m.recovered_sparsity == 1
    strict = evaluate_metrics(x, np.array([1e-3, 1e-12]), zero_tol=0.0)
    assert strict.recovered_sparsity == 2


def test_metric_bundle_accepts_wrapped_vectors():
    sig = gen_sparse_signal(16, 3, seed=2)
    m = evaluate_metrics(sig, sig.samples)
    assert m.recovery_error_Re == 0.0
    wrapped = NoisySignal(samples=sig.samples, snr_db=math.inf, noise_variance=0.0)
    m2 = evaluate_metrics(wrapped, sig.samples)
    assert m2.recovery_error_Re == 0.0


def test_metric_bundle_validation():
    with pytest.raises(ZeroDivisionError):
        evaluate_metrics(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        evaluate_metrics(np.ones(4), np.ones(4))  # constant vectors
    with pytest.raises(ValueError):
        evaluate_metrics(np.array([1.0, 2.0]), np.ones(3))


def test_empty_model_scores_as_uncorrelated():
    sig = gen_sparse_signal(50, 4, seed=8)
    m = evaluate_metrics(sig, np.zeros(50))
    assert m.recovery_error_Re == 1.0
    assert m.rsnr == 1.0
    assert m.correlation_Cc == 0.0
    assert m.recovered_sparsity == 0
    assert m.mse == pytest.approx(4 / 50, rel=1e-15)
    # a constant nonzero estimate still has no defined correlation
    with pytest.raises(ValueError, match="constant vectors"):
        evaluate_metrics(sig, np.full(50, 0.5))
