"""Sensing matrix construction, fast-apply, and diagnostic tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_toolkit.matrices import (
    SensingMatrix,
    build_matrix,
    compress,
    mutual_coherence,
    required_measurements,
    rip_estimate,
)
from cs_toolkit.signals import gen_sparse_signal


def dense_oracle(A: SensingMatrix) -> np.ndarray:
    """Entry-by-entry reconstruction from the documented index formulas."""
    if A.scheme in ("gaussian", "bernoulli"):
        return A.generator.copy()
    out = np.empty((A.m, A.n))
    for i in range(A.m):
        for j in range(A.n):
            if A.scheme == "circulant":
                out[i, j] = A.scale * A.generator[(j - A.rows[i]) % A.n]
            else:
                out[i, j] = A.scale * A.generator[(j - A.rows[i]) + A.diag_offset]
    return out


STRUCTURED_CASES = [
    ("circulant", 12, 31, 0, None),
    ("circulant", 8, 24, 1, {"random_rows": True}),
    ("circulant", 10, 40, 2, {"p": 0.2}),
    ("toeplitz", 12, 31, 3, None),
    ("toeplitz", 8, 24, 4, {"random_rows": True}),
    ("toeplitz", 10, 40, 5, {"p": 0.3}),
]


@pytest.mark.parametrize("scheme,m,n,seed,opts", STRUCTURED_CASES)
def test_structured_dense_matches_entry_formula(scheme, m, n, seed, opts):
    A = build_matrix(scheme, m, n, seed=seed, options=opts)
    assert np.allclose(A.to_dense(), dense_oracle(A), atol=1e-14)


@pytest.mark.parametrize("scheme,m,n,seed,opts", STRUCTURED_CASES)
def test_fast_apply_matches_dense(scheme, m, n, seed, opts):
    A = build_matrix(scheme, m, n, seed=seed, options=opts)
    rng = np.random.default_rng(100 + seed)
    dense = A.to_dense()
    for _ in range(5):
        x = rng.standard_normal(n)
        v = rng.standard_normal(m)
        assert np.allclose(A.matvec(x), dense @ x, atol=1e-10)
        assert np.allclose(A.rmatvec(v), dense.T @ v, atol=1e-10)


def test_circulant_rows_are_cyclic_shifts():
    A = build_matrix("circulant", 6, 9, seed=3)
    dense = A.to_dense()
    for i in range(1, 6):
        assert np.allclose(dense[i], np.roll(dense[0], i), atol=1e-14)


def test_toeplitz_diagonals_are_constant():
    A = build_matrix("toeplitz", 7, 13, seed=4)
    dense = A.to_dense()
    for i in range(6):
        assert np.allclose(dense[i, :-1], dense[i + 1, 1:], atol=1e-14)


def test_gaussian_entry_scale():
    A = build_matrix("gaussian", 200, 500, seed=5)
    # entries i.i.d. N(0, 1/m); sample variance concentrates tightly
    assert float(np.var(A.generator)) == pytest.approx(1.0 / 200.0, rel=0.05)
    assert A.rows is not None and np.array_equal(A.rows, np.arange(200))


def test_bernoulli_entries_exact_alphabet():
    A = build_matrix("bernoulli", 16, 32, seed=6)
    assert set(np.unique(A.generator)) <= {-1.0 / 4.0, 1.0 / 4.0}


def test_random_rows_sorted_subset():
    A = build_matrix("circulant", 10, 50, seed=7, options={"random_rows": True})
    rows = A.rows
    assert rows.size == 10
    assert np.all(np.diff(rows) > 0)
    assert rows.min() >= 0 and rows.max() < 50
    B = build_matrix("circulant", 10, 50, seed=7, options={"random_rows": True})
    assert np.array_equal(rows, B.rows)


def test_generator_masking_probability():
    A = build_matrix("circulant", 10, 5000, seed=8, options={"p": 0.1})
    frac = np.count_nonzero(A.generator) / 5000.0
    assert frac == pytest.approx(0.1, abs=0.02)
    full = build_matrix("circulant", 10, 500, seed=9)
    assert np.count_nonzero(full.generator) == 500


def test_explicit_generator_is_copied_before_its_spectrum_is_cached():
    gen = np.arange(1.0, 13.0)
    A = build_matrix("circulant", 4, 12, options={"generator": gen})
    x = np.random.default_rng(0).standard_normal(12)
    A.matvec(x)  # caches the generator spectrum
    gen[:] = 0.0  # the caller reuses its array
    assert np.allclose(A.matvec(x), A.to_dense() @ x)
    assert np.allclose(A.rmatvec(x[:4]), A.to_dense().T @ x[:4])
    assert A.to_dense()[0, 0] != 0.0


def test_explicit_generator_override():
    gen = np.arange(1.0, 13.0)
    A = build_matrix("circulant", 4, 12, seed=0,
                     options={"generator": gen, "scale": 1.0})
    assert np.array_equal(A.generator, gen)
    assert A.to_dense()[0, 0] == 1.0
    with pytest.raises(ValueError):
        build_matrix("circulant", 4, 12, options={"generator": np.ones(5)})
    with pytest.raises(ValueError):
        build_matrix("toeplitz", 4, 12, options={"generator": np.ones(5)})


def test_storage_size_structured_vs_dense():
    dense = build_matrix("gaussian", 64, 256, seed=0)
    circ = build_matrix("circulant", 64, 256, seed=0)
    toep = build_matrix("toeplitz", 64, 256, seed=0)
    assert dense.storage_size == 64 * 256
    assert circ.storage_size == 256
    assert toep.storage_size == 256 + 63
    assert circ.storage_size + toep.storage_size < dense.storage_size


def test_build_matrix_validation():
    with pytest.raises(ValueError):
        build_matrix("hadamard", 4, 8)
    with pytest.raises(ValueError):
        build_matrix("gaussian", 9, 8)
    with pytest.raises(ValueError):
        build_matrix("gaussian", 0, 8)
    with pytest.raises(ValueError):
        build_matrix("circulant", 4, 8, options={"p": 0.0})


def test_compress_noiseless_equals_matvec():
    A = build_matrix("gaussian", 20, 50, seed=1)
    x = gen_sparse_signal(50, 5, seed=2)
    y = compress(A, x)
    assert np.array_equal(y.values, A.matvec(x.samples))
    assert y.noise_variance == 0.0
    assert len(y) == 20


def test_compress_noise_statistics_and_determinism():
    A = build_matrix("gaussian", 5000, 5000, seed=3)
    x = np.ones(5000)
    y = compress(A, x, noise_variance=0.25, seed=4)
    w = y.values - A.matvec(x)
    assert float(np.var(w)) == pytest.approx(0.25, rel=0.1)
    again = compress(A, x, noise_variance=0.25, seed=4)
    assert np.array_equal(y.values, again.values)
    with pytest.raises(ValueError):
        compress(A, x, noise_variance=-1.0)
    with pytest.raises(ValueError):
        compress(A, np.ones(7))


def test_mutual_coherence_brute_force():
    A = build_matrix("gaussian", 10, 18, seed=5)
    dense = A.to_dense()
    worst = 0.0
    for i in range(18):
        for j in range(i + 1, 18):
            ci = dense[:, i] / np.linalg.norm(dense[:, i])
            cj = dense[:, j] / np.linalg.norm(dense[:, j])
            worst = max(worst, abs(float(ci @ cj)))
    assert mutual_coherence(A) == pytest.approx(worst, rel=1e-12)


def test_mutual_coherence_orthogonal_columns():
    q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((16, 16)))
    A = SensingMatrix("gaussian", 16, 16, q, seed=0, scale=1.0,
                      rows=np.arange(16))
    assert mutual_coherence(A) < 1e-10


def test_rip_estimate_orthonormal_is_zero():
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((32, 32)))
    A = SensingMatrix("gaussian", 32, 32, q, seed=0, scale=1.0,
                      rows=np.arange(32))
    assert rip_estimate(A, k=4, trials=200, seed=1) < 1e-12
    wide = build_matrix("gaussian", 24, 96, seed=8)
    dev = rip_estimate(wide, k=4, trials=200, seed=2)
    assert 0.0 < dev < 1.0
    with pytest.raises(ValueError):
        rip_estimate(wide, k=0)
    with pytest.raises(ValueError):
        rip_estimate(wide, k=4, trials=0)


def test_required_measurements_frozen_arithmetic():
    # multi_bit(256, 10): ceil(2 * 10 * ln 25.6) = ceil(64.852) = 65
    assert required_measurements(256, 10) == 65
    # one_bit(256, 1): ceil(2 * ln 256) = ceil(11.09) = 12, above the clamp
    assert required_measurements(256, 1, scheme="one_bit") == 12
    # one_bit(256, 10): raw ceil(2 * ln 25.6) = 7 clamps up to k = 10
    assert required_measurements(256, 10, scheme="one_bit") == 10
    # k = n: log ratio 0, clamps to k
    assert required_measurements(1000, 1000) == 1000
    # huge constant clamps to n
    assert required_measurements(10, 2, constant=50.0) == 10
    with pytest.raises(ValueError):
        required_measurements(10, 0)
    with pytest.raises(ValueError):
        required_measurements(10, 2, scheme="two_bit")


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(("gaussian", "bernoulli", "circulant", "toeplitz")),
    n=st.integers(4, 48),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_property_adjoint_identity(scheme, n, seed, data):
    """<A x, v> == <x, A^T v> for every scheme (dot test)."""
    m = data.draw(st.integers(1, n))
    A = build_matrix(scheme, m, n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    v = rng.standard_normal(m)
    lhs = float(A.matvec(x) @ v)
    rhs = float(x @ A.rmatvec(v))
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(("circulant", "toeplitz")),
    n=st.integers(4, 48),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_property_matvec_linearity(scheme, n, seed, data):
    m = data.draw(st.integers(1, n))
    A = build_matrix(scheme, m, n, seed=seed)
    rng = np.random.default_rng(seed + 2)
    x1, x2 = rng.standard_normal((2, n))
    a, b = 1.7, -0.3
    combined = A.matvec(a * x1 + b * x2)
    split = a * A.matvec(x1) + b * A.matvec(x2)
    assert np.allclose(combined, split, atol=1e-9)
