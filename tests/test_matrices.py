"""Sensing matrix construction, fast-apply, and diagnostic tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cs_toolkit
from cs_toolkit.matrices import (
    SensingMatrix,
    _next_5_smooth,
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
    # toeplitz applies as rows of a circulant padded to a 5-smooth length
    ("toeplitz", 28, 28, 6, None),  # m = n
    ("toeplitz", 1, 28, 7, None),  # m = 1
    ("toeplitz", 5, 28, 8, None),  # generator length 32, no padding
    ("toeplitz", 6, 28, 9, None),  # generator length 33, padded to 36
    ("toeplitz", 9, 28, 10, {"random_rows": True}),
    ("toeplitz", 10, 28, 11, None),  # generator length 37, padded to 40
]


def test_toeplitz_period_is_the_next_5_smooth_length():
    def smooth(p):
        for f in (2, 3, 5):
            while p % f == 0:
                p //= f
        return p == 1

    for size in range(1, 600):
        expected = next(p for p in range(size, 2 * size + 1) if smooth(p))
        assert _next_5_smooth(size) == expected
    assert build_matrix("toeplitz", 512, 2048, seed=1)._period == 2560
    assert build_matrix("toeplitz", 150, 400, seed=1)._period == 576
    assert build_matrix("circulant", 150, 400, seed=1)._period == 400


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


@pytest.mark.parametrize("scheme,m,n,seed,opts",
                         [c for c in STRUCTURED_CASES if c[0] == "circulant"])
def test_circulant_apply_pinned_to_its_fft_formula(scheme, m, n, seed, opts):
    A = build_matrix(scheme, m, n, seed=seed, options=opts)
    rng = np.random.default_rng(200 + seed)
    x = rng.standard_normal(n)
    v = rng.standard_normal(m)
    g = np.fft.rfft(A.generator)
    expected = A.scale * np.fft.irfft(np.fft.rfft(x) * np.conj(g), n)[A.rows]
    assert np.array_equal(A.matvec(x), expected)
    pad = np.zeros(n)
    pad[A.rows] = v
    expected = A.scale * np.fft.irfft(g * np.fft.rfft(pad), n)
    assert np.array_equal(A.rmatvec(v), expected)


@pytest.mark.parametrize("scheme", ["circulant", "toeplitz"])
@pytest.mark.parametrize("m,n", [(150, 400), (512, 2048), (768, 3072)])
@pytest.mark.parametrize("random_rows", [False, True])
def test_structured_block_rows_equal_single_applies(scheme, m, n, random_rows):
    A = build_matrix(scheme, m, n, seed=m + n, options={"random_rows": random_rows})
    rng = np.random.default_rng(n)
    X = rng.standard_normal((7, n))
    V = rng.standard_normal((7, m))
    Y, U = A.matvec(X), A.rmatvec(V)
    assert Y.shape == (7, m) and U.shape == (7, n)
    for r in range(7):
        assert np.array_equal(Y[r], A.matvec(X[r]))
        assert np.array_equal(U[r], A.rmatvec(V[r]))
    assert np.array_equal(A.matvec(X[:1])[0], A.matvec(X[0]))
    assert np.array_equal(A.rmatvec(V[:1])[0], A.rmatvec(V[0]))


@pytest.mark.parametrize("scheme", ["gaussian", "bernoulli"])
def test_dense_block_apply_matches_single_applies(scheme):
    A = build_matrix(scheme, 40, 90, seed=3)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 90))
    V = rng.standard_normal((5, 40))
    assert np.allclose(A.matvec(X), np.array([A.matvec(x) for x in X]), atol=1e-12)
    assert np.allclose(A.rmatvec(V), np.array([A.rmatvec(v) for v in V]), atol=1e-12)
    # a single vector is the matrix-vector product itself, bit for bit
    assert np.array_equal(A.matvec(X[0]), A.generator @ X[0])
    assert np.array_equal(A.rmatvec(V[0]), A.generator.T @ V[0])


@pytest.mark.parametrize("scheme", ["gaussian", "circulant", "toeplitz"])
def test_block_apply_shapes(scheme):
    A = build_matrix(scheme, 6, 16, seed=5)
    assert A.matvec(np.zeros((0, 16))).shape == (0, 6)
    assert A.rmatvec(np.zeros((0, 6))).shape == (0, 16)
    assert A.matvec(np.zeros(16)).shape == (6,)
    assert A.rmatvec(np.zeros(6)).shape == (16,)
    for bad in (np.zeros(15), np.zeros((2, 15)), np.zeros((1, 2, 16))):
        with pytest.raises(ValueError):
            A.matvec(bad)
    for bad in (np.zeros(16), np.zeros((2, 16)), np.zeros((1, 2, 6))):
        with pytest.raises(ValueError):
            A.rmatvec(bad)


@pytest.mark.parametrize("scheme,m,n,seed,opts", STRUCTURED_CASES + [
    ("gaussian", 12, 31, 11, None), ("bernoulli", 8, 24, 12, None)])
def test_columns_match_dense_columns(scheme, m, n, seed, opts):
    A = build_matrix(scheme, m, n, seed=seed, options=opts)
    dense = A.to_dense()
    assert dense.flags["C_CONTIGUOUS"]
    if scheme in ("gaussian", "bernoulli"):
        assert np.array_equal(dense, A.generator)
    rng = np.random.default_rng(300 + seed)
    for idx in (np.array([], dtype=int), [n - 1, 0, n - 1],
                rng.permutation(n)[: n // 2], np.arange(n)):
        block = A.columns(idx)
        assert block.shape == (m, len(idx))
        assert block.flags["C_CONTIGUOUS"]
        assert np.array_equal(block, dense[:, idx])
    # the modular entry formula would wrap these silently
    for idx in ([-1], [n], [0, n + 3]):
        with pytest.raises(ValueError, match="column index outside"):
            A.columns(idx)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(("circulant", "toeplitz")),
    n=st.integers(1, 80),
    seed=st.integers(0, 10_000),
    random_rows=st.booleans(),
    p=st.sampled_from((1.0, 0.5, 0.1)),
    explicit=st.booleans(),
    data=st.data(),
)
def test_property_column_norms_match_dense(scheme, n, seed, random_rows, p,
                                           explicit, data):
    m = data.draw(st.sampled_from((1, n, data.draw(st.integers(1, n)))))
    opts = {"random_rows": random_rows, "p": p}
    A = build_matrix(scheme, m, n, seed=seed, options=opts)
    if explicit:
        rng = np.random.default_rng(seed)
        gen = rng.standard_normal(A.generator.size)
        gen[rng.random(gen.size) >= p] = 0.0
        A = build_matrix(scheme, m, n, seed=seed,
                         options={**opts, "generator": gen, "scale": 0.37})
    dense = np.linalg.norm(A.to_dense(), axis=0)
    fast = A.column_norms()
    assert fast.shape == (n,)
    assert np.array_equal(fast == 0.0, dense == 0.0)
    if explicit:
        # the FFT convolution is exact to a few ulps of scale^2 * m * max g^2,
        # its bound on every squared norm, so real-valued generators are
        # compared on squared norms at that scale
        bound = A.scale**2 * m * float(np.max(A.generator**2))
        assert np.allclose(fast**2, dense**2, rtol=0.0, atol=1e-12 * bound)
    else:
        # with +-1 generator entries every nonzero squared norm is at least
        # scale^2, so that rounding stays below 1e-12 of each norm
        assert np.allclose(fast, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scheme", ["gaussian", "bernoulli"])
def test_dense_column_norms_skip_the_dense_copy(scheme, monkeypatch):
    A = build_matrix(scheme, 7, 19, seed=3)
    monkeypatch.setattr(SensingMatrix, "to_dense", None)
    assert np.array_equal(A.column_norms(), np.linalg.norm(A.generator, axis=0))


def test_import_leaves_scipy_signal_unloaded():
    src = Path(cs_toolkit.__file__).resolve().parents[1]
    code = ("import sys, cs_toolkit; print('scipy.signal' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    # numpy and the standard library are the only runtime dependencies, and
    # the harness starts no thread pool
    assert out.stdout.strip() == "False [] False"


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
    for scheme, size in (("circulant", 12), ("toeplitz", 15)):
        gen = np.arange(1.0, size + 1.0)
        A = build_matrix(scheme, 4, 12, options={"generator": gen})
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


def test_compress_rejects_complex_signals():
    A = build_matrix("gaussian", 20, 50, seed=1)
    x = gen_sparse_signal(50, 5, seed=2).samples
    # a complex dtype is rejected even with zero imaginary parts
    for bad in (x + 0.5j * x, x.astype(complex)):
        with pytest.raises(ValueError, match="must be real"):
            compress(A, bad)


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
