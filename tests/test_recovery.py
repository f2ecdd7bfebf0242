"""Sparse recovery solver tests with planted-signal oracles."""

import copy
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cs_toolkit import recovery
from cs_toolkit.errors import IllConditionedError
from cs_toolkit.harness import recovery_trial
from cs_toolkit.matrices import SensingMatrix, build_matrix, compress
from cs_toolkit.recovery import (
    BIHT_REFINE_RESTARTS,
    BIHT_RESTARTS,
    BayesOpts,
    SignVector,
    SolverOpts,
    basis_pursuit,
    bayesian_recover,
    biht_recover,
    cosamp,
    omp,
    one_bit_quantize,
)
from cs_toolkit.signals import gen_sparse_signal


def planted_instance(scheme, m, n, k, seed, noise_variance=0.0):
    A = build_matrix(scheme, m, n, seed=seed)
    x = gen_sparse_signal(n, k, seed=seed + 1)
    y = compress(A, x, noise_variance=noise_variance, seed=seed + 2)
    return A, x, y


def support_ls_oracle(A, y, support):
    """Least squares restricted to the true support; the noiseless optimum."""
    dense = A.to_dense()
    coef, *_ = np.linalg.lstsq(dense[:, support], y.values, rcond=None)
    x = np.zeros(A.n)
    x[support] = coef
    return x


def rel_err(x_hat, x_true):
    return float(np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true))


# ---------------------------------------------------------------- basis pursuit

def test_bp_noiseless_recovery_matches_support_oracle():
    A, x, y = planted_instance("gaussian", 100, 256, 10, seed=0)
    z = 1e-3 * float(np.max(np.abs(A.rmatvec(y.values))))
    res = basis_pursuit(y, A, z=z, opts=SolverOpts(tol=1e-12, max_iter=20_000))
    oracle = support_ls_oracle(A, y, x.support)
    assert rel_err(oracle, x.samples) < 1e-10
    # residual error tracks the soft-threshold bias, proportional to z
    assert rel_err(res.x_hat, x.samples) < 5e-3
    assert res.converged


def test_bp_objective_trace_nonincreasing():
    for seed in (3, 6):
        A, _, y = planted_instance("gaussian", 60, 120, 8, seed=seed,
                                   noise_variance=0.01)
        res = basis_pursuit(y, A, z=0.05)
        assert res.converged
        assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_bp_l1_shrinks_with_penalty():
    A, _, y = planted_instance("gaussian", 60, 120, 8, seed=4,
                               noise_variance=0.01)
    small = basis_pursuit(y, A, z=0.01)
    large = basis_pursuit(y, A, z=1.0)
    assert np.abs(large.x_hat).sum() < np.abs(small.x_hat).sum()


def test_bp_options_and_validation():
    A, _, y = planted_instance("gaussian", 30, 60, 4, seed=5)
    capped = basis_pursuit(y, A, z=0.01, opts=SolverOpts(max_iter=3))
    assert capped.iterations <= 3
    # a NaN z would fail every backtracking test and double L forever
    for z in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="z must be finite and >= 0"):
            basis_pursuit(y, A, z=z)
    with pytest.raises(ValueError):
        basis_pursuit(np.ones(A.m + 1), A)


@pytest.mark.parametrize("scheme,m,n,k,seed", [
    pytest.param(scheme, 128, 512, 12, 31, id=scheme)
    for scheme in ("gaussian", "circulant", "toeplitz")] + [
    # circulant builds whose ||A||_2^2 a 20-round power iteration
    # underestimates by 6-8%
    pytest.param("circulant", 512, 2048, 32, seed, id=f"circulant-512x2048-{seed}")
    for seed in (3, 11)])
def test_bp_default_tol_objective_near_the_tight_reference(scheme, m, n, k, seed):
    A, _, y = planted_instance(scheme, m, n, k, seed=seed, noise_variance=1e-3)
    z = 0.1 * float(np.max(np.abs(A.rmatvec(y.values))))
    res = basis_pursuit(y, A, z=z)
    ref = basis_pursuit(y, A, z=z, opts=SolverOpts(tol=1e-14, max_iter=50_000))
    assert res.converged
    assert res.objective_trace[-1] == pytest.approx(ref.objective_trace[-1],
                                                    rel=1e-6)


def test_bp_momentum_overshoot_restarts_instead_of_stopping():
    A, _, y = planted_instance("gaussian", 60, 120, 8, seed=3, noise_variance=0.01)
    res = basis_pursuit(y, A, z=0.05)
    # a rejected momentum step costs an iteration and adds no trace entry:
    # this instance restarts at least once and still ends on the stop rule
    assert res.iterations > res.objective_trace.size - 1
    assert res.converged
    assert np.all(np.diff(res.objective_trace) <= 0.0)


def test_bp_operator_applies_per_call(monkeypatch):
    # the harness's shape and penalty at 20 and 0 dB, where the backtracking
    # step takes about 150 applies per call and a step from the squared
    # spectral norm about 330
    applies = []
    for method in ("matvec", "rmatvec"):
        apply = getattr(SensingMatrix, method)
        monkeypatch.setattr(SensingMatrix, method,
                            lambda self, v, apply=apply: applies.append(1) or apply(self, v))
    counts = []
    for scheme in ("circulant", "toeplitz"):
        for snr_db in (20.0, 0.0):
            for seed in (1, 2, 3, 4):
                A = build_matrix(scheme, 512, 2048, seed=seed)
                x = gen_sparse_signal(2048, 32, seed=seed + 1)
                power = float(np.mean(A.matvec(x.samples) ** 2))
                y = compress(A, x, noise_variance=power / 10 ** (snr_db / 10),
                             seed=seed + 2)
                z = 0.1 * float(np.max(np.abs(A.rmatvec(y.values))))
                applies.clear()
                assert basis_pursuit(y, A, z=z).converged
                counts.append(len(applies))
    assert np.mean(counts) <= 200


@pytest.mark.parametrize("z", [0.0, 0.1])
def test_bp_measurements_orthogonal_to_the_range(z):
    # y != 0 with A^T y = 0: x = 0 is optimal and the starting L has no
    # curvature to read, so it falls back to 1
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((5, 12))
    entries[-1] = 0.0
    A = SensingMatrix("gaussian", 5, 12, entries, 7, 1.0, rows=np.arange(5))
    y = np.array([0.0, 0.0, 0.0, 0.0, 3.0])
    assert not np.any(A.rmatvec(y))
    res = basis_pursuit(y, A, z=z)
    assert not np.any(res.x_hat)
    assert res.converged
    assert np.all(np.isfinite(res.objective_trace))
    assert res.objective_trace[-1] == 9.0


# -------------------------------------------------------------------------- omp

def test_omp_exact_recovery_and_support():
    A, x, y = planted_instance("gaussian", 100, 256, 10, seed=1)
    res = omp(y, A, 10)
    assert rel_err(res.x_hat, x.samples) < 1e-6
    assert set(np.flatnonzero(res.x_hat)) == set(x.support)
    assert res.converged
    assert res.iterations == 10


def test_omp_residual_trace_never_increases():
    A, _, y = planted_instance("gaussian", 50, 120, 8, seed=2,
                               noise_variance=0.05)
    res = omp(y, A, 20)
    assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_omp_tolerance_mode_stops_on_residual():
    A, x, y = planted_instance("gaussian", 100, 256, 10, seed=6)
    res = omp(y, A, 1e-8)
    norm_y = float(np.linalg.norm(y.values))
    assert res.objective_trace[-1] <= 1e-8 * norm_y + 1e-12
    assert np.count_nonzero(res.x_hat) <= A.m


def test_omp_dependent_column_warning():
    # rank-1 matrix with y partly outside the column span: the second pick
    # must duplicate the first direction and degrade the LS rank
    from cs_toolkit.matrices import SensingMatrix
    u = np.array([1.0, 0.0, 0.0])
    gen = np.outer(u, [1.0, 2.0, -1.0, 0.5])
    A = SensingMatrix("gaussian", 3, 4, gen, seed=0, scale=1.0,
                      rows=np.arange(3))
    y = np.array([1.0, 1.0, 0.0])
    with pytest.warns(RuntimeWarning, match="linearly dependent"):
        res = omp(y, A, 2)
    # the loop stops with the one-column fit: neither k nor an exact fit
    assert np.array_equal(res.x_hat, [1.0, 0.0, 0.0, 0.0])
    assert res.objective_trace.tolist() == [math.sqrt(2.0), 1.0]
    assert not res.converged


@pytest.mark.parametrize("scheme,k", [("gaussian", 8), ("gaussian", 20),
                                      ("circulant", 20), ("toeplitz", 20)])
def test_omp_fit_matches_the_support_least_squares_oracle(scheme, k):
    # noisy, so the fit is not exact; k = 20 grows the factor past its first
    # allocation of 16 columns
    A, _, y = planted_instance(scheme, 60, 200, 8, seed=12, noise_variance=1e-2)
    res = omp(y, A, k)
    support = np.flatnonzero(res.x_hat)
    assert support.size == k
    oracle = support_ls_oracle(A, y, support)
    assert np.linalg.norm(res.x_hat - oracle) <= 1e-10 * np.linalg.norm(oracle)
    resid = np.linalg.norm(y.values - A.matvec(oracle))
    assert res.objective_trace[-1] == pytest.approx(resid, rel=1e-10)


def test_omp_validation():
    A, _, y = planted_instance("gaussian", 20, 40, 4, seed=7)
    with pytest.raises(ValueError):
        omp(y, A, 0)
    with pytest.raises(ValueError):
        omp(y, A, 21)
    with pytest.raises(ValueError):
        omp(y, A, -0.1)


# ----------------------------------------------------------------------- cosamp

def test_cosamp_exact_recovery():
    A, x, y = planted_instance("gaussian", 120, 256, 10, seed=8)
    res = cosamp(y, A, 10)
    assert rel_err(res.x_hat, x.samples) < 1e-6
    assert np.count_nonzero(res.x_hat) <= 10
    assert res.converged


def test_cosamp_trace_nonincreasing_and_output_sparsity():
    A, _, y = planted_instance("gaussian", 60, 150, 8, seed=9,
                               noise_variance=0.05)
    res = cosamp(y, A, 8)
    assert np.all(np.diff(res.objective_trace) <= 1e-12)
    assert np.count_nonzero(res.x_hat) <= 8


def test_cosamp_regime_warning_and_validation():
    A, _, y = planted_instance("gaussian", 20, 60, 4, seed=10)
    with pytest.warns(RuntimeWarning) as record:
        cosamp(y, A, 11)
    assert any("working regime" in str(w.message) for w in record)
    with pytest.raises(ValueError):
        cosamp(y, A, 0)
    with pytest.raises(ValueError):
        cosamp(np.ones(21), A, 4)


@pytest.mark.parametrize("scheme,opts", [
    ("circulant", None), ("toeplitz", None),
    ("circulant", {"random_rows": True}), ("toeplitz", {"random_rows": True})])
def test_greedy_solvers_on_the_operator_match_the_dense_path(scheme, opts):
    A = build_matrix(scheme, 60, 200, seed=5, options=opts)
    x = gen_sparse_signal(200, 8, seed=6)
    y = compress(A, x, noise_variance=1e-3, seed=7)
    # a gaussian-scheme operator holding A's entries: the dense reference path
    ref = SensingMatrix("gaussian", A.m, A.n, A.to_dense(), A.seed, 1.0,
                        rows=np.arange(A.m))
    assert np.array_equal(omp(y, A, 8).x_hat, omp(y, ref, 8).x_hat)
    assert np.array_equal(cosamp(y, A, 8).x_hat, cosamp(y, ref, 8).x_hat)


def test_greedy_converged_means_the_stop_rule_fired():
    # noise keeps the residual far above 1e-8 ||y||; the stop rules still fire
    A, _x, y = planted_instance("gaussian", 60, 200, 8, seed=9, noise_variance=1e-2)
    assert omp(y, A, 8).converged
    res = cosamp(y, A, 8)
    assert res.converged and res.iterations < 100
    assert not cosamp(y, A, 8, SolverOpts(max_iter=1)).converged


# (n, m, k, scheme, snr_db, iterations, converged, support, coefficients) of the
# CoSaMP trial with seeds (15, 16, 17), as computed with an SVD least-squares
# refit of every merged set; another refit may move only the last bits
PINNED_COSAMP_ROWS = (
    (2048, 512, 32, "circulant", 20.0, 4, True, (27, 43, 90, 91, 146, 190, 272, 316, 376, 440,
     533, 606, 704, 870, 894, 941, 1060, 1070, 1086, 1144, 1259, 1413, 1419, 1549, 1633, 1641,
     1663, 1735, 1775, 1800, 1961, 2017), (0.9872027656447796, 1.0343825547183858,
     1.0708010539069326, -1.0068905863374935, 0.9774312159319805, 1.0406455243894597,
     -1.001486948781683, -0.9919028202355532, 1.012702799246638, -0.9563815001303818,
     1.0108379571023935, -1.0303395791987944, 0.9971471142488748, -0.9495722237556213,
     0.9688675241933429, 0.9722934909741697, 1.0061145623500787, 0.9634634920785273,
     -1.015708417549561, -0.9768677488257119, -0.948316792334186, 1.0469216101276442,
     1.0028536498043419, 0.9975623641621705, 1.0367860667910576, 0.9955352823090744,
     1.0309676135202321, -0.9692670130019622, -0.9671439191390316, -1.007958622989871,
     1.0070050400154855, 0.9904759668129408)),
    (2048, 512, 32, "circulant", -10.0, 3, True, (90, 103, 118, 124, 258, 349, 361, 386, 421,
     456, 511, 536, 587, 755, 831, 842, 845, 1026, 1032, 1132, 1184, 1373, 1386, 1482, 1534,
     1650, 1687, 1692, 1722, 1777, 1858, 2006), (2.392009212712092, 2.2742087832828632,
     -1.8892018617668425, 1.8360719192982105, -2.112777892355271, 2.5958792521050333,
     1.663189569780069, -1.771025504442128, -2.1593565547260405, 2.1036702955566993,
     -1.9033587182534788, -3.5164690168859156, 1.5873580902476079, -2.3162702539872955,
     -2.06895587679759, 3.3817106397861307, 1.7257092549041069, -2.763500682075727,
     -2.4190179964634737, 2.881889151739853, -2.2135970028550305, -1.6980277993634025,
     2.1000248207328585, -2.4684869909115226, -2.3112016651484595, -1.845892405927985,
     2.352674988821349, -1.8942163908822154, 1.7327806774565597, 2.061130812053604,
     -1.9994411575522668, -1.9793031995981305)),
    (2048, 512, 32, "toeplitz", 20.0, 5, True, (27, 43, 90, 91, 146, 190, 272, 316, 376, 440,
     533, 606, 704, 870, 894, 941, 1060, 1070, 1086, 1144, 1259, 1413, 1419, 1549, 1633, 1641,
     1663, 1735, 1775, 1800, 1961, 2017), (0.9839911873023856, 0.9423621416950799,
     0.9902729030964477, -1.0311234521676633, 1.018363921962127, 1.0152067258347124,
     -0.9979515988516477, -1.016376864060579, 0.9657817686231182, -0.9644014028147188,
     0.9340020788563119, -0.9236562239911429, 0.9812966335851805, -0.9763708239116837,
     1.0103953528587737, 1.0282797975404816, 0.9823295601385513, 1.0234733118725476,
     -1.0307890544623644, -0.9561768045324469, -0.9650825494168562, 1.0212716436394662,
     0.9666790370706673, 0.9927502091048436, 1.009538473922579, 0.973902880681496,
     0.9962346090355059, -0.9715067584267525, -1.0119803389512403, -1.000639835374715,
     0.9841628141003067, 1.0033642934067288)),
    (2048, 512, 32, "toeplitz", 0.0, 3, True, (0, 5, 25, 74, 91, 146, 190, 272, 316, 395, 514,
     704, 839, 870, 875, 894, 941, 1060, 1070, 1086, 1113, 1144, 1176, 1413, 1549, 1611, 1633,
     1775, 1935, 1961, 1972, 2017), (-0.7351817158980021, -0.6827973582761795,
     -1.1123392857396492, 0.6217906786444782, -0.7441226446176576, 0.8944899624696034,
     0.8306070633900929, -1.0352537795086754, -1.0339032756977728, -0.7048265016338935,
     -0.6086418500841906, 0.6705065965610204, 0.9165306424274638, -0.7035145680307793,
     0.7227588430069308, 1.2088291329610175, 0.7634852197260021, 0.8991439894895334,
     0.9178775698832374, -1.156824980968447, -0.7427311664426337, -0.7408800010485797,
     0.5831928461356328, 1.043701161707502, 0.8909868850600761, 0.7145733206645012,
     1.002365862014631, -1.2937706461975162, 0.8539982102642504, 0.55964370720509,
     -0.6638664294832212, 1.1039142078046762)),
    (400, 150, 15, "gaussian", 20.0, 4, True, (5, 8, 28, 36, 118, 136, 167, 183, 207, 219, 245,
     299, 319, 348, 391), (0.9540284362327536, -1.0040754774573524, 1.002845784101034,
     -0.9570659802771921, 0.9921178045664834, -0.9811646365492164, -0.9427395423592466,
     1.030772236007731, -0.9982214759439254, 0.9951499566033958, -1.025269734025852,
     -1.058380693748189, 0.991606034820088, 0.9743186165399923, -0.9701381918678393)),
    (400, 150, 15, "gaussian", -10.0, 3, True, (9, 24, 42, 49, 61, 94, 163, 228, 232, 243, 265,
     297, 320, 321, 332), (-2.92580299849149, -1.9197721064766256, -3.0302502289964193,
     -1.9443665320144377, -2.773109747263424, 2.0326588221269977, 1.987032123767874,
     1.7203440854735885, -2.6249657167046982, 2.376175785305771, 1.84267570429117,
     2.2024020800221473, -1.766056902723264, -2.0611244597900096, 2.0585657861496314)),
    (400, 150, 15, "bernoulli", 0.0, 2, True, (5, 8, 15, 26, 28, 80, 136, 148, 158, 167, 183,
     196, 224, 259, 299), (0.9861664053107616, -0.6994879639587241, -0.5967446625891433,
     0.6445166303443841, 0.9528639612243515, -0.8296050929249362, -0.5192081336639734,
     -0.5463447465069049, 1.083395491948513, -0.8674133164988208, 1.3415082716178095,
     -0.5846970908663082, 0.5357961239266585, 0.5470114209118779, -1.0121048682442297)),
    (400, 150, 15, "circulant", -10.0, 2, True, (93, 103, 113, 145, 220, 255, 263, 280, 299,
     320, 361, 365, 377, 389, 391), (-1.802197684868189, 1.4276844152739334,
     -3.0927249209548866, -2.5014817042943243, -1.5354783282594615, -2.1911316412615904,
     -2.2120542153763223, -1.5554102220288284, -1.8836608315251857, 1.6588926712162106,
     1.3522274842934863, 1.517364811542958, 2.5578964981826844, -1.8542144115694879,
     -1.6177017237082614)),
    (400, 150, 15, "toeplitz", 20.0, 2, True, (5, 8, 28, 36, 118, 136, 167, 183, 207, 219, 245,
     299, 319, 348, 391), (0.9553029061574205, -0.9927521537211109, 1.0148051061005567,
     -1.015877310431524, 0.9735142559878719, -0.9599096706982946, -0.9668821962362456,
     0.9140867873137853, -0.971006769073905, 1.024846962440052, -0.9707819253095659,
     -0.9917328958758139, 0.9411406294740617, 0.9993037184674036, -0.9615041535404675)),
    (400, 150, 15, "toeplitz", 0.0, 6, True, (28, 36, 118, 157, 162, 167, 212, 219, 228, 249,
     264, 294, 299, 348, 382), (0.9213960278992337, -1.0692392473137229, 1.0763805981802719,
     -0.8728325465558919, -0.6753703991884638, -0.8215513307655811, 1.500353755421784,
     1.7272768338245061, 1.4235665312921755, -1.0878592308670176, -1.1270466191285509,
     -0.9526420140759232, -1.4454858523062768, 1.5583623753943898, 1.3092572615609923)),
)


@pytest.mark.parametrize(
    "n,m,k,scheme,snr_db,iterations,converged,support,coef", PINNED_COSAMP_ROWS,
    ids=[f"{r[3]}-{r[1]}x{r[0]}-{r[4]:g}dB" for r in PINNED_COSAMP_ROWS])
def test_cosamp_results_pinned(n, m, k, scheme, snr_db, iterations, converged,
                               support, coef):
    _metrics, res = recovery_trial("cosamp", scheme, n, k, m, snr_db, (15, 16, 17),
                                   z_factor=0.1, inform_noise=True, measure_time=False)
    assert tuple(np.flatnonzero(res.x_hat)) == support
    assert (res.iterations, res.converged) == (iterations, converged)
    assert np.max(np.abs(res.x_hat[list(support)] - coef)) <= 1e-12


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The shapes of the blocks passed to np.linalg.lstsq, call by call."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


@pytest.mark.parametrize("scheme", ["circulant", "toeplitz"])
def test_cosamp_refits_well_conditioned_sets_without_lstsq(scheme, lstsq_calls):
    _metrics, res = recovery_trial("cosamp", scheme, 2048, 32, 512, 20.0, (3, 4, 5),
                                   z_factor=0.1, inform_noise=True, measure_time=False)
    assert res.iterations >= 2
    assert lstsq_calls == []


# a zero nudge plants two identical columns, which the SVD solve finds rank
# deficient; at 1e-7 they are independent but fail the pivot test, and the
# SVD solve fits them at full rank as before
@pytest.mark.parametrize("nudge,dependent", [(0.0, True), (1e-7, False)])
def test_cosamp_falls_back_to_lstsq_on_a_failed_pivot_test(nudge, dependent, lstsq_calls):
    m, n = 60, 200
    rng = np.random.default_rng(21)
    entries = rng.standard_normal((m, n)) / math.sqrt(m)
    entries[:, 17] = entries[:, 3] + nudge * rng.standard_normal(m)
    A = SensingMatrix("gaussian", m, n, entries, 21, 1.0, rows=np.arange(m))
    x = np.zeros(n)
    x[[3, 17, 40, 88, 130, 171]] = [1.0, 1.0, -1.0, 1.0, -1.0, 1.0]
    y = A.matvec(x) + 0.01 * rng.standard_normal(m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = cosamp(y, A, 6)
    assert lstsq_calls
    assert all("linearly dependent" in str(w.message) for w in caught)
    assert len(caught) == (len(lstsq_calls) if dependent else 0)
    assert np.all(np.isfinite(res.x_hat))
    assert np.all(np.diff(res.objective_trace) <= 1e-12 * res.objective_trace[0])


def test_cosamp_fits_more_merged_columns_than_rows_by_svd(lstsq_calls):
    # the third refit merges 9 columns in 8 rows; their Gram matrix rounds to
    # one whose Cholesky pivots all pass the pivot test
    rng = np.random.default_rng(315)
    A = SensingMatrix("gaussian", 8, 30, rng.standard_normal((8, 30)) / math.sqrt(8), 315,
                      1.0, rows=np.arange(8))
    y = rng.standard_normal(8)
    with pytest.warns(RuntimeWarning, match="linearly dependent"):
        res = cosamp(y, A, 3)
    assert lstsq_calls == [(8, 9)]
    assert tuple(np.flatnonzero(res.x_hat)) == (8, 10, 12)
    assert res.iterations == 3


@pytest.mark.parametrize("scheme,opts", [
    ("circulant", None), ("toeplitz", None),
    ("circulant", {"random_rows": True}), ("toeplitz", {"random_rows": True})])
def test_bp_omp_cosamp_never_build_the_dense_matrix(scheme, opts, monkeypatch):
    A = build_matrix(scheme, 64, 256, seed=8, options=opts)
    x = gen_sparse_signal(256, 6, seed=9)
    y = compress(A, x, noise_variance=1e-4, seed=10)

    def refuse(self):
        raise AssertionError("a matrix-free solver built the dense matrix")

    monkeypatch.setattr(SensingMatrix, "to_dense", refuse)
    z = 0.05 * float(np.max(np.abs(A.rmatvec(y.values))))
    for res in (basis_pursuit(y, A, z=z), omp(y, A, 6), omp(y, A, 0.05),
                cosamp(y, A, 6)):
        assert np.all(np.isfinite(res.x_hat))
        assert rel_err(res.x_hat, x.samples) < 0.2


def _degenerate_instance(scheme, m, extra, seed, zero_col):
    n = m + extra
    if scheme == "gaussian":
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((m, n)) / math.sqrt(m)
        entries[:, zero_col % n] = 0.0
        return SensingMatrix("gaussian", m, n, entries, seed, 1.0,
                             rows=np.arange(m))
    # a sparse generator leaves zero columns at small m
    return build_matrix(scheme, m, n, seed=seed, options={"p": 0.3})


@settings(max_examples=40, deadline=None)
@example(solver="omp", scheme="gaussian", m=1, extra=5, seed=0, zero_col=0,
         zero_y=False, full_k=True)
@example(solver="cosamp", scheme="toeplitz", m=3, extra=0, seed=1, zero_col=0,
         zero_y=False, full_k=True)
# CoSaMP's first pruned fit here is worse than x = 0
@example(solver="cosamp", scheme="gaussian", m=2, extra=1, seed=0, zero_col=1,
         zero_y=False, full_k=False)
@given(solver=st.sampled_from(("bp", "omp", "omp_tol", "cosamp")),
       scheme=st.sampled_from(("gaussian", "circulant", "toeplitz")),
       m=st.integers(1, 10), extra=st.integers(0, 30),
       seed=st.integers(0, 10_000), zero_col=st.integers(0, 40),
       zero_y=st.booleans(), full_k=st.booleans())
def test_matrix_free_solvers_on_degenerate_inputs(solver, scheme, m, extra, seed,
                                                  zero_col, zero_y, full_k):
    # y = 0, zero columns, m = 1 and k = m are legitimate inputs: a finite
    # estimate, a nonincreasing trace, and only the documented warnings
    A = _degenerate_instance(scheme, m, extra, seed, zero_col)
    y = np.zeros(m) if zero_y else np.random.default_rng(seed + 1).standard_normal(m)
    k = m if full_k else max(1, m // 3)
    call = {
        "bp": lambda: basis_pursuit(y, A, z=0.1),
        "omp": lambda: omp(y, A, k),
        "omp_tol": lambda: omp(y, A, 1e-6),
        "cosamp": lambda: cosamp(y, A, k),
    }[solver]
    # BP thresholds every tried step at z / (2L), so these show its L
    thresholds = []
    soft = recovery._soft

    def spy(u, thresh):
        thresholds.append(thresh)
        return soft(u, thresh)

    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("always")
        mp.setattr(recovery, "_soft", spy)
        res = call()
    for w in caught:
        assert issubclass(w.category, RuntimeWarning)
        assert "linearly dependent" in str(w.message) or "working regime" in str(w.message)
    # 0 < L < inf on every step
    assert all(0.0 < t < math.inf for t in thresholds)
    assert res.x_hat.shape == (A.n,)
    assert np.all(np.isfinite(res.x_hat))
    assert np.all(np.isfinite(res.objective_trace))
    assert np.all(np.diff(res.objective_trace) <= 1e-12 * max(res.objective_trace[0], 1.0))
    # the trace ends at the returned estimate's own objective
    resid = y - A.matvec(res.x_hat)
    last = (float(resid @ resid) + 0.1 * float(np.abs(res.x_hat).sum())
            if solver == "bp" else float(np.linalg.norm(resid)))
    assert last == pytest.approx(res.objective_trace[-1], rel=1e-9, abs=1e-12)
    if zero_y:
        assert not np.any(res.x_hat) and res.converged


# --------------------------------------------------------------------- bayesian

def test_bayesian_noiseless_recovery_self_estimated():
    A, x, y = planted_instance("gaussian", 100, 256, 10, seed=11)
    res = bayesian_recover(y, A)
    assert rel_err(res.x_hat, x.samples) < 1e-5
    assert np.count_nonzero(res.x_hat) == 10
    assert set(np.flatnonzero(res.x_hat)) == set(x.support)


def test_bayesian_noiseless_recovery_informed():
    A, x, y = planted_instance("gaussian", 100, 256, 10, seed=11)
    res = bayesian_recover(y, A, BayesOpts(noise_variance=0.0))
    assert rel_err(res.x_hat, x.samples) < 1e-9
    assert np.count_nonzero(res.x_hat) == 10


def test_bayesian_inactive_coefficients_exact_zero():
    A, x, y = planted_instance("circulant", 100, 200, 15, seed=12,
                               noise_variance=1e-3)
    res = bayesian_recover(y, A)
    off = np.setdiff1d(np.arange(200), np.flatnonzero(res.x_hat))
    assert np.all(res.x_hat[off] == 0.0)
    assert np.all(np.isinf(res.hyper_a[off]))
    assert np.all(np.isfinite(res.hyper_a[np.flatnonzero(res.x_hat)]))


def test_bayesian_trace_nonincreasing():
    A, _, y = planted_instance("circulant", 100, 200, 15, seed=13,
                               noise_variance=1e-3)
    res = bayesian_recover(y, A)
    assert np.all(np.diff(res.base.objective_trace) <= 1e-9)


def test_bayesian_sparsity_near_truth_at_moderate_noise():
    hits = 0
    for seed in range(5):
        A, x, y = planted_instance("circulant", 100, 200, 15, seed=20 + seed,
                                   noise_variance=0.0)
        clean = A.matvec(x.samples)
        nv = float(np.mean(clean**2)) / 1e3  # 30 dB measurement SNR
        y = compress(A, x, noise_variance=nv, seed=999 + seed)
        res = bayesian_recover(y, A)
        k_hat = np.count_nonzero(res.x_hat)
        if abs(k_hat - 15) <= 2:
            hits += 1
    assert hits >= 4


def _penalized_neg_log_evidence(dense, y, support, a, b, add_bar):
    """-log p(y) + add_bar/2 per column, with C evaluated by slogdet."""
    phi = dense[:, support]
    cov = np.eye(dense.shape[0]) / b + (phi / a) @ phi.T
    _, logdet = np.linalg.slogdet(cov)
    quad = float(y @ np.linalg.solve(cov, y))
    m = dense.shape[0]
    return 0.5 * (m * math.log(2 * math.pi) + logdet + quad + add_bar * len(support))


def test_bayesian_trace_is_the_penalized_log_evidence():
    A, _, y = planted_instance("gaussian", 60, 120, 8, seed=18,
                               noise_variance=1e-3)
    dense, yv = A.to_dense(), y.values
    res = bayesian_recover(y, A, BayesOpts(noise_variance=1e-3))
    trace = res.base.objective_trace
    add_bar = math.log(A.n)
    # the first entry scores the seed model: the best single column, with its
    # precision from the closed-form one-column optimum
    colsq = np.sum(dense**2, axis=0)
    phi_y = dense.T @ yv
    first = int(np.argmax(phi_y**2 / colsq))
    a0 = colsq[first] / (phi_y[first] ** 2 / colsq[first] - 1e-3)
    assert trace[0] == pytest.approx(_penalized_neg_log_evidence(
        dense, yv, [first], np.array([a0]), 1e3, add_bar), rel=1e-10)
    # the last entry scores the returned model
    support = np.flatnonzero(res.x_hat)
    assert res.base.converged
    assert trace[-1] == pytest.approx(_penalized_neg_log_evidence(
        dense, yv, support, res.hyper_a[support], res.hyper_b, add_bar), rel=1e-10)


def test_bayesian_trace_bounded_in_uninformed_low_snr_run():
    A, _, y = planted_instance("toeplitz", 200, 400, 20, seed=19)
    clean = y.values
    nv = float(np.mean(clean**2)) * 10.0  # -10 dB measurement SNR
    noisy = clean + np.random.default_rng(19).standard_normal(A.m) * math.sqrt(nv)
    trace = bayesian_recover(noisy, A).base.objective_trace
    assert np.all(np.isfinite(trace))
    # every entry is a real evidence, of order m nats; a running sum of
    # gains scored under a drifting noise estimate reaches 2e18 on this input
    assert np.max(np.abs(trace)) < 10.0 * A.m


def test_bayesian_converged_means_the_stop_rule_fired():
    hits = total = 0
    for snr_db in (-10.0, 0.0, 10.0):
        for seed in range(10):
            rng = np.random.default_rng([43, seed])
            A = build_matrix("toeplitz", 200, 400, seed=int(rng.integers(2**31)))
            x = np.zeros(400)
            x[rng.choice(400, 20, replace=False)] = rng.choice([-1.0, 1.0], 20)
            clean = A.matvec(x)
            nv = float(np.mean(clean**2)) / 10.0 ** (snr_db / 10.0)
            y = clean + rng.normal(0.0, math.sqrt(nv), A.m)
            hits += bayesian_recover(y, A, BayesOpts(noise_variance=nv)).base.converged
            total += 1
    assert hits >= 0.9 * total
    A, _, y = planted_instance("toeplitz", 100, 200, 10, seed=21,
                               noise_variance=1e-3)
    assert not bayesian_recover(y, A, BayesOpts(max_iter=5)).base.converged


@settings(max_examples=20, deadline=None)
@example(m=1, extra=15, seed=3, zero_col=0)
@given(m=st.integers(1, 12), extra=st.integers(1, 30), seed=st.integers(0, 10_000),
       zero_col=st.integers(0, 41))
def test_bayesian_degenerate_inputs(m, extra, seed, zero_col):
    n = m + extra
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((m, n)) / math.sqrt(m)
    j0 = zero_col % n
    entries[:, j0] = 0.0
    A = SensingMatrix("gaussian", m, n, entries, seed, 1.0, rows=np.arange(m))
    # m = 1 is in range: one measurement must not break the posterior
    # y = 0: the empty model, which is optimal and converged
    empty = bayesian_recover(np.zeros(m), A)
    assert not np.any(empty.x_hat) and empty.base.converged
    # a zero column never enters the support, whatever y is
    y = rng.standard_normal(m)
    res = bayesian_recover(y, A)
    assert res.x_hat[j0] == 0.0 and np.isinf(res.hyper_a[j0])
    assert np.all(np.isfinite(res.x_hat))
    assert np.all(np.isfinite(res.base.objective_trace))
    assert np.all(np.diff(res.base.objective_trace) <= 1e-9)
    assert res.noise_variance_hat > 0.0


def test_bayesian_fixed_noise_pins_hyper_b():
    A, _, y = planted_instance("gaussian", 60, 120, 8, seed=14,
                               noise_variance=1e-4)
    res = bayesian_recover(y, A, BayesOpts(noise_variance=1e-4))
    assert res.hyper_b == pytest.approx(1e4, rel=1e-12)
    assert res.noise_variance_hat == pytest.approx(1e-4, rel=1e-12)


def test_bayesian_posterior_fields_consistent():
    A, _, y = planted_instance("gaussian", 60, 120, 8, seed=15,
                               noise_variance=1e-3)
    res = bayesian_recover(y, A)
    assert res.x_hat is res.base.x_hat
    assert res.noise_variance_hat > 0.0
    assert np.all(res.signal_variance_hat >= 0.0)
    active = np.flatnonzero(res.x_hat)
    assert np.all(res.signal_variance_hat[active] > 0.0)


def test_bayesian_zero_measurements_return_empty_model():
    A = build_matrix("gaussian", 30, 60, seed=16)
    res = bayesian_recover(np.zeros(30), A)
    assert np.count_nonzero(res.x_hat) == 0
    assert res.base.converged


def test_bayesian_length_validation():
    A = build_matrix("gaussian", 30, 60, seed=17)
    with pytest.raises(ValueError):
        bayesian_recover(np.ones(29), A)


@pytest.mark.parametrize("scheme", ["gaussian", "bernoulli", "circulant", "toeplitz"])
def test_bayesian_never_builds_the_dense_matrix(scheme, monkeypatch):
    A, x, y = planted_instance(scheme, 64, 160, 6, seed=33, noise_variance=1e-3)

    def refuse(self):
        raise AssertionError("bayesian_recover built the dense matrix")

    monkeypatch.setattr(SensingMatrix, "to_dense", refuse)
    for opts in (BayesOpts(noise_variance=1e-3), BayesOpts()):
        res = bayesian_recover(y, A, opts)
        assert rel_err(res.x_hat, x.samples) < 0.1


def _dense_posterior(A, y, res):
    """The posterior mean and variances that the returned support, hyper_a
    and hyper_b define, recomputed from the dense matrix, and the condition
    number of the posterior precision H."""
    support = np.flatnonzero(np.isfinite(res.hyper_a))
    phi = A.to_dense()[:, support]
    hess = res.hyper_b * phi.T @ phi + np.diag(res.hyper_a[support])
    sigma = np.linalg.inv(hess)
    cond = float(np.linalg.cond(hess)) if support.size else 1.0
    return support, res.hyper_b * sigma @ (phi.T @ y), np.diag(sigma), cond


@settings(max_examples=40, deadline=None)
@example(scheme="gaussian", m=1, extra=6, seed=2, zero_col=0, mode="noiseless")
@example(scheme="toeplitz", m=12, extra=30, seed=5, zero_col=0, mode="noiseless")
@given(scheme=st.sampled_from(("gaussian", "circulant", "toeplitz")),
       m=st.integers(1, 24), extra=st.integers(1, 40), seed=st.integers(0, 10_000),
       zero_col=st.integers(0, 63),
       mode=st.sampled_from(("informed", "noiseless", "uninformed")))
def test_property_bayesian_returns_the_exact_posterior(scheme, m, extra, seed,
                                                      zero_col, mode):
    # zero columns, m = 1 and noiseless informed runs (b = 1e12, where
    # rounding in the rank-one updates grows fastest) included
    A = _degenerate_instance(scheme, m, extra, seed, zero_col)
    rng = np.random.default_rng(seed + 1)
    x = np.zeros(A.n)
    x[rng.choice(A.n, max(1, m // 3), replace=False)] = rng.choice([-1.0, 1.0], max(1, m // 3))
    y = A.matvec(x)
    nv = 0.01 * float(np.mean(y**2))
    if mode != "noiseless":
        y = y + rng.standard_normal(m) * math.sqrt(nv)
    opts = {"informed": BayesOpts(noise_variance=nv),
            "noiseless": BayesOpts(noise_variance=0.0),
            "uninformed": BayesOpts()}[mode]
    res = bayesian_recover(y, A, opts)
    support, mu, var, cond = _dense_posterior(A, y, res)
    off = np.ones(A.n, dtype=bool)
    off[support] = False
    assert not np.any(res.x_hat[off]) and not np.any(res.signal_variance_hat[off])
    # rel 1e-9; past cond(H) = 1e5 (collinear support columns of a sparse
    # generator at b = 1e12 reach 1e12) no inverse, the reference's
    # included, is good to better than about cond(H) * eps
    rtol = max(1e-9, 1e-14 * cond)
    for got, want in ((res.x_hat[support], mu), (res.signal_variance_hat[support], var)):
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def _posterior_state(post):
    return {name: getattr(post, name)
            for name in ("sigma", "mu", "logdet_h", "big_s", "big_q")}


@pytest.mark.parametrize("scheme,noise_variance", [
    ("gaussian", 1e-3), ("toeplitz", 1e-3), ("circulant", 0.0)])
def test_bayesian_rank_one_updates_match_a_refresh(scheme, noise_variance):
    # random adds, re-estimates and deletes, each checked against the model
    # rebuilt from scratch; noise_variance 0 is b = 1e12
    A, _, y = planted_instance(scheme, 40, 120, 5, seed=34,
                               noise_variance=noise_variance)
    b = 1e12 if noise_variance == 0.0 else 1.0 / noise_variance
    colsq = A.column_norms() ** 2
    post = recovery._RvmPosterior(A, A.rmatvec(y.values), colsq, b, 7, 1.0)
    post.refresh()
    rng = np.random.default_rng(35)
    for step in range(60):
        k = len(post.active)
        action = rng.choice(3, p=[0.5, 0.3, 0.2]) if k > 1 else 0
        alpha = 10.0 ** rng.uniform(-2.0, 2.0)
        if action == 0:
            col = int(rng.choice(np.setdiff1d(np.arange(A.n), post.active)))
            post.add(col, alpha)
        elif action == 1:
            post.reestimate(int(rng.integers(k)), alpha)
        else:
            post.delete(int(rng.integers(k)))
        ref = copy.deepcopy(post)
        ref.refresh()
        # errors relative to each quantity's natural scale: S_i and Q_i are
        # differences of terms of size b |a_i|^2 and b |a_i| |y|
        scales = {"sigma": np.max(np.abs(ref.sigma)), "mu": np.max(np.abs(ref.mu)),
                  "logdet_h": max(abs(ref.logdet_h), 1.0), "big_s": b * colsq,
                  "big_q": b * np.sqrt(colsq) * np.linalg.norm(y.values)}
        for name, value in _posterior_state(ref).items():
            err = np.abs(getattr(post, name) - value)
            assert np.all(err <= 1e-9 * scales[name]), (step, name)


def test_bayesian_unsafe_pivot_refreshes(monkeypatch):
    # column 1 duplicates column 0: with tiny precisions, adding it, or
    # bringing its precision back down, has a pivot ratio near 1e-12, and the
    # update is replaced by a refresh
    rng = np.random.default_rng(36)
    entries = rng.standard_normal((10, 30)) / math.sqrt(10)
    entries[:, 1] = entries[:, 0]
    A = SensingMatrix("gaussian", 10, 30, entries, 0, 1.0, rows=np.arange(10))
    y = rng.standard_normal(10)
    refreshes = []
    refresh = recovery._RvmPosterior.refresh
    monkeypatch.setattr(recovery._RvmPosterior, "refresh",
                        lambda self: refreshes.append(1) or refresh(self))
    post = recovery._RvmPosterior(A, A.rmatvec(y), A.column_norms() ** 2, 1e6,
                                  0, 1e-6)
    post.refresh()
    for change, refreshed in ((lambda: post.add(1, 1e-6), True),
                              (lambda: post.reestimate(1, 1e6), False),
                              (lambda: post.reestimate(1, 1e-6), True)):
        calls = len(refreshes)
        change()
        assert len(refreshes) - calls == int(refreshed)
        if refreshed:
            ref = copy.deepcopy(post)
            ref.refresh()
            for name, value in _posterior_state(ref).items():
                assert np.array_equal(getattr(post, name), value), name


def test_bayesian_uninformed_refreshes_after_every_apply_of_a(monkeypatch):
    # b is re-estimated from a residual, one apply of A, and every
    # re-estimate rebuilds the posterior; between re-estimates the rank-one
    # updates keep it current, so no apply goes without a rebuild
    rng = np.random.default_rng([41, 0])
    A = build_matrix("toeplitz", 100, 400, seed=int(rng.integers(2**31)))
    x = np.zeros(400)
    x[rng.choice(400, 20, replace=False)] = rng.choice([-1.0, 1.0], 20)
    clean = A.matvec(x)
    y = clean + rng.normal(0.0, math.sqrt(float(np.mean(clean**2)) / 1e3), A.m)
    counts = {"matvec": 0, "refresh": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(SensingMatrix, "matvec")
    counted(recovery._RvmPosterior, "refresh")
    res = bayesian_recover(y, A)
    assert counts["matvec"] >= 1
    assert counts["matvec"] <= counts["refresh"]
    assert rel_err(res.x_hat, x) < 0.1


def test_bayesian_noiseless_does_not_add_a_collinear_column():
    # columns 2 and 11 of this sparse toeplitz matrix are parallel, so at
    # b = 1e12 column 11 must not enter a model that holds column 2
    A = _degenerate_instance("toeplitz", 6, 8, 5271, 0)
    dense = A.to_dense()
    assert np.linalg.matrix_rank(dense[:, [2, 11]]) == 1
    x = np.zeros(A.n)
    x[2] = x[10] = 1.0
    res = bayesian_recover(A.matvec(x), A, BayesOpts(noise_variance=0.0))
    assert tuple(np.flatnonzero(res.x_hat)) == (2, 10)
    assert res.base.converged
    assert np.max(np.abs(res.x_hat - x)) < 1e-9


# (scheme, s, support, iterations, converged, Re) of the informed Bayesian
# trial at n = 400, m = 150, k = 15 and 20 dB with seeds (3s, 3s+1, 3s+2),
# as computed by rebuilding the posterior at every action; the rank-one
# updates follow the same trajectory and differ only by rounding
PINNED_BAYES_ROWS = (
    ("gaussian", 1, (31, 112, 149, 178, 198, 232, 239, 249, 280, 319, 341, 364, 366, 380, 381),
     122, True, 0.024354548840711043),
    ("gaussian", 2, (2, 21, 88, 112, 118, 170, 199, 225, 241, 265, 303, 326, 346, 349, 363, 364),
     241, True, 0.04123777782543767),
    ("gaussian", 3, (45, 53, 58, 60, 80, 102, 161, 163, 201, 202, 274, 299, 309, 323, 328, 369),
     188, True, 0.0414033517959161),
    ("circulant", 1, (31, 112, 149, 178, 198, 232, 239, 249, 280, 319, 341, 364, 366, 380, 381),
     120, True, 0.033641853028323),
    ("circulant", 2, (2, 21, 88, 106, 112, 118, 199, 225, 241, 265, 303, 326, 346, 349, 363, 364,
                      393),
     182, True, 0.04804977850231261),
    ("circulant", 3, (53, 58, 60, 80, 102, 161, 163, 201, 202, 274, 299, 309, 323, 328, 369, 383),
     314, True, 0.04989654526233033),
    ("toeplitz", 1, (31, 112, 149, 178, 198, 232, 239, 249, 280, 300, 319, 341, 364, 366, 380,
                     381),
     132, True, 0.03146598918844295),
    ("toeplitz", 2, (2, 21, 67, 88, 112, 118, 199, 225, 227, 241, 244, 264, 265, 303, 326, 346, 349,
                     363, 364),
     148, True, 0.05727145226682934),
    ("toeplitz", 3, (53, 58, 60, 80, 102, 161, 163, 201, 202, 234, 274, 299, 309, 323, 328, 369),
     262, True, 0.034732681326573034),
)


@pytest.mark.parametrize("scheme,s,support,iterations,converged,re", PINNED_BAYES_ROWS)
def test_bayesian_informed_trajectories_pinned(scheme, s, support, iterations,
                                               converged, re):
    metrics, res = recovery_trial("bayesian", scheme, 400, 15, 150, 20.0,
                                  (3 * s, 3 * s + 1, 3 * s + 2), z_factor=0.1,
                                  inform_noise=True, measure_time=False)
    assert tuple(np.flatnonzero(res.x_hat)) == support
    assert (res.iterations, res.converged) == (iterations, converged)
    assert metrics["re"] == pytest.approx(re, rel=1e-7)


MEASUREMENT_CALLS = ("bp", "omp", "cosamp", "bayesian", "biht", "one_bit_quantize")


def measurement_call(name, A):
    """The solver (k = 3) or quantizer `name`, as a function of the measurements."""
    return {
        "bp": lambda v: basis_pursuit(v, A, z=0.1),
        "omp": lambda v: omp(v, A, 3),
        "cosamp": lambda v: cosamp(v, A, 3),
        "bayesian": lambda v: bayesian_recover(v, A),
        "biht": lambda v: biht_recover(v, A, 3),
        "one_bit_quantize": one_bit_quantize,
    }[name]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", MEASUREMENT_CALLS)
def test_solvers_reject_nonfinite_measurements(solver, bad):
    A, _, y = planted_instance("gaussian", 30, 60, 3, seed=4)
    call = measurement_call(solver, A)
    one_bad = y.values.copy()
    one_bad[5] = bad
    for v in (np.full(A.m, bad), one_bad):
        with pytest.raises(ValueError, match="finite"):
            call(v)


@pytest.mark.parametrize("solver", MEASUREMENT_CALLS)
def test_solvers_reject_complex_measurements(solver):
    A, _, y = planted_instance("gaussian", 30, 60, 3, seed=4)
    call = measurement_call(solver, A)
    signs = one_bit_quantize(y).signs
    # a complex dtype is rejected even with zero imaginary parts
    for v in (y.values + 0.5j, y.values.astype(complex), signs.astype(complex)):
        with pytest.raises(ValueError, match="measurements must be real"):
            call(v)


# ---------------------------------------------------------------------- one-bit

def test_one_bit_quantize_signs_and_zero_rule():
    sv = one_bit_quantize(np.array([3.0, -0.5, 0.0, 2.0]))
    assert np.array_equal(sv.signs, [1.0, -1.0, 1.0, 1.0])
    assert len(sv) == 4
    with pytest.raises(ValueError):
        SignVector(signs=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        one_bit_quantize(np.array([]))


@pytest.mark.parametrize("signs", [np.ones((2, 3)), np.ones((1, 1)), np.array(1.0), np.ones(0)])
def test_sign_vector_rejects_other_than_a_nonempty_vector(signs):
    # a 2-d array of +-1 once made a sign vector whose len was its size
    with pytest.raises(ValueError, match="nonempty and 1-d"):
        SignVector(signs=signs)


def test_one_bit_quantize_rejects_blocks():
    # a block came back as a 2-d SignVector
    with pytest.raises(ValueError, match="expected a vector"):
        one_bit_quantize(np.ones((2, 3)))


def test_biht_unit_norm_and_determinism():
    A, x, y = planted_instance("gaussian", 250, 500, 10, seed=18)
    signs = one_bit_quantize(y)
    res = biht_recover(signs, A, 10)
    assert abs(float(np.linalg.norm(res.x_hat)) - 1.0) < 1e-12
    again = biht_recover(signs, A, 10)
    assert np.array_equal(res.x_hat, again.x_hat)


def test_biht_direction_recovery():
    A, x, y = planted_instance("gaussian", 250, 500, 10, seed=19)
    res = biht_recover(one_bit_quantize(y), A, 10)
    target = x.samples / np.linalg.norm(x.samples)
    corr = abs(float(res.x_hat @ target))
    assert corr > 0.8


def test_biht_scale_invariant_in_matrix_normalization():
    A, x, y = planted_instance("gaussian", 150, 300, 8, seed=21)
    signs = one_bit_quantize(y)
    from cs_toolkit.matrices import SensingMatrix
    B = SensingMatrix("gaussian", A.m, A.n, 7.0 * A.generator, seed=A.seed,
                      scale=1.0, rows=A.rows)
    res_a = biht_recover(signs, A, 8)
    res_b = biht_recover(signs, B, 8)
    # scaling every measurement row leaves signs and the solution unchanged
    assert np.allclose(res_a.x_hat, res_b.x_hat, atol=1e-9)


def test_biht_converged_flag_means_consistent_signs():
    A, x, y = planted_instance("gaussian", 250, 500, 10, seed=22)
    signs = one_bit_quantize(y)
    res = biht_recover(signs, A, 10)
    resim = np.where(A.matvec(res.x_hat) >= 0.0, 1.0, -1.0)
    mismatches = int(np.count_nonzero(resim != signs.signs))
    if res.converged:
        assert mismatches == 0
    assert np.all(np.diff(res.objective_trace) <= 0.0)


def test_biht_applies_a_once_per_iteration(monkeypatch):
    A, _x, y = planted_instance("gaussian", 60, 128, 4, seed=13)
    signs = one_bit_quantize(y)
    applied = []  # vectors A was applied to: one per vector, R per (R, n) block
    matvec = SensingMatrix.matvec
    monkeypatch.setattr(SensingMatrix, "matvec",
                        lambda self, x: applied.append(len(x) if np.ndim(x) == 2 else 1)
                        or matvec(self, x))
    res = biht_recover(signs, A, 4)
    assert res.iterations > 0
    # one trace entry per descent start and one per iteration
    descents = res.objective_trace.size - res.iterations
    assert descents <= BIHT_RESTARTS + BIHT_REFINE_RESTARTS + 1
    assert sum(applied) <= res.iterations + descents + 1  # + the check of x_hat


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# (scheme, seed, x_hat digest, iterations, trace length, trace digest,
# converged) of biht_recover on noiseless 150x400 instances with k = 15;
# digests are sha256 prefixes of the arrays' bytes
PINNED_BIHT_ROWS = (
    ("circulant", 41, "f6441cc0b0976e93", 1021, 1042, "83f18fc665f4fbf8", True),
    ("circulant", 42, "74645c0887fd651b", 832, 853, "b924641a27a4c275", True),
    ("circulant", 43, "34baa7a98fc6b546", 2935, 2956, "23f62a536a220cc2", True),
    ("toeplitz", 41, "ce79ed06342d86fa", 2623, 2644, "da78025cdea7b001", True),
    ("toeplitz", 42, "ee5dee8c80774aab", 1419, 1440, "7c5b8bd3980500b2", True),
    ("toeplitz", 43, "b284a5fa45f46636", 1618, 1639, "51231dbc9678b0e3", True),
)


def test_biht_structured_results_pinned():
    rows = []
    for scheme, seed, *_ in PINNED_BIHT_ROWS:
        A, _x, y = planted_instance(scheme, 150, 400, 15, seed)
        res = biht_recover(one_bit_quantize(y), A, 15)
        rows.append((scheme, seed, _digest(res.x_hat), res.iterations,
                     res.objective_trace.size, _digest(res.objective_trace),
                     res.converged))
    assert tuple(rows) == PINNED_BIHT_ROWS


def _assert_usable_biht(res, A, signs):
    assert res.x_hat.shape == (A.n,)
    assert np.all(np.isfinite(res.x_hat))
    assert abs(float(np.linalg.norm(res.x_hat)) - 1.0) < 1e-12
    assert np.all(np.diff(res.objective_trace) <= 0.0)
    if res.converged:
        # the estimate quantizes to the signs exactly, also where a product
        # that is zero in exact arithmetic comes out of the FFT as +-1e-17
        assert np.array_equal(one_bit_quantize(A.matvec(res.x_hat)).signs, signs)


@settings(max_examples=40, deadline=None)
@example(scheme="gaussian", m=1, extra=5, seed=0, zero_col=0, equal_signs=True,
         full_k=True)
@example(scheme="toeplitz", m=3, extra=0, seed=1, zero_col=0, equal_signs=False,
         full_k=True)
@given(scheme=st.sampled_from(("gaussian", "circulant", "toeplitz")),
       m=st.integers(1, 10), extra=st.integers(0, 30),
       seed=st.integers(0, 10_000), zero_col=st.integers(0, 40),
       equal_signs=st.booleans(), full_k=st.booleans())
def test_biht_degenerate_inputs(scheme, m, extra, seed, zero_col, equal_signs, full_k):
    # equal signs, zero columns, m = 1 and k = n are legitimate inputs: a
    # finite unit-norm estimate, or the documented IllConditionedError when
    # A^T s or every column vanishes
    A = _degenerate_instance(scheme, m, extra, seed, zero_col)
    rng = np.random.default_rng(seed + 1)
    signs = np.ones(m) if equal_signs else rng.choice([-1.0, 1.0], size=m)
    k = A.n if full_k else max(1, A.n // 4)
    try:
        res = biht_recover(signs, A, k, opts=SolverOpts(max_iter=40))
    except IllConditionedError as exc:
        assert "vanish" in str(exc)
        return
    _assert_usable_biht(res, A, signs)


@pytest.mark.parametrize("restarts,refine", [(1, 0), (3, 0), (1, 2)])
def test_biht_with_empty_restart_blocks(monkeypatch, restarts, refine):
    # a restart block with no start points runs nothing and adds nothing
    monkeypatch.setattr(recovery, "BIHT_RESTARTS", restarts)
    monkeypatch.setattr(recovery, "BIHT_REFINE_RESTARTS", refine)
    A, _x, y = planted_instance("circulant", 40, 100, 3, seed=29)
    signs = one_bit_quantize(y).signs
    res = biht_recover(signs, A, 3, opts=SolverOpts(max_iter=50))
    _assert_usable_biht(res, A, signs)
    assert res.objective_trace.size - res.iterations <= restarts + refine + 1


def test_biht_dithered_starts_that_vanish_are_skipped():
    # one nonzero column [1, 1]: A^T d vanishes for every dither d that flips
    # exactly one of the two signs, so those starts are dropped from the block
    entries = np.zeros((2, 6))
    entries[:, 2] = 1.0
    A = SensingMatrix("gaussian", 2, 6, entries, 0, 1.0, rows=np.arange(2))
    signs = np.ones(2)
    for seed in range(30):
        res = biht_recover(signs, A, 1, opts=SolverOpts(seed=seed))
        _assert_usable_biht(res, A, signs)
        assert res.converged and abs(res.x_hat[2]) == 1.0


def test_biht_counts_a_zero_product_as_plus_one():
    # A = [[1, 1, 0], [0, 1, 1]] / sqrt(2): e_2 and -e_0 each leave one
    # product that is zero in exact arithmetic, which the FFT apply returns
    # as +-5e-17 depending on the scale of x; `converged` must agree with
    # the quantized signs of the returned estimate, not with s * A x < 0
    A = build_matrix("circulant", 2, 3, options={"generator": [1.0, 1.0, 0.0]})
    signs = np.array([-1.0, 1.0])
    res = biht_recover(signs, A, 1)
    _assert_usable_biht(res, A, signs)
    hd = int(np.count_nonzero(one_bit_quantize(A.matvec(res.x_hat)).signs != signs))
    assert res.converged == (hd == 0)


def test_biht_validation():
    A = build_matrix("gaussian", 20, 50, seed=23)
    with pytest.raises(ValueError):
        biht_recover(np.ones(19), A, 5)
    with pytest.raises(ValueError):
        biht_recover(np.full(20, 0.5), A, 5)
    with pytest.raises(ValueError):
        biht_recover(np.ones(20), A, 0)


# ------------------------------------------------------------------- properties

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_omp_trace_monotone(seed):
    rng = np.random.default_rng(seed)
    A = build_matrix("gaussian", 20, 40, seed=seed)
    y = rng.standard_normal(20)
    res = omp(y, A, 10)
    assert np.all(np.diff(res.objective_trace) <= 1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_bp_trace_monotone(seed):
    rng = np.random.default_rng(seed)
    A = build_matrix("gaussian", 20, 40, seed=seed)
    y = rng.standard_normal(20)
    res = basis_pursuit(y, A, z=0.1, opts=SolverOpts(max_iter=200))
    assert np.all(np.diff(res.objective_trace) <= 1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_biht_output_always_unit_norm(seed):
    rng = np.random.default_rng(seed)
    A = build_matrix("gaussian", 30, 60, seed=seed)
    signs = SignVector(signs=rng.choice([-1.0, 1.0], size=30))
    res = biht_recover(signs, A, 5, opts=SolverOpts(max_iter=30))
    assert abs(float(np.linalg.norm(res.x_hat)) - 1.0) < 1e-12
