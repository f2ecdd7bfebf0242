"""Experiment harness tests: determinism, accounting, scan survey."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cs_toolkit import harness
from cs_toolkit.detectors import (
    IDLE,
    OCCUPIED,
    TECHNIQUES,
    closed_form_roc,
    detect,
    energy_threshold,
    quiet_time_threshold,
)
from cs_toolkit.errors import IllConditionedError
from cs_toolkit.harness import (
    SOLVERS,
    BandPlan,
    ExperimentConfig,
    TrafficModel,
    _threshold,
    default_band_plan,
    recovery_trial,
    run_detection_mc,
    run_recovery_mc,
    run_scan_sim,
)
from cs_toolkit.io import serialize_report
from cs_toolkit.matrices import SCHEMES, SensingMatrix, build_matrix, compress
from cs_toolkit.recovery import omp
from cs_toolkit.signals import (
    evaluate_metrics,
    gen_pilot_bpsk,
    gen_pilot_qpsk,
    gen_sparse_signal,
)


@pytest.mark.parametrize("field,value", [
    ("trials_Nt", 2.5), ("samples_N", 100.0), ("measurements_M", 1.5),
    ("sparsity_k", 2.5), ("averaging_runs", 4.0), ("euclid_lags_M", 8.5),
    ("slots", 1.5), ("base_seed", 0.5), ("n_grid", (64, 64.5)),
    ("k_grid", (3.5,)), ("m_grid", (16.0,)),
    # a bool is an int to Python, but never a count
    ("trials_Nt", True), ("samples_N", False), ("n_grid", (64, True)),
])
def test_config_rejects_non_integer_counts(field, value):
    # such counts failed with a TypeError partway through a sweep, or not at all
    with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("kind", ["detection_mc", "recovery_mc", "scan_sim"])
def test_config_rejects_a_negative_base_seed(kind):
    # numpy's seeding takes no negative key entry: such a config failed at
    # its first trial with a bare "expected non-negative integer"
    fields = {"recovery_mc": {"sparsity_k": 4, "measurements_M": 32},
              "scan_sim": {"measurements_M": 256}}.get(kind, {})
    with pytest.raises(ValueError, match="base_seed must be >= 0, got -5"):
        ExperimentConfig(experiment_kind=kind, base_seed=-5, **fields)
    assert ExperimentConfig(experiment_kind=kind, base_seed=0, **fields).base_seed == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials_Nt=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment_kind="bench")
    with pytest.raises(ValueError):
        ExperimentConfig(snr_grid_db=())
    with pytest.raises(ValueError):
        ExperimentConfig(technique_list=())
    # a misspelt name must not read as a sweep of zero successful trials
    with pytest.raises(ValueError, match="unknown solver 'ompp'"):
        ExperimentConfig(experiment_kind="recovery_mc", solver_list=("ompp",))
    with pytest.raises(ValueError, match="unknown technique 'wavelet'"):
        ExperimentConfig(technique_list=("energy", "wavelet"))
    with pytest.raises(ValueError, match="invalid snr_grid_db entry nan"):
        ExperimentConfig(snr_grid_db=(0.0, math.nan))
    with pytest.raises(ValueError, match="could not convert"):
        ExperimentConfig(snr_grid_db=("x",))
    # a recovery trial has no noise variance for -inf; detection reads it as
    # noise only
    with pytest.raises(ValueError, match="invalid snr_grid_db entry -inf"):
        ExperimentConfig(experiment_kind="recovery_mc", snr_grid_db=(-math.inf,))
    ExperimentConfig(experiment_kind="detection_mc", snr_grid_db=(-math.inf,))
    # +inf is a noiseless recovery trial; a detection or scan cell would
    # scale its signal to inf, and fails here, not after the points before it
    for kind in ("detection_mc", "scan_sim"):
        with pytest.raises(ValueError, match="invalid snr_grid_db entry inf"):
            ExperimentConfig(experiment_kind=kind, snr_grid_db=(-5.0, math.inf))
    ExperimentConfig(experiment_kind="recovery_mc", snr_grid_db=(math.inf,),
                     n_grid=(64,), k_grid=(4,), m_grid=(32,))
    # detection threshold factors fail when the config is built, not at the
    # grid point that uses them
    for factor in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="invalid threshold factor"):
            ExperimentConfig(threshold_factors=(1.0, factor))
    with pytest.raises(ValueError, match="autocorr margin 1.8 outside"):
        ExperimentConfig(threshold_factors=(1.0, 2.0),
                         technique_list=("energy", "autocorr"))
    with pytest.raises(ValueError, match="autocorr margin"):
        ExperimentConfig(technique_list=("autocorr",), autocorr_margin=-0.5)
    ExperimentConfig(threshold_factors=(1.0, 2.0),
                     technique_list=("energy", "matched_filter", "euclid"))
    with pytest.raises(ValueError, match="averaging_runs must be >= 1"):
        ExperimentConfig(averaging_runs=0)
    # an empty survey must not read as a survey that detected nothing
    with pytest.raises(ValueError, match="slots must be >= 1"):
        ExperimentConfig(experiment_kind="scan_sim", slots=0)
    # a survey's occupancy probability fails here, not at its first channel
    for busy_prob in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="busy_prob .* outside"):
            ExperimentConfig(experiment_kind="scan_sim", busy_prob=busy_prob)
    for busy_prob in (0.0, 1.0):
        ExperimentConfig(experiment_kind="scan_sim", busy_prob=busy_prob)
    # euclid needs more samples than lags: a cell that cannot run fails when
    # the config is built, not partway through the sweep
    with pytest.raises(ValueError, match="samples_N 50 above euclid_lags_M 64"):
        ExperimentConfig(technique_list=("energy", "euclid"), samples_N=50)
    with pytest.raises(ValueError, match="samples_N 64 above euclid_lags_M 64"):
        ExperimentConfig(technique_list=("euclid",), samples_N=64)
    ExperimentConfig(technique_list=("euclid",), samples_N=65)
    ExperimentConfig(technique_list=("energy",), samples_N=50)
    # so does a sweep with too few samples for any detector, or for autocorr
    for technique in TECHNIQUES:
        with pytest.raises(ValueError, match="at least 1 sample, got samples_N 0"):
            ExperimentConfig(technique_list=(technique,), samples_N=0)
    with pytest.raises(ValueError, match="at least 1 sample, got samples_N -3"):
        ExperimentConfig(technique_list=("energy",), samples_N=-3)
    with pytest.raises(ValueError, match="autocorr needs at least 2 samples, got "
                                         "samples_N 1"):
        ExperimentConfig(technique_list=("energy", "autocorr"), samples_N=1)
    ExperimentConfig(technique_list=("autocorr",), samples_N=2)
    ExperimentConfig(technique_list=("energy", "matched_filter"), samples_N=1)
    # the sample check is the detection sweep's; a scan checks its own lengths
    ExperimentConfig(experiment_kind="recovery_mc", samples_N=0, n_grid=(64,),
                     k_grid=(4,), m_grid=(32,))
    # the survey's default compressive length is samples_N // 4
    assert ExperimentConfig(experiment_kind="scan_sim", samples_N=3072
                            ).scan_measurements() == 768
    assert ExperimentConfig(experiment_kind="scan_sim", samples_N=3072,
                            measurements_M=100).scan_measurements() == 100
    with pytest.raises(ValueError, match="length 64 must be above euclid_lags_M 64"):
        ExperimentConfig(experiment_kind="scan_sim", samples_N=256)
    with pytest.raises(ValueError, match="length 40 must be above euclid_lags_M 64"):
        ExperimentConfig(experiment_kind="scan_sim", samples_N=256, measurements_M=40)
    with pytest.raises(ValueError, match="length 300 .* at most samples_N 256"):
        ExperimentConfig(experiment_kind="scan_sim", samples_N=256, measurements_M=300)
    ExperimentConfig(experiment_kind="scan_sim", samples_N=256, measurements_M=256)
    ExperimentConfig(experiment_kind="scan_sim", samples_N=256, measurements_M=65)
    # detection and the scan scale by the noise variance: a bad one fails
    # here, not in the first detector or idle scan cell that meets it
    for kind, extra in (("detection_mc", {}),
                        ("scan_sim", {"samples_N": 256, "measurements_M": 128})):
        for nv in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="invalid noise_variance"):
                ExperimentConfig(experiment_kind=kind, noise_variance=nv, **extra)
        ExperimentConfig(experiment_kind=kind, noise_variance=1e-6, **extra)
    # recovery sweeps scale their noise to the SNR grid and never read it
    ExperimentConfig(experiment_kind="recovery_mc", noise_variance=0.0,
                     n_grid=(64,), k_grid=(4,), m_grid=(32,))
    # a misspelt threshold mode must not run as quiet_time
    with pytest.raises(ValueError, match="unknown threshold_mode 'eq9'"):
        ExperimentConfig(threshold_mode="eq9")
    # eq8 reads pfa_target; a bad one fails before any technique runs
    for pfa in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="pfa_target .* outside"):
            ExperimentConfig(technique_list=("matched_filter", "energy"),
                             threshold_mode="eq8", pfa_target=pfa)
    ExperimentConfig(technique_list=("energy",), threshold_mode="eq8", pfa_target=0.01)
    # quiet-time thresholds never read it
    ExperimentConfig(technique_list=("energy",), pfa_target=0.0)
    # basis pursuit's z must be finite and nonnegative
    cells = dict(experiment_kind="recovery_mc", n_grid=(64,), k_grid=(4,), m_grid=(32,))
    for z_factor in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="invalid bp_z_factor"):
            ExperimentConfig(solver_list=("omp", "bp"), bp_z_factor=z_factor, **cells)
    ExperimentConfig(solver_list=("bp",), bp_z_factor=0.0, **cells)
    # a NaN or infinite threshold decides every cell alike: euclid at NaN
    # read pd = pfa = 1.0, and a scan's energy at NaN never decided busy
    scan = dict(experiment_kind="scan_sim", samples_N=256, measurements_M=128)
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="invalid euclid_lambda"):
            ExperimentConfig(technique_list=("energy", "euclid"), euclid_lambda=lam)
        with pytest.raises(ValueError, match="invalid euclid_lambda"):
            ExperimentConfig(euclid_lambda=lam, **scan)
        # a sweep without euclid never reads it
        ExperimentConfig(technique_list=("energy",), euclid_lambda=lam)
    for lam in (math.nan, math.inf, -1e-10):
        with pytest.raises(ValueError, match="invalid energy_lambda_scan"):
            ExperimentConfig(energy_lambda_scan=lam, **scan)
    ExperimentConfig(energy_lambda_scan=0.0, **scan)
    # the scan's autocorr margin fails here, not in its first cell
    for margin in (0.0, -0.5, 1.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="scan autocorr_margin .* outside"):
            ExperimentConfig(autocorr_margin=margin, **scan)
    ExperimentConfig(autocorr_margin=1.0, **scan)


def test_detection_at_minus_inf_snr_is_noise_only():
    curve = run_detection_mc(small_detection_config(
        snr_grid_db=(-math.inf,), technique_list=("energy",)))
    (rec,) = curve.records
    # with no signal Pd and Pfa are two draws of one binomial law (64 trials
    # each): a 4-sigma band
    assert abs(rec["pd"] - rec["pfa"]) < 0.35


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
def test_recovery_trial_rejects_unscalable_snr(snr_db):
    with pytest.raises(ValueError, match="finite SNR or inf"):
        recovery_trial("omp", "gaussian", 32, 3, 16, snr_db, (0, 1, 2),
                       z_factor=0.1, inform_noise=True, measure_time=False)


def test_recovery_trial_applies_a_once_before_the_solve(monkeypatch):
    calls = []
    apply = SensingMatrix.matvec

    def counted(self, x):
        calls.append("matvec")
        return apply(self, x)

    def solve(*args, **kwargs):
        calls.append("solve")
        return real_solve(*args, **kwargs)

    real_solve = harness._solve
    monkeypatch.setattr(SensingMatrix, "matvec", counted)
    monkeypatch.setattr(harness, "_solve", solve)
    metrics, _ = recovery_trial("omp", "circulant", 128, 6, 48, 10.0, (1, 2, 3),
                                z_factor=0.1, inform_noise=False,
                                measure_time=False)
    assert calls[:calls.index("solve")] == ["matvec"]
    # the measurements are A x plus the noise that compress draws
    monkeypatch.undo()
    A = build_matrix("circulant", 48, 128, seed=1)
    x = gen_sparse_signal(128, 6, seed=2)
    clean = A.matvec(x.samples)
    nv = float(np.mean(clean**2)) / 10.0
    y = compress(A, x, noise_variance=nv, seed=3)
    expected = omp(y, A, 6).x_hat
    assert metrics["re"] == evaluate_metrics(x, expected).recovery_error_Re


def _omp_raising(exc):
    def solver(*_args, **_kwargs):
        raise exc
    return solver


@pytest.mark.parametrize("exc", [IllConditionedError("singular posterior"),
                                 np.linalg.LinAlgError("Singular matrix")])
def test_recovery_sweep_counts_numerical_failures(monkeypatch, exc):
    monkeypatch.setattr(harness, "omp", _omp_raising(exc))
    cfg = small_recovery_config(solver_list=("omp", "bayesian"), trials_Nt=3)
    omp_rec, bayes_rec = run_recovery_mc(cfg).records
    assert omp_rec["trials"] == 0
    # a cell with no completed trial has no means, and must not read as a
    # perfect recovery
    for key in ("mean_re", "mean_mse", "mean_cc", "mean_rsnr", "mean_hd",
                "mean_tr_ms", "mean_tp_ms"):
        assert math.isnan(omp_rec[key]), key
    assert bayes_rec["trials"] == 3
    with pytest.raises(RuntimeError, match=str(exc)):
        recovery_trial("omp", "gaussian", 64, 4, 32, 20.0, (0, 1, 2),
                       z_factor=0.1, inform_noise=True, measure_time=False)


@pytest.mark.parametrize("exc", [ValueError("bad shape"), TypeError("bad call"),
                                 IndexError("bad index"), ZeroDivisionError()])
def test_recovery_sweep_aborts_on_other_solver_errors(monkeypatch, exc):
    # a programming error must surface, not read as a sweep of failed trials
    monkeypatch.setattr(harness, "omp", _omp_raising(exc))
    with pytest.raises(type(exc)):
        run_recovery_mc(small_recovery_config(solver_list=("omp",), trials_Nt=3))
    with pytest.raises(type(exc)):
        run_recovery_mc(small_recovery_config(solver_list=("omp",), trials_Nt=3,
                                              threads=2))


def small_detection_config(**overrides):
    base = dict(
        experiment_kind="detection_mc",
        trials_Nt=64,
        samples_N=256,
        snr_grid_db=(-10.0, 0.0),
        threshold_factors=(1.0,),
        technique_list=("energy", "matched_filter"),
        base_seed=5,
        averaging_runs=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_detection_counts_and_rate_arithmetic():
    curve = run_detection_mc(small_detection_config())
    assert len(curve.records) == 4  # 2 techniques x 2 snrs x 1 factor
    for rec in curve.records:
        assert 0 <= rec["nd"] <= rec["trials"]
        assert 0 <= rec["nf"] <= rec["trials"]
        assert rec["pd"] == rec["nd"] / rec["trials"]
        assert rec["pfa"] == rec["nf"] / rec["trials"]
    point = curve.point("energy", 0.0, 1.0)
    assert point["technique"] == "energy"
    with pytest.raises(KeyError):
        curve.point("energy", 99.0, 1.0)


def test_detection_deterministic_across_thread_counts():
    a = run_detection_mc(small_detection_config(threads=1))
    b = run_detection_mc(small_detection_config(threads=4))
    c = run_detection_mc(small_detection_config(threads=None))
    assert a.records == b.records == c.records


def test_detection_single_loop_accounting():
    curve = run_detection_mc(small_detection_config(single_loop=True))
    for rec in curve.records:
        # one loop: every trial is either a detection or a tallied miss
        assert rec["nd"] + rec["nf"] == rec["trials"]


def test_detection_eq8_factor_lowers_false_alarms():
    cfg = small_detection_config(
        technique_list=("energy",),
        threshold_mode="eq8",
        threshold_factors=(1.0, 1.05),
        snr_grid_db=(-10.0,),
        trials_Nt=400,
        samples_N=1000,
    )
    curve = run_detection_mc(cfg)
    loose = curve.point("energy", -10.0, 1.0)
    tight = curve.point("energy", -10.0, 1.05)
    assert tight["pfa"] <= loose["pfa"]


def test_detection_energy_matches_closed_form():
    cfg = ExperimentConfig(
        experiment_kind="detection_mc",
        trials_Nt=2000,
        samples_N=1000,
        snr_grid_db=(-5.0,),
        threshold_factors=(1.0,),
        technique_list=("energy",),
        threshold_mode="eq8",
        pfa_target=0.1,
        base_seed=11,
    )
    rec = run_detection_mc(cfg).records[0]
    lam = energy_threshold(0.1, 1000, 1.0)
    point = closed_form_roc("energy", 1000, 1.0, lam, snr_db=-5.0)
    assert rec["pd"] == pytest.approx(point.pd, abs=0.03)
    assert rec["pfa"] == pytest.approx(point.pfa, abs=0.03)


def test_detection_matched_filter_high_pd_at_minus_4db():
    cfg = ExperimentConfig(
        experiment_kind="detection_mc",
        trials_Nt=300,
        samples_N=1000,
        snr_grid_db=(-4.0,),
        threshold_factors=(1.0,),
        technique_list=("matched_filter",),
        base_seed=7,
    )
    rec = run_detection_mc(cfg).records[0]
    assert rec["pd"] >= 0.95


def _assert_law(draws, mean, var):
    """Sample mean and variance of `draws` within 5-sigma bands of the law."""
    k = draws.size
    m = float(np.mean(draws))
    s2 = float(np.var(draws, ddof=1))
    m4 = float(np.mean((draws - m) ** 4))
    assert abs(m - mean) <= 5.0 * math.sqrt(var / k)
    assert abs(s2 - var) <= 5.0 * math.sqrt((m4 - s2**2) / k)


THRESHOLD_DRAWS = 2000


def test_sampled_energy_threshold_follows_its_law():
    n, runs, dw2, factor = 256, 8, 2.0, 1.5
    cfg = small_detection_config(samples_N=n, averaging_runs=runs, noise_variance=dw2)
    rng = np.random.default_rng(41)
    sampled = np.array([_threshold(cfg, "energy", factor, rng, math.sqrt(n))
                        for _ in range(THRESHOLD_DRAWS)])
    # the rule applied to synthesised quiet noise
    quiet = rng.standard_normal((THRESHOLD_DRAWS, runs, n)) * math.sqrt(dw2)
    real = factor * np.mean(np.sum(quiet**2, axis=2), axis=1)
    mean = factor * dw2 * n
    var = factor**2 * dw2**2 * 2.0 * n / runs
    _assert_law(sampled, mean, var)
    _assert_law(real, mean, var)


@pytest.mark.parametrize("make_pilot", [gen_pilot_bpsk, gen_pilot_qpsk])
def test_sampled_matched_filter_threshold_follows_its_law(make_pilot):
    n, runs, dw2, factor = 256, 8, 2.0, 1.5
    cfg = small_detection_config(samples_N=n, averaging_runs=runs, noise_variance=dw2)
    pilot = make_pilot(n, seed=3)
    re_norm = float(np.linalg.norm(np.real(pilot.samples)))
    rng = np.random.default_rng(43)
    sampled = np.array([_threshold(cfg, "matched_filter", factor, rng, re_norm)
                        for _ in range(THRESHOLD_DRAWS)])
    real = np.array([
        quiet_time_threshold(rng.standard_normal(runs * n) * math.sqrt(dw2),
                             pilot, factor, runs)
        for _ in range(THRESHOLD_DRAWS)])
    # each block correlation is N(0, dw2 ||Re p||^2); the threshold is
    # factor times the mean of `runs` of their magnitudes
    scale = factor * math.sqrt(dw2) * re_norm
    mean = scale * math.sqrt(2.0 / math.pi)
    var = scale**2 * (1.0 - 2.0 / math.pi) / runs
    _assert_law(sampled, mean, var)
    _assert_law(real, mean, var)


# (technique, snr_db, factor, nd, nf) of two small sweeps; a rewrite of the
# detection trial that keeps its RNG draws must keep these counts
PINNED_DETECTION_ROWS = (
    ("energy", -10.0, 0.5, 64, 64), ("energy", -10.0, 1.0, 56, 26),
    ("energy", 0.0, 0.5, 64, 64), ("energy", 0.0, 1.0, 64, 33),
    ("energy", 10.0, 0.5, 64, 64), ("energy", 10.0, 1.0, 64, 31),
    ("matched_filter", -10.0, 0.5, 64, 25), ("matched_filter", -10.0, 1.0, 64, 17),
    ("matched_filter", 0.0, 0.5, 64, 21), ("matched_filter", 0.0, 1.0, 64, 15),
    ("matched_filter", 10.0, 0.5, 64, 23), ("matched_filter", 10.0, 1.0, 64, 14),
    ("autocorr", -10.0, 0.5, 0, 0), ("autocorr", -10.0, 1.0, 0, 0),
    ("autocorr", 0.0, 0.5, 41, 0), ("autocorr", 0.0, 1.0, 0, 0),
    ("autocorr", 10.0, 0.5, 64, 0), ("autocorr", 10.0, 1.0, 15, 0),
    ("euclid", -10.0, 0.5, 0, 0), ("euclid", -10.0, 1.0, 0, 0),
    ("euclid", 0.0, 0.5, 0, 0), ("euclid", 0.0, 1.0, 1, 0),
    ("euclid", 10.0, 0.5, 6, 0), ("euclid", 10.0, 1.0, 25, 0),
)
PINNED_EQ8_ROWS = (
    ("energy", -10.0, 1.0, 21, 7), ("energy", -10.0, 1.05, 17, 2),
    ("energy", 0.0, 1.0, 64, 6), ("energy", 0.0, 1.05, 64, 5),
)


def same_generators(prefix, indices):
    """The number of keys on which `_generators` equals `default_rng` in its
    state and in a normal and a buffered 32-bit draw."""
    block = harness._generators(prefix, indices)
    assert len(block) == len(indices)
    for rng, i in zip(block, indices):
        ref = np.random.default_rng([*prefix, i])
        assert rng.bit_generator.state == ref.bit_generator.state, (prefix, i)
        assert rng.standard_normal() == ref.standard_normal(), (prefix, i)
        assert rng.integers(7) == ref.integers(7), (prefix, i)
    return len(block)


def test_block_generators_equal_default_rng():
    # the block hash restates numpy's SeedSequence; a numpy release that
    # changed it would change every report, and must fail here first
    prefixes = [(), (0,), (5, 2**32), (3, 15013, 7), (2**64 + 9, 0, 2**32 - 1, 4),
                (123456789, 2, 3, 1)]
    keys = 0
    for prefix in prefixes:
        for size in (1, 3, 42, 50, 131):
            for start in (0, 1, 977, 2**16, 2**20 + 3, 2**31 + 5, 2**32 - size):
                keys += same_generators(prefix, range(start, start + size))
        # a stepped range, one that crosses 2**32 (two words from there on),
        # and an empty one
        keys += same_generators(prefix, range(400, 7, -3))
        keys += same_generators(prefix, range(2**32 - 3, 2**32 + 3))
        assert harness._generators(prefix, range(9, 9)) == []
    assert keys >= 10_000


@pytest.mark.parametrize("prefix,indices", [((-1, 2), range(3)), ((4,), range(-2, 2))])
def test_block_generators_reject_negative_entries_as_numpy_does(prefix, indices):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([*prefix, indices[0]])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        harness._generators(prefix, indices)


def _rows(curve):
    return tuple((r["technique"], r["snr_db"], r["threshold_factor"], r["nd"], r["nf"])
                 for r in curve.records)


def test_detection_records_pinned():
    quiet = run_detection_mc(small_detection_config(
        technique_list=("energy", "matched_filter", "autocorr", "euclid"),
        snr_grid_db=(-10.0, 0.0, 10.0), threshold_factors=(0.5, 1.0)))
    assert _rows(quiet) == PINNED_DETECTION_ROWS
    eq8 = run_detection_mc(small_detection_config(
        technique_list=("energy",), threshold_mode="eq8",
        threshold_factors=(1.0, 1.05)))
    assert _rows(eq8) == PINNED_EQ8_ROWS


def vector_detection_rows(cfg):
    """_rows of a detection sweep run as one vector detector call per trial."""
    pilot = gen_pilot_bpsk(cfg.samples_N, seed=cfg.base_seed + 104729)
    re_norm = float(np.linalg.norm(pilot.samples))
    rows = []
    for ti, technique in enumerate(cfg.technique_list):
        for si, snr_db in enumerate(cfg.snr_grid_db):
            for fi, factor in enumerate(cfg.threshold_factors):
                nd = nf = 0
                for j in range(cfg.trials_Nt):
                    lam, y1, y0 = harness._detection_trial(
                        cfg, technique, float(snr_db), float(factor), pilot, re_norm,
                        np.random.default_rng([cfg.base_seed, ti, si, fi, j]))

                    def hit(y):
                        return int(detect(technique, y, lam, pilot=pilot,
                                          lags=cfg.euclid_lags_M).occupied)
                    nd += hit(y1)
                    nf += 1 - hit(y1) if cfg.single_loop else hit(y0)
                rows.append((technique, float(snr_db), float(factor), nd, nf))
    return tuple(rows)


@pytest.mark.parametrize("overrides", [
    {},
    {"single_loop": True},
    {"technique_list": ("energy",), "threshold_mode": "eq8",
     "threshold_factors": (1.0, 1.05)},
])
def test_detection_records_do_not_depend_on_the_block_cap(monkeypatch, overrides):
    # 70 trials: one block at the default cap, ten blocks of 7, or 70
    # one-row blocks; each must count as one vector call per trial does
    cfg = small_detection_config(**{"technique_list": TECHNIQUES, "trials_Nt": 70,
                                    **overrides})
    default = harness.BLOCK_SAMPLES
    curves = []
    for cap in (cfg.samples_N, 7 * cfg.samples_N, default):
        monkeypatch.setattr(harness, "BLOCK_SAMPLES", cap)
        curves.append(run_detection_mc(cfg))
    assert curves[0].records == curves[1].records == curves[2].records
    assert _rows(curves[2]) == vector_detection_rows(cfg)


def test_detection_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the block detectors run BLAS dot products; the report must not see the
    # BLAS thread count
    src = Path(harness.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from cs_toolkit.harness import ExperimentConfig, run_detection_mc\n"
            "from cs_toolkit.io import serialize_report\n"
            "cfg = ExperimentConfig(trials_Nt=70, samples_N=1000, "
            "snr_grid_db=(-12.0, -4.0), threshold_factors=(0.8, 1.0), "
            "technique_list=('energy', 'matched_filter', 'autocorr', 'euclid'), "
            "base_seed=21)\n"
            "serialize_report(run_detection_mc(cfg), sys.argv[1])\n")
    written = []
    for threads in ("1", "2"):
        path = tmp_path / f"results-{threads}.csv"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 4 * 2 * 2


def small_recovery_config(**overrides):
    base = dict(
        experiment_kind="recovery_mc",
        trials_Nt=6,
        samples_N=64,
        snr_grid_db=(20.0,),
        matrix_scheme="gaussian",
        measurements_M=32,
        sparsity_k=4,
        base_seed=3,
        solver_list=("omp", "bayesian"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_recovery_grid_cell_count():
    cfg = small_recovery_config(
        solver_list=("omp",),
        matrix_scheme=("gaussian", "circulant"),
        snr_grid_db=(10.0, 20.0),
        k_grid=(2, 4),
    )
    report = run_recovery_mc(cfg)
    assert len(report.records) == 1 * 2 * 1 * 2 * 1 * 2  # solver/scheme/n/k/m/snr
    for rec in report.records:
        assert 0 < rec["trials"] <= 6
        assert rec["mean_re"] >= 0.0
        assert rec["mean_mse"] >= 0.0


def test_recovery_deterministic_across_thread_counts():
    a = run_recovery_mc(small_recovery_config(threads=1))
    b = run_recovery_mc(small_recovery_config(threads=3))
    assert a.records == b.records


def test_recovery_invalid_cell_raises():
    with pytest.raises(ValueError):
        run_recovery_mc(small_recovery_config(k_grid=(0,)))
    # a bad cell fails when the config is built, before any cell runs
    for grids in ({"k_grid": (4, 0)}, {"k_grid": (65,)}, {"m_grid": (32, 65)},
                  {"n_grid": (64, 16), "k_grid": (2,), "m_grid": (20,)}):
        with pytest.raises(ValueError, match="invalid cell n="):
            small_recovery_config(**grids)
    with pytest.raises(ValueError, match="invalid cell n=1000, k=0, m=0"):
        ExperimentConfig(experiment_kind="recovery_mc")


def test_recovery_inform_noise_changes_bayesian_result():
    informed = run_recovery_mc(small_recovery_config(
        solver_list=("bayesian",), snr_grid_db=(0.0,), trials_Nt=4))
    blind = run_recovery_mc(small_recovery_config(
        solver_list=("bayesian",), snr_grid_db=(0.0,), trials_Nt=4,
        inform_noise=False))
    assert informed.records[0]["mean_re"] != blind.records[0]["mean_re"]


def test_recovery_uninformed_bayesian_sweep(tmp_path):
    # the noise variance is estimated, not told, on every scheme
    cfg = small_recovery_config(
        solver_list=("bayesian",), matrix_scheme=SCHEMES, samples_N=400,
        measurements_M=150, sparsity_k=15, snr_grid_db=(20.0,), trials_Nt=4,
        inform_noise=False)
    first, again = run_recovery_mc(cfg), run_recovery_mc(cfg)
    assert [rec["scheme"] for rec in first.records] == list(SCHEMES)
    for rec in first.records:
        assert rec["trials"] == 4
        for key, value in rec.items():
            if key.startswith("mean_"):
                assert math.isfinite(value), (rec["scheme"], key)
    paths = [serialize_report(report, tmp_path / f"{name}.csv")
             for name, report in (("first", first), ("again", again))]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_recovery_empty_model_is_scored_not_fatal():
    # at -10 dB the Bayesian solver returns exactly the zero vector here
    cfg = small_recovery_config(
        solver_list=("bayesian",), samples_N=100, measurements_M=20,
        sparsity_k=5, snr_grid_db=(-10.0,), trials_Nt=1, threads=1)
    (rec,) = run_recovery_mc(cfg).records
    assert rec["trials"] == 1
    assert rec["mean_re"] == 1.0
    assert rec["mean_rsnr"] == 1.0
    assert rec["mean_cc"] == 0.0


def test_recovery_measure_time_flag():
    # the harness times every solver: tr is the solve, tp the compress and solve
    timed = run_recovery_mc(small_recovery_config(
        solver_list=SOLVERS, trials_Nt=2, measure_time=True))
    untimed = run_recovery_mc(small_recovery_config(solver_list=SOLVERS, trials_Nt=2))
    assert [r["solver"] for r in timed.records] == list(SOLVERS)
    for rec in timed.records:
        assert rec["mean_tp_ms"] >= rec["mean_tr_ms"] > 0.0, rec["solver"]
    for rec in untimed.records:
        assert rec["mean_tr_ms"] == rec["mean_tp_ms"] == 0.0, rec["solver"]


def nine_channel_plan():
    return BandPlan(bands=(("test_band", 0.0, 9.0, 1.0, 9),))


def small_scan_config(**overrides):
    base = dict(
        experiment_kind="scan_sim",
        trials_Nt=1,
        samples_N=256,
        snr_grid_db=(-10.0, 0.0),
        base_seed=2,
        slots=3,
        measurements_M=128,  # must exceed euclid_lags_M
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_scan_shapes_and_survey_time_arithmetic():
    plan = nine_channel_plan()
    cfg = small_scan_config(samples_N=256, slots=3)
    report = run_scan_sim(cfg, plan=plan)
    assert report.channels_scanned == 9
    assert report.ground_truth.shape == (9, 3)
    assert len(report.records) == 3 * 9 * 3  # slots x channels x techniques
    # survey period is slots * channels * samples in sample-time units,
    # and the per-channel scan share divides by techniques * channels
    assert report.survey_period_Ts == 3 * 9 * 256
    assert report.scan_time_tsc == pytest.approx(3 * 9 * 256 / (3 * 9))
    for tech in ("energy", "autocorr", "euclid"):
        assert report.occupancy_pct[tech].shape == (3,)
        assert ("compressive", tech) in report.rate_tables
        assert ("conventional", tech) in report.rate_tables


def test_scan_truth_recount_consistent():
    report = run_scan_sim(small_scan_config(), plan=nine_channel_plan())
    truth_total = int(report.ground_truth.sum())
    # each channel-slot produces one record per technique
    rec_truth = sum(r["truth"] for r in report.records)
    assert rec_truth == 3 * truth_total


# small_scan_config(busy_prob=0.5) on nine_channel_plan(): ground truth per
# (channel, slot), the blind SNR estimate per (slot, channel), and the one
# value every (path, technique) timeline holds in this survey
PINNED_SCAN_TRUTH = ((1, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 0), (0, 0, 0),
                     (1, 1, 1), (1, 1, 1), (0, 1, 1), (1, 0, 0))
PINNED_SCAN_EST_SNR = (
    (-8.015457145688039, -40.0, -27.590544714204647, -25.457345808246604, -40.0,
     -30.519576707786648, 2.8383487502234948, -18.06741968056678,
     -3.4890328155154293),
    (0.7372440363761683, -40.0, -7.871436499206633, -40.0, -40.0,
     -1.5169730808987936, -0.8842390275130638, -7.606989425670636, -40.0),
    (-26.668286585076544, -4.108459242766076, -40.0, -23.32001217424883, -40.0,
     -40.0, -4.232264857346023, -10.939636195014586, -11.821510313034784),
)
PINNED_SCAN_DECIDED = {"energy": True, "autocorr": False, "euclid": False}


def _nan_as_none(value):
    """`value` with every NaN float replaced by None, so `==` compares NaN as NaN."""
    if isinstance(value, dict):
        return {k: _nan_as_none(v) for k, v in value.items()}
    return None if isinstance(value, float) and math.isnan(value) else value


def test_scan_report_pinned():
    report = run_scan_sim(small_scan_config(busy_prob=0.5, slots=3),
                          plan=nine_channel_plan())
    expected = tuple(
        {"slot": s, "channel": c, "technique": t,
         "decision": OCCUPIED if PINNED_SCAN_DECIDED[t] else IDLE,
         "truth": PINNED_SCAN_TRUTH[c][s], "est_snr_db": PINNED_SCAN_EST_SNR[s][c]}
        for s in range(3) for c in range(9) for t in PINNED_SCAN_DECIDED)
    assert report.records == expected
    assert [list(r) for r in report.records] == [list(r) for r in expected]
    assert report.ground_truth.tolist() == [[bool(v) for v in row]
                                            for row in PINNED_SCAN_TRUTH]
    assert list(report.per_channel_timeline) == ["compressive", "conventional"]
    for path, timeline in report.per_channel_timeline.items():
        assert list(timeline) == list(PINNED_SCAN_DECIDED)
        for t, decided in timeline.items():
            assert decided.dtype == bool
            assert decided.tolist() == [[PINNED_SCAN_DECIDED[t]] * 3] * 9, (path, t)
    assert {t: v.tolist() for t, v in report.occupancy_pct.items()} == {
        "energy": [100.0] * 3, "autocorr": [0.0] * 3, "euclid": [0.0] * 3}
    per_snr = {-10.0: {"detection": 1.0, "false": 1.0},
               0.0: {"detection": 1.0, "false": 1.0}}
    zero = {"detection": 0.0, "false": 0.0}
    tables = {}
    for path in ("compressive", "conventional"):
        tables[(path, "energy")] = {"detection": 1.0, "false": 1.0, "per_snr": per_snr}
        for t in ("autocorr", "euclid"):
            tables[(path, t)] = {**zero, "per_snr": {-10.0: zero, 0.0: zero}}
    assert list(report.rate_tables) == list(tables)
    assert _nan_as_none(report.rate_tables) == _nan_as_none(tables)
    assert report.detection_rate == report.false_rate == 1 / 3


def vector_scan(cfg, plan):
    """A scan's records, ground truth and (path, technique) timelines, run one
    channel-slot at a time with vector matvec, detector and estimator calls."""
    n = cfg.samples_N
    matrix = build_matrix("circulant", cfg.scan_measurements(), n,
                          seed=cfg.base_seed + 65537,
                          options={"p": harness.SCAN_GENERATOR_P})
    shape = (len(plan.channels()), cfg.slots)
    truth = np.zeros(shape, dtype=bool)
    decided = {(path, t): np.zeros(shape, dtype=bool)
               for path in harness.PATHS for t in harness.SCAN_TECHNIQUES}
    records = []
    for s in range(cfg.slots):
        for c in range(shape[0]):
            rng = np.random.default_rng([cfg.base_seed, 15013, s, c])
            truth[c, s] = rng.random() < cfg.busy_prob
            snr_db = float(rng.choice(cfg.snr_grid_db))
            x = rng.standard_normal(n) * math.sqrt(cfg.noise_variance)
            if truth[c, s]:
                gain = math.sqrt(cfg.noise_variance * 10.0 ** (snr_db / 10.0))
                x = x + gain * harness._ma_waveform(rng, n, cfg.euclid_lags_M // 2 + 1)
            for path, y in zip(harness.PATHS, (matrix.matvec(x), x)):
                lams = {"energy": cfg.energy_lambda_scan * y.size * cfg.noise_variance,
                        "autocorr": cfg.autocorr_margin, "euclid": cfg.euclid_lambda}
                for t in harness.SCAN_TECHNIQUES:
                    decided[path, t][c, s] = detect(t, y, lams[t],
                                                    lags=cfg.euclid_lags_M).occupied
            est = harness.estimate_snr(x, L=10, K=50).snr_db
            records.extend(
                {"slot": s, "channel": c, "technique": t,
                 "decision": OCCUPIED if decided["compressive", t][c, s] else IDLE,
                 "truth": int(truth[c, s]), "est_snr_db": est}
                for t in harness.SCAN_TECHNIQUES)
    return tuple(records), truth, decided


@pytest.mark.parametrize("rows", [1, 4, None])
def test_scan_does_not_depend_on_the_block_cap(monkeypatch, rows):
    # 9 channels per slot: nine one-row blocks, blocks of 4, 4 and 1, or the
    # whole slot at the default cap; each must equal one channel at a time
    cfg = small_scan_config(busy_prob=0.5, snr_grid_db=(-10.0, 0.0, 10.0),
                            energy_lambda_scan=1.3, autocorr_margin=0.2,
                            euclid_lambda=3.0)
    if rows is not None:
        monkeypatch.setattr(harness, "BLOCK_SAMPLES", rows * cfg.samples_N)
    report = run_scan_sim(cfg, plan=nine_channel_plan())
    records, truth, decided = vector_scan(cfg, nine_channel_plan())
    # these thresholds leave every timeline with both decisions in it
    assert all(0 < hits.sum() < hits.size for hits in decided.values())
    assert report.records == records
    assert np.array_equal(report.ground_truth, truth)
    for path, timeline in report.per_channel_timeline.items():
        for t, hits in timeline.items():
            assert np.array_equal(hits, decided[path, t]), (path, t)


def test_scan_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the slot blocks run the block detectors' BLAS dot products and the
    # blind SNR estimate's products; the report must not see the thread count
    src = Path(harness.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from cs_toolkit.harness import ExperimentConfig, run_scan_sim\n"
            "from cs_toolkit.io import serialize_report\n"
            "cfg = ExperimentConfig(experiment_kind='scan_sim', samples_N=1024, "
            "measurements_M=256, slots=2, snr_grid_db=(-20.0, -10.0, 0.0, 8.0), "
            "energy_lambda_scan=1.05, autocorr_margin=0.5, base_seed=23)\n"
            "serialize_report(run_scan_sim(cfg), sys.argv[1])\n")
    written = []
    for threads in ("1", "2"):
        path = tmp_path / f"scan-{threads}.csv"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 2 * 87 * 3


def test_scan_deterministic_across_thread_counts():
    a = run_scan_sim(small_scan_config(threads=1), plan=nine_channel_plan())
    b = run_scan_sim(small_scan_config(threads=4), plan=nine_channel_plan())
    assert a.records == b.records
    assert np.array_equal(a.ground_truth, b.ground_truth)


def test_scan_budget_channels_ratio():
    cfg = small_scan_config(samples_N=256, measurements_M=128)
    report = run_scan_sim(cfg, plan=nine_channel_plan())
    budget = 256 * 9  # default: one conventional pass over every channel
    assert report.budget_channels["conventional"] == budget // 256
    assert report.budget_channels["compressive"] == budget // 128
    ratio = report.budget_channels["compressive"] / report.budget_channels["conventional"]
    assert ratio == pytest.approx(2.0)


def test_scan_traffic_extremes():
    idle = run_scan_sim(small_scan_config(), plan=nine_channel_plan(),
                        traffic=TrafficModel(busy_prob=0.0))
    assert idle.ground_truth.sum() == 0
    assert idle.detection_rate == 0.0
    busy = run_scan_sim(small_scan_config(), plan=nine_channel_plan(),
                        traffic=TrafficModel(busy_prob=1.0))
    assert busy.ground_truth.all()
    assert busy.false_rate == 0.0


def test_scan_diurnal_traffic_callable():
    model = TrafficModel(diurnal=lambda channel, slot: 1.0 if slot == 0 else 0.0)
    report = run_scan_sim(small_scan_config(), plan=nine_channel_plan(),
                          traffic=model)
    assert report.ground_truth[:, 0].all()
    assert not report.ground_truth[:, 1:].any()
    bad = TrafficModel(diurnal=lambda channel, slot: 2.0)
    with pytest.raises(ValueError):
        run_scan_sim(small_scan_config(), plan=nine_channel_plan(), traffic=bad)


@pytest.mark.parametrize("busy_prob", [-0.1, 1.5, math.nan])
def test_traffic_model_rejects_busy_prob_when_built(busy_prob):
    # such a model failed only at the first channel of a scan
    with pytest.raises(ValueError, match="busy_prob .* outside"):
        TrafficModel(busy_prob=busy_prob)
    # a diurnal profile's values are checked at each call
    TrafficModel(diurnal=lambda channel, slot: busy_prob)


def test_band_plan_declared_count_mismatch_warns():
    with pytest.warns(RuntimeWarning, match="channel_count"):
        BandPlan(bands=(("x", 869.0, 894.0, 3.2, 11),))
    with pytest.raises(ValueError):
        BandPlan(bands=())
    with pytest.raises(ValueError):
        BandPlan(bands=(("x", 5.0, 4.0, 1.0, 1),))
    # a non-finite edge or spacing, and a fractional count, name the band
    for band in (("x", math.inf, 894.0, 3.2, 11), ("x", 869.0, math.inf, 3.2, 11),
                 ("x", -math.inf, 894.0, 3.2, 11), ("x", math.nan, 894.0, 3.2, 11),
                 ("x", 869.0, math.nan, 3.2, 11), ("x", 869.0, 894.0, math.inf, 11),
                 ("x", 869.0, 894.0, math.nan, 11)):
        with pytest.raises(ValueError, match="invalid band 'x'"):
            BandPlan(bands=(band,))
    for count in (2.5, True):
        with pytest.raises(ValueError, match="band 'x' channel_count must be an integer"):
            BandPlan(bands=(("x", 869.0, 894.0, 3.2, count),))


def test_default_band_plan_channel_enumeration():
    plan = default_band_plan()
    channels = plan.channels()
    assert len(channels) == plan.total_channels == 87
    assert channels[0] == ("gsm850_dl", 0)
    assert channels[-1] == ("wifi58", 30)


def test_trials_run_in_calling_thread(monkeypatch):
    # the threads field and CS_TOOLKIT_THREADS are accepted and ignored
    monkeypatch.setenv("CS_TOOLKIT_THREADS", "4")
    seen = []

    def record_thread(name):
        fn = getattr(harness, name)

        def wrapped(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapped)

    for name in ("_detection_trial", "omp", "estimate_snr"):
        record_thread(name)
    run_detection_mc(small_detection_config(threads=4))
    run_recovery_mc(small_recovery_config(solver_list=("omp",), trials_Nt=4,
                                          threads=4))
    run_scan_sim(small_scan_config(threads=4), plan=nine_channel_plan())
    assert {name for name, _ in seen} == {"_detection_trial", "omp", "estimate_snr"}
    assert {ident for _, ident in seen} == {threading.get_ident()}


def test_harness_exposes_traced_layer_names(monkeypatch):
    # the benchmark's tracer wraps these names where the harness looks them
    # up; a missing one makes every traced run fail while untraced runs pass
    for name in ("compress", "build_matrix", "basis_pursuit", "omp", "cosamp",
                 "bayesian_recover", "biht_recover", "one_bit_quantize",
                 "estimate_snr", "gen_sparse_signal", "evaluate_metrics",
                 "gen_pilot_bpsk"):
        assert callable(harness.__dict__.get(name)), name
    for name in ("matvec", "rmatvec", "to_dense", "column_norms"):
        assert callable(SensingMatrix.__dict__.get(name)), name
    # OMP reaches the norms through the class attribute the tracer replaces
    calls = []
    norms = SensingMatrix.column_norms
    monkeypatch.setattr(SensingMatrix, "column_norms",
                        lambda self: calls.append(1) or norms(self))
    A = build_matrix("circulant", 16, 40, seed=2)
    omp(compress(A, gen_sparse_signal(40, 2, seed=3)), A, 2)
    assert len(calls) == 1
    # BIHT's block applies go through the same class attributes, so the
    # tracer sees them: each of its three descent phases steps with rmatvec
    applies = {"matvec": [], "rmatvec": []}
    for name, seen in applies.items():
        monkeypatch.setattr(SensingMatrix, name,
                            lambda self, x, seen=seen, apply=SensingMatrix.__dict__[name]:
                            seen.append(1) or apply(self, x))
    recovery_trial("biht", "circulant", 128, 4, 60, 20.0, (1, 2, 3), z_factor=0.1,
                   inform_noise=False, measure_time=False)
    assert len(applies["rmatvec"]) >= 3
    assert len(applies["matvec"]) >= len(applies["rmatvec"])
