"""Experiment harness tests: determinism, accounting, scan survey."""

import math

import numpy as np
import pytest

from cs_toolkit.detectors import (
    closed_form_roc,
    energy_threshold,
    quiet_time_threshold,
)
from cs_toolkit.harness import (
    BandPlan,
    ExperimentConfig,
    TrafficModel,
    _thread_count,
    _threshold,
    default_band_plan,
    recovery_trial,
    run_detection_mc,
    run_recovery_mc,
    run_scan_sim,
)
from cs_toolkit.signals import gen_pilot_bpsk, gen_pilot_qpsk


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


def test_recovery_inform_noise_changes_bayesian_result():
    informed = run_recovery_mc(small_recovery_config(
        solver_list=("bayesian",), snr_grid_db=(0.0,), trials_Nt=4))
    blind = run_recovery_mc(small_recovery_config(
        solver_list=("bayesian",), snr_grid_db=(0.0,), trials_Nt=4,
        inform_noise=False))
    assert informed.records[0]["mean_re"] != blind.records[0]["mean_re"]


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
    timed = run_recovery_mc(small_recovery_config(
        solver_list=("omp",), measure_time=True))
    untimed = run_recovery_mc(small_recovery_config(solver_list=("omp",)))
    assert timed.records[0]["mean_tr_ms"] > 0.0
    assert untimed.records[0]["mean_tr_ms"] == 0.0


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


def test_band_plan_declared_count_mismatch_warns():
    with pytest.warns(RuntimeWarning, match="channel_count"):
        BandPlan(bands=(("x", 869.0, 894.0, 3.2, 11),))
    with pytest.raises(ValueError):
        BandPlan(bands=())
    with pytest.raises(ValueError):
        BandPlan(bands=(("x", 5.0, 4.0, 1.0, 1),))


def test_default_band_plan_channel_enumeration():
    plan = default_band_plan()
    channels = plan.channels()
    assert len(channels) == plan.total_channels == 87
    assert channels[0] == ("gsm850_dl", 0)
    assert channels[-1] == ("wifi58", 30)


def test_thread_count_env_override(monkeypatch):
    monkeypatch.setenv("CS_TOOLKIT_THREADS", "3")
    assert _thread_count(None) == 3
    assert _thread_count(8) == 8  # explicit request wins
    monkeypatch.setenv("CS_TOOLKIT_THREADS", "junk")
    assert _thread_count(None) >= 1
    monkeypatch.delenv("CS_TOOLKIT_THREADS")
    assert _thread_count(None) == 1
