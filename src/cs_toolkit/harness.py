"""Monte-Carlo experiment harness and the simulated wideband scanning survey.

Every trial derives its own RNG from (base_seed, grid indices, trial index),
so results are independent of execution order and of the worker count; the
reduction collects per-trial outputs into an indexed table and folds it
single-threaded.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import detectors as det
from .matrices import SensingMatrix, build_matrix, compress
from .recovery import (
    BayesOpts,
    RecoveryResult,
    basis_pursuit,
    bayesian_recover,
    biht_recover,
    cosamp,
    omp,
    one_bit_quantize,
)
from .signals import (
    PilotSignal,
    _noise_variance,
    evaluate_metrics,
    gen_pilot_bpsk,
    gen_sparse_signal,
)
from .snr import estimate_snr

__all__ = [
    "ExperimentConfig",
    "PdPfaCurve",
    "RecoveryReport",
    "BandPlan",
    "TrafficModel",
    "OccupancyReport",
    "run_detection_mc",
    "run_recovery_mc",
    "run_scan_sim",
    "default_band_plan",
    "recovery_trial",
    "SOLVERS",
]

# solvers that `_solve` dispatches by name
SOLVERS = ("bp", "omp", "cosamp", "bayesian", "biht")
# detectors run on every scanned channel in the survey
SCAN_TECHNIQUES = ("energy", "autocorr", "euclid")


def _thread_count(requested: int | None) -> int:
    if requested is not None and requested >= 1:
        return requested
    env = os.environ.get("CS_TOOLKIT_THREADS", "").strip()
    if env.isdigit() and int(env) >= 1:
        return int(env)
    return 1


def _pmap(fn, count: int, threads: int | None):
    """Map fn over range(count) preserving index order in the result list."""
    workers = _thread_count(threads)
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for every harness experiment kind.

    Grids not used by a kind are ignored. For recovery sweeps, empty n/k/m
    grids fall back to (samples_N,), (sparsity_k,), (measurements_M,).
    """

    experiment_kind: str = "detection_mc"
    trials_Nt: int = 1000
    samples_N: int = 1000
    snr_grid_db: tuple = (-20.0, -16.0, -12.0, -8.0, -4.0)
    threshold_factors: tuple = (1.0,)
    technique_list: tuple = ("matched_filter",)
    matrix_scheme: tuple | str = "gaussian"
    measurements_M: int = 0
    sparsity_k: int = 0
    base_seed: int = 0
    # detection extras
    noise_variance: float = 1.0
    pfa_target: float = 0.1
    threshold_mode: str = "quiet_time"  # or "eq8" (energy only)
    averaging_runs: int = 32
    single_loop: bool = False
    autocorr_margin: float = 0.9
    euclid_lambda: float = 0.95
    euclid_lags_M: int = 64
    # recovery extras
    solver_list: tuple = ("omp",)
    n_grid: tuple = ()
    k_grid: tuple = ()
    m_grid: tuple = ()
    bp_z_factor: float = 0.1
    # hand the injected noise variance to the noise-aware solver
    inform_noise: bool = True
    measure_time: bool = False
    # scan extras
    slots: int = 8
    busy_prob: float = 0.3
    energy_lambda_scan: float = 1e-10
    generator_p: float = 0.1
    compute_budget: int = 0
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.trials_Nt < 1:
            raise ValueError("trials_Nt must be >= 1")
        if self.experiment_kind not in ("detection_mc", "recovery_mc", "scan_sim"):
            raise ValueError(f"unknown experiment_kind {self.experiment_kind!r}")
        if len(self.snr_grid_db) == 0 or len(self.threshold_factors) == 0:
            raise ValueError("grids must be nonempty")
        if self.experiment_kind == "detection_mc" and len(self.technique_list) == 0:
            raise ValueError("technique_list must be nonempty")
        for name in self.technique_list:
            if name not in det.TECHNIQUES:
                raise ValueError(f"unknown technique {name!r}")
        for name in self.solver_list:
            if name not in SOLVERS:
                raise ValueError(f"unknown solver {name!r}")
        for snr_db in map(float, self.snr_grid_db):
            # -inf means noise only, which a detection or scan cell can draw
            # but a recovery trial cannot scale its noise to
            if math.isnan(snr_db) or (snr_db == -math.inf
                                      and self.experiment_kind == "recovery_mc"):
                raise ValueError(f"invalid snr_grid_db entry {snr_db}")
        if self.experiment_kind == "detection_mc":
            # bad thresholds fail here, not at the grid point that first uses
            # them partway through a sweep
            if self.averaging_runs < 1:
                raise ValueError("averaging_runs must be >= 1")
            for factor in map(float, self.threshold_factors):
                if not (math.isfinite(factor) and factor > 0.0):
                    raise ValueError(f"invalid threshold factor {factor}")
                # autocorr compares a correlation ratio against factor * margin
                if ("autocorr" in self.technique_list
                        and not 0.0 < factor * self.autocorr_margin <= 1.0):
                    raise ValueError(
                        f"threshold factor {factor} puts the autocorr margin "
                        f"{factor * self.autocorr_margin} outside (0, 1]")


@dataclass(frozen=True)
class PdPfaCurve:
    """Detection/false-alarm counts per (technique, snr, factor) grid point."""

    records: tuple

    def point(self, technique: str, snr_db: float, factor: float) -> dict:
        for rec in self.records:
            if (rec["technique"] == technique
                    and rec["snr_db"] == snr_db
                    and rec["threshold_factor"] == factor):
                return rec
        raise KeyError((technique, snr_db, factor))


@dataclass(frozen=True)
class RecoveryReport:
    """Per-cell aggregated recovery metrics."""

    records: tuple


@dataclass(frozen=True)
class BandPlan:
    """Bands as (name, f_low_MHz, f_high_MHz, channel_spacing_MHz, channel_count)."""

    bands: tuple

    def __post_init__(self) -> None:
        if len(self.bands) == 0:
            raise ValueError("band plan must be nonempty")
        for name, f_lo, f_hi, spacing, count in self.bands:
            if f_hi <= f_lo or spacing <= 0 or count < 1:
                raise ValueError(f"invalid band {name!r}")
            derived = math.floor((f_hi - f_lo) / spacing)
            if derived != count:
                warnings.warn(
                    f"band {name!r}: declared channel_count {count} differs from "
                    f"floor((f_high - f_low)/spacing) = {derived}; keeping the "
                    "declared count", RuntimeWarning)

    @property
    def total_channels(self) -> int:
        return sum(b[4] for b in self.bands)

    def channels(self) -> list[tuple[str, int]]:
        out = []
        for name, _lo, _hi, _sp, count in self.bands:
            out.extend((name, i) for i in range(count))
        return out


def default_band_plan() -> BandPlan:
    """Survey band plan: two cellular downlinks and the two ISM WLAN bands."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return BandPlan(bands=(
            ("gsm850_dl", 869.0, 894.0, 3.2, 11),
            ("gsm1900_dl", 1930.0, 1990.0, 3.2, 25),
            ("wifi24", 2402.0, 2497.0, 5.0, 20),
            ("wifi58", 5725.0, 5875.0, 5.0, 31),
        ))


@dataclass(frozen=True)
class TrafficModel:
    """Two-state (busy/idle) channel occupancy with an optional diurnal profile."""

    busy_prob: float = 0.3
    diurnal: object | None = None  # callable(channel_index, slot) -> probability

    def prob(self, channel: int, slot: int) -> float:
        p = self.diurnal(channel, slot) if self.diurnal is not None else self.busy_prob
        if not 0.0 <= p <= 1.0:
            raise ValueError("occupancy probability must be in [0, 1]")
        return p


@dataclass(frozen=True)
class OccupancyReport:
    records: tuple            # (slot, channel, technique, decision, truth, est_snr_db)
    per_channel_timeline: dict
    occupancy_pct: dict       # technique -> per-slot percentage (compressive path)
    ground_truth: np.ndarray
    detection_rate: float     # pooled, compressive path
    false_rate: float
    rate_tables: dict         # (path, technique) -> {"detection", "false", "per_snr"}
    channels_scanned: int
    survey_period_Ts: float
    scan_time_tsc: float
    budget_channels: dict     # path -> channels processed under the compute budget


def _ma_waveform(rng: np.random.Generator, n: int, window: int) -> np.ndarray:
    """Unit-power waveform with triangular autocorrelation of half-width `window`."""
    raw = rng.standard_normal(n + window - 1)
    return np.convolve(raw, np.ones(window), mode="valid") / math.sqrt(window)


def _pu_waveform(technique: str, rng: np.random.Generator, n: int,
                 pilot: PilotSignal, window: int) -> np.ndarray:
    if technique == "matched_filter":
        return np.asarray(pilot.samples)
    if technique == "energy":
        return rng.standard_normal(n)
    # correlation-shape detectors need a correlated waveform
    return _ma_waveform(rng, n, window)


def _threshold(cfg: ExperimentConfig, technique: str, factor: float,
               rng: np.random.Generator, pilot_re_norm: float) -> float:
    """One trial's decision threshold for `technique` at `factor`.

    A quiet-time threshold is drawn from its exact law under the sweep's
    real-valued white Gaussian noise of variance dw2, over R = averaging_runs
    quiet blocks of N samples: the mean block energy is dw2 * chi2(R N) / R,
    and each block's correlation with the pilot p is N(0, dw2 ||Re p||^2).
    """
    n = cfg.samples_N
    runs = cfg.averaging_runs
    dw2 = cfg.noise_variance
    if technique == "matched_filter":
        mean_abs = float(np.mean(np.abs(rng.standard_normal(runs))))
        return factor * math.sqrt(dw2) * pilot_re_norm * mean_abs
    if technique == "energy":
        if cfg.threshold_mode == "eq8":
            return factor * det.energy_threshold(cfg.pfa_target, n, dw2)
        return factor * dw2 * float(rng.chisquare(runs * n)) / runs
    if technique == "autocorr":
        return factor * cfg.autocorr_margin
    return factor * cfg.euclid_lambda


def _detection_trial(cfg: ExperimentConfig, technique: str, snr_db: float,
                     factor: float, pilot: PilotSignal, pilot_re_norm: float,
                     point_key: tuple, trial: int) -> tuple[int, int]:
    rng = np.random.default_rng(list(point_key) + [trial])
    n = cfg.samples_N
    dw2 = cfg.noise_variance
    sigma = math.sqrt(dw2)
    window = cfg.euclid_lags_M // 2 + 1
    gain = math.sqrt(dw2 * 10.0 ** (snr_db / 10.0))
    lam = _threshold(cfg, technique, factor, rng, pilot_re_norm)

    def decide(samples: np.ndarray) -> bool:
        return det.detect(technique, samples, lam, pilot=pilot,
                          lags=cfg.euclid_lags_M).occupied

    pu = gain * _pu_waveform(technique, rng, n, pilot, window)
    y1 = pu + rng.standard_normal(n) * sigma
    detected = int(decide(y1))
    if cfg.single_loop:
        # literal single-loop accounting: misses are tallied in the nf column
        return detected, 1 - detected
    y0 = rng.standard_normal(n) * sigma
    return detected, int(decide(y0))


def run_detection_mc(config: ExperimentConfig) -> PdPfaCurve:
    """Monte-Carlo Pd/Pfa curves over the (technique, snr, factor) grid.

    By default each grid point runs trials_Nt H1 trials (signal plus noise,
    counting detections) and trials_Nt H0 trials (noise only, counting false
    alarms). config.single_loop switches to the literal one-loop accounting
    where the nf column counts misses instead.

    Each trial synthesises its own H1 and H0 samples. Under
    threshold_mode="quiet_time" the energy and matched-filter thresholds are
    drawn from their exact law under the sweep's white Gaussian noise rather
    than computed from averaging_runs * samples_N synthesised noise samples;
    thresholds for recorded quiet-time samples come from
    `detectors.quiet_time_threshold`.
    """
    pilot = gen_pilot_bpsk(config.samples_N, seed=config.base_seed + 104729)
    pilot_re_norm = float(np.linalg.norm(np.real(pilot.samples)))
    records = []
    for ti, technique in enumerate(config.technique_list):
        for si, snr_db in enumerate(config.snr_grid_db):
            for fi, factor in enumerate(config.threshold_factors):
                key = (config.base_seed, ti, si, fi)
                outcomes = _pmap(
                    lambda j: _detection_trial(config, technique, float(snr_db),
                                               float(factor), pilot, pilot_re_norm,
                                               key, j),
                    config.trials_Nt, config.threads)
                nd = sum(o[0] for o in outcomes)
                nf = sum(o[1] for o in outcomes)
                records.append({
                    "technique": technique,
                    "snr_db": float(snr_db),
                    "threshold_factor": float(factor),
                    "n": config.samples_N,
                    "trials": config.trials_Nt,
                    "nd": nd,
                    "nf": nf,
                    "pd": nd / config.trials_Nt,
                    "pfa": nf / config.trials_Nt,
                })
    return PdPfaCurve(records=tuple(records))


def _solve(solver: str, y, A: SensingMatrix, k: int, z_factor: float,
           noise_variance: float | None = None):
    if solver == "bp":
        z = z_factor * float(np.max(np.abs(A.rmatvec(y.values))))
        return basis_pursuit(y, A, z=z)
    if solver == "omp":
        return omp(y, A, k)
    if solver == "cosamp":
        return cosamp(y, A, k)
    if solver == "bayesian":
        opts = BayesOpts(noise_variance=noise_variance)
        return bayesian_recover(y, A, opts).base
    if solver == "biht":
        return biht_recover(one_bit_quantize(y), A, k)
    raise ValueError(f"unknown solver {solver!r}")


class _SolverFailed(RuntimeError):
    """A solver raised inside a recovery trial; sweeps count the trial as failed."""


def recovery_trial(solver: str, scheme: str, n: int, k: int, m: int,
                   snr_db: float, seeds, *, z_factor: float, inform_noise: bool,
                   measure_time: bool) -> tuple[dict, RecoveryResult]:
    """One recovery trial: the unit that sweeps repeat and `cs-toolkit recover` runs.

    Builds the matrix from seeds[0] and the signal from seeds[1], adds noise at
    snr_db (inf for noiseless) drawn from seeds[2], solves and scores the
    estimate. Returns the trial's metrics (times in seconds, zero unless
    measure_time) and the solver's result. An exception from the solver is
    re-raised as a RuntimeError carrying its message.
    """
    A = build_matrix(scheme, m, n, seed=int(seeds[0]))
    x = gen_sparse_signal(n, k, seed=int(seeds[1]))
    t_make = time.perf_counter()
    clean = A.matvec(x.samples)
    nv = _noise_variance(float(np.mean(clean**2)), snr_db)
    y = compress(A, x, noise_variance=nv, seed=int(seeds[2]))
    t_compress = time.perf_counter() - t_make
    try:
        res = _solve(solver, y, A, k, z_factor, nv if inform_noise else None)
    except Exception as exc:
        raise _SolverFailed(str(exc)) from exc
    x_hat = res.x_hat
    if solver == "biht":
        # signs lose scale; report against the unit-normalized target
        target = x.samples / np.linalg.norm(x.samples)
        y_hat = one_bit_quantize(A.matvec(x_hat)).signs
        y_ref = one_bit_quantize(y).signs
        metrics = evaluate_metrics(target, x_hat, y_ref, y_hat)
    else:
        metrics = evaluate_metrics(x, x_hat, y.values, A.matvec(x_hat))
    return {
        "re": metrics.recovery_error_Re,
        "mse": metrics.mse,
        "cc": metrics.correlation_Cc,
        "rsnr": min(metrics.rsnr, 1e30),
        "hd": float(metrics.hamming_Hd),
        "tr": res.recovery_time if measure_time else 0.0,
        "tp": (res.recovery_time + t_compress) if measure_time else 0.0,
    }, res


def _recovery_record(solver: str, scheme: str, n: int, k: int, m: int,
                     snr_db: float, rows: list) -> dict:
    """One report record: the means over the trials that did not fail."""
    sums = dict.fromkeys(("re", "mse", "cc", "rsnr", "hd", "tr", "tp"), 0.0)
    for r in rows:
        for key in sums:
            sums[key] += r[key]
    denom = max(len(rows), 1)
    return {
        "solver": solver,
        "scheme": scheme,
        "n": n,
        "k": k,
        "m": m,
        "snr_db": float(snr_db),
        "trials": len(rows),
        "mean_re": sums["re"] / denom,
        "mean_mse": sums["mse"] / denom,
        "mean_cc": sums["cc"] / denom,
        "mean_rsnr": sums["rsnr"] / denom,
        "mean_hd": sums["hd"] / denom,
        "mean_tr_ms": 1e3 * sums["tr"] / denom,
        "mean_tp_ms": 1e3 * sums["tp"] / denom,
    }


def _recovery_cell(cfg: ExperimentConfig, solver: str, scheme: str, n: int,
                   k: int, m: int, snr_db: float, cell_key: tuple) -> dict:
    def one_trial(j: int) -> dict | None:
        rng = np.random.default_rng(list(cell_key) + [j])
        seeds = rng.integers(0, 2**62, size=3)
        try:
            return recovery_trial(solver, scheme, n, k, m, snr_db, seeds,
                                  z_factor=cfg.bp_z_factor,
                                  inform_noise=cfg.inform_noise,
                                  measure_time=cfg.measure_time)[0]
        except _SolverFailed:
            return None

    results = _pmap(one_trial, cfg.trials_Nt, cfg.threads)
    return _recovery_record(solver, scheme, n, k, m, snr_db,
                            [r for r in results if r is not None])


def run_recovery_mc(config: ExperimentConfig) -> RecoveryReport:
    """Sweep solvers over the (n, k, m, snr) grids and aggregate metric means.

    Solver failures inside a cell are recorded by a reduced `trials` count and
    never abort the sweep.
    """
    schemes = (config.matrix_scheme if isinstance(config.matrix_scheme, (tuple, list))
               else (config.matrix_scheme,))
    n_grid = config.n_grid or (config.samples_N,)
    k_grid = config.k_grid or (config.sparsity_k,)
    m_grid = config.m_grid or (config.measurements_M,)
    records = []
    cell = 0
    for solver in config.solver_list:
        for scheme in schemes:
            for n in n_grid:
                for k in k_grid:
                    for m in m_grid:
                        for snr_db in config.snr_grid_db:
                            if not 1 <= k <= n or not 1 <= m <= n:
                                raise ValueError(
                                    f"invalid cell n={n}, k={k}, m={m}")
                            key = (config.base_seed, 7919, cell)
                            records.append(_recovery_cell(
                                config, solver, scheme, int(n), int(k), int(m),
                                float(snr_db), key))
                            cell += 1
    return RecoveryReport(records=tuple(records))


def _scan_cell(cfg: ExperimentConfig, matrix: SensingMatrix, slot: int,
               ch_idx: int, p_busy: float) -> dict:
    n = cfg.samples_N
    rng = np.random.default_rng([cfg.base_seed, 15013, slot, ch_idx])
    truth = bool(rng.random() < p_busy)
    snr_db = float(rng.choice(cfg.snr_grid_db))
    window = cfg.euclid_lags_M // 2 + 1
    x = rng.standard_normal(n) * math.sqrt(cfg.noise_variance)
    if truth:
        gain = math.sqrt(cfg.noise_variance * 10.0 ** (snr_db / 10.0))
        x = x + gain * _ma_waveform(rng, n, window)
    y_c = matrix.matvec(x)

    def decisions(samples: np.ndarray) -> dict:
        # energy threshold is relative to the nominal noise energy of the block
        lams = {"energy": cfg.energy_lambda_scan * samples.size * cfg.noise_variance,
                "autocorr": cfg.autocorr_margin, "euclid": cfg.euclid_lambda}
        return {t: det.detect(t, samples, lams[t], lags=cfg.euclid_lags_M).occupied
                for t in SCAN_TECHNIQUES}

    est = estimate_snr(x, L=10, K=50)
    return {
        "slot": slot,
        "channel": ch_idx,
        "truth": truth,
        "snr_db": snr_db,
        "est_snr_db": est.snr_db,
        "compressive": decisions(y_c),
        "conventional": decisions(x),
    }


def run_scan_sim(
    config: ExperimentConfig,
    plan: BandPlan | None = None,
    traffic: TrafficModel | None = None,
) -> OccupancyReport:
    """Simulated wideband occupancy survey over a band plan.

    Per slot and channel the ground truth is drawn from the traffic model and
    the channel signal synthesized (correlated PU waveform at a grid SNR when
    occupied, noise otherwise). Two pipelines run: compressive (partial
    circulant with a sparse generator mask, detectors on the M compressed
    samples) and conventional (detectors on the N raw samples); a blind SNR
    estimate is recorded per channel-slot. The compute budget is counted in
    samples processed per channel: M compressive vs N conventional.
    """
    plan = plan if plan is not None else default_band_plan()
    traffic = traffic if traffic is not None else TrafficModel(config.busy_prob)
    n = config.samples_N
    m = config.measurements_M or max(1, n // 4)
    matrix = build_matrix("circulant", m, n, seed=config.base_seed + 65537,
                          options={"p": config.generator_p})
    channels = plan.channels()
    n_ch = len(channels)

    cells = _pmap(
        lambda i: _scan_cell(config, matrix, i // n_ch, i % n_ch,
                             traffic.prob(i % n_ch, i // n_ch)),
        config.slots * n_ch, config.threads)

    truth_mat = np.zeros((n_ch, config.slots), dtype=bool)
    timeline = {path: {t: np.zeros((n_ch, config.slots), dtype=bool)
                       for t in SCAN_TECHNIQUES}
                for path in ("compressive", "conventional")}
    records = []
    per_snr: dict = {}
    for cell in cells:
        s, c = cell["slot"], cell["channel"]
        truth_mat[c, s] = cell["truth"]
        for path in ("compressive", "conventional"):
            for t in SCAN_TECHNIQUES:
                timeline[path][t][c, s] = cell[path][t]
        for t in SCAN_TECHNIQUES:
            records.append({
                "slot": s,
                "channel": c,
                "technique": t,
                "decision": det.OCCUPIED if cell["compressive"][t] else det.IDLE,
                "truth": int(cell["truth"]),
                "est_snr_db": cell["est_snr_db"],
            })
        bucket = per_snr.setdefault(cell["snr_db"], [])
        bucket.append(cell)

    rate_tables = {}
    occupied = truth_mat
    idle = ~truth_mat
    for path in ("compressive", "conventional"):
        for t in SCAN_TECHNIQUES:
            decided = timeline[path][t]
            n_occ = int(occupied.sum())
            n_idle = int(idle.sum())
            det_rate = float((decided & occupied).sum() / n_occ) if n_occ else 0.0
            fa_rate = float((decided & idle).sum() / n_idle) if n_idle else 0.0
            snr_rates = {}
            for snr_db, bucket in sorted(per_snr.items()):
                hits = [c[path][t] for c in bucket if c["truth"]]
                fas = [c[path][t] for c in bucket if not c["truth"]]
                snr_rates[snr_db] = {
                    "detection": float(np.mean(hits)) if hits else math.nan,
                    "false": float(np.mean(fas)) if fas else math.nan,
                }
            rate_tables[(path, t)] = {"detection": det_rate, "false": fa_rate,
                                      "per_snr": snr_rates}

    comp_decided = np.stack([timeline["compressive"][t] for t in SCAN_TECHNIQUES])
    pooled_det = float((comp_decided & occupied[None]).sum()
                       / max(1, len(SCAN_TECHNIQUES) * occupied.sum()))
    pooled_fa = float((comp_decided & idle[None]).sum()
                      / max(1, len(SCAN_TECHNIQUES) * idle.sum()))
    occupancy_pct = {
        t: 100.0 * timeline["compressive"][t].mean(axis=0) for t in SCAN_TECHNIQUES
    }
    budget = config.compute_budget or n * n_ch
    budget_channels = {"compressive": budget // m, "conventional": budget // n}
    ts = float(config.slots * n_ch * n)  # survey period in sample-time units
    tsc = ts / (len(SCAN_TECHNIQUES) * n_ch)
    return OccupancyReport(
        records=tuple(records),
        per_channel_timeline=timeline,
        occupancy_pct=occupancy_pct,
        ground_truth=truth_mat,
        detection_rate=pooled_det,
        false_rate=pooled_fa,
        rate_tables=rate_tables,
        channels_scanned=n_ch,
        survey_period_Ts=ts,
        scan_time_tsc=tsc,
        budget_channels=budget_channels,
    )
