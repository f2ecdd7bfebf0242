"""Monte-Carlo experiment harness and the simulated wideband scanning survey.

Every trial derives its own RNG from (base_seed, grid indices, trial index),
so a trial's outcome does not depend on the trials run before it. Trials run
in order in the calling thread.

Each trial's generator equals `np.random.default_rng(key)` bit for bit. A
detection or scan block's keys share all but their last entry, so numpy's
SeedSequence hash runs once for the block (`_generators`). Recovery trials
keep `default_rng`: a recovery cell often runs one trial, and one key does
not repay the block hash's fixed cost.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import detectors as det
from .errors import IllConditionedError
from .matrices import SensingMatrix, _with_noise, build_matrix, compress
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
    _integer,
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
# the survey's pipelines: detectors on the M compressed or the N raw samples
PATHS = ("compressive", "conventional")
# the most samples a sweep stacks into one row block, as a detection sweep's
# trials or a scan slot's channels: max(1, BLOCK_SAMPLES // samples_N) rows.
# A cap rather than a config field, so a block array stays near 1 MB
# whatever samples_N, trials_Nt or the band plan
BLOCK_SAMPLES = 2**17
# the probability that a tap of the survey's circulant generator is nonzero
SCAN_GENERATOR_P = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for every harness experiment kind.

    Grids not used by a kind are ignored. For recovery sweeps, empty n/k/m
    grids fall back to (samples_N,), (sparsity_k,), (measurements_M,).
    Every count, the seed and every n/k/m grid entry must be an integer, and
    each field must fit the kind's sweep: a bad value raises ValueError when
    the config is built, not partway through a sweep.
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
    # Accepted and ignored: trials run in the calling thread, because a pool
    # of per-trial threads did not pay on the measured workloads. The field
    # stays so that saved configs and callers that pass it keep loading.
    threads: int | None = None

    def __post_init__(self) -> None:
        for name in ("trials_Nt", "samples_N", "measurements_M", "sparsity_k",
                     "averaging_runs", "euclid_lags_M", "slots", "base_seed"):
            _integer(name, getattr(self, name))
        # every trial's generator is seeded from a key that starts with it,
        # and numpy's seeding takes no negative entry
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        for name in ("n_grid", "k_grid", "m_grid"):
            for value in getattr(self, name):
                _integer(f"{name} entry", value)
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
            # but a recovery trial cannot scale its noise to; +inf is a
            # noiseless recovery trial, but would scale a detection or scan
            # cell's signal, against its fixed noise, to inf
            if math.isnan(snr_db) or snr_db == (
                    -math.inf if self.experiment_kind == "recovery_mc" else math.inf):
                raise ValueError(f"invalid snr_grid_db entry {snr_db}")
        if self.threshold_mode not in ("quiet_time", "eq8"):
            raise ValueError(f"unknown threshold_mode {self.threshold_mode!r}")
        # detection and the scan scale their noise and thresholds by it
        if self.experiment_kind != "recovery_mc" and not 0.0 < self.noise_variance < math.inf:
            raise ValueError(f"invalid noise_variance {self.noise_variance}")
        if self.experiment_kind == "detection_mc":
            # bad thresholds fail here, not at the grid point that first uses
            # them partway through a sweep
            if self.averaging_runs < 1:
                raise ValueError("averaging_runs must be >= 1")
            if self.threshold_mode == "eq8" and not 0.0 < self.pfa_target < 1.0:
                raise ValueError(f"pfa_target {self.pfa_target} outside (0, 1)")
            for factor in map(float, self.threshold_factors):
                if not (math.isfinite(factor) and factor > 0.0):
                    raise ValueError(f"invalid threshold factor {factor}")
                # autocorr compares a correlation ratio against factor * margin
                if ("autocorr" in self.technique_list
                        and not 0.0 < factor * self.autocorr_margin <= 1.0):
                    raise ValueError(
                        f"threshold factor {factor} puts the autocorr margin "
                        f"{factor * self.autocorr_margin} outside (0, 1]")
            # every detector needs a sample, autocorr two and euclid more
            # samples than lags; fail before the sweep runs
            if self.samples_N < 1:
                raise ValueError("detection needs at least 1 sample, got "
                                 f"samples_N {self.samples_N}")
            if "autocorr" in self.technique_list and self.samples_N < 2:
                raise ValueError("autocorr needs at least 2 samples, got "
                                 f"samples_N {self.samples_N}")
            if "euclid" in self.technique_list and self.samples_N <= self.euclid_lags_M:
                raise ValueError(f"euclid needs samples_N {self.samples_N} above "
                                 f"euclid_lags_M {self.euclid_lags_M}")
            # a NaN threshold decides every trial alike and reads as a rate
            if "euclid" in self.technique_list and not math.isfinite(self.euclid_lambda):
                raise ValueError(f"invalid euclid_lambda {self.euclid_lambda}")
        if self.experiment_kind == "scan_sim":
            if self.slots < 1:
                raise ValueError("slots must be >= 1")
            if not 0.0 <= self.busy_prob <= 1.0:
                raise ValueError(f"busy_prob {self.busy_prob} outside [0, 1]")
            # the scan runs every technique; a NaN threshold decides every
            # cell alike and reads as a rate
            if not math.isfinite(self.euclid_lambda):
                raise ValueError(f"invalid euclid_lambda {self.euclid_lambda}")
            if not 0.0 <= self.energy_lambda_scan < math.inf:
                raise ValueError(f"invalid energy_lambda_scan {self.energy_lambda_scan}")
            if not 0.0 < self.autocorr_margin <= 1.0:
                raise ValueError(f"scan autocorr_margin {self.autocorr_margin} "
                                 "outside (0, 1]")
            # the survey runs euclid on the m compressed samples of each cell
            m = self.scan_measurements()
            if not self.euclid_lags_M < m <= self.samples_N:
                raise ValueError(f"scan compressive length {m} must be above "
                                 f"euclid_lags_M {self.euclid_lags_M} and at most "
                                 f"samples_N {self.samples_N}")
        if self.experiment_kind == "recovery_mc":
            # a bad cell fails here, not after the cells before it have run
            for n, k, m in itertools.product(*self.recovery_grids()):
                if not 1 <= k <= n or not 1 <= m <= n:
                    raise ValueError(f"invalid cell n={n}, k={k}, m={m}")
            if "bp" in self.solver_list and not 0.0 <= self.bp_z_factor < math.inf:
                raise ValueError(f"invalid bp_z_factor {self.bp_z_factor}")

    def scan_measurements(self) -> int:
        """The survey's compressive length: measurements_M, else samples_N // 4."""
        return self.measurements_M or max(1, self.samples_N // 4)

    def recovery_grids(self) -> tuple[tuple, tuple, tuple]:
        """The recovery sweep's n, k and m grids, with their fallbacks."""
        return (self.n_grid or (self.samples_N,), self.k_grid or (self.sparsity_k,),
                self.m_grid or (self.measurements_M,))


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
            _integer(f"band {name!r} channel_count", count)
            if (not all(map(math.isfinite, (f_lo, f_hi, spacing)))
                    or f_hi <= f_lo or spacing <= 0 or count < 1):
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
    """Two-state (busy/idle) channel occupancy with an optional diurnal profile.

    busy_prob is checked when the model is built, a diurnal profile's value
    at each call.
    """

    busy_prob: float = 0.3
    diurnal: object | None = None  # callable(channel_index, slot) -> probability

    def __post_init__(self) -> None:
        if not 0.0 <= self.busy_prob <= 1.0:
            raise ValueError(f"busy_prob {self.busy_prob} outside [0, 1]")

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


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, as numpy/random/
# bit_generator.pyx implements it): its constants, shift and pool of words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# generate_state's hash constant before and after each of its eight words
_STATE_XOR = np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(8)],
                      dtype=np.uint32)
_STATE_MULT = _STATE_XOR * np.uint32(_MULT_B)


class _PCG64Seed(ISeedSequence):
    """A seed sequence that hands PCG64 the four uint64 words it asks for."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def _wrap(word):
    """A Python-int word cut to 32 bits; a uint32 array wraps by itself."""
    return word & _MASK32 if isinstance(word, int) else word


def _entry_words(entry) -> list[int]:
    """A non-negative int entry as SeedSequence reads it: 32-bit words, low first."""
    value = operator.index(entry)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pcg64_seeds(prefix: tuple, indices: range) -> np.ndarray:
    """The (len(indices), 4) uint64 words `SeedSequence([*prefix, i])` gives
    PCG64 for each i, with every i below 2**32.

    Words that every key shares stay Python ints; only the index word, and
    the pool words it reaches, are uint32 arrays over the block's rows.
    """
    words = [w for entry in prefix for w in _entry_words(entry)]
    words.append(np.arange(indices.start, indices.stop, indices.step, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = _wrap(value * hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight 32-bit words from the pool, cycled,
    # then paired into uint64s low word first, as numpy does
    state = (np.stack(pool * 2, axis=1) ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> _XSHIFT
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _generators(prefix: tuple, indices: range) -> list[np.random.Generator]:
    """`[np.random.default_rng([*prefix, i]) for i in indices]`, bit for bit,
    with numpy's SeedSequence hash run once for the whole block.

    PCG64 seeds itself from each row's hashed words. A block with a negative
    entry, or an index of two words (2**32 and above), calls `default_rng`
    per key, which raises on a negative entry as numpy does.
    """
    if not indices:
        return []
    if (min(prefix, default=0) < 0 or min(indices[0], indices[-1]) < 0
            or max(indices[0], indices[-1]) > _MASK32):
        return [np.random.default_rng([*prefix, i]) for i in indices]
    return [np.random.Generator(np.random.PCG64(_PCG64Seed(row)))
            for row in _pcg64_seeds(prefix, indices)]


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
                     rng: np.random.Generator) -> tuple:
    """One trial's draws from its generator: (threshold, H1 samples, H0
    samples or None).

    Under single_loop no H0 samples are drawn.
    """
    n = cfg.samples_N
    dw2 = cfg.noise_variance
    sigma = math.sqrt(dw2)
    window = cfg.euclid_lags_M // 2 + 1
    gain = math.sqrt(dw2 * 10.0 ** (snr_db / 10.0))
    lam = _threshold(cfg, technique, factor, rng, pilot_re_norm)
    pu = gain * _pu_waveform(technique, rng, n, pilot, window)
    y1 = pu + rng.standard_normal(n) * sigma
    if cfg.single_loop:
        return lam, y1, None
    return lam, y1, rng.standard_normal(n) * sigma


def _detection_block(cfg: ExperimentConfig, technique: str, snr_db: float,
                     factor: float, pilot: PilotSignal, pilot_re_norm: float,
                     point_key: tuple, trials: range) -> tuple[int, int]:
    """(detections, false alarms or misses) over a block of a grid point's trials."""
    lams, h1, h0 = zip(*[_detection_trial(cfg, technique, snr_db, factor, pilot,
                                          pilot_re_norm, rng)
                         for rng in _generators(point_key, trials)])
    lam = np.array(lams)

    def hits(rows: tuple) -> int:
        outcome = det.detect(technique, np.stack(rows), lam, pilot=pilot,
                             lags=cfg.euclid_lags_M)
        return int(np.count_nonzero(outcome.occupied))

    detected = hits(h1)
    if cfg.single_loop:
        # literal single-loop accounting: misses are tallied in the nf column
        return detected, len(trials) - detected
    return detected, hits(h0)


def _row_blocks(count: int, samples: int) -> list[range]:
    """range(count) in consecutive blocks of at most BLOCK_SAMPLES samples' rows."""
    rows = max(1, BLOCK_SAMPLES // samples)
    return [range(start, min(start + rows, count)) for start in range(0, count, rows)]


def run_detection_mc(config: ExperimentConfig) -> PdPfaCurve:
    """Monte-Carlo Pd/Pfa curves over the (technique, snr, factor) grid.

    By default each grid point runs trials_Nt H1 trials (signal plus noise,
    counting detections) and trials_Nt H0 trials (noise only, counting false
    alarms). config.single_loop switches to the literal one-loop accounting
    where the nf column counts misses instead.

    Each trial draws its own threshold, H1 samples and H0 samples from its
    own RNG, in trial order. That RNG equals `np.random.default_rng([base_seed,
    ti, si, fi, trial])` bit for bit, with ti, si and fi the grid indices of
    the technique, SNR and threshold factor, and a block's keys are hashed in
    one pass. The detector then runs once on the H1 samples and once on the
    H0 samples of up to max(1, BLOCK_SAMPLES // samples_N)
    trials, as (rows, samples_N) row blocks with one threshold per row. A
    block's statistics equal the per-trial ones bit for bit, so the records
    do not depend on the block size, and memory does not grow with trials_Nt.

    Under threshold_mode="quiet_time" the energy and matched-filter
    thresholds are drawn from their exact law under the sweep's white
    Gaussian noise rather than computed from averaging_runs * samples_N
    synthesised noise samples; thresholds for recorded quiet-time samples
    come from `detectors.quiet_time_threshold`.
    """
    pilot = gen_pilot_bpsk(config.samples_N, seed=config.base_seed + 104729)
    pilot_re_norm = float(np.linalg.norm(np.real(pilot.samples)))
    blocks = _row_blocks(config.trials_Nt, config.samples_N)
    records = []
    for ti, technique in enumerate(config.technique_list):
        for si, snr_db in enumerate(config.snr_grid_db):
            for fi, factor in enumerate(config.threshold_factors):
                key = (config.base_seed, ti, si, fi)
                counts = [_detection_block(config, technique, float(snr_db),
                                           float(factor), pilot, pilot_re_norm,
                                           key, block)
                          for block in blocks]
                nd = sum(c[0] for c in counts)
                nf = sum(c[1] for c in counts)
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
    """A solver failed numerically inside a recovery trial; sweeps count the
    trial as failed."""


def recovery_trial(solver: str, scheme: str, n: int, k: int, m: int,
                   snr_db: float, seeds, *, z_factor: float, inform_noise: bool,
                   measure_time: bool) -> tuple[dict, RecoveryResult]:
    """One recovery trial: the unit that sweeps repeat and `cs-toolkit recover` runs.

    Builds the matrix from seeds[0] and the signal from seeds[1], adds noise at
    snr_db (inf for noiseless) drawn from seeds[2], solves and scores the
    estimate. Returns the trial's metrics (times in seconds, zero unless
    measure_time: "tr" is the solver call, "tp" the noisy compress and the
    solver call; "hd" counts the measurements whose sign A x_hat gets wrong,
    for every solver) and the solver's result. A numerical failure of the
    solver (`IllConditionedError` or `np.linalg.LinAlgError`) is re-raised as
    a RuntimeError carrying its message, which sweeps count as a failed trial;
    any other exception propagates unchanged and aborts the sweep, so a
    programming error is never counted as a failed trial.
    """
    A = build_matrix(scheme, m, n, seed=int(seeds[0]))
    x = gen_sparse_signal(n, k, seed=int(seeds[1]))
    t_make = time.perf_counter()
    clean = compress(A, x).values  # the one apply of A: noise is scaled to it
    nv = _noise_variance(float(np.mean(clean**2)), snr_db)
    y = _with_noise(clean, nv, int(seeds[2]))
    t_solve = time.perf_counter()
    try:
        res = _solve(solver, y, A, k, z_factor, nv if inform_noise else None)
    except (IllConditionedError, np.linalg.LinAlgError) as exc:
        raise _SolverFailed(str(exc)) from exc
    t_done = time.perf_counter()
    x_hat = res.x_hat
    # signs lose scale, so BIHT is scored against the unit-normalized target
    target = x.samples / np.linalg.norm(x.samples) if solver == "biht" else x
    metrics = evaluate_metrics(target, x_hat, one_bit_quantize(y).signs,
                               one_bit_quantize(A.matvec(x_hat)).signs)
    return {
        "re": metrics.recovery_error_Re,
        "mse": metrics.mse,
        "cc": metrics.correlation_Cc,
        "rsnr": min(metrics.rsnr, 1e30),
        "hd": float(metrics.hamming_Hd),
        "tr": t_done - t_solve if measure_time else 0.0,
        "tp": t_done - t_make if measure_time else 0.0,
    }, res


def _recovery_record(solver: str, scheme: str, n: int, k: int, m: int,
                     snr_db: float, rows: list) -> dict:
    """One report record: the means over the trials that did not fail.

    A cell whose trials all failed has no mean, so every `mean_*` is NaN.
    """
    sums = dict.fromkeys(("re", "mse", "cc", "rsnr", "hd", "tr", "tp"), 0.0)
    for r in rows:
        for key in sums:
            sums[key] += r[key]
    denom = len(rows) or math.nan
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
    rows = []
    for j in range(cfg.trials_Nt):
        rng = np.random.default_rng(list(cell_key) + [j])
        seeds = rng.integers(0, 2**62, size=3)
        try:
            rows.append(recovery_trial(solver, scheme, n, k, m, snr_db, seeds,
                                       z_factor=cfg.bp_z_factor,
                                       inform_noise=cfg.inform_noise,
                                       measure_time=cfg.measure_time)[0])
        except _SolverFailed:
            pass
    return _recovery_record(solver, scheme, n, k, m, snr_db, rows)


def run_recovery_mc(config: ExperimentConfig) -> RecoveryReport:
    """Sweep solvers over the (n, k, m, snr) grids and aggregate metric means.

    A solver's numerical failure (`IllConditionedError` or `LinAlgError`)
    inside a cell is recorded by a reduced `trials` count and never aborts the
    sweep; any other exception from a solver aborts it.
    """
    schemes = (config.matrix_scheme if isinstance(config.matrix_scheme, (tuple, list))
               else (config.matrix_scheme,))
    cells = itertools.product(config.solver_list, schemes, *config.recovery_grids(),
                              config.snr_grid_db)
    return RecoveryReport(records=tuple(
        _recovery_cell(config, solver, scheme, int(n), int(k), int(m), float(snr_db),
                       (config.base_seed, 7919, cell))
        for cell, (solver, scheme, n, k, m, snr_db) in enumerate(cells)))


def _scan_block(cfg: ExperimentConfig, matrix: SensingMatrix, slot: int,
                channels: range, traffic: TrafficModel) -> tuple:
    """A block of one slot's channels: (truth, snr_db, est_snr_db, decided).

    Each channel-slot draws its truth, SNR and samples from its own RNG, as
    a lone channel does, into one row of an (R, samples_N) block. The
    circulant then applies once to the block, and each technique detects
    once on each path's block, so decided[path, technique, r] holds row r's
    decisions. The blind SNR estimate runs once on the block, with one
    estimate per row. Each row equals the vector calls on it bit for bit.
    """
    n = cfg.samples_N
    window = cfg.euclid_lags_M // 2 + 1
    sigma = math.sqrt(cfg.noise_variance)
    block = np.empty((len(channels), n))
    truth = np.empty(len(channels), dtype=bool)
    snr = np.empty(len(channels))
    rngs = _generators((cfg.base_seed, 15013, slot), channels)
    for r, (ch, rng) in enumerate(zip(channels, rngs)):
        truth[r] = rng.random() < traffic.prob(ch, slot)
        # indexing the tuple draws what rng.choice draws, without building an
        # array from it on every call
        snr[r] = snr_db = float(cfg.snr_grid_db[rng.integers(len(cfg.snr_grid_db))])
        block[r] = rng.standard_normal(n) * sigma
        if truth[r]:
            gain = math.sqrt(cfg.noise_variance * 10.0 ** (snr_db / 10.0))
            block[r] += gain * _ma_waveform(rng, n, window)

    def decisions(samples: np.ndarray) -> list:
        # energy threshold is relative to the nominal noise energy of a row
        lams = {"energy": cfg.energy_lambda_scan * samples.shape[-1] * cfg.noise_variance,
                "autocorr": cfg.autocorr_margin, "euclid": cfg.euclid_lambda}
        return [det.detect(t, samples, lams[t], lags=cfg.euclid_lags_M).occupied
                for t in SCAN_TECHNIQUES]

    # one row per entry of PATHS
    decided = np.array([decisions(matrix.matvec(block)), decisions(block)], dtype=bool)
    est_snr_db = [est.snr_db for est in estimate_snr(block, L=10, K=50)]
    return truth, snr, est_snr_db, decided


def _rate(hits: np.ndarray, among: np.ndarray, empty: float) -> float:
    """count(hits & among) / count(among), or `empty` when `among` is empty."""
    hits, among = np.broadcast_arrays(hits, among)
    count = int(np.count_nonzero(among))
    return int(np.count_nonzero(hits & among)) / count if count else empty


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
    estimate is recorded per channel-slot. The compute budget is one
    conventional pass over the plan, samples_N samples per channel, and
    `budget_channels` counts the channels it covers at M samples per channel
    (compressive) and at N (conventional).

    Each channel-slot draws its truth, SNR and samples from its own RNG,
    equal bit for bit to `np.random.default_rng([base_seed, 15013, slot,
    channel])`; a block's keys are hashed in one pass. A slot's channels then
    run as row blocks of up to max(1, BLOCK_SAMPLES // samples_N) channels,
    the cap detection sweeps share: one circulant
    apply per block, one detector call per technique on each path's block,
    and one blind SNR estimate per block (one stacked covariance and
    eigendecomposition, then one noise fit per model order among the
    block's channels). Each row equals the
    per-channel vector calls bit for bit, so the report does not depend on
    the block size.

    Each channel-slot result is held once, in `truth`, `snr` and
    `decided[path, technique]` over (channel, slot), and in the record's SNR
    estimate; the timelines, occupancy and every rate are read from them.
    """
    plan = plan if plan is not None else default_band_plan()
    traffic = traffic if traffic is not None else TrafficModel(config.busy_prob)
    n = config.samples_N
    m = config.scan_measurements()
    matrix = build_matrix("circulant", m, n, seed=config.base_seed + 65537,
                          options={"p": SCAN_GENERATOR_P})
    n_ch = len(plan.channels())
    truth = np.zeros((n_ch, config.slots), dtype=bool)
    snr = np.zeros((n_ch, config.slots))
    decided = np.zeros((len(PATHS), len(SCAN_TECHNIQUES)) + truth.shape, dtype=bool)
    records = []
    for s in range(config.slots):
        for chans in _row_blocks(n_ch, n):
            cut = slice(chans.start, chans.stop)
            truth[cut, s], snr[cut, s], est_snr_db, decided[..., cut, s] = _scan_block(
                config, matrix, s, chans, traffic)
            records.extend(
                {"slot": s, "channel": c, "technique": t,
                 "decision": det.OCCUPIED if decided[0, i, c, s] else det.IDLE,
                 "truth": int(truth[c, s]), "est_snr_db": est}
                for c, est in zip(chans, est_snr_db)
                for i, t in enumerate(SCAN_TECHNIQUES))

    idle = ~truth
    # levels in draw order (slot-major), so of 0.0 and -0.0 the first drawn is the key
    at_snr = {level: snr == level for level in sorted(set(snr.T.ravel().tolist()))}
    rate_tables = {}
    for (p, path), (i, t) in itertools.product(enumerate(PATHS),
                                               enumerate(SCAN_TECHNIQUES)):
        hits = decided[p, i]
        rate_tables[(path, t)] = {
            "detection": _rate(hits, truth, 0.0), "false": _rate(hits, idle, 0.0),
            "per_snr": {level: {"detection": _rate(hits, truth & at, math.nan),
                                "false": _rate(hits, idle & at, math.nan)}
                        for level, at in at_snr.items()}}
    # the budget is one conventional pass: n samples for each channel
    budget_channels = {"compressive": n * n_ch // m, "conventional": n_ch}
    ts = float(config.slots * n_ch * n)  # survey period in sample-time units
    tsc = ts / (len(SCAN_TECHNIQUES) * n_ch)
    return OccupancyReport(
        records=tuple(records),
        per_channel_timeline={path: dict(zip(SCAN_TECHNIQUES, decided[p]))
                              for p, path in enumerate(PATHS)},
        occupancy_pct={t: 100.0 * decided[0, i].mean(axis=0)
                       for i, t in enumerate(SCAN_TECHNIQUES)},
        ground_truth=truth,
        # pooled over the techniques of the compressive path
        detection_rate=_rate(decided[0], truth, 0.0),
        false_rate=_rate(decided[0], idle, 0.0),
        rate_tables=rate_tables,
        channels_scanned=n_ch,
        survey_period_Ts=ts,
        scan_time_tsc=tsc,
        budget_channels=budget_channels,
    )
