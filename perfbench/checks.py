"""Correctness checks made apart from the program.

Every check takes plain numbers (counts, means, medians, rates) and returns a list of
problems; an empty list means the check holds. Each bound is set so that it
holds on any seed: binomial bands are Z standard errors wide, so a correct
program fails one by chance with probability below 1e-6.

`self_test()` feeds every check one value that a correct program produces and
one that it does not, and reports each check that accepts the wrong value or
rejects the right one. Run it alone with `python3 perfbench/checks.py`.
"""

from __future__ import annotations

import math

from scipy.stats import f as f_dist

Z = 5.0


def binomial_band(trials: int, p: float) -> float:
    """Half-width of the Z-sigma band of a binomial rate over `trials` draws.

    The variance is floored at 1/trials so a rate whose law is 0 or 1 still
    tolerates a single stray outcome.
    """
    return Z * math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)


def energy_law(factor: float, n: int, averaging_runs: int,
               snr_db: float) -> tuple[float, float]:
    """Exact (Pd, Pfa) of the energy detector under a quiet-time threshold.

    The threshold is factor * mean of `averaging_runs` noise energies, so
    T / threshold is F(n, averaging_runs * n) distributed up to the factor
    and, under H1, the (1 + snr) power gain of the Gaussian waveform.
    """
    dof = averaging_runs * n
    snr = 10.0 ** (snr_db / 10.0)
    return (float(f_dist.sf(factor / (1.0 + snr), n, dof)),
            float(f_dist.sf(factor, n, dof)))


def check_energy_law(counts: dict, n: int, factor: float,
                     averaging_runs: int) -> list[str]:
    """counts maps snr_db -> (detections, false alarms, trials)."""
    problems = []
    for snr_db, (nd, nf, trials) in sorted(counts.items()):
        pd, pfa = energy_law(factor, n, averaging_runs, snr_db)
        for label, hits, law in (("pd", nd, pd), ("pfa", nf, pfa)):
            rate = hits / trials
            if abs(rate - law) > binomial_band(trials, law):
                problems.append(f"energy {label} at {snr_db} dB: {rate:.4f} vs exact "
                                f"{law:.4f} over {trials} trials")
    return problems


def check_detector_shape(technique: str, counts: dict, pfa_cap: float) -> list[str]:
    """Pd does not fall as SNR rises, and Pfa stays below pfa_cap.

    counts maps snr_db -> (detections, false alarms, trials). A fall smaller
    than the combined binomial band of the two rates is sampling noise.
    """
    problems = []
    points = sorted(counts.items())
    for (lo_db, (lo_nd, _, lo_t)), (hi_db, (hi_nd, _, hi_t)) in zip(points, points[1:]):
        lo, hi = lo_nd / lo_t, hi_nd / hi_t
        if hi < lo - binomial_band(lo_t, lo) - binomial_band(hi_t, hi):
            problems.append(f"{technique} pd falls from {lo:.4f} at {lo_db} dB to "
                            f"{hi:.4f} at {hi_db} dB")
    for snr_db, (_, nf, trials) in points:
        pfa = nf / trials
        if pfa > pfa_cap + binomial_band(trials, pfa_cap):
            problems.append(f"{technique} pfa {pfa:.4f} at {snr_db} dB above {pfa_cap}")
    return problems


def check_recovery_error(label: str, median_re: float, oracle_re: float,
                         factor: float) -> list[str]:
    """A solver's median relative error stays within factor x the LS oracle's."""
    if not math.isfinite(median_re) or median_re > factor * oracle_re:
        return [f"{label} median error {median_re:.4g} above {factor} x oracle "
                f"{oracle_re:.4g}"]
    return []


def check_correlation(label: str, median_cc: float, floor: float) -> list[str]:
    """A one-bit estimate correlates with the unit-norm target at least `floor`."""
    if not math.isfinite(median_cc) or median_cc < floor:
        return [f"{label} median correlation {median_cc:.4g} below {floor}"]
    return []


def check_share(label: str, hits: int, trials: int, p: float) -> list[str]:
    """An observed share lies within the binomial band of its law p."""
    rate = hits / trials
    if abs(rate - p) > binomial_band(trials, p):
        return [f"{label} share {rate:.4f} vs {p} over {trials}"]
    return []


def check_scan_rates(rates: dict, snr_grid: tuple) -> list[str]:
    """The rate properties of acceptance criterion 09.

    rates maps (path, technique) -> {snr_db: (detection, false)}, each a mean
    of per-round rates. Per path: euclid detects at least as often as
    autocorr at or below -10 dB, euclid's false-alarm rate stays at or below
    0.05 at every SNR, and on the conventional path euclid detects strictly
    more often than autocorr at the top of the grid.
    """
    problems = []
    top = max(snr_grid)
    for path in ("conventional", "compressive"):
        euclid = rates[(path, "euclid")]
        auto = rates[(path, "autocorr")]
        for snr_db in snr_grid:
            if snr_db <= -10.0 and euclid[snr_db][0] < auto[snr_db][0]:
                problems.append(f"{path} euclid detection below autocorr at {snr_db} dB")
            if euclid[snr_db][1] > 0.05:
                problems.append(f"{path} euclid false rate {euclid[snr_db][1]:.3f} "
                                f"at {snr_db} dB above 0.05")
    conv_e = rates[("conventional", "euclid")][top][0]
    conv_a = rates[("conventional", "autocorr")][top][0]
    if not conv_e > conv_a:
        problems.append(f"conventional euclid detection {conv_e:.3f} not above "
                        f"autocorr {conv_a:.3f} at {top} dB")
    return problems


def check_budget(compressive: int, conventional: int, budget: int, m: int,
                 n: int) -> list[str]:
    """The survey's channel budgets are budget // m and budget // n."""
    if (compressive, conventional) != (budget // m, budget // n):
        return [f"budget channels {compressive}/{conventional}, expected "
                f"{budget // m}/{budget // n}"]
    return []


def check_min(label: str, value: float, floor: float) -> list[str]:
    if not value >= floor:
        return [f"{label} {value:.4g} below {floor}"]
    return []


def self_test() -> list[str]:
    """Each check accepts a right value and rejects a wrong one."""
    failures = []

    def expect(name: str, problems: list[str], should_fail: bool) -> None:
        if bool(problems) != should_fail:
            verdict = "accepted a wrong value" if should_fail else "rejected a right value"
            failures.append(f"{name} {verdict}: {problems}")

    trials = 4000
    pd, pfa = energy_law(1.0, 1000, 32, -12.0)
    right = {-12.0: (round(pd * trials), round(pfa * trials), trials)}
    expect("energy law", check_energy_law(right, 1000, 1.0, 32), False)
    # a detector that ignores the quiet-time threshold factor
    wrong_pd, wrong_pfa = energy_law(1.1, 1000, 32, -12.0)
    wrong = {-12.0: (round(wrong_pd * trials), round(wrong_pfa * trials), trials)}
    expect("energy law", check_energy_law(wrong, 1000, 1.0, 32), True)

    rising = {-16.0: (400, 800, trials), -4.0: (3000, 810, trials)}
    falling = {-16.0: (3000, 800, trials), -4.0: (400, 810, trials)}
    expect("pd monotone", check_detector_shape("mf", rising, 0.3), False)
    expect("pd monotone", check_detector_shape("mf", falling, 0.3), True)
    loud = {-16.0: (400, 2000, trials), -4.0: (3000, 2000, trials)}
    expect("pfa cap", check_detector_shape("mf", loud, 0.3), True)

    expect("recovery error", check_recovery_error("omp", 0.031, 0.030, 1.5), False)
    expect("recovery error", check_recovery_error("omp", 0.9, 0.030, 1.5), True)
    expect("recovery error", check_recovery_error("omp", math.nan, 0.030, 1.5), True)
    expect("correlation", check_correlation("biht", 0.8, 0.5), False)
    expect("correlation", check_correlation("biht", 0.1, 0.5), True)

    expect("busy share", check_share("busy", 300, 1000, 0.3), False)
    expect("busy share", check_share("busy", 500, 1000, 0.3), True)

    grid = (-20.0, -10.0, 8.0)
    good = {(path, t): {s: (0.0, 0.0) for s in grid}
            for path in ("conventional", "compressive") for t in ("euclid", "autocorr")}
    good[("conventional", "euclid")][8.0] = (0.9, 0.0)
    expect("scan rates", check_scan_rates(good, grid), False)
    noisy = {key: dict(val) for key, val in good.items()}
    noisy[("compressive", "euclid")][-20.0] = (0.0, 0.2)
    expect("scan rates", check_scan_rates(noisy, grid), True)
    flat = {key: dict(val) for key, val in good.items()}
    flat[("conventional", "euclid")][8.0] = (0.0, 0.0)
    expect("scan rates", check_scan_rates(flat, grid), True)
    blind = {key: dict(val) for key, val in good.items()}
    blind[("conventional", "autocorr")][-10.0] = (0.5, 0.0)
    expect("scan rates", check_scan_rates(blind, grid), True)

    expect("budget", check_budget(348, 87, 267264, 768, 3072), False)
    expect("budget", check_budget(87, 87, 267264, 768, 3072), True)
    expect("minimum", check_min("occupancy", 100.0, 99.0), False)
    expect("minimum", check_min("occupancy", 50.0, 99.0), True)
    return failures


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print(line)
    print("self-test", "failed" if found else "passed")
    raise SystemExit(1 if found else 0)
