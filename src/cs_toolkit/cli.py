"""Command-line front end.

Exit codes: 0 success, 2 invalid arguments or usage, 1 runtime failure.
Every subcommand that writes files also writes a run manifest beside them.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path

import numpy as np

from .detectors import TECHNIQUES, detect
from .harness import (
    SOLVERS,
    ExperimentConfig,
    _recovery_record,
    recovery_trial,
    run_detection_mc,
    run_recovery_mc,
    run_scan_sim,
)
from .io import (
    RECOVERY_COLUMNS,
    TOOL_VERSION,
    RunManifest,
    _csv_text,
    _fmt,
    _json_text,
    _json_value,
    _write_in_place,
    config_hash,
    environment_stamp,
    load_config,
    matrix_descriptor,
    read_report,
    serialize_report,
    utc_now,
    write_manifest,
)
from .matrices import SCHEMES, build_matrix, compress
from .signals import gen_pilot_bpsk, gen_sparse_signal
from .snr import estimate_snr

__all__ = ["main", "run_cli"]

# tokens like -1e9, -.5e-3 or the comma list -15,-10,-5 are values, not flags;
# argparse only special-cases plain -1 / -1.5, so merge anything that reads as
# a negative number (or a comma list starting with one) into flag=value form
_ANY_NUMBER = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|-?inf"
_NEG_NUMBER = re.compile(
    rf"^(?:-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|-inf)(?:,(?:{_ANY_NUMBER}))*$")


def _merge_negative_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and _NEG_NUMBER.match(argv[i + 1])):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _read_samples(path: str) -> np.ndarray:
    """Read a sample vector from CSV: last field per row, header tolerated."""
    values = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            raw = row[-1].strip()
            try:
                values.append(complex(raw) if "j" in raw else float(raw))
            except ValueError:
                if values:
                    raise
                continue  # header line
    if not values:
        raise ValueError(f"no numeric samples found in {path}")
    arr = np.asarray(values)
    return arr if np.iscomplexobj(arr) else arr.astype(float)


def _write_samples(path: Path, values: np.ndarray, column: str) -> None:
    rows = [[i, _fmt(v) if not np.iscomplexobj(values) else repr(complex(v))]
            for i, v in enumerate(values)]
    _write_in_place(path, _csv_text([["index", column], *rows]), newline="")


def _emit_manifest(started_at: str, hashed: dict, base_seed: int,
                   outputs: list[Path]) -> None:
    """Write the run manifest beside outputs[0]; `hashed` is the config to hash."""
    manifest = RunManifest(
        config_hash=config_hash(hashed),
        tool_version=TOOL_VERSION,
        started_at=started_at,
        finished_at=utc_now(),
        base_seed=base_seed,
        output_paths=tuple(str(p) for p in outputs),
        environment=environment_stamp(),
    )
    stem = outputs[0].stem
    write_manifest(manifest, outputs[0].parent, stem=stem)


def _public_args(ns: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(ns).items() if k != "func" and v is not None}


def _cmd_generate(ns: argparse.Namespace) -> int:
    started = utc_now()
    x = gen_sparse_signal(ns.n, ns.k, amplitude_law=ns.amplitude_law, seed=ns.seed)
    out = Path(ns.output)
    _write_samples(out, x.samples, "value")
    _emit_manifest(started, _public_args(ns), ns.seed, [out])
    print(f"wrote {out} (n={ns.n}, k={ns.k})")
    return 0


def _cmd_compress(ns: argparse.Namespace) -> int:
    started = utc_now()
    x = _read_samples(ns.input)
    A = build_matrix(ns.scheme, ns.m, x.size, seed=ns.seed)
    y = compress(A, x, noise_variance=ns.noise_variance, seed=ns.seed + 1)
    out = Path(ns.output)
    _write_samples(out, y.values, "measurement")
    desc_path = out.with_name(out.stem + "_matrix.json")
    _write_in_place(desc_path, _json_text(matrix_descriptor(A), sort_keys=True))
    _emit_manifest(started, _public_args(ns), ns.seed, [out, desc_path])
    print(f"wrote {out} and {desc_path} (m={ns.m}, n={x.size})")
    return 0


def _cmd_recover(ns: argparse.Namespace) -> int:
    started = utc_now()
    snr_db = math.inf if ns.snr_db is None else ns.snr_db
    row, res = recovery_trial(ns.solver, ns.scheme, ns.n, ns.k, ns.m, snr_db,
                              (ns.seed, ns.seed + 1, ns.seed + 2),
                              z_factor=ns.z_factor, inform_noise=True,
                              measure_time=ns.measure_time)
    record = _recovery_record(ns.solver, ns.scheme, ns.n, ns.k, ns.m, snr_db, [row])
    out = Path(ns.output)
    rows = [["index", "x_hat"], *([i, _fmt(v)] for i, v in enumerate(res.x_hat)),
            RECOVERY_COLUMNS, [_fmt(record[c]) for c in RECOVERY_COLUMNS]]
    _write_in_place(out, _csv_text(rows), newline="")
    _emit_manifest(started, _public_args(ns), ns.seed, [out])
    print(f"wrote {out} (Re={row['re']:.3e}, iterations={res.iterations})")
    return 0


def _cmd_detect(ns: argparse.Namespace) -> int:
    started = utc_now()
    y = _read_samples(ns.input)
    pilot = gen_pilot_bpsk(y.size, seed=ns.pilot_seed)
    outcome = detect(ns.technique, y, ns.threshold, pilot=pilot, lags=ns.lags)
    header = "technique,statistic,threshold,decision"
    row = ",".join(map(_fmt, (outcome.technique, outcome.statistic_T,
                              outcome.threshold_lambda, outcome.decision)))
    print(header)
    print(row)
    if ns.output:
        out = Path(ns.output)
        _write_in_place(out, header + "\n" + row + "\n")
        _emit_manifest(started, _public_args(ns), 0, [out])
    return 0


def _cmd_estimate_snr(ns: argparse.Namespace) -> int:
    started = utc_now()
    y = _read_samples(ns.input)
    est = estimate_snr(y, L=ns.smoothing_l, K=ns.grid_k)
    payload = {
        "snr_db": _json_value(est.snr_db),
        "noise_variance_hat": _json_value(est.noise_variance_hat),
        "total_power_hat": _json_value(est.total_power_hat),
        "mdl_order_M": est.mdl_order_M,
        "clamped": est.clamped,
    }
    text = _json_text(payload, sort_keys=True)
    print(text, end="")
    if ns.output:
        out = Path(ns.output)
        _write_in_place(out, text)
        _emit_manifest(started, _public_args(ns), 0, [out])
    return 0


_TUPLE_FIELDS = {"snr_grid_db", "threshold_factors", "technique_list",
                 "solver_list", "n_grid", "k_grid", "m_grid", "matrix_scheme"}


def config_to_experiment(config: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a loaded config document."""
    body = {k: v for k, v in config.items() if k != "schema"}
    valid = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    unknown = set(body) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in list(body):
        if key in _TUPLE_FIELDS and isinstance(body[key], list):
            body[key] = tuple(body[key])
    return ExperimentConfig(**body)


def _cmd_experiment(ns: argparse.Namespace) -> int:
    started = utc_now()
    config = load_config(ns.config)
    exp = config_to_experiment(config)
    if exp.experiment_kind == "detection_mc":
        report = run_detection_mc(exp)
    elif exp.experiment_kind == "recovery_mc":
        report = run_recovery_mc(exp)
    else:
        report = run_scan_sim(exp)
    out_dir = Path(ns.output_dir)
    out = out_dir / f"results.{ns.format}"
    serialize_report(report, out, fmt=ns.format)
    _emit_manifest(started, config, exp.base_seed, [out])
    print(f"wrote {out} ({len(report.records)} records)")
    return 0


def _cmd_scan_sim(ns: argparse.Namespace) -> int:
    started = utc_now()
    exp = ExperimentConfig(
        experiment_kind="scan_sim",
        samples_N=ns.samples,
        measurements_M=ns.m if ns.m else 0,
        slots=ns.slots,
        busy_prob=ns.busy_prob,
        snr_grid_db=tuple(float(s) for s in ns.snr_grid.split(",")),
        energy_lambda_scan=ns.energy_lambda,
        autocorr_margin=ns.autocorr_margin,
        euclid_lambda=ns.euclid_lambda,
        base_seed=ns.seed,
        noise_variance=ns.noise_variance,
    )
    report = run_scan_sim(exp)
    out_dir = Path(ns.output_dir)
    out = out_dir / f"scan.{ns.format}"
    serialize_report(report, out, fmt=ns.format)
    _emit_manifest(started, _public_args(ns), ns.seed, [out])
    print(f"wrote {out} ({report.channels_scanned} channels x {ns.slots} slots, "
          f"detection_rate={report.detection_rate:.3f})")
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    records = read_report(ns.input)
    if not records:
        print("empty report")
        return 0
    cols = list(records[0].keys())
    print(" ".join(cols))
    limit = ns.rows if ns.rows > 0 else len(records)
    for rec in records[:limit]:
        print(" ".join(str(rec[c]) for c in cols))
    group_key = ("technique" if "technique" in cols
                 else "solver" if "solver" in cols else None)
    numeric = [c for c in cols if isinstance(records[0][c], (int, float))
               and c not in ("slot", "channel", "n", "k", "m", "trials")]
    if group_key and numeric:
        print("-- group means --")
        groups: dict = {}
        for rec in records:
            groups.setdefault(rec[group_key], []).append(rec)
        for name in sorted(groups):
            # a row stands for its trials; a failed cell (trials 0) has no means
            rows = [r for r in groups[name] if r.get("trials", 1) > 0]
            weights = [r.get("trials", 1) for r in rows]
            means = ", ".join(
                "%s=%.6g" % (c, np.average([r[c] for r in rows], weights=weights)
                             if rows else math.nan)
                for c in numeric)
            print(f"{name}: {means}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    parser = argparse.ArgumentParser(
        prog="cs-toolkit",
        description="Compressive spectrum sensing toolkit")
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a sparse test signal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude-law", default="unit",
                   choices=("unit", "gaussian", "uniform"))
    p.add_argument("--output", default="signal.csv")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compress", help="compress a signal file")
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", default="gaussian", choices=SCHEMES)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-variance", type=float, default=0.0)
    p.add_argument("--output", default="measurements.csv")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("recover", help="end-to-end synthetic recovery run")
    p.add_argument("--solver", required=True, choices=SOLVERS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheme", default="gaussian", choices=SCHEMES)
    p.add_argument("--snr-db", type=float, default=None,
                   help="measurement SNR; omit for noiseless")
    p.add_argument("--z-factor", type=float, default=defaults.bp_z_factor)
    p.add_argument("--measure-time", action="store_true")
    p.add_argument("--output", default="recovered.csv")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("detect", help="run one detector on a sample file")
    p.add_argument("--technique", required=True, choices=TECHNIQUES)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lags", type=int, default=64)
    p.add_argument("--pilot-seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("estimate-snr", help="blind SNR estimate from samples")
    p.add_argument("--input", required=True)
    p.add_argument("--smoothing-l", type=int, default=10)
    p.add_argument("--grid-k", type=int, default=50)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_estimate_snr)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default="out")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("scan-sim", help="simulated wideband occupancy survey")
    p.add_argument("--samples", type=int, default=3072)
    p.add_argument("--slots", type=int, default=defaults.slots)
    p.add_argument("--m", type=int, default=0, help="default samples/4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--busy-prob", type=float, default=defaults.busy_prob)
    p.add_argument("--noise-variance", type=float, default=defaults.noise_variance)
    p.add_argument("--snr-grid", default="-15,-10,-5,0,5,10")
    p.add_argument("--energy-lambda", type=float, default=defaults.energy_lambda_scan)
    p.add_argument("--autocorr-margin", type=float, default=defaults.autocorr_margin)
    p.add_argument("--euclid-lambda", type=float, default=defaults.euclid_lambda)
    p.add_argument("--output-dir", default="out")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_scan_sim)

    p = sub.add_parser("report", help="print a serialized report")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", type=int, default=10, help="0 prints all rows")
    p.set_defaults(func=_cmd_report)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(_merge_negative_values(argv))
        if ns.command in ("generate", "compress", "recover"):
            for name in ("n", "k", "m"):
                value = getattr(ns, name, None)
                if isinstance(value, int) and value < 1:
                    parser.error(f"--{name} must be >= 1")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
