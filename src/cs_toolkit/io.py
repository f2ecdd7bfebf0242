"""Result serialization, config files, and run manifests.

CSV column order is part of the on-disk contract. Floats are printed with 9
significant digits so a re-run with an identical config produces a
byte-identical file.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import stat
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .harness import OccupancyReport, PdPfaCurve, RecoveryReport
from .matrices import SensingMatrix, build_matrix

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "TOOL_VERSION",
    "DETECTION_COLUMNS",
    "RECOVERY_COLUMNS",
    "SCAN_COLUMNS",
    "RunManifest",
    "config_hash",
    "load_config",
    "save_config",
    "serialize_report",
    "read_report",
    "matrix_descriptor",
    "matrix_from_descriptor",
    "write_manifest",
    "read_manifest",
    "environment_stamp",
]

CONFIG_SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

DETECTION_COLUMNS = ("technique", "snr_db", "threshold_factor", "n", "trials",
                     "nd", "nf", "pd", "pfa")
RECOVERY_COLUMNS = ("solver", "scheme", "n", "k", "m", "snr_db", "trials",
                    "mean_re", "mean_mse", "mean_cc", "mean_rsnr", "mean_hd",
                    "mean_tr_ms", "mean_tp_ms")
SCAN_COLUMNS = ("slot", "channel", "technique", "decision", "truth", "est_snr_db")

_COLUMNS = {
    "detection": DETECTION_COLUMNS,
    "recovery": RECOVERY_COLUMNS,
    "scan": SCAN_COLUMNS,
}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    return str(value)


def _report_kind(report) -> str:
    if isinstance(report, PdPfaCurve):
        return "detection"
    if isinstance(report, RecoveryReport):
        return "recovery"
    if isinstance(report, OccupancyReport):
        return "scan"
    raise TypeError(f"unsupported report type {type(report).__name__}")


def _write_in_place(path: str | Path, text: str, newline: str | None = None) -> None:
    """Write `text` to `path` with the bytes, inode and permissions that a
    text-mode open() for writing gives, but without truncating first.

    Truncating a file to zero makes ext4 (auto_da_alloc) flush its last
    write's pages when the file closes, so rewriting an output on such a
    filesystem waits on the disk for tens of milliseconds. Writing over the
    old bytes and then cutting the file at the end of the new ones does not.
    The file is cut only if it is a regular file, as O_TRUNC only affects
    those, so a device such as /dev/null still takes the write.
    """
    # O_BINARY (Windows only) leaves line endings to the text layer, as
    # open() does
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline=newline) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _csv_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _json_text(obj, **kwargs) -> str:
    return json.dumps(obj, indent=2, **kwargs) + "\n"


def serialize_report(report, path: str | Path, fmt: str = "csv") -> Path:
    """Write a report's records to CSV or JSON; returns the path written.

    The whole file is formatted before it is opened, so a formatting error
    leaves an existing file as it was. An existing file is rewritten in
    place and then cut to the new length, not truncated to zero first: on
    ext4 a truncating rewrite waits for the old contents to reach the disk.
    """
    kind = _report_kind(report)
    cols = _COLUMNS[kind]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        rows = [[_fmt(rec[c]) for c in cols] for rec in report.records]
        # newline='' so csv controls line endings on every platform
        _write_in_place(path, _csv_text([cols, *rows]), newline="")
    elif fmt == "json":
        rows = [{c: _json_value(rec[c]) for c in cols} for rec in report.records]
        _write_in_place(path, _json_text({"kind": kind, "records": rows},
                                         allow_nan=False))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def _json_value(value):
    """A JSON-safe value; a non-finite float, such as a failed cell's mean, is null."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float("%.9g" % float(value)) if math.isfinite(value) else None
    return value


_INT_COLUMNS = {"n", "k", "m", "trials", "nd", "nf", "slot", "channel", "truth"}
_STR_COLUMNS = {"technique", "solver", "scheme", "decision"}


def read_report(path: str | Path) -> list[dict]:
    """Load a serialized report back into a list of typed record dicts."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        # null stands for a non-finite float, which CSV writes as nan
        typed = _STR_COLUMNS | _INT_COLUMNS
        return [{key: math.nan if value is None and key not in typed else value
                 for key, value in rec.items()} for rec in payload["records"]]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            rec = {}
            for key, raw in row.items():
                if key in _STR_COLUMNS:
                    rec[key] = raw
                elif key in _INT_COLUMNS:
                    rec[key] = int(raw)
                else:
                    rec[key] = float(raw)
            out.append(rec)
        return out


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON form; insensitive to key order."""
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def save_config(config: dict, path: str | Path) -> Path:
    path = Path(path)
    body = dict(config)
    body.setdefault("schema", CONFIG_SCHEMA_VERSION)
    _write_in_place(path, _json_text(body, sort_keys=True))
    return path


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    schema = config.get("schema")
    if schema != CONFIG_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported config schema {schema!r}; expected {CONFIG_SCHEMA_VERSION}")
    return config


def matrix_descriptor(matrix: SensingMatrix) -> dict:
    """Compact rebuildable description; never the dense entries.

    Dense schemes rebuild from the seed alone. Structured schemes carry their
    generator vector and row layout in options so masked or explicit
    generators round-trip exactly.
    """
    options: dict = {}
    if matrix.scheme in ("circulant", "toeplitz"):
        options["scale"] = matrix.scale
        options["generator"] = [float(v) for v in matrix.generator]
        if not np.array_equal(matrix.rows, np.arange(matrix.m)):
            options["random_rows"] = True
    return {
        "scheme": matrix.scheme,
        "m": matrix.m,
        "n": matrix.n,
        "seed": matrix.seed,
        "options": options,
    }


def matrix_from_descriptor(desc: dict) -> SensingMatrix:
    return build_matrix(desc["scheme"], desc["m"], desc["n"], desc["seed"],
                        options=desc.get("options"))


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """What a run was asked for and what it wrote.

    `environment` is the run's `environment_stamp()`; it is empty in a
    manifest written without one.
    """

    config_hash: str
    tool_version: str
    started_at: str
    finished_at: str
    base_seed: int
    output_paths: tuple
    environment: dict = dataclasses.field(default_factory=dict)


def environment_stamp() -> dict:
    """What a report's bytes can depend on besides its config: the numpy
    version (whose SeedSequence seeds every trial), the BLAS library numpy
    was built with, the BLAS thread variables as set (None when unset) and
    the CPU count."""
    try:
        lib = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{lib['name']} {lib['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(manifest: RunManifest, directory: str | Path,
                   stem: str = "run") -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{stem}_manifest.json"
    body = dataclasses.asdict(manifest)
    body["output_paths"] = list(body["output_paths"])
    _write_in_place(path, _json_text(body, sort_keys=True))
    return path


def read_manifest(path: str | Path) -> RunManifest:
    with open(path) as fh:
        body = json.load(fh)
    return RunManifest(
        config_hash=body["config_hash"],
        tool_version=body["tool_version"],
        started_at=body["started_at"],
        finished_at=body["finished_at"],
        base_seed=int(body["base_seed"]),
        output_paths=tuple(body["output_paths"]),
        environment=body.get("environment", {}),
    )
