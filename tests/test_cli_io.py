"""Serialization round trips and command-line end-to-end flows."""

import builtins
import csv
import json
import math
import os
import stat

import numpy as np
import pytest

from cs_toolkit import cli
from cs_toolkit import io as cio
from cs_toolkit.cli import (
    _merge_negative_values,
    _read_samples,
    run_cli,
)
from cs_toolkit.harness import ExperimentConfig, RecoveryReport, run_detection_mc
from cs_toolkit.io import (
    CONFIG_SCHEMA_VERSION,
    RECOVERY_COLUMNS,
    RunManifest,
    TOOL_VERSION,
    config_hash,
    load_config,
    matrix_descriptor,
    matrix_from_descriptor,
    read_manifest,
    read_report,
    save_config,
    serialize_report,
    write_manifest,
)
from cs_toolkit.matrices import build_matrix, compress
from cs_toolkit.recovery import (
    BayesOpts,
    bayesian_recover,
    biht_recover,
    omp,
    one_bit_quantize,
)
from cs_toolkit.signals import gen_sparse_signal


def g9(v: float) -> float:
    return float("%.9g" % v)


def tiny_curve():
    cfg = ExperimentConfig(
        experiment_kind="detection_mc",
        trials_Nt=16,
        samples_N=128,
        snr_grid_db=(-5.0,),
        threshold_factors=(1.0, 2.0),
        technique_list=("energy",),
        base_seed=9,
    )
    return run_detection_mc(cfg)


def test_csv_round_trip_preserves_values(tmp_path):
    curve = tiny_curve()
    path = serialize_report(curve, tmp_path / "det.csv")
    back = read_report(path)
    assert len(back) == len(curve.records)
    for orig, loaded in zip(curve.records, back):
        assert loaded["technique"] == orig["technique"]
        assert isinstance(loaded["n"], int) and loaded["n"] == orig["n"]
        assert isinstance(loaded["trials"], int)
        # floats survive at 9 significant digits
        assert loaded["pd"] == g9(orig["pd"])
        assert loaded["snr_db"] == g9(orig["snr_db"])


def test_json_round_trip_and_kind_tag(tmp_path):
    curve = tiny_curve()
    path = serialize_report(curve, tmp_path / "det.json", fmt="json")
    payload = json.loads(path.read_text())
    assert payload["kind"] == "detection"
    back = read_report(path)
    for orig, loaded in zip(curve.records, back):
        assert loaded["pfa"] == g9(orig["pfa"])


def failed_cell_report():
    """A 2-cell omp report whose second cell had no completed trial."""
    ok = {"solver": "omp", "scheme": "gaussian", "n": 64, "k": 4, "m": 32,
          "snr_db": 20.0, "trials": 6, "mean_re": 0.125, "mean_mse": 0.0025,
          "mean_cc": 0.99, "mean_rsnr": 18.5, "mean_hd": 0.5, "mean_tr_ms": 1.5,
          "mean_tp_ms": 0.0}
    failed = {**ok, "m": 16, "trials": 0,
              **{c: math.nan for c in RECOVERY_COLUMNS if c.startswith("mean_")}}
    return RecoveryReport(records=(ok, failed))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_report_is_strict_and_round_trips_like_csv(tmp_path):
    report = failed_cell_report()
    csv_path = serialize_report(report, tmp_path / "rec.csv")
    json_path = serialize_report(report, tmp_path / "rec.json", fmt="json")
    # a failed cell's means are null, which a strict JSON reader accepts
    payload = json.loads(json_path.read_text(), parse_constant=_reject_constant)
    assert payload["records"][1]["mean_re"] is None
    assert payload["records"][1]["trials"] == 0
    from_csv, from_json = read_report(csv_path), read_report(json_path)
    for a, b in zip(from_csv, from_json, strict=True):
        assert list(a) == list(b) == list(RECOVERY_COLUMNS)
        for key in a:
            if isinstance(a[key], float) and math.isnan(a[key]):
                assert math.isnan(b[key]), key
            else:
                assert a[key] == b[key] and type(a[key]) is type(b[key]), key
    assert math.isnan(from_json[1]["mean_cc"])
    # CSV still writes nan for a failed cell's means
    assert csv_path.read_text().splitlines()[2].endswith(",0,nan,nan,nan,nan,nan,nan,nan")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_report_means_weighted_by_trials(tmp_path, capsys, fmt):
    path = serialize_report(failed_cell_report(), tmp_path / f"rec.{fmt}", fmt=fmt)
    assert run_cli(["report", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the failed cell adds no trials, so the omp means are the finite cell's
    assert lines[lines.index("-- group means --") + 1] == (
        "omp: snr_db=20, mean_re=0.125, mean_mse=0.0025, mean_cc=0.99, "
        "mean_rsnr=18.5, mean_hd=0.5, mean_tr_ms=1.5, mean_tp_ms=0")


def test_cli_report_weights_cells_by_trials(tmp_path, capsys):
    small = {**failed_cell_report().records[0], "trials": 1, "mean_re": 1.0}
    big = {**small, "trials": 3, "mean_re": 0.2}
    path = serialize_report(RecoveryReport(records=(small, big)), tmp_path / "r.csv")
    assert run_cli(["report", "--input", str(path)]) == 0
    assert "omp: snr_db=20, mean_re=0.4," in capsys.readouterr().out


def test_csv_reserialization_byte_identical(tmp_path):
    curve = tiny_curve()
    a = serialize_report(curve, tmp_path / "a.csv")
    b = serialize_report(tiny_curve(), tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_serialize_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        serialize_report(tiny_curve(), tmp_path / "x.yaml", fmt="yaml")
    with pytest.raises(TypeError):
        serialize_report(object(), tmp_path / "x.csv")


def test_config_hash_key_order_invariant():
    a = {"alpha": 1, "beta": [2, 3], "gamma": {"x": 1.5}}
    b = {"gamma": {"x": 1.5}, "beta": [2, 3], "alpha": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "alpha": 2})


def test_save_load_config_schema(tmp_path):
    path = save_config({"experiment_kind": "detection_mc"}, tmp_path / "c.json")
    loaded = load_config(path)
    assert loaded["schema"] == CONFIG_SCHEMA_VERSION
    assert loaded["experiment_kind"] == "detection_mc"
    (tmp_path / "bad.json").write_text('{"schema": 99}\n')
    with pytest.raises(ValueError):
        load_config(tmp_path / "bad.json")
    (tmp_path / "list.json").write_text("[1, 2]\n")
    with pytest.raises(ValueError):
        load_config(tmp_path / "list.json")


DESCRIPTOR_CASES = (
    ("gaussian", 20, 40, 3, None),
    ("bernoulli", 16, 32, 4, None),
    ("circulant", 20, 64, 5, {"p": 0.2}),
    ("circulant", 20, 64, 6, {"generator": list(range(1, 65))}),
    ("toeplitz", 24, 48, 7, {"random_rows": True}),
    ("toeplitz", 24, 48, 8, None),
)


@pytest.mark.parametrize("scheme,m,n,seed,options", DESCRIPTOR_CASES)
def test_matrix_descriptor_round_trip(scheme, m, n, seed, options):
    A = build_matrix(scheme, m, n, seed=seed, options=options)
    rebuilt = matrix_from_descriptor(matrix_descriptor(A))
    assert np.array_equal(A.to_dense(), rebuilt.to_dense())


def test_dense_descriptor_stays_compact():
    A = build_matrix("gaussian", 20, 40, seed=3)
    desc = matrix_descriptor(A)
    assert desc["options"] == {}
    assert json.dumps(desc)  # JSON-safe without numpy types


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        config_hash="ab" * 32,
        tool_version=TOOL_VERSION,
        started_at="2026-01-01T00:00:00+00:00",
        finished_at="2026-01-01T00:00:05+00:00",
        base_seed=17,
        output_paths=("out/results.csv",),
    )
    path = write_manifest(manifest, tmp_path, stem="results")
    assert path.name == "results_manifest.json"
    assert read_manifest(path) == manifest


def _recovery_report(cells, char):
    ok = failed_cell_report().records[0]
    return RecoveryReport(records=tuple({**ok, "scheme": char * 4, "k": i}
                                        for i in range(cells)))


def _manifest(cells, char):
    return RunManifest(config_hash=char * 64, tool_version=TOOL_VERSION,
                       started_at="2026-01-01T00:00:00+00:00",
                       finished_at="2026-01-01T00:00:05+00:00", base_seed=1,
                       output_paths=tuple(f"{char}{i}.csv" for i in range(cells)))


# each writer puts a payload of `cells` entries into a fixed file name in a
# directory; payloads with the same `cells` have the same length
WRITERS = {
    "csv": lambda d, cells, char: serialize_report(_recovery_report(cells, char),
                                                   d / "out.csv"),
    "json": lambda d, cells, char: serialize_report(_recovery_report(cells, char),
                                                    d / "out.json", fmt="json"),
    "manifest": lambda d, cells, char: write_manifest(_manifest(cells, char), d,
                                                      stem="out"),
    "config": lambda d, cells, char: save_config({"pad": [char] * cells},
                                                 d / "cfg.json"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("cells", [8, 4, 2])  # longer, equal, shorter than 4
def test_rewrite_matches_a_fresh_write_in_place(tmp_path, writer, cells):
    write = WRITERS[writer]
    for name in ("fresh", "old", "link"):
        (tmp_path / name).mkdir()
    fresh = write(tmp_path / "fresh", cells, "b")
    (tmp_path / "reference").write_text("")
    assert (stat.S_IMODE(fresh.stat().st_mode)
            == stat.S_IMODE((tmp_path / "reference").stat().st_mode))
    old = write(tmp_path / "old", 4, "a")
    old_bytes, inode = old.read_bytes(), old.stat().st_ino
    assert np.sign(len(fresh.read_bytes()) - len(old_bytes)) == np.sign(cells - 4)
    assert write(tmp_path / "old", cells, "b") == old
    assert old.read_bytes() == fresh.read_bytes()
    assert old.stat().st_ino == inode
    # a symlinked path is written through, and stays a link
    link = tmp_path / "link" / old.name
    link.symlink_to(old)
    write(tmp_path / "link", 4, "a")
    assert link.is_symlink()
    assert old.read_bytes() == old_bytes
    assert old.stat().st_ino == inode


def test_writers_never_truncate_a_path(tmp_path, monkeypatch, capsys):
    # an open that truncates an existing file to zero waits for its old
    # pages to reach the disk on ext4; every writer rewrites in place
    truncating = []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        if flags & os.O_TRUNC:
            truncating.append(path)
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and "w" in mode:
            truncating.append(file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    for module in (cio, cli):
        monkeypatch.setattr(module, "open", spy_open, raising=False)
    for write in WRITERS.values():
        write(tmp_path, 2, "a")
    sig, meas = tmp_path / "sig.csv", tmp_path / "meas.csv"
    noise = tmp_path / "noise.csv"
    noise.write_text("\n".join("%.9g" % v for v in
                               np.random.default_rng(0).standard_normal(512)))
    for argv in (["generate", "--n", "64", "--k", "5", "--output", str(sig)],
                 ["compress", "--input", str(sig), "--m", "32",
                  "--scheme", "toeplitz", "--output", str(meas)],
                 ["recover", "--solver", "omp", "--n", "32", "--k", "2",
                  "--m", "16", "--output", str(tmp_path / "rec.csv")],
                 ["detect", "--technique", "energy", "--threshold", "1",
                  "--input", str(noise), "--output", str(tmp_path / "dec.csv")],
                 ["estimate-snr", "--input", str(noise),
                  "--output", str(tmp_path / "est.json")]):
        assert run_cli(argv) == 0, argv
    capsys.readouterr()
    assert truncating == []


def test_formatting_error_leaves_the_old_file(tmp_path):
    path = serialize_report(failed_cell_report(), tmp_path / "rec.json", fmt="json")
    before = path.read_bytes()
    ok = failed_cell_report().records[0]
    with pytest.raises(TypeError):
        serialize_report(RecoveryReport(records=(ok, {**ok, "solver": object()})),
                         path, fmt="json")
    assert path.read_bytes() == before


def test_write_in_place_to_a_device():
    # O_TRUNC leaves a device alone, and so does the in-place writer
    cio._write_in_place(os.devnull, "written to a device\n")


def test_merge_negative_values():
    assert _merge_negative_values(["--snr-db", "-5"]) == ["--snr-db=-5"]
    assert _merge_negative_values(["--snr-db", "-5.5e-2"]) == ["--snr-db=-5.5e-2"]
    assert _merge_negative_values(["--threshold", "-inf"]) == ["--threshold=-inf"]
    assert _merge_negative_values(["--snr-grid", "-15,-10,0"]) == [
        "--snr-grid=-15,-10,0"]
    # non-numeric and already-merged tokens pass through untouched
    assert _merge_negative_values(["--input", "-file"]) == ["--input", "-file"]
    assert _merge_negative_values(["--snr-db=-5", "x"]) == ["--snr-db=-5", "x"]
    assert _merge_negative_values(["-5"]) == ["-5"]


def test_read_samples_formats(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("index,value\n0,1.5\n1,-2\n2,3e-1\n")
    assert np.allclose(_read_samples(str(path)), [1.5, -2.0, 0.3])
    bare = tmp_path / "bare.csv"
    bare.write_text("4\n5\n")
    assert np.allclose(_read_samples(str(bare)), [4.0, 5.0])
    empty = tmp_path / "empty.csv"
    empty.write_text("header\n")
    with pytest.raises(ValueError):
        _read_samples(str(empty))


def test_cli_version_and_bad_usage(capsys):
    assert run_cli(["--version"]) == 0
    assert TOOL_VERSION in capsys.readouterr().out
    assert run_cli(["generate", "--n", "8"]) == 2  # missing --k
    assert run_cli(["generate", "--n", "0", "--k", "1",
                    "--output", "x.csv"]) == 2
    assert run_cli(["nonsense"]) == 2


def test_cli_generate_and_compress(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    meas = tmp_path / "meas.csv"
    assert run_cli(["generate", "--n", "64", "--k", "5", "--seed", "1",
                    "--output", str(sig)]) == 0
    x = _read_samples(str(sig))
    assert x.size == 64
    assert np.count_nonzero(x) == 5
    assert run_cli(["compress", "--input", str(sig), "--m", "32",
                    "--scheme", "circulant", "--seed", "2",
                    "--output", str(meas)]) == 0
    capsys.readouterr()
    # sidecar descriptor rebuilds the exact operator used
    desc = json.loads((tmp_path / "meas_matrix.json").read_text())
    A = matrix_from_descriptor(desc)
    y = _read_samples(str(meas))
    expected = np.array([g9(v) for v in A.matvec(x)])
    assert np.array_equal(y, expected)
    assert (tmp_path / "meas_manifest.json").exists()


def test_cli_compress_rejects_complex_signal(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("\n".join(repr(complex(v, 0.5)) for v in range(8)) + "\n")
    meas = tmp_path / "meas.csv"
    assert run_cli(["compress", "--input", str(sig), "--m", "4",
                    "--output", str(meas)]) == 1
    assert capsys.readouterr().err.startswith("error: the signal must be real")
    assert not meas.exists()


def test_cli_recover_noiseless_exact(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    assert run_cli(["recover", "--solver", "omp", "--n", "128", "--k", "6",
                    "--m", "48", "--seed", "4", "--output", str(out)]) == 0
    assert "Re=" in capsys.readouterr().out
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["index", "x_hat"]
    split = rows.index(list(RECOVERY_COLUMNS))
    assert split == 129  # header + 128 coefficient rows
    summary = dict(zip(RECOVERY_COLUMNS, rows[split + 1]))
    assert summary["solver"] == "omp"
    assert float(summary["mean_re"]) < 1e-6
    assert summary["snr_db"] == "inf"


def cli_instance(scheme, seed, snr_db, n=128, k=6, m=48):
    """The matrix, signal and measurements `cs-toolkit recover` draws for a seed."""
    A = build_matrix(scheme, m, n, seed=seed)
    x = gen_sparse_signal(n, k, seed=seed + 1)
    nv = float(np.mean(A.matvec(x.samples) ** 2)) / 10.0 ** (snr_db / 10.0)
    return A, compress(A, x, noise_variance=nv, seed=seed + 2), nv


def read_recovered(path):
    rows = list(csv.reader(path.open()))
    split = rows.index(list(RECOVERY_COLUMNS))
    x_hat = np.array([float(r[1]) for r in rows[1:split]])
    return x_hat, dict(zip(RECOVERY_COLUMNS, rows[split + 1]))


def test_cli_recover_bayesian_gets_noise_variance(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    assert run_cli(["recover", "--solver", "bayesian", "--n", "128", "--k", "6",
                    "--m", "48", "--seed", "4", "--snr-db", "10",
                    "--output", str(out)]) == 0
    A, y, nv = cli_instance("gaussian", 4, 10.0)
    fit = bayesian_recover(y, A, BayesOpts(noise_variance=nv))
    x_hat, _summary = read_recovered(out)
    assert np.array_equal(x_hat, [g9(v) for v in fit.x_hat])


def test_cli_recover_biht_reports_sign_mismatches(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    assert run_cli(["recover", "--solver", "biht", "--scheme", "circulant",
                    "--n", "128", "--k", "6", "--m", "48", "--seed", "9",
                    "--snr-db", "10", "--output", str(out)]) == 0
    A, y, _nv = cli_instance("circulant", 9, 10.0)
    signs = one_bit_quantize(y).signs
    fit = biht_recover(one_bit_quantize(y), A, 6)
    mismatches = np.count_nonzero(signs != one_bit_quantize(A.matvec(fit.x_hat)).signs)
    assert mismatches > 0
    _x_hat, summary = read_recovered(out)
    assert float(summary["mean_hd"]) == mismatches


def test_cli_recover_omp_reports_sign_mismatches(tmp_path, capsys):
    # Hd counts signs for every solver, not differing real values (always m)
    out = tmp_path / "rec.csv"
    assert run_cli(["recover", "--solver", "omp", "--n", "128", "--k", "6",
                    "--m", "48", "--seed", "9", "--snr-db", "0",
                    "--output", str(out)]) == 0
    A, y, _nv = cli_instance("gaussian", 9, 0.0)
    fit = omp(y, A, 6)
    mismatches = np.count_nonzero(one_bit_quantize(y).signs
                                  != one_bit_quantize(A.matvec(fit.x_hat)).signs)
    _x_hat, summary = read_recovered(out)
    assert float(summary["mean_hd"]) == mismatches
    assert 0 < mismatches < 48


MANIFEST_CASES = (
    ("gen_sparse_signal", "sig",
     ["generate", "--n", "32", "--k", "3", "--output", "{out}/sig.csv"]),
    ("build_matrix", "y",
     ["compress", "--input", "{inp}", "--m", "16", "--output", "{out}/y.csv"]),
    ("recovery_trial", "r",
     ["recover", "--solver", "omp", "--n", "32", "--k", "3", "--m", "16",
      "--output", "{out}/r.csv"]),
    ("detect", "d",
     ["detect", "--technique", "energy", "--threshold", "1", "--input", "{inp}",
      "--output", "{out}/d.csv"]),
    ("estimate_snr", "e",
     ["estimate-snr", "--input", "{inp}", "--output", "{out}/e.json"]),
    ("run_detection_mc", "results",
     ["experiment", "--config", "{cfg}", "--output-dir", "{out}"]),
    ("run_scan_sim", "scan",
     ["scan-sim", "--samples", "256", "--slots", "1", "--m", "128",
      "--output-dir", "{out}"]),
)


@pytest.mark.parametrize("work,stem,argv", MANIFEST_CASES,
                         ids=[case[2][0] for case in MANIFEST_CASES])
def test_cli_manifest_started_before_work(tmp_path, monkeypatch, capsys,
                                          work, stem, argv):
    start, finish = "2026-01-01T00:00:00+00:00", "2026-01-01T00:00:05+00:00"
    clock = [start]
    monkeypatch.setattr(cli, "utc_now", lambda: clock[0])
    inner = getattr(cli, work)

    def advancing(*args, **kwargs):
        clock[0] = finish  # the command's work takes time
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, work, advancing)
    inp = tmp_path / "in.csv"
    inp.write_text("\n".join("%.9g" % v for v in
                             np.random.default_rng(2).standard_normal(256)) + "\n")
    cfg = save_config({"experiment_kind": "detection_mc", "trials_Nt": 4,
                       "samples_N": 64, "technique_list": ["energy"]},
                      tmp_path / "cfg.json")
    args = [a.format(inp=inp, cfg=cfg, out=tmp_path) for a in argv]
    assert run_cli(args) == 0
    manifest = read_manifest(tmp_path / f"{stem}_manifest.json")
    assert (manifest.started_at, manifest.finished_at) == (start, finish)


def test_cli_detect_negative_threshold(tmp_path, capsys):
    sig = tmp_path / "noise.csv"
    rng = np.random.default_rng(0)
    sig.write_text("\n".join("%.9g" % v for v in rng.standard_normal(256)) + "\n")
    out = tmp_path / "dec.csv"
    assert run_cli(["detect", "--technique", "energy", "--threshold", "-1e9",
                    "--input", str(sig), "--output", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "technique,statistic,threshold,decision"
    assert printed[1].endswith("occupied_H1")  # any energy beats -1e9
    assert out.read_text().splitlines() == printed[:2]


def test_cli_detect_rejects_nan_threshold(tmp_path, capsys):
    sig = tmp_path / "noise.csv"
    rng = np.random.default_rng(3)
    sig.write_text("\n".join("%.9g" % v for v in rng.standard_normal(256)) + "\n")
    out = tmp_path / "dec.csv"
    assert run_cli(["detect", "--technique", "euclid", "--threshold", "nan",
                    "--input", str(sig), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: threshold must not be NaN")
    assert not out.exists()


def test_cli_detect_matched_filter_idle(tmp_path, capsys):
    sig = tmp_path / "noise.csv"
    rng = np.random.default_rng(3)
    sig.write_text("\n".join("%.9g" % v for v in rng.standard_normal(512)) + "\n")
    assert run_cli(["detect", "--technique", "matched_filter",
                    "--threshold", "1e6", "--input", str(sig)]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("idle_H0")


def test_cli_estimate_snr(tmp_path, capsys):
    sig = tmp_path / "tone.csv"
    t = np.arange(2000)
    rng = np.random.default_rng(5)
    samples = 3.0 * np.cos(0.2 * np.pi * t + 0.4) + rng.standard_normal(2000)
    sig.write_text("\n".join("%.9g" % v for v in samples) + "\n")
    out = tmp_path / "est.json"
    assert run_cli(["estimate-snr", "--input", str(sig),
                    "--output", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(out.read_text())
    assert printed == stored
    assert stored["mdl_order_M"] >= 1
    assert stored["snr_db"] == pytest.approx(10 * np.log10(4.5), abs=2.0)


@pytest.mark.parametrize("samples", [np.zeros(200), np.r_[np.ones(100), np.nan,
                                                         np.ones(99)]])
def test_cli_estimate_snr_rejects_degenerate_input(tmp_path, capsys, samples):
    sig = tmp_path / "bad.csv"
    sig.write_text("\n".join("%.9g" % v for v in samples) + "\n")
    assert run_cli(["estimate-snr", "--input", str(sig)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("snr", ["-inf", "nan"])
def test_cli_recover_rejects_unscalable_snr(tmp_path, capsys, snr):
    out = tmp_path / "rec.csv"
    assert run_cli(["recover", "--solver", "omp", "--n", "32", "--k", "3",
                    "--m", "16", "--snr-db", snr, "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_experiment_rejects_minus_inf_recovery_snr(tmp_path, capsys):
    cfg = save_config({"experiment_kind": "recovery_mc", "trials_Nt": 2,
                       "samples_N": 32, "sparsity_k": 3, "measurements_M": 16,
                       "snr_grid_db": [10.0, float("-inf")]}, tmp_path / "cfg.json")
    assert run_cli(["experiment", "--config", str(cfg),
                    "--output-dir", str(tmp_path / "out")]) == 1
    assert "invalid snr_grid_db entry -inf" in capsys.readouterr().err


def test_cli_experiment_survives_empty_bayesian_model(tmp_path, capsys):
    # at -10 dB the Bayesian solver returns the empty model on some of these
    # trials; the sweep scores it instead of aborting
    cfg = save_config({"experiment_kind": "recovery_mc", "trials_Nt": 3,
                       "samples_N": 128, "sparsity_k": 6, "measurements_M": 48,
                       "snr_grid_db": [-10.0],
                       "matrix_scheme": ["gaussian", "circulant", "toeplitz"],
                       "solver_list": ["bp", "omp", "cosamp", "bayesian", "biht"],
                       "base_seed": 5}, tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert run_cli(["experiment", "--config", str(cfg),
                    "--output-dir", str(out)]) == 0
    records = read_report(out / "results.csv")
    assert len(records) == 15
    assert all(int(rec["trials"]) == 3 for rec in records)


def test_cli_experiment_and_report(tmp_path, capsys):
    config = {
        "experiment_kind": "detection_mc",
        "trials_Nt": 32,
        "samples_N": 128,
        "snr_grid_db": [-5.0, 0.0],
        "threshold_factors": [1.0],
        "technique_list": ["energy"],
        "base_seed": 21,
    }
    cfg_path = save_config(config, tmp_path / "cfg.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--output-dir", str(out_a)]) == 0
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--output-dir", str(out_b)]) == 0
    results_a = out_a / "results.csv"
    assert results_a.read_bytes() == (out_b / "results.csv").read_bytes()
    # a re-run into the same directory rewrites the report in place
    inode = results_a.stat().st_ino
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--output-dir", str(out_a)]) == 0
    assert results_a.read_bytes() == (out_b / "results.csv").read_bytes()
    assert results_a.stat().st_ino == inode
    manifest = read_manifest(out_a / "results_manifest.json")
    assert manifest.config_hash == config_hash(load_config(cfg_path))
    assert manifest.base_seed == 21
    capsys.readouterr()
    assert run_cli(["report", "--input", str(results_a), "--rows", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("technique ")
    assert len([ln for ln in lines if ln.startswith("energy ")]) >= 2
    assert any(ln == "-- group means --" for ln in lines)


# neither generator_p nor compute_budget is a config field: a saved config
# that carries one must drop it
@pytest.mark.parametrize("key", ["generator_p", "compute_budget", "bogus_knob"])
def test_cli_experiment_rejects_unknown_key(tmp_path, capsys, key):
    cfg_path = save_config({"experiment_kind": "detection_mc",
                            key: 3}, tmp_path / "cfg.json")
    assert run_cli(["experiment", "--config", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err


def test_cli_scan_sim(tmp_path, capsys):
    out_dir = tmp_path / "scan"
    assert run_cli(["scan-sim", "--samples", "256", "--slots", "1",
                    "--m", "128", "--seed", "6", "--snr-grid", "-5,0",
                    "--output-dir", str(out_dir)]) == 0
    assert "87 channels x 1 slots" in capsys.readouterr().out
    records = read_report(out_dir / "scan.csv")
    assert len(records) == 87 * 3
    assert {r["technique"] for r in records} == {"energy", "autocorr", "euclid"}
    assert (out_dir / "scan_manifest.json").exists()
    # the default m = 256 // 4 leaves euclid no more samples than lags: the
    # survey fails before it runs and writes nothing
    bad_dir = tmp_path / "bad"
    assert run_cli(["scan-sim", "--samples", "256", "--slots", "1",
                    "--output-dir", str(bad_dir)]) == 1
    assert "length 64 must be above euclid_lags_M 64" in capsys.readouterr().err
    assert not bad_dir.exists()


def test_cli_runtime_errors_exit_one(tmp_path, capsys):
    assert run_cli(["detect", "--technique", "energy", "--threshold", "1",
                    "--input", str(tmp_path / "missing.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    sig = tmp_path / "short.csv"
    sig.write_text("1.0\n2.0\n")
    # euclid needs more samples than lags
    assert run_cli(["detect", "--technique", "euclid", "--threshold", "1",
                    "--input", str(sig)]) == 1
