"""Span tracing for the traced run, from outside the program.

`Tracer.install()` replaces the public functions of each layer, at the names
the harness looks them up under, with wrappers that record one span per
call: name, start, end, parent span and round. `uninstall()` puts the
originals back. Spans stay in memory until `write()`. The untraced run never
imports this module.

A span's self time is its duration minus the time its child spans cover.
The harness entry points are spans of the `harness` layer, so the harness's
self time is the per-trial work done between calls into the other layers.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
from time import perf_counter

import cs_toolkit.detectors
import cs_toolkit.harness
import cs_toolkit.io
import cs_toolkit.snr
from cs_toolkit.matrices import SensingMatrix

LAYERS = ("harness", "detectors", "snr", "matrices", "recovery", "signals", "io")
DETECTORS = ("energy_detect", "matched_filter_detect", "autocorr_detect",
             "euclid_detect", "quiet_time_threshold")
SCHEMES = ("gaussian", "circulant", "toeplitz")
# span name -> the solver's name in the harness's solver list
SOLVERS = {"basis_pursuit": "bp", "omp": "omp", "cosamp": "cosamp",
           "bayesian_recover": "bayesian", "biht_recover": "biht"}


def _scheme(args, _result):
    return args[0].scheme


def _solver_outcome(_args, result):
    base = getattr(result, "base", result)
    return (base.iterations, bool(base.converged))


def _report_bytes(_args, result):
    return Path(result).stat().st_size


# (owner, attribute, span name, extractor of the span's detail or None)
TARGETS = (
    [(cs_toolkit.harness, f, f"harness.{f}", None)
     for f in ("run_detection_mc", "run_recovery_mc", "run_scan_sim")]
    + [(cs_toolkit.harness, "estimate_snr", "snr.estimate_snr", None)]
    + [(cs_toolkit.snr, f, f"snr.{f}", None) for f in ("mdl_order", "mp_fit")]
    + [(cs_toolkit.detectors, f, f"detectors.{f}", None) for f in DETECTORS]
    + [(cs_toolkit.harness, f, f"recovery.{s}", _solver_outcome)
       for f, s in SOLVERS.items()]
    + [(cs_toolkit.harness, "one_bit_quantize", "recovery.one_bit_quantize", None)]
    + [(cs_toolkit.harness, f, f"matrices.{f}", None)
       for f in ("build_matrix", "compress")]
    + [(SensingMatrix, f, f"matrices.{f}", _scheme)
       for f in ("matvec", "rmatvec", "to_dense", "column_norms")]
    + [(cs_toolkit.harness, f, f"signals.{f}", None)
       for f in ("gen_sparse_signal", "evaluate_metrics", "gen_pilot_bpsk")]
    + [(cs_toolkit.io, "serialize_report", "io.serialize_report", _report_bytes)]
)


class Tracer:
    def __init__(self) -> None:
        # one entry per span: [name, start, end, self seconds, parent, round, detail]
        self.spans: list[list] = []
        self._open: list[list] = []   # [span index, child seconds] per open span
        self._saved: list[tuple] = []
        self.round = -1

    def _wrap(self, fn, name: str, detail):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1][0] if open_ else -1
            spans.append(None)
            frame = [index, 0.0]
            open_.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                duration = end - start
                if open_:
                    open_[-1][1] += duration
                spans[index] = [name, start, end, duration - frame[1], parent,
                                self.round, None]
            if detail is not None:
                spans[index][6] = detail(args, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Run fn(*args) under a span of its own, e.g. one benchmark round."""
        return self._wrap(fn, name, None)(*args)

    def install(self) -> None:
        for owner, attr, name, detail in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, detail))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, self_s, parent, rnd, detail in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "self": self_s, "parent": parent,
                                     "round": rnd, "detail": detail}))
                fh.write("\n")

    def metrics(self, units: int, overhead_s: float) -> dict:
        """The per-layer metrics of every layer, 0 where a layer did no work."""
        by_name: dict[str, list] = {}
        for span in self.spans:
            by_name.setdefault(span[0], []).append(span)

        def durations(name, scheme=None):
            return [s[2] - s[1] for s in by_name.get(name, ())
                    if scheme is None or s[6] == scheme]

        def per_call(name, scale, scheme=None):
            d = durations(name, scheme)
            return scale * sum(d) / len(d) if d else 0.0

        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        layer_self = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        for name, start, end, self_s, parent, _rnd, _detail in self.spans:
            layer = name.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += self_s
            if parent == -1:
                total += end - start
        put("harness.self_us_per_trial",
            1e6 * layer_self["harness"] / units if units else 0.0, "us")
        for f in DETECTORS:
            put(f"detectors.{f}.us_per_call", per_call(f"detectors.{f}", 1e6), "us")
        put("detectors.calls",
            sum(len(by_name.get(f"detectors.{f}", ())) for f in DETECTORS[:4]), "count")
        put("snr.estimate_snr.ms_per_call", per_call("snr.estimate_snr", 1e3), "ms")
        put("snr.mp_fit.ms_per_call", per_call("snr.mp_fit", 1e3), "ms")
        put("snr.mdl_order.us_per_call", per_call("snr.mdl_order", 1e6), "us")
        put("snr.calls", len(by_name.get("snr.estimate_snr", ())), "count")
        for op in ("matvec", "rmatvec"):
            for scheme in SCHEMES:
                put(f"matrices.{op}.us_per_call.{scheme}",
                    per_call(f"matrices.{op}", 1e6, scheme), "us")
        for op in ("matvec", "rmatvec", "to_dense", "column_norms"):
            put(f"matrices.{op}.calls", len(by_name.get(f"matrices.{op}", ())), "count")
        put("matrices.to_dense.us_per_call", per_call("matrices.to_dense", 1e6), "us")
        put("matrices.build_matrix.us_per_call",
            per_call("matrices.build_matrix", 1e6), "us")
        for solver in SOLVERS.values():
            calls = by_name.get(f"recovery.{solver}", ())
            n = len(calls)
            put(f"recovery.{solver}.ms_per_call", per_call(f"recovery.{solver}", 1e3), "ms")
            put(f"recovery.{solver}.iterations",
                statistics.fmean(s[6][0] for s in calls) if n else 0.0, "count")
            put(f"recovery.{solver}.converged_share",
                sum(s[6][1] for s in calls) / n if n else 0.0, "share")
        put("signals.gen_sparse_signal.us_per_call",
            per_call("signals.gen_sparse_signal", 1e6), "us")
        put("signals.evaluate_metrics.us_per_call",
            per_call("signals.evaluate_metrics", 1e6), "us")
        reports = by_name.get("io.serialize_report", ())
        put("io.serialize_report.ms_per_call", per_call("io.serialize_report", 1e3), "ms")
        put("io.report_bytes",
            statistics.fmean(s[6] for s in reports) if reports else 0.0, "B")
        for layer in LAYERS:
            put(f"{layer}.self_share", layer_self[layer] / total if total else 0.0, "share")
        put("trace.overhead_s", overhead_s, "s")
        return out
