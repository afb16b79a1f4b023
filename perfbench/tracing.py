"""Timing wrappers and per-layer metrics for the traced benchmark run.

``Tracer.install`` replaces, inside the calling process only, each target
function in every loaded ``enfcapon`` module that binds it (``pipeline``
imports ``decimate`` by name, ``capon`` imports ``peak_search``, ...), so
calls made from inside the package are caught too.  Every call becomes a
span (name, start, end, parent span, op id) kept in compact arrays and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; calls in one process nest, so the
children never overlap.

A target that no longer exists is reported as absent with zero values; a
target that is no longer called reports zero calls.
"""

import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer -> public functions wrapped in it.  framing.plan_frames and the
# pipeline helpers stay inside pipeline.extract_enf's self time.
TARGETS = {
    "signal_io": ("read_wav", "decimate"),
    "bandpass": ("design_bandpass", "apply_zero_phase"),
    "framing": ("windowed_frame",),
    "windowing": ("make_window",),
    "capon": ("estimate_autocovariance", "levinson_solve", "gs_factors",
              "denom_coeffs", "capon_psd", "capon_estimate_frame"),
    "spectral": ("periodogram", "peak_search", "refine_quadratic",
                 "estimate_frame_stft"),
    "pipeline": ("extract_enf",),
    "track": ("write_track", "read_track"),
    "matching": ("best_lag", "correlation"),
}

ROOT = "op"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _read_wav(counts, args, kwargs, result):
    counts["signal_io.read_wav.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _decimate(counts, args, kwargs, result):
    counts["signal_io.decimate.in_samples"] += len(_arg(args, kwargs, 0, "signal"))
    counts["signal_io.decimate.out_samples"] += len(result)


def _apply_zero_phase(counts, args, kwargs, result):
    counts["bandpass.apply_zero_phase.in_samples"] += len(_arg(args, kwargs, 1, "signal"))


def _refine_quadratic(counts, args, kwargs, result):
    counts["spectral.refine_quadratic.refined"] += bool(result.refined)


def _extract_enf(counts, args, kwargs, result):
    counts["pipeline.frames"] += len(result)
    counts["pipeline.valid"] += int(np.count_nonzero(result.valid))


def _write_track(counts, args, kwargs, result):
    counts["track.write_track.rows"] += len(_arg(args, kwargs, 0, "track"))


def _read_track(counts, args, kwargs, result):
    counts["track.read_track.rows"] += len(result)


OBSERVERS = {
    "signal_io.read_wav": _read_wav,
    "signal_io.decimate": _decimate,
    "bandpass.apply_zero_phase": _apply_zero_phase,
    "spectral.refine_quadratic": _refine_quadratic,
    "pipeline.extract_enf": _extract_enf,
    "track.write_track": _write_track,
    "track.read_track": _read_track,
}

# Exceptions a target raises on a normal run, counted per op.
ERROR_COUNTS = {
    "capon.capon_estimate_frame.degenerate":
        ("capon.capon_estimate_frame", "DegenerateInputError"),
    "matching.correlation.undefined":
        ("matching.correlation", "UndefinedCorrelationError"),
}

# Counters the observers feed, reported per op, with their units.
COUNTERS = {
    "signal_io.read_wav.bytes": "B",
    "signal_io.decimate.in_samples": "count",
    "signal_io.decimate.out_samples": "count",
    "bandpass.apply_zero_phase.in_samples": "count",
    "track.write_track.rows": "count",
    "track.read_track.rows": "count",
}


def target_names():
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in target_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    for name in ERROR_COUNTS:
        units[name] = "count"
    units["spectral.refine_quadratic.refined_ratio"] = "ratio"
    units["pipeline.valid_ratio"] = "ratio"
    for layer in TARGETS:
        units[f"{layer}.share"] = "ratio"
    units.update({
        "trace.untraced_op_p50_s": "s",
        "trace.traced_op_p50_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
        "trace.spans_per_op": "count",
    })
    return units


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = [ROOT]
        self.name_code = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}
        self.counts = dict.fromkeys(
            [*COUNTERS, "spectral.refine_quadratic.refined", "pipeline.frames",
             "pipeline.valid"],
            0,
        )
        self.stack = [-1]
        self.op_id = -1
        self.ops = 0
        self.absent = []
        self._patches = None

    def _open(self, code):
        idx = len(self.start)
        self.name_code.append(code)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self):
        self.op_id = self.ops
        self.ops += 1
        return self._open(0)

    def end_op(self, idx):
        self._close(idx)
        self.op_id = -1

    def _wrap(self, name, fn):
        code = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(code)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _discover(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "enfcapon" or key.startswith("enfcapon."))]
        for name in target_names():
            layer, fn_name = name.split(".")
            try:
                module = importlib.import_module(f"enfcapon.{layer}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def install(self):
        """Wrap every target in every loaded enfcapon module that binds it."""
        if self._patches is None:
            self._patches = []
            self._discover()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches or ():
            setattr(mod, attr, original)

    def arrays(self):
        return {
            "name_code": np.frombuffer(self.name_code, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path):
        """Write every span (and the name table) as one .npz file."""
        err_idx = np.array(sorted(self.errors), dtype=np.int64)
        np.savez(
            path,
            names=np.array(self.names),
            error_span=err_idx,
            error_name=np.array([self.errors[i] for i in err_idx], dtype=str),
            **self.arrays(),
        )

    def self_times(self):
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][child], weights=duration[child],
                              minlength=duration.size)
        return spans["name_code"], duration, duration - covered

    def layer_metrics(self, untraced_p50_s, traced_p50_s):
        """Per-op layer metrics, as {name: (value, unit)}."""
        ops = max(self.ops, 1)
        codes, duration, self_time = self.self_times()
        n_names = len(self.names)
        calls = np.bincount(codes, minlength=n_names)
        self_sum = np.bincount(codes, weights=self_time, minlength=n_names)
        by_name = {name: i for i, name in enumerate(self.names)}
        op_total = float(duration[codes == 0].sum())

        def call_count(name):
            return int(calls[by_name[name]]) if name in by_name else 0

        units = metric_units()
        values = {}
        for name in target_names():
            i = by_name.get(name)
            values[f"{name}.self_s"] = float(self_sum[i]) / ops if i is not None else 0.0
            values[f"{name}.calls"] = call_count(name) / ops
        for metric in COUNTERS:
            values[metric] = self.counts[metric] / ops
        for metric, (name, error) in ERROR_COUNTS.items():
            values[metric] = sum(
                1 for idx, err in self.errors.items()
                if err == error and self.names[self.name_code[idx]] == name
            ) / ops
        refine_calls = call_count("spectral.refine_quadratic")
        values["spectral.refine_quadratic.refined_ratio"] = (
            self.counts["spectral.refine_quadratic.refined"] / refine_calls
            if refine_calls else 0.0
        )
        frames = self.counts["pipeline.frames"]
        values["pipeline.valid_ratio"] = self.counts["pipeline.valid"] / frames if frames else 0.0
        for layer, fns in TARGETS.items():
            layer_self = sum(values[f"{layer}.{fn}.self_s"] for fn in fns) * ops
            values[f"{layer}.share"] = layer_self / op_total if op_total else 0.0
        values["trace.untraced_op_p50_s"] = untraced_p50_s
        values["trace.traced_op_p50_s"] = traced_p50_s
        values["trace.overhead_s"] = traced_p50_s - untraced_p50_s
        values["trace.unattributed_s"] = float(self_sum[0]) / ops
        values["trace.spans_per_op"] = (len(codes) - self.ops) / ops
        return {name: (values[name], units[name]) for name in units}
