"""The measured process: one workload's ops in a closed loop.

It imports ``enfcapon`` from ``src/`` of the current directory, runs one
untimed warm-up op (its end marks the end of set-up), then runs ops one
at a time until the time budget is spent.  Every op, the warm-up too, goes
through the workload's correctness gate; an op that raises or fails the
gate counts as failed and is never retried or skipped.  With ``--trace 1``
ops alternate between untraced and traced with the timing wrappers of
``tracing.py`` installed.

Usage: python3 perfbench/measure.py --workload NAME --fixture DIR
       --seconds S --trace 0|1 --spawned-at T --out FILE [--spans FILE]

``--spawned-at`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

# Acceptance thresholds of the package (README: Capon+Parzen >= 0.99,
# STFT+Parzen >= 0.98), centered correlation against ground truth.
MIN_TRACK_CORR = {"capon": 0.99, "stft": 0.98}
# Centered correlation is blind to a constant offset; this catches one.
# Capon's bias on these fixtures is ~6 mHz, STFT's under 1 mHz.
MAX_MEAN_ABS_ERROR_HZ = 0.02
MIN_VALID_SHARE = 0.9
TIME_TOLERANCE_S = 1e-9
CORRELATION_TOLERANCE = 1e-12

# Reference kernels, one per kind of work that bounds a workload:
# "calls", small numpy calls from a Python loop (a NaN-masked correlation
# at REFERENCE_LAGS lags, the shape of the per-lag and per-frame loops,
# ~4 ms), or "fft", one large FFT round trip (the shape of full-rate
# filtering, 8 MB arrays, ~45 ms), timed on a quiet 2-vCPU Xeon.  A
# measurement is the median of at least REFERENCE_REPEATS runs, taken over
# at least REFERENCE_SHARE of the previous op's time: with less, a long op
# and its short kernel measurement saw different machine speeds and the
# ratio was no steadier than the raw time.
REFERENCE_LAGS = 300
REFERENCE_FFT_SIZE = 1 << 20
REFERENCE_REPEATS = 3
REFERENCE_SHARE = 0.5

PIN_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def centered_corr(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def check_extract(time_s, freq_hz, expected_time_s, truth_hz, estimator):
    """Gate for one extract op.  Returns (failure reasons, track_corr)."""
    time_s = np.asarray(time_s, dtype=np.float64)
    freq_hz = np.asarray(freq_hz, dtype=np.float64)
    if time_s.shape != expected_time_s.shape or freq_hz.shape != truth_hz.shape:
        return [f"{freq_hz.size} frames, expected {truth_hz.size}"], float("nan")
    reasons = []
    time_err = float(np.max(np.abs(time_s - expected_time_s)))
    if not time_err <= TIME_TOLERANCE_S:
        reasons.append(f"time_s off the expected layout by {time_err:g} s")
    valid = ~np.isnan(freq_hz)
    if valid.mean() < MIN_VALID_SHARE:
        reasons.append(f"only {valid.mean():.3f} of frames valid")
    if valid.sum() < 2:
        return reasons + ["fewer than 2 valid frames"], float("nan")
    corr = centered_corr(freq_hz[valid], truth_hz[valid])
    if not corr >= MIN_TRACK_CORR[estimator]:
        reasons.append(f"track_corr {corr:.5f} below {MIN_TRACK_CORR[estimator]}")
    error = float(np.mean(np.abs(freq_hz[valid] - truth_hz[valid])))
    if not error <= MAX_MEAN_ABS_ERROR_HZ:
        reasons.append(f"mean absolute error {error:.4f} Hz")
    return reasons, corr


def reference_correlation(query, segment, centered):
    """Pairwise-NaN correlation in plain numpy; returns (corr, pairs)."""
    keep = ~(np.isnan(query) | np.isnan(segment))
    f, g = query[keep], segment[keep]
    if centered:
        f = f - f.mean()
        g = g - g.mean()
    return float(f @ g / (np.linalg.norm(f) * np.linalg.norm(g))), int(keep.sum())


def check_match(results, query, reference, lag):
    """Gate for one match op (uncentered and centered results).

    Returns (failure reasons, centered correlation at the planted lag).
    """
    reasons = []
    segment = reference[lag : lag + query.size]
    corr = float("nan")
    for result in results:
        mode = "centered" if result.centered else "uncentered"
        expected, pairs = reference_correlation(query, segment, result.centered)
        if result.centered:
            corr = expected
        if result.best_lag != lag:
            reasons.append(f"{mode}: lag {result.best_lag}, planted {lag}")
            continue
        if not abs(result.correlation - expected) <= CORRELATION_TOLERANCE:
            reasons.append(f"{mode}: correlation {result.correlation!r} != {expected!r}")
        if result.n_used != pairs:
            reasons.append(f"{mode}: n_used {result.n_used} != {pairs} valid pairs")
    return reasons, corr


def load_package(root):
    """Import enfcapon from root/src, refusing any other installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import enfcapon
    from enfcapon import matching, pipeline, signal_io, track

    location = os.path.realpath(enfcapon.__file__)
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"enfcapon imported from {location}, not from {src}")
    return signal_io, pipeline, track, matching


class ExtractWorkload:
    """read_wav -> extract_enf -> write_track on one recording."""

    def __init__(self, fixture, params, package):
        self.signal_io, self.pipeline, self.track, _ = package
        self.wav = os.path.join(fixture, "recording.wav")
        self.out = os.path.join(fixture, f"track-{os.getpid()}.csv")
        self.estimator = params["estimator"]
        self.config = self.pipeline.power_config(
            estimator=params["estimator"], window=params["window"],
            nominal_hz=params["nominal_hz"], harmonic=params["harmonic"],
            taps=params["taps"], frame_len_s=params["frame_len_s"],
            shift_s=params["shift_s"], working_rate_hz=params["working_rate_hz"],
        )
        expected = np.load(os.path.join(fixture, "expected.npz"))
        self.time_s = expected["time_s"]
        self.truth_hz = expected["truth_hz"]

    def op(self):
        signal = self.signal_io.read_wav(self.wav)
        result = self.pipeline.extract_enf(signal, self.config)
        self.track.write_track(result, self.out)
        return result

    def check(self, result):
        return check_extract(result.time_s, result.freq_hz, self.time_s,
                             self.truth_hz, self.estimator)


class MatchWorkload:
    """read_track x2 -> best_lag uncentered and centered."""

    def __init__(self, fixture, params, package):
        _, _, self.track, self.matching = package
        self.query_csv = os.path.join(fixture, "query.csv")
        self.reference_csv = os.path.join(fixture, "reference.csv")
        expected = np.load(os.path.join(fixture, "expected.npz"))
        self.lag = int(expected["lag"])
        self.query = expected["query_hz"]
        self.reference = expected["reference_hz"]

    def op(self):
        query = self.track.read_track(self.query_csv)
        reference = self.track.read_track(self.reference_csv)
        return tuple(
            self.matching.best_lag(query.freq_hz, reference.freq_hz, centered=c)
            for c in (False, True)
        )

    def check(self, results):
        return check_match(results, self.query, self.reference, self.lag)


class ReferenceKernel:
    """Fixed work owned by the benchmark, timed before every measured op.

    On a shared machine the speed this process gets drifts by tens of
    percent over a minute, and a neighbour slows loop-bound and
    memory-bound work differently.  A kernel of the same kind as the work
    that bounds the workload drifts with the op, so op time over kernel
    time cancels most of that drift.  Nothing in it depends on the
    package, so a change to the package cannot move it.
    """

    def __init__(self, kind):
        self.run = {"calls": self._calls, "fft": self._fft}[kind]
        rng = np.random.default_rng(0)
        self.query = 60.0 + 0.01 * rng.standard_normal(1800)
        self.query[::97] = np.nan
        self.series = 60.0 + 0.01 * rng.standard_normal(1800 + REFERENCE_LAGS)
        self.series[500:530] = np.nan
        self.large = np.sin(0.001 * np.arange(REFERENCE_FFT_SIZE))
        self.times = []

    def _calls(self):
        acc = 0.0
        for lag in range(REFERENCE_LAGS):
            segment = self.series[lag : lag + self.query.size]
            keep = ~(np.isnan(self.query) | np.isnan(segment))
            a, b = self.query[keep], segment[keep]
            acc += float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        return acc

    def _fft(self):
        return float(np.fft.irfft(np.fft.rfft(self.large))[0])

    def measure(self, seconds=0.0):
        """Run the kernel REFERENCE_REPEATS times and for at least
        `seconds`; record the median time of one run."""
        runs = []
        t0 = time.perf_counter()
        while len(runs) < REFERENCE_REPEATS or time.perf_counter() - t0 < seconds:
            t1 = time.perf_counter()
            self.run()
            runs.append(time.perf_counter() - t1)
        self.times.append(float(np.median(runs)))


class Loop:
    """Closed-loop runner that applies the gate to every op."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.quality = []

    def run_one(self, on_start=None, on_end=None):
        """Run and gate one op; return its duration, or None if it failed."""
        self.attempted += 1
        token = on_start() if on_start else None
        t0 = time.perf_counter()
        try:
            result = self.workload.op()
        except Exception as exc:  # a failing op is a measured outcome
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - t0
            if on_end:
                on_end(token)
        reasons, quality = self.workload.check(result)
        self.quality.append(quality)
        if reasons:
            self._fail("; ".join(reasons))
            return None
        return elapsed

    def _fail(self, reason):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def run_for(self, seconds, on_start=None, on_end=None, reference=None):
        """Run ops until `seconds` have passed; return the op durations.

        A reference kernel, if given, is measured before every op and once
        after the last, for REFERENCE_SHARE of the previous op's time.
        Failed ops are recorded as None."""
        times = []
        deadline = time.perf_counter() + seconds
        previous = 0.0
        while True:
            if reference is not None:
                reference.measure(REFERENCE_SHARE * previous)
            elapsed = self.run_one(on_start, on_end)
            times.append(elapsed)
            previous = elapsed or previous
            if time.perf_counter() >= deadline:
                break
        if reference is not None:
            reference.measure(REFERENCE_SHARE * previous)
        return times


def median(values):
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--fixture", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    package = load_package(os.getcwd())
    with open(os.path.join(args.fixture, "params.json"), encoding="utf-8") as fh:
        params = json.load(fh)
    kind = ExtractWorkload if params["kind"] == "extract" else MatchWorkload
    loop = Loop(kind(args.fixture, params, package))

    loop.run_one()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    record = {"setup_s": setup_s}
    if args.trace:
        from tracing import Tracer

        # Traced and untraced ops alternate, so drift in machine speed
        # does not show as tracing overhead.
        tracer = Tracer()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            untraced += loop.run_for(0.0)
            tracer.install()
            try:
                traced += loop.run_for(0.0, tracer.begin_op, tracer.end_op)
            finally:
                tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        metrics = tracer.layer_metrics(median(untraced), median(traced))
        record.update(op_s=untraced, traced_op_s=traced, absent=tracer.absent,
                      layer_metrics=metrics)
    else:
        reference = ReferenceKernel(params["reference"])
        record["op_s"] = loop.run_for(args.seconds, reference=reference)
        record["reference_s"] = reference.times

    record.update(
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        quality=loop.quality,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        package=package[0].__file__,
        pins={name: os.environ.get(name) for name in PIN_VARIABLES},
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
