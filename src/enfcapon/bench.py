"""Timing harness: the pipeline's Capon chain vs an explicit inverse, both
estimators at each frame length of the window study, the lag scan, and
the band-pass.

Every estimator row takes Parzen-windowed white-noise frames to one peak
frequency per frame at the in-band bins, laid out as the default power
config lays them out at the 441 Hz working rate, through
pipeline.estimate_frames, the chain estimate runs.  The dense baseline
gathers the same loaded autocovariance into (K, M, M) Toeplitz matrices,
inverts them with np.linalg.inv, evaluates a*(omega) R^-1 a(omega) at
every bin as batched matrix products, and takes the same band_peak.  The
lag scan row times best_lag in each mode on `enf match`'s usual scale: a
30-minute query at 1 s frames along a 24-hour reference.  The band-pass
rows filter 30 minutes of noise at the working rate in place, as prepare
does, with each preset's filter.
"""

import contextlib
import os
import platform
import timeit
from functools import partial

import numpy as np

from . import capon, spectral
from .bandpass import apply_zero_phase, design_bandpass
from .matching import best_lag
from .pipeline import ESTIMATORS, estimate_frames, power_config, speech_config
from .signal_io import SampledSignal
from .windowing import make_window

# Frames of a 30-minute recording at the default 1 s frames and shift,
# after the band-pass trims its 1000-sample edge.
BENCH_FRAMES = 1797

# The window study's frame lengths, each timed on a batch of STUDY_FRAMES frames.
STUDY_FRAME_SECONDS = (1.0, 5.0, 10.0, 20.0)
STUDY_FRAMES = 60

# The band-pass rows' signal length, in seconds at the working rate.
BANDPASS_SECONDS = 1800

# The lag scan row's query and reference lengths, in frames.
LAG_SCAN_FRAMES = (1800, 86400)

# The BLAS and OpenMP thread settings the dense baseline's median depends on.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def dense_band_power(frames, bins, grid_size, order=capon.DEFAULT_ORDER):
    """Capon power (m+1) / a*(omega) R^-1 a(omega) of every frame (K, N)
    at the grid bins, through an explicit inverse of each loaded
    Toeplitz autocovariance."""
    rho = capon.estimate_autocovariance(frames, order)
    rho[..., 0] *= 1.0 + capon.DEFAULT_LOADING
    lags = np.arange(order + 1)
    inverse = np.linalg.inv(rho[..., np.abs(lags[:, None] - lags)])
    phase = spectral.phase_table(lags, bins, grid_size)
    # R^-1 is real symmetric, so with a = c - js the form is c'R^-1 c + s'R^-1 s.
    quad = sum(np.sum(part * (inverse @ part), axis=-2)
               for part in (np.cos(phase), np.sin(phase)))
    return (order + 1) / quad


def host():
    """CPU model (the machine type where /proc/cpuinfo names none), CPU
    count, and the thread variables as set (None where unset)."""
    model = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {"cpu_model": model, "cpu_count": os.cpu_count(),
            "threads": {name: os.environ.get(name) for name in THREAD_VARS}}


def _spread_s(path, trials, prefix=""):
    """Minimum, quartiles and median of trials timed calls of path, in
    seconds: medians alone spread up to 2x between runs on a shared host."""
    times = timeit.repeat(path, number=1, repeat=trials)
    return {f"{prefix}{name}_s": float(value) for name, value in
            zip(("min", "q1", "median", "q3"), np.percentile(times, [0, 25, 50, 75]))}


def _noise_frames(rng, count, config):
    """count white-noise frames under the config's window, and their layout."""
    n = config.frame_samples[0]
    layout = {"frames": count, "frame_len": n, "grid_size": config.grid_size,
              "bins": int(config.search_bins.size)}
    return rng.standard_normal((count, n)) * make_window(config.window, n), layout


def run_bench(trials=100, seed=0):
    """Time of estimate_frames vs dense_band_power then band_peak on
    BENCH_FRAMES frames under the default power config; under
    "frame_lengths", of estimate_frames under each estimator at each of
    STUDY_FRAME_SECONDS; under "lag_scan", of best_lag in each mode on
    LAG_SCAN_FRAMES; under "bandpass", of apply_zero_phase with each
    preset's filter.  Each time is reported as its minimum, quartiles and
    median over the trials; "host" records what else the times depend on."""
    config = power_config()
    bins, grid_size = config.search_bins, config.grid_size
    rng = np.random.default_rng(seed)
    frames, layout = _noise_frames(rng, BENCH_FRAMES, config)

    def dense():
        power = dense_band_power(frames, bins, grid_size)
        return spectral.band_peak(power, bins, grid_size, config.working_rate_hz)[0]

    fast = partial(estimate_frames, frames, config)
    # Sanity: both paths agree, NaN masks included, while we are at it.
    np.testing.assert_allclose(fast(), dense(), rtol=0.0, atol=1e-9)
    spread = {**_spread_s(fast, trials, "fast_"), **_spread_s(dense, trials, "dense_")}
    return {
        "order": capon.DEFAULT_ORDER,
        "trials": trials,
        "seed": seed,
        **layout,
        **spread,
        "speedup": spread["dense_median_s"] / spread["fast_median_s"],
        "frame_lengths": [_bench_frame_length(trials, rng, s) for s in STUDY_FRAME_SECONDS],
        "lag_scan": _bench_lag_scan(trials, rng),
        "bandpass": [_bench_bandpass(trials, rng, preset)
                     for preset in (power_config, speech_config)],
        "host": host(),
    }


def _bench_frame_length(trials, rng, frame_len_s):
    frames, row = _noise_frames(rng, STUDY_FRAMES, power_config(frame_len_s=frame_len_s))
    for estimator in ESTIMATORS:
        config = power_config(frame_len_s=frame_len_s, estimator=estimator)
        row.update(_spread_s(partial(estimate_frames, frames, config), trials, f"{estimator}_"))
    return {"frame_len_s": frame_len_s, **row}


def _bench_bandpass(trials, rng, preset):
    config = preset()
    rate = config.working_rate_hz
    coeffs = design_bandpass(rate, config.center_hz, config.passband_hz, config.taps)
    signal = SampledSignal(rng.standard_normal(round(BANDPASS_SECONDS * rate)), rate)
    out = signal.samples[: len(signal) - config.taps + 1]
    return {"taps": config.taps, "samples": len(signal),
            **_spread_s(partial(apply_zero_phase, coeffs, signal, out=out), trials)}


def _bench_lag_scan(trials, rng):
    """A random-walk ENF reference with six NaN gaps, and a query cut from
    it with 1 mHz noise and 1% of its frames missing."""
    k, n = LAG_SCAN_FRAMES
    g = 60.0 + np.cumsum(rng.normal(0.0, 0.002, n))
    for start in rng.integers(0, n - 400, size=6):
        g[start : start + rng.integers(50, 400)] = np.nan
    lag = int(rng.integers(0, n - k + 1))
    f = g[lag : lag + k] + rng.normal(0.0, 1e-3, k)
    f[rng.choice(k, size=k // 100, replace=False)] = np.nan
    return {
        "query_frames": k,
        "reference_frames": n,
        **_spread_s(partial(best_lag, f, g, False), trials, "uncentered_"),
        **_spread_s(partial(best_lag, f, g, True), trials, "centered_"),
    }
