"""Timing harness: the pipeline's in-band Capon kernel vs an explicit
inverse, and its STFT band kernel at each frame length of the window study.

Both Capon paths take the same batch of windowed frames to the Capon
power at the same in-band bins, laid out as the default power config
lays them out at the 441 Hz working rate.  The fast path is
capon_band_power.  The dense baseline gathers the same loaded
autocovariance into (K, M, M) Toeplitz matrices, inverts them with
np.linalg.inv, and evaluates the quadratic form a*(omega) R^-1 a(omega)
at every bin as batched matrix products.

The STFT rows time stft_band_power alone, taking Parzen-windowed noise
frames to |DFT|^2 / N at the default power config's in-band bins.

The lag scan row times best_lag in each mode on `enf match`'s usual
scale: a 30-minute query at 1 s frames along a 24-hour reference.
"""

import contextlib
import os
import platform
import timeit
from functools import partial

import numpy as np

from . import capon, spectral
from .matching import best_lag
from .pipeline import power_config
from .windowing import make_window

# Frames of a 30-minute recording at the default 1 s frames and shift,
# after the band-pass trims its 1000-sample edge.
BENCH_FRAMES = 1797

# The window study's frame lengths, each timed on a batch of STFT_FRAMES frames.
STFT_FRAME_SECONDS = (1.0, 5.0, 10.0, 20.0)
STFT_FRAMES = 60

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


def run_bench(trials=100, seed=0):
    """Time of capon_band_power vs dense_band_power at the default order,
    on one seeded batch of white-noise frames under the default window at
    the bins and on the grid the default power config searches; under
    "stft_band", of stft_band_power at each of STFT_FRAME_SECONDS; under
    "lag_scan", of best_lag in each mode on LAG_SCAN_FRAMES.  Each
    time is reported as its minimum, quartiles and median over the
    trials; "host" records what else the times depend on."""
    config = power_config()
    frame_len, grid_size, bins = config.frame_samples[0], config.grid_size, config.search_bins
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((BENCH_FRAMES, frame_len)) * make_window(
        config.window, frame_len)

    fast = partial(capon.capon_band_power, frames, bins, grid_size)
    dense = partial(dense_band_power, frames, bins, grid_size)
    # Sanity: both paths agree while we are at it.
    np.testing.assert_allclose(fast()[0], dense(), rtol=1e-6)
    spread = {**_spread_s(fast, trials, "fast_"), **_spread_s(dense, trials, "dense_")}
    return {
        "order": capon.DEFAULT_ORDER,
        "trials": trials,
        "seed": seed,
        "frames": BENCH_FRAMES,
        "frame_len": frame_len,
        "grid_size": grid_size,
        "bins": int(bins.size),
        **spread,
        "speedup": spread["dense_median_s"] / spread["fast_median_s"],
        "stft_band": [_bench_stft_band(trials, rng, seconds) for seconds in STFT_FRAME_SECONDS],
        "lag_scan": _bench_lag_scan(trials, rng),
        "host": host(),
    }


def _bench_stft_band(trials, rng, frame_len_s):
    config = power_config(frame_len_s=frame_len_s)
    frame_len, grid_size, bins = config.frame_samples[0], config.grid_size, config.search_bins
    frames = rng.standard_normal((STFT_FRAMES, frame_len)) * make_window("parzen", frame_len)
    return {
        "frame_len_s": frame_len_s,
        "frames": STFT_FRAMES,
        "frame_len": frame_len,
        "grid_size": grid_size,
        "bins": int(bins.size),
        **_spread_s(partial(spectral.stft_band_power, frames, bins, grid_size), trials),
    }


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
