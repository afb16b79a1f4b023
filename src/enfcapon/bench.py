"""Timing harness: the pipeline's in-band Capon kernel vs an explicit
inverse, and its decimator vs scipy's upfirdn.

Both Capon paths take the same batch of windowed frames to the Capon
power at the same in-band bins, laid out as the default power config
lays them out at the 441 Hz working rate.  The fast path is
capon_band_power.  The dense baseline gathers the same loaded
autocovariance into (K, M, M) Toeplitz matrices, inverts them with
np.linalg.inv, and evaluates the quadratic form a*(omega) R^-1 a(omega)
at every bin as batched matrix products.

Both decimation paths take the same full-rate noise to the working rate
with the same anti-alias taps: decimate's row-block matrix product, and
upfirdn's polyphase filter with the same delay compensation.
"""

import contextlib
import os
import platform
import timeit
from functools import partial

import numpy as np

from . import capon, spectral
from .pipeline import power_config
from .signal_io import SampledSignal, anti_alias_filter, decimate
from .windowing import make_window

# Frames of a 30-minute recording at the default 1 s frames and shift,
# after the band-pass trims its 1000-sample edge.
BENCH_FRAMES = 1797

# Five minutes at 44.1 kHz, taken down to the 441 Hz working rate.
DECIMATE_SECONDS = 300
DECIMATE_RATE_HZ = 44100.0
DECIMATE_FACTOR = 100

# The BLAS and OpenMP thread settings the decimation median depends on.
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


def upfirdn_decimate(signal, factor):
    """decimate()'s working-rate samples through scipy's upfirdn: output j
    is the full convolution at input index j * factor, so dropping the
    first delay // factor outputs aligns them."""
    from scipy.signal import upfirdn  # only the bench baseline needs scipy
    taps = anti_alias_filter(factor, signal.sample_rate_hz)
    start = (taps.size - 1) // 2 // factor
    n_out = -(-len(signal) // factor)
    return upfirdn(taps, signal.samples, 1, factor)[start : start + n_out]


def host():
    """CPU model (the machine type where /proc/cpuinfo names none), CPU
    count, and the thread variables as set (None where unset)."""
    model = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {"cpu_model": model, "cpu_count": os.cpu_count(),
            "threads": {name: os.environ.get(name) for name in THREAD_VARS}}


def _median_s(path, trials):
    return float(np.median(timeit.repeat(path, number=1, repeat=trials)))


def run_bench(trials=100, seed=0):
    """Median time of capon_band_power vs dense_band_power at the default
    order, on one seeded batch of white-noise frames under the default
    window at the bins and on the grid the default power config searches;
    and, under "decimate", of decimate vs upfirdn_decimate on seeded
    full-rate white noise; "host" records what else the medians depend on."""
    config = power_config()
    frame_len, grid_size, bins = config.frame_samples[0], config.grid_size, config.search_bins
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((BENCH_FRAMES, frame_len)) * make_window(
        config.window, frame_len)

    fast = partial(capon.capon_band_power, frames, bins, grid_size)
    dense = partial(dense_band_power, frames, bins, grid_size)
    # Sanity: both paths agree while we are at it.
    np.testing.assert_allclose(fast()[0], dense(), rtol=1e-6)
    fast_median, dense_median = (_median_s(path, trials) for path in (fast, dense))
    return {
        "order": capon.DEFAULT_ORDER,
        "trials": trials,
        "seed": seed,
        "frames": BENCH_FRAMES,
        "frame_len": frame_len,
        "grid_size": grid_size,
        "bins": int(bins.size),
        "fast_median_s": fast_median,
        "dense_median_s": dense_median,
        "speedup": dense_median / fast_median,
        "decimate": _bench_decimate(trials, rng),
        "host": host(),
    }


def _bench_decimate(trials, rng):
    signal = SampledSignal(
        rng.standard_normal(round(DECIMATE_SECONDS * DECIMATE_RATE_HZ)), DECIMATE_RATE_HZ)
    fast = partial(decimate, signal, DECIMATE_FACTOR)
    baseline = partial(upfirdn_decimate, signal, DECIMATE_FACTOR)
    np.testing.assert_allclose(fast().samples, baseline(), rtol=0.0, atol=1e-12)
    fast_median, baseline_median = (_median_s(path, trials) for path in (fast, baseline))
    return {
        "samples": len(signal),
        "rate_hz": DECIMATE_RATE_HZ,
        "factor": DECIMATE_FACTOR,
        "fast_median_s": fast_median,
        "upfirdn_median_s": baseline_median,
        "speedup": baseline_median / fast_median,
    }
