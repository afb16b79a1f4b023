"""ENF extraction in two stages: prepare (decimate, band-pass) and
estimate (frame, window, estimate, map to the fundamental).

The estimation band handed to the frame estimator is the filter
passband widened by two transition bandwidths, so numerical peaks in the
deep stopband can never win the argmax.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import capon, spectral
from .bandpass import HAMMING_TRANSITION_FACTOR, apply_zero_phase, design_bandpass
from .errors import DegenerateInputError, IncompatibleInputError
from .signal_io import decimate
from .track import EnfTrack
from .windowing import WINDOW_KINDS, make_window

# Sanity envelope: a mapped-to-fundamental estimate farther than this
# from nominal is recorded as invalid.
VALID_ENVELOPE_HZ = 1.0

ESTIMATORS = ("capon", "stft")

# The spectral grid holds pad_factor * N bins; denser grids only cost memory.
MAX_PAD_FACTOR = 64

# Capon work per frame grows with the order m: m + 1 autocovariance passes,
# an O(m**2) Levinson step and an (m + 1) x B cosine matrix.
MAX_CAPON_ORDER = 64


@dataclass(frozen=True)
class PipelineConfig:
    nominal_hz: float = 60.0
    harmonic: int = 3
    frame_len_s: float = 1.0
    shift_s: float = 1.0
    window: str = "parzen"
    estimator: str = "capon"
    taps: int = 1001
    passband_hz: float = 0.1
    capon_order: int = capon.DEFAULT_ORDER
    pad_factor: int = 4
    working_rate_hz: float = 441.0

    def __post_init__(self):
        """Every rejection is an IncompatibleInputError (a ValueError)."""
        if self.estimator not in ESTIMATORS:
            raise IncompatibleInputError(f"estimator must be one of {ESTIMATORS}")
        if self.window not in WINDOW_KINDS:
            raise IncompatibleInputError(f"window must be one of {WINDOW_KINDS}")
        # Integers beyond float range would overflow the float arithmetic below.
        if not 1 <= self.harmonic <= sys.float_info.max:
            raise IncompatibleInputError("harmonic must be a positive integer in float range")
        nyquist = self.working_rate_hz / 2.0
        half = self.passband_hz / 2.0
        if not 0.0 < self.center_hz - half < self.center_hz + half < nyquist:
            raise IncompatibleInputError(
                f"harmonic band {self.center_hz:g} +/- {half:g} Hz is not inside "
                f"the working band (0, {nyquist:g}) Hz"
            )
        if not 3 <= self.taps <= sys.float_info.max or self.taps % 2 == 0:
            raise IncompatibleInputError("taps must be odd, at least 3 and in float range")
        if self.capon_order < 1 or self.pad_factor < 1:
            raise IncompatibleInputError("capon order and pad factor must be at least 1")
        if self.capon_order > MAX_CAPON_ORDER:
            raise IncompatibleInputError(f"capon order must be at most {MAX_CAPON_ORDER}")
        if self.pad_factor > MAX_PAD_FACTOR:
            raise IncompatibleInputError(f"pad factor must be at most {MAX_PAD_FACTOR}")
        rate = self.working_rate_hz
        # pad_factor keeps the grid size within float range.
        span = self.pad_factor * self.frame_len_s * rate + self.shift_s * rate
        if span == math.inf:
            raise IncompatibleInputError(
                "frame length or shift is too long: its sample count overflows")
        if not (math.isfinite(span) and min(self.frame_samples) >= 1):
            raise IncompatibleInputError("frame length and shift must round to at least 1 sample")
        if self.estimator == "capon" and self.frame_samples[0] <= self.capon_order:
            raise IncompatibleInputError(
                f"{self.frame_samples[0]}-sample frames are shorter than capon order + 1"
            )
        # Rejects a band that holds too few grid points.
        spectral.band_edges(self.estimation_band, self.grid_size, rate)

    @property
    def center_hz(self):
        return self.harmonic * self.nominal_hz

    @property
    def frame_samples(self):
        """(frame length, shift) in samples at the working rate."""
        return (round(self.frame_len_s * self.working_rate_hz),
                round(self.shift_s * self.working_rate_hz))

    @property
    def grid_size(self):
        """Points Q = pad_factor * N of one frame's spectral grid."""
        return self.pad_factor * self.frame_samples[0]

    @property
    def estimation_band(self):
        """Filter passband widened by two transition bandwidths, inside (0, Nyquist)."""
        rate = self.working_rate_hz
        margin = self.passband_hz / 2.0 + 2.0 * (HAMMING_TRANSITION_FACTOR * rate / self.taps)
        return (max(self.center_hz - margin, 1e-9),
                min(self.center_hz + margin, rate / 2.0 * (1.0 - 1e-9)))

    @property
    def search_bins(self):
        """Estimation band bins of the grid, plus one neighbour on each side."""
        return spectral.band_bins(self.estimation_band, self.grid_size, self.working_rate_hz)


def power_config(**overrides):
    """Power-mains preset: 3rd harmonic, 1001-tap filter."""
    return PipelineConfig(**overrides)


def speech_config(**overrides):
    """Speech preset: 2nd harmonic, 4801-tap filter."""
    return PipelineConfig(**{"harmonic": 2, "taps": 4801, **overrides})


def _decimation_factor(sample_rate_hz, working_rate_hz):
    factor = round(sample_rate_hz / working_rate_hz)
    if factor < 1 or sample_rate_hz / factor != working_rate_hz:
        raise IncompatibleInputError(
            f"sample rate {sample_rate_hz:g} Hz is not an integer multiple of "
            f"the working rate {working_rate_hz:g} Hz"
        )
    return factor


def estimate_frames(frames, config):
    """Peak frequency in Hz of every row of frames (K, N) at the working
    rate, from the config's estimator evaluated only at its search bins.
    NaN marks a frame with no usable estimate.
    """
    grid_size, bins = config.grid_size, config.search_bins
    if config.estimator == "capon":
        power, valid = capon.capon_band_power(frames, bins, grid_size, config.capon_order)
    else:
        power, valid = spectral.stft_band_power(frames, bins, grid_size)
    freqs, _ = spectral.band_peak(power, bins, grid_size, config.working_rate_hz)
    return np.where(valid, freqs, np.nan)


def prepare(signal, config):
    """Decimate to the working rate and band-pass around the harmonic.

    Only the rate, harmonic, nominal, passband and tap count of the config
    are read, so one prepared signal serves every window and frame layout.
    """
    factor = _decimation_factor(signal.sample_rate_hz, config.working_rate_hz)
    # Checked before decimate, which designs a 10 * factor + 1-tap filter.
    n_working = -(-len(signal) // factor)
    if n_working <= config.taps:
        raise DegenerateInputError(
            f"signal of {n_working} samples at the working rate is not longer "
            f"than the {config.taps}-tap filter"
        )
    working = decimate(signal, factor)
    coeffs = design_bandpass(working.sample_rate_hz, config.center_hz,
                             config.passband_hz, config.taps)
    return apply_zero_phase(coeffs, working)


def estimate(filtered, config):
    """Per-frame ENF track of a prepared signal, mapped to the fundamental.

    Frames whose estimate is degenerate or falls outside the sanity
    envelope around nominal are recorded as NaN entries.
    """
    rate = config.working_rate_hz
    if filtered.sample_rate_hz != rate:
        raise IncompatibleInputError(f"signal is not at the working rate {rate:g} Hz")
    frame_len, shift = config.frame_samples
    if len(filtered) < frame_len:
        raise DegenerateInputError(
            f"filtered signal of {len(filtered)} samples is shorter than one "
            f"{frame_len:.6g}-sample frame ({frame_len / rate:g} s)"
        )
    window = make_window(config.window, frame_len)
    rows = np.lib.stride_tricks.sliding_window_view(filtered.samples, frame_len)[::shift]
    # Windowed frames are formed len(filtered) // frame_len rows at a time,
    # so a block never holds more samples than the filtered signal and
    # non-overlapping layouts run as one block.
    block = len(filtered) // frame_len
    freqs = np.concatenate([
        estimate_frames(rows[start : start + block] * window, config)
        for start in range(0, len(rows), block)
    ]) / config.harmonic
    freqs[np.abs(freqs - config.nominal_hz) > VALID_ENVELOPE_HZ] = np.nan

    indices = np.arange(len(rows), dtype=np.int64)
    return EnfTrack(indices, filtered.origin_offset_s + indices * (shift / rate), freqs)


def extract_enf(signal, config):
    """Extract the per-frame ENF track, mapped to the fundamental."""
    return estimate(prepare(signal, config), config)
