"""End-to-end ENF extraction: decimate, band-pass, frame, estimate, map.

The estimation band handed to the frame estimator is the filter
passband widened by two transition bandwidths, so numerical peaks in the
deep stopband can never win the argmax.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import capon, spectral
from .bandpass import apply_zero_phase, design_bandpass
from .errors import DegenerateInputError, IncompatibleInputError
from .framing import frame_matrix
from .signal_io import decimate
from .track import EnfTrack
from .windowing import DEFAULT_KAISER_BETA, make_window

# Sanity envelope: a mapped-to-fundamental estimate farther than this
# from nominal is recorded as invalid.
VALID_ENVELOPE_HZ = 1.0

ESTIMATORS = ("capon", "stft")

# The spectral grid holds pad_factor * N bins; denser grids only cost memory.
MAX_PAD_FACTOR = 64


@dataclass(frozen=True)
class PipelineConfig:
    nominal_hz: float = 60.0
    harmonic: int = 3
    frame_len_s: float = 1.0
    shift_s: float = 1.0
    window: str = "parzen"
    kaiser_beta: float = DEFAULT_KAISER_BETA
    estimator: str = "capon"
    taps: int = 1001
    passband_hz: float = 0.1
    capon_order: int = 10
    pad_factor: int = 4
    working_rate_hz: float = 441.0
    interpolate: bool = True

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.harmonic < 1:
            raise ValueError("harmonic must be a positive integer")
        nyquist = self.working_rate_hz / 2.0
        half = self.passband_hz / 2.0
        if not 0.0 < self.center_hz - half < self.center_hz + half < nyquist:
            raise ValueError(
                f"harmonic band {self.center_hz:g} +/- {half:g} Hz is not inside "
                f"the working band (0, {nyquist:g}) Hz"
            )
        if self.taps < 3 or self.taps % 2 == 0:
            raise ValueError("taps must be odd and at least 3")
        if self.window == "kaiser" and not 0.0 <= self.kaiser_beta < math.inf:
            raise ValueError("Kaiser beta must be non-negative and finite")
        if self.capon_order < 1 or self.pad_factor < 1:
            raise ValueError("capon order and pad factor must be at least 1")
        if self.pad_factor > MAX_PAD_FACTOR:
            raise ValueError(f"pad factor must be at most {MAX_PAD_FACTOR}")
        rate = self.working_rate_hz
        if not (math.isfinite(self.frame_len_s * rate + self.shift_s * rate)
                and min(self.frame_samples) >= 1):
            raise ValueError("frame length and shift must round to at least 1 sample")
        if self.estimator == "capon" and self.frame_samples[0] <= self.capon_order:
            raise ValueError(
                f"{self.frame_samples[0]}-sample frames are shorter than capon order + 1"
            )

    @property
    def center_hz(self):
        return self.harmonic * self.nominal_hz

    @property
    def frame_samples(self):
        """(frame length, shift) in samples at the working rate."""
        return (round(self.frame_len_s * self.working_rate_hz),
                round(self.shift_s * self.working_rate_hz))


def power_config(**overrides):
    """Power-mains preset: 3rd harmonic, 1001-tap filter."""
    return replace(PipelineConfig(), **overrides)


def speech_config(**overrides):
    """Speech preset: 2nd harmonic, 4801-tap filter."""
    return replace(PipelineConfig(harmonic=2, taps=4801), **overrides)


def _decimation_factor(sample_rate_hz, working_rate_hz):
    ratio = sample_rate_hz / working_rate_hz
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise IncompatibleInputError(
            f"sample rate {sample_rate_hz:g} Hz is not an integer multiple of "
            f"the working rate {working_rate_hz:g} Hz"
        )
    return factor


def estimation_band(flt):
    """Filter passband widened by two transition bandwidths, clipped to
    the open Nyquist interval."""
    margin = flt.passband_hz / 2.0 + 2.0 * flt.transition_hz
    nyquist = flt.sample_rate_hz / 2.0
    return (
        max(flt.center_hz - margin, 1e-9),
        min(flt.center_hz + margin, nyquist * (1.0 - 1e-9)),
    )


def estimate_frames(frames, sample_rate_hz, band, estimator="capon",
                    order=capon.DEFAULT_ORDER, pad_factor=spectral.DEFAULT_PAD_FACTOR,
                    interpolate=True):
    """Peak frequency in band, in Hz, of every row of frames (K, N).

    The spectrum of the chosen estimator is evaluated only at the in-band
    bins of the Q = pad_factor * N grid.  NaN marks a frame with no usable
    estimate.
    """
    grid_size = pad_factor * frames.shape[-1]
    bins = spectral.band_bins(band, grid_size, sample_rate_hz)
    if estimator == "capon":
        power, valid = capon.capon_band_power(frames, bins, grid_size, order)
    else:
        power, valid = spectral.stft_band_power(frames, bins, grid_size)
    freqs, _ = spectral.band_peak(power, bins, grid_size, sample_rate_hz, interpolate)
    return np.where(valid, freqs, np.nan)


def extract_enf(signal, config):
    """Extract the per-frame ENF track, mapped to the fundamental.

    Frames whose estimate is degenerate or falls outside the sanity
    envelope around nominal are recorded as NaN entries.
    """
    factor = _decimation_factor(signal.sample_rate_hz, config.working_rate_hz)
    working = decimate(signal, factor)
    if len(working) <= config.taps:
        raise DegenerateInputError(
            f"signal of {len(working)} samples at the working rate is not longer "
            f"than the {config.taps}-tap filter"
        )
    flt = design_bandpass(
        working.sample_rate_hz, config.center_hz, config.passband_hz, config.taps
    )
    filtered = apply_zero_phase(flt, working)
    frame_len, shift = config.frame_samples
    if len(filtered) < frame_len:
        raise DegenerateInputError(
            f"filtered signal of {len(filtered)} samples is shorter than one "
            f"{frame_len}-sample frame"
        )
    window = make_window(config.window, frame_len, config.kaiser_beta)
    frames = frame_matrix(filtered.samples, frame_len, shift, window)
    rate, origin_s = filtered.sample_rate_hz, filtered.origin_offset_s
    # The frame matrix holds every sample the estimators need; releasing
    # the filtered signal first keeps peak memory at one filtered copy.
    del filtered
    freqs = estimate_frames(
        frames,
        rate,
        estimation_band(flt),
        config.estimator,
        order=config.capon_order,
        pad_factor=config.pad_factor,
        interpolate=config.interpolate,
    ) / config.harmonic
    freqs[np.abs(freqs - config.nominal_hz) > VALID_ENVELOPE_HZ] = np.nan

    indices = np.arange(len(frames), dtype=np.int64)
    shift_s = shift / rate
    return EnfTrack(
        indices, origin_s + indices * shift_s, freqs,
        frame_len_s=frame_len / rate, shift_s=shift_s,
    )
