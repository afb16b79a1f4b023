"""Narrow zero-phase band-pass FIR filtering around one ENF harmonic.

The passband (default 0.1 Hz) is far narrower than the transition band a
window-method design can achieve at these tap counts, so the design is
scaled to unit gain at the band center.  Zero phase is realized as
linear-phase filtering plus delay trimming in a single pass, which keeps
the designed magnitude response (forward-backward filtering would square
it).
"""

import numpy as np
from scipy.signal import firwin, oaconvolve

from .signal_io import SampledSignal

# Approximate transition width of a Hamming-designed FIR, in Hz.
HAMMING_TRANSITION_FACTOR = 3.3


def design_bandpass(sample_rate_hz, center_hz, passband_hz, taps):
    """Hamming window-method linear-phase band-pass, unit gain at center.

    firwin's default scale=True normalises the gain at the passband
    center, so the design needs no rescaling here.
    """
    if taps % 2 == 0 or taps < 3:
        raise ValueError("tap count must be odd and at least 3")
    if passband_hz <= 0:
        raise ValueError("passband width must be positive")
    lo = center_hz - passband_hz / 2.0
    hi = center_hz + passband_hz / 2.0
    nyquist = sample_rate_hz / 2.0
    if lo <= 0 or hi >= nyquist:
        raise ValueError(
            f"band edges ({lo:g}, {hi:g}) Hz outside (0, {nyquist:g}) Hz"
        )
    return firwin(taps, [lo, hi], pass_zero=False, fs=sample_rate_hz, window="hamming")


def apply_zero_phase(coeffs, signal):
    """Filter with group-delay compensation.

    Output sample t aligns with input sample t; (C-1)/2 samples are
    trimmed from each end rather than zero-padded, so no edge transient
    leaks into the first or last frame.
    """
    n_taps = coeffs.size
    if len(signal) <= n_taps:
        raise ValueError(
            f"signal of {len(signal)} samples is not longer than the "
            f"{n_taps}-tap filter"
        )
    filtered = oaconvolve(signal.samples, coeffs, mode="valid")
    # FFT convolution spreads roundoff (~1e-15) into stretches of digital
    # silence, which the estimators would read as signal.  An output whose
    # whole input window lies in a run of zeros is exactly zero.
    runs = np.flatnonzero(
        np.diff(signal.samples == 0.0, prepend=False, append=False)
    ).reshape(-1, 2)
    for start, end in runs[runs[:, 1] - runs[:, 0] >= n_taps]:
        filtered[start : end - n_taps + 1] = 0.0
    return SampledSignal(
        filtered,
        signal.sample_rate_hz,
        signal.origin_offset_s + (n_taps - 1) // 2 / signal.sample_rate_hz,
    )
