"""Narrow zero-phase band-pass FIR filtering around one ENF harmonic.

The passband (default 0.1 Hz) is far narrower than the transition band a
window-method design can achieve at these tap counts, so the design is
scaled to unit gain at the band center.  Zero phase is realized as
linear-phase filtering plus delay trimming in a single pass, which keeps
the designed magnitude response (forward-backward filtering would square
it).  The convolution runs by overlap-save in fixed real-FFT blocks.
"""

import numpy as np

from .signal_io import SampledSignal

# Approximate transition width of a Hamming-designed FIR, in Hz.
HAMMING_TRANSITION_FACTOR = 3.3

# Overlap-save blocks are the smallest power of two above _BLOCK_PER_TAP
# times the taps: the taps - 1 samples each block repeats stay under a
# sixth of it, while short recordings waste little of their last, partial
# block.  _MIN_BLOCK keeps short filters from making many tiny FFT calls.
_BLOCK_PER_TAP = 6
_MIN_BLOCK = 4096
# Blocks per rfft/irfft call: enough to amortise the call, few enough
# that the spectra in flight stay a small fraction of the signal.
_BLOCKS_PER_CALL = 4


def design_bandpass(sample_rate_hz, center_hz, passband_hz, taps):
    """Hamming window-method linear-phase band-pass, unit gain at center.

    The ideal band-pass impulse response, tapered by a symmetric Hamming
    window and divided by its gain at the passband center: the design
    scipy.signal.firwin(taps, [lo, hi], pass_zero=False) makes, without
    its per-call argument handling.  taps must be odd and the band must lie
    inside (0, Nyquist), as PipelineConfig checks.
    """
    nyquist = sample_rate_hz / 2.0
    lo = (center_hz - passband_hz / 2.0) / nyquist
    hi = (center_hz + passband_hz / 2.0) / nyquist
    n = np.arange(taps) - (taps - 1) / 2.0
    coeffs = (hi * np.sinc(hi * n) - lo * np.sinc(lo * n)) * np.hamming(taps)
    return coeffs / np.sum(coeffs * np.cos(np.pi * n * (0.5 * (lo + hi))))


def apply_zero_phase(coeffs, signal):
    """Filter with group-delay compensation.

    Output sample t aligns with input sample t; (C-1)/2 samples are
    trimmed from each end rather than zero-padded, so no edge transient
    leaks into the first or last frame.  The signal must be longer than
    the filter, as prepare checks.
    """
    n_taps = coeffs.size
    filtered = _overlap_save(coeffs, signal.samples)
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


def _block_length(n_taps):
    return max(_MIN_BLOCK, 1 << (_BLOCK_PER_TAP * n_taps).bit_length())


def _overlap_save(coeffs, samples):
    """Valid part of the convolution of samples with coeffs.

    Block j holds samples[j*step : j*step + block]; its circular
    convolution with the taps is exact past the first taps - 1 outputs,
    which give outputs j*step .. (j+1)*step - 1.  Full blocks are strided
    views of the samples; only the last, partial one is copied, into a
    zero-padded buffer.
    """
    n_taps = coeffs.size
    block = _block_length(n_taps)
    step = block - (n_taps - 1)
    n_out = samples.size - n_taps + 1
    response = np.fft.rfft(coeffs, block)
    filtered = np.empty(n_out)
    # Zero when the signal (longer than the taps) is shorter than a block.
    n_full = (samples.size - block) // step + 1
    stride = samples.strides[0]
    blocks = np.lib.stride_tricks.as_strided(
        samples, (n_full, block), (step * stride, stride), writeable=False
    )
    for first in range(0, n_full, _BLOCKS_PER_CALL):
        last = min(first + _BLOCKS_PER_CALL, n_full)
        spectra = np.fft.rfft(blocks[first:last], axis=-1)
        spectra *= response
        filtered[first * step : last * step].reshape(last - first, step)[:] = (
            np.fft.irfft(spectra, block, axis=-1)[:, n_taps - 1 :]
        )
    done = n_full * step
    if done < n_out:
        tail = np.zeros(block)
        tail[: samples.size - done] = samples[done:]
        filtered[done:] = np.fft.irfft(np.fft.rfft(tail) * response, block)[
            n_taps - 1 : n_taps - 1 + n_out - done
        ]
    return filtered
