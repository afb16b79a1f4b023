"""Narrow zero-phase band-pass FIR filtering around one ENF harmonic.

The passband (default 0.1 Hz) is far narrower than the transition band a
window-method design can achieve at these tap counts, so the design is
scaled to unit gain at the band center.  Zero phase is realized as
linear-phase filtering plus delay trimming in a single pass, which keeps
the designed magnitude response (forward-backward filtering would square
it).  The convolution runs by overlap-save in fixed real-FFT blocks.
"""

import numpy as np

from .signal_io import SampledSignal, design_fir

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
    """design_fir's band-pass, unit gain at center_hz; the band must lie in
    (0, Nyquist), as PipelineConfig checks."""
    nyquist = sample_rate_hz / 2.0
    return design_fir(taps, (center_hz - passband_hz / 2.0) / nyquist,
                      (center_hz + passband_hz / 2.0) / nyquist)


def apply_zero_phase(coeffs, signal, out=None):
    """Filter with group-delay compensation, by overlap-save convolution.

    Output sample t aligns with input sample t; (C-1)/2 samples are
    trimmed from each end rather than zero-padded, so no edge transient
    leaks into the first or last frame.  The signal must be longer than
    the filter, as prepare checks.  The result is a new signal; its
    samples are written into a new array, or into out if given, which
    must hold len(signal) - C + 1 float64 samples: a separate array, or
    signal.samples[:len(signal) - C + 1] to filter in place.

    Each FFT call writes the next call = _BLOCKS_PER_CALL * step outputs
    from a run of call + C - 1 samples, seen as blocks step apart whose
    circular convolutions are exact past their first C - 1 outputs; the
    last call transforms only the blocks it writes, its run zero-padded to
    their end.  Filtering in place is safe:
    output t reads samples t.. only, and a call reads its whole run before
    it writes outputs below the run's end, which later calls no longer read.
    """
    n_taps = coeffs.size
    block = _block_length(n_taps)
    step = block - (n_taps - 1)
    call = _BLOCKS_PER_CALL * step
    samples = signal.samples
    n_out = samples.size - n_taps + 1
    response = np.fft.rfft(coeffs, block)
    if out is None:
        out = np.empty(n_out)
    elif out.shape != (n_out,):
        raise ValueError(f"out must hold {n_out} samples, not {out.shape}")
    for first in range(0, n_out, call):
        run = samples[first : first + call + n_taps - 1]
        # FFT convolution spreads roundoff (~1e-15) into stretches of
        # digital silence, which the estimators would read as signal, so
        # an output whose C input samples are all zero is set to zero.
        # Every output's window lies in its call's run, and any C zeros in
        # a row include a sample at a multiple of C.
        silent = None
        if (run[::n_taps] == 0.0).any():
            nonzero = np.concatenate(([0], np.cumsum(run != 0.0)))
            silent = nonzero[n_taps:] == nonzero[:-n_taps]
        part = out[first : first + call]
        rows = -(-part.size // step)  # the blocks holding part
        if run.size < rows * step + n_taps - 1:
            run = np.concatenate((run, np.zeros(rows * step + n_taps - 1 - run.size)))
        blocks = np.lib.stride_tricks.sliding_window_view(run, block)[::step]
        spectra = np.fft.rfft(blocks, axis=-1)
        spectra *= response
        lines = np.fft.irfft(spectra, block, axis=-1)[:, n_taps - 1 :]
        if part.size == rows * step:  # a 1-D view reshapes without a copy
            part.reshape(rows, step)[:] = lines
        else:
            part[:] = lines.reshape(-1)[: part.size]
        if silent is not None:
            part[silent] = 0.0
    return SampledSignal(
        out,
        signal.sample_rate_hz,
        signal.origin_offset_s + (n_taps - 1) // 2 / signal.sample_rate_hz,
    )


def _block_length(n_taps):
    return max(_MIN_BLOCK, 1 << (_BLOCK_PER_TAP * n_taps).bit_length())
