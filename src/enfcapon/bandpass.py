"""Narrow zero-phase band-pass FIR filtering around one ENF harmonic.

The passband (default 0.1 Hz) is far narrower than the transition band a
window-method design can achieve at these tap counts, so the design is
scaled to unit gain at the band center.  Zero phase is realized as
linear-phase filtering plus delay trimming in a single pass, which keeps
the designed magnitude response (forward-backward filtering would square
it).  The convolution runs by overlap-save in fixed blocks, two real
blocks per complex FFT (Cooley, Lewis & Welch, J. Sound Vib. 12(3), 1970).
"""

import numpy as np

from .signal_io import SampledSignal, design_fir

# Approximate transition width of a Hamming-designed FIR, in Hz.
HAMMING_TRANSITION_FACTOR = 3.3

# Overlap-save blocks are the smallest power of two above _BLOCK_PER_TAP
# times the taps: the taps - 1 samples each block repeats stay under a
# sixth of it, while short recordings waste little of their last, partial
# block.  Past _MAX_BLOCK a block only halves while it still holds twice
# the taps: complex transforms beyond it cost more per output than the
# repeats they save.  _MIN_BLOCK keeps short filters from making many tiny
# FFT calls.
_BLOCK_PER_TAP = 6
_MIN_BLOCK = 4096
_MAX_BLOCK = 16384
# Block pairs per fft/ifft call: enough to amortise the call, few enough
# that the spectra in flight stay a small fraction of the signal.
_PAIRS_PER_CALL = 4


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

    The blocks lie step apart from the first sample, and their circular
    convolutions are exact past their first C - 1 outputs.  The filter is
    real, so blocks 2j and 2j + 1 are convolved as the real and imaginary
    parts of one complex block.  Each FFT call writes the next
    call = 2 * _PAIRS_PER_CALL * step outputs from a run of call + C - 1
    samples; the last call transforms only the pairs it writes, their
    blocks zero past the run's end, so a lone last block pairs with zeros.  A
    block's bits thus depend on its pair alone, and a prefix of the signal
    that ends on a pair edge keeps them.  Its roundoff scales with the
    pair's norm: against direct convolution, a block at 1e-6 beside a
    unit-level one reads ~1e-9 of its own RMS (~1e-15 of the pair's), far
    below 16-bit resolution.  Filtering in place is safe: output t reads
    samples t.. only, and a call reads its whole run before it writes
    outputs below the run's end, which later calls no longer read.
    """
    n_taps = coeffs.size
    block = _block_length(n_taps)
    step = block - (n_taps - 1)
    call = 2 * _PAIRS_PER_CALL * step
    samples = signal.samples
    n_out = samples.size - n_taps + 1
    response = np.fft.fft(coeffs, block)
    if out is None:
        out = np.empty(n_out)
    elif out.shape != (n_out,):
        raise ValueError(f"out must hold {n_out} samples, not {out.shape}")
    packed = np.empty((min(_PAIRS_PER_CALL, -(-n_out // (2 * step))), block), dtype=complex)
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
        pairs = packed[: -(-part.size // (2 * step))]  # the block pairs holding part
        for k in range(2 * len(pairs)):  # block k, zero past the run's end
            inputs = run[k * step : k * step + block]
            dest = pairs[k // 2].imag if k % 2 else pairs[k // 2].real
            dest[: inputs.size] = inputs
            dest[inputs.size :] = 0.0
        np.fft.fft(pairs, axis=-1, out=pairs)
        pairs *= response
        np.fft.ifft(pairs, axis=-1, out=pairs)
        for k, start in enumerate(range(0, part.size, step)):
            lines = pairs[k // 2, n_taps - 1 :]
            part[start : start + step] = (lines.imag if k % 2 else lines.real)[: part.size - start]
        if silent is not None:
            part[silent] = 0.0
    return SampledSignal(
        out,
        signal.sample_rate_hz,
        signal.origin_offset_s + (n_taps - 1) // 2 / signal.sample_rate_hz,
    )


def _block_length(n_taps):
    return max(_MIN_BLOCK, min(1 << (_BLOCK_PER_TAP * n_taps).bit_length(),
                               max(_MAX_BLOCK, 1 << (2 * n_taps).bit_length())))
