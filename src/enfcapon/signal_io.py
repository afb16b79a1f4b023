"""Recording ingest and anti-alias decimation.

WAV input is restricted to PCM 16-bit; anything else is rejected loudly
rather than silently re-quantized.
"""

import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, IncompatibleInputError, UnsupportedFormatError

PCM16_FULL_SCALE = 32768.0

# Rows of `factor` input samples per matrix product in decimate.  One
# block's product holds width (11) x 16,384 doubles, about 1.4 MB, while
# each product is large enough that BLAS, not the Python loop, sets the
# pace.
_BLOCK_ROWS = 16384


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real-valued series.

    origin_offset_s tracks seconds trimmed from the head by upstream
    processing (filter delay compensation, --skip-seconds) so frame
    timestamps stay anchored to the original recording.
    """

    samples: np.ndarray
    sample_rate_hz: float
    origin_offset_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size

    def skip_head(self, seconds):
        """Drop the first `seconds` of the signal, tracking the offset."""
        if not math.isfinite(seconds):
            raise IncompatibleInputError(f"skip interval {seconds} s is not finite")
        # Clamped before rounding: a huge skip's sample count overflows to inf.
        n = int(round(min(seconds * self.sample_rate_hz, self.samples.size)))
        if n <= 0:
            return self
        if n >= self.samples.size:
            raise DegenerateInputError("skip interval longer than the signal")
        return SampledSignal(
            self.samples[n:],
            self.sample_rate_hz,
            self.origin_offset_s + n / self.sample_rate_hz,
        )


def read_wav(path):
    """Read a PCM 16-bit WAV file into a normalized mono SampledSignal.

    Stereo channels are averaged.  Amplitudes are scaled by 1/32768 so the
    full negative scale maps to -1.0.  A partial sample frame at the end
    of a truncated file is dropped.  wave opens only PCM, so any other
    format tag fails there ("unknown format: 3").
    """
    try:
        reader = wave.open(str(path), "rb")
    except EOFError as exc:
        raise UnsupportedFormatError(f"{path}: file ends inside the WAV header") from exc
    except RuntimeError as exc:  # wave's bare error for a seek outside a chunk
        raise UnsupportedFormatError(f"{path}: a WAV chunk size is inconsistent") from exc
    except (OSError, wave.Error) as exc:
        raise UnsupportedFormatError(f"cannot read WAV file {path}: {exc}") from exc
    with reader:
        if reader.getsampwidth() != 2:
            raise UnsupportedFormatError(
                f"{path}: only 16-bit PCM is supported, got "
                f"{8 * reader.getsampwidth()}-bit"
            )
        n_channels = reader.getnchannels()
        rate = reader.getframerate()
        raw = reader.readframes(reader.getnframes())
    if rate <= 0:
        raise UnsupportedFormatError(f"{path}: sample rate {rate} Hz in header")
    n_frames = len(raw) // (2 * n_channels)
    if n_frames == 0:
        raise DegenerateInputError(f"{path}: no audio frames")
    data = np.frombuffer(raw, dtype="<i2", count=n_frames * n_channels)
    # One float64 array either way; scaling by the power of two 1/32768 is
    # exact, so it may follow the channel mean in place.
    if n_channels == 1:
        samples = data * (1.0 / PCM16_FULL_SCALE)
    else:
        samples = data.reshape(-1, n_channels).mean(axis=1)
        samples *= 1.0 / PCM16_FULL_SCALE
    return SampledSignal(samples, float(rate))


def write_wav(signal, path):
    """Write a SampledSignal as mono PCM 16-bit WAV (test/fixture helper)."""
    clipped = np.clip(signal.samples, -1.0, 1.0 - 1.0 / PCM16_FULL_SCALE)
    pcm = np.round(clipped * PCM16_FULL_SCALE).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(int(round(signal.sample_rate_hz)))
        writer.writeframes(pcm.tobytes())


def _anti_alias_taps(factor):
    return 10 * factor + 1


def design_fir(taps, lo, hi):
    """Hamming window-method linear-phase FIR passing (lo, hi), in fractions
    of Nyquist, scaled to unit gain at DC if lo is 0 and at the band center
    otherwise: scipy.signal.firwin's design.  taps must be odd."""
    n = np.arange(taps) - (taps - 1) / 2.0
    coeffs = (hi * np.sinc(hi * n) - lo * np.sinc(lo * n)) * np.hamming(taps)
    return coeffs / np.sum(coeffs * np.cos(np.pi * n * (0.5 * (lo + hi) if lo else 0.0)))


def anti_alias_filter(factor, input_rate_hz):
    """Linear-phase low-pass FIR for decimation by `factor`.

    Hamming-designed, length 10*factor + 1, cutoff at 0.45x the output
    rate, leaving a guard band below the output Nyquist.
    """
    cutoff_hz = 0.45 * (input_rate_hz / factor)
    return design_fir(_anti_alias_taps(factor), 0.0, cutoff_hz / (0.5 * input_rate_hz))


def decimate(signal, factor):
    """Reduce the sample rate by an integer factor with anti-alias filtering.

    The low-pass group delay is compensated so the output is time-aligned
    with the input; origin_offset_s is unchanged.  Only the kept outputs
    are computed, by polyphase decomposition (Crochiere & Rabiner,
    Multirate Digital Signal Processing, 1983, ch. 3): one matrix product
    per block of rows of `factor` samples.
    """
    if not isinstance(factor, (int, np.integer)) or factor <= 0:
        raise ValueError("decimation factor must be a positive integer")
    if factor == 1:
        return signal
    # Checked before the design, which for a huge factor is itself huge.
    n_taps = _anti_alias_taps(int(factor))
    if len(signal) <= n_taps:
        raise DegenerateInputError(
            f"signal of {len(signal)} samples is too short for the "
            f"{n_taps}-tap anti-alias filter"
        )
    taps = anti_alias_filter(int(factor), signal.sample_rate_hz)
    return SampledSignal(
        _polyphase_filter(taps, signal.samples, int(factor)),
        signal.sample_rate_hz / factor,
        signal.origin_offset_s,
    )


def _polyphase_filter(taps, samples, factor):
    """Every factor-th output of the delay-compensated convolution of the
    samples with the taps, as one matrix product per block of rows.

    With 10 * factor + 1 taps, the delay 5 * factor is a whole number of
    output samples, and output j is sum_k taps[k] x[(j + 5) * factor - k].
    Viewing the samples as rows of `factor`, row r adds
    phases[i] @ row r to output r + i - width // 2, where
    phases[i, q] = taps[i * factor - q] (zero outside the taps) and
    width = 11.  Full rows are a view of the samples; only the partial
    last row is copied, into a zero-padded buffer.
    """
    width = (taps.size - 1) // factor + 1
    phases = np.ascontiguousarray(
        np.concatenate((np.zeros(factor - 1), taps)).reshape(width, factor)[:, ::-1]
    )
    full, rest = divmod(samples.size, factor)
    rows = samples[: full * factor].reshape(full, factor)
    # Output j accumulates at j + width // 2, so rows near either end need
    # no clipping; the margins are sliced off at the end.
    acc = np.zeros(full + (rest > 0) + width - 1)
    # One product buffer, reused by every block.
    product = np.empty((width, min(full, _BLOCK_ROWS)))
    for first in range(0, full, _BLOCK_ROWS):
        block = rows[first : first + _BLOCK_ROWS]
        lines = np.matmul(phases, block.T, out=product[:, : len(block)])
        for i, line in enumerate(lines):
            acc[first + i : first + i + line.size] += line
    if rest:
        tail = np.zeros(factor)
        tail[:rest] = samples[full * factor :]
        acc[full : full + width] += phases @ tail
    return acc[width // 2 : acc.size - width // 2]
