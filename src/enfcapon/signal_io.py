"""Recording ingest and anti-alias decimation.

WAV input is restricted to PCM 16-bit; anything else is rejected loudly
rather than silently re-quantized.
"""

import math
import wave
from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin, upfirdn

from .errors import DegenerateInputError, IncompatibleInputError, UnsupportedFormatError

PCM16_FULL_SCALE = 32768.0


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
        n = int(round(seconds * self.sample_rate_hz))
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
    of a truncated file is dropped.
    """
    try:
        reader = wave.open(str(path), "rb")
    except EOFError as exc:
        raise UnsupportedFormatError(f"{path}: file ends inside the WAV header") from exc
    except (OSError, wave.Error) as exc:
        raise UnsupportedFormatError(f"cannot read WAV file {path}: {exc}") from exc
    with reader:
        if reader.getcomptype() != "NONE":
            raise UnsupportedFormatError(
                f"{path}: compressed WAV ({reader.getcomptype()}) is not supported"
            )
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
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    # One float64 pass; scaling by the power of two 1/32768 is exact.
    return SampledSignal(data * (1.0 / PCM16_FULL_SCALE), float(rate))


def write_wav(signal, path):
    """Write a SampledSignal as mono PCM 16-bit WAV (test/fixture helper)."""
    clipped = np.clip(signal.samples, -1.0, 1.0 - 1.0 / PCM16_FULL_SCALE)
    pcm = np.round(clipped * PCM16_FULL_SCALE).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(int(round(signal.sample_rate_hz)))
        writer.writeframes(pcm.tobytes())


def anti_alias_filter(factor, input_rate_hz):
    """Linear-phase low-pass FIR for decimation by `factor`.

    Hamming-designed, length 10*factor + 1, cutoff at 0.45x the output
    rate, leaving a guard band below the output Nyquist.
    """
    taps = 10 * factor + 1
    cutoff_hz = 0.45 * (input_rate_hz / factor)
    return firwin(taps, cutoff_hz, fs=input_rate_hz, window="hamming")


def decimate(signal, factor):
    """Reduce the sample rate by an integer factor with anti-alias filtering.

    The low-pass group delay is compensated so the output is time-aligned
    with the input; origin_offset_s is unchanged.
    """
    if not isinstance(factor, (int, np.integer)) or factor <= 0:
        raise ValueError("decimation factor must be a positive integer")
    if factor == 1:
        return signal
    taps = anti_alias_filter(int(factor), signal.sample_rate_hz)
    if len(signal) <= taps.size:
        raise DegenerateInputError(
            f"signal of {len(signal)} samples is too short for the "
            f"{taps.size}-tap anti-alias filter"
        )
    # Polyphase filtering computes only the kept outputs.  Output j of
    # upfirdn is the full convolution at input index j * factor; the
    # filter delay (taps.size - 1) // 2 = 5 * factor is a whole number
    # of output samples, so dropping delay // factor outputs aligns them.
    start = (taps.size - 1) // 2 // factor
    n_out = -(-len(signal) // factor)
    return SampledSignal(
        upfirdn(taps, signal.samples, 1, factor)[start : start + n_out],
        signal.sample_rate_hz / factor,
        signal.origin_offset_s,
    )
