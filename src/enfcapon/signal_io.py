"""Recording ingest and anti-alias decimation.

WAV input is restricted to PCM 16-bit; anything else is rejected loudly
rather than silently re-quantized.  read_wav reads only the header, and
decimation reads a recording's samples half a block at a time.

Both signal kinds serve unscaled blocks, a SampledSignal's as views and
a PcmRecording's codes cast into the caller's float64 buffer, and carry
the scale that decimation applies once per output.  Scaling by a power
of two is exact and, far from overflow and underflow, commutes with
every rounding before it, so no bit moves.
"""

import os
import wave
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, UnsupportedFormatError

PCM16_FULL_SCALE = 32768.0

# Input samples per decimation block: decimation views the input as rows of
# `factor` samples and adds max(1, BLOCK_SAMPLES // factor) rows' products
# into the outputs per block, which fixes the order in which rows add into
# each output, so also the outputs' last bits.  A block is multiplied in two
# halves, so a PCM recording is cast into one reused 1 MB float64 part that
# stays in a core's L2 cache while BLAS reads it.  pipeline.estimate
# windows at most this many frame samples at once.
BLOCK_SAMPLES = 1 << 18


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real-valued series in float64: the output of
    decimate and the band-pass.  A recording opened by read_wav stays a
    PcmRecording, samples on file, until decimate makes it one.

    origin_offset_s tracks seconds trimmed from the head by upstream
    processing (filter delay compensation) so frame timestamps stay
    anchored to the original recording.
    """

    samples: np.ndarray
    sample_rate_hz: float
    origin_offset_s: float = 0.0
    scale = 1.0  # unscaled() serves the samples themselves

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size

    def unscaled(self, start, stop, out):
        """Samples start:stop, a view; out is not used."""
        return self.samples[start:stop]


class PcmRecording:
    """A PCM 16-bit WAV recording that holds its open file, not its
    samples, and closes it when dropped.

    unscaled(start, stop, out) reads frames start:stop into one reused
    int16 buffer and casts their channel mean into out; floats(start,
    stop) is that x scale, 1/32768, so the full negative scale maps to
    -1.0.  Only the mean's divide rounds, so any range gives the same bits
    as converting the whole recording at once.  A pipe (offset None)
    serves ranges only in order, each from where the last one stopped.
    """

    origin_offset_s = 0.0  # a recording starts at its own origin
    scale = 1.0 / PCM16_FULL_SCALE

    def __init__(self, fh, offset, n_frames, n_channels, sample_rate_hz):
        weakref.finalize(self, fh.close)  # first, so a failed check closes fh too
        if min(n_frames, n_channels) < 1 or not sample_rate_hz > 0:
            raise ValueError("a recording needs a frame, a channel and a positive rate")
        self._fh, self._offset, self._n_frames = fh, offset, n_frames
        self.n_channels, self.sample_rate_hz = n_channels, float(sample_rate_hz)
        self._next = 0  # the frame a pipe stands at
        self._codes = np.empty((0, n_channels), "<i2")  # WAV is little-endian

    def __len__(self):
        return self._n_frames

    def floats(self, start=0, stop=None):
        """Mono float64 samples of frames start:stop."""
        n = len(range(self._n_frames)[start:stop])
        samples = self.unscaled(start, stop, np.empty(n))
        samples *= self.scale
        return samples

    def unscaled(self, start, stop, out):
        """Mono samples of frames start:stop before x scale, in out[:n]
        for the n frames read; out must hold them."""
        start, stop, _ = slice(start, stop).indices(self._n_frames)
        if self._offset is not None:
            self._fh.seek(self._offset + 2 * self.n_channels * start)
        elif start != self._next:
            raise UnsupportedFormatError(f"{self._fh.name}: a pipe is read once, in order: "
                                         f"frame {start} was asked for at frame {self._next}")
        if stop - start > len(self._codes):
            self._codes = np.empty((stop - start, self.n_channels), "<i2")
        codes = self._codes[: max(0, stop - start)]
        # A buffered file's readinto gathers a pipe's short reads, so it
        # stops short only where the data ends.
        n_read = self._fh.readinto(codes) // (2 * self.n_channels)
        if n_read < len(codes):
            raise UnsupportedFormatError(f"{self._fh.name}: data ends at frame "
                                         f"{start + n_read} of {self._n_frames}")
        self._next = start + n_read
        out = out[:n_read]
        out[:] = codes[:, 0]
        if self.n_channels > 1:
            # Sums of int16 are whole numbers in float64, so exact in any
            # order; the divide rounds as numpy's mean(axis=1) does.
            for channel in range(1, self.n_channels):
                out += codes[:, channel]
            out /= self.n_channels
        return out


def read_wav(path):
    """Open a PCM 16-bit WAV file as a PcmRecording, reading only its
    header: the samples are read where they are used, a block at a time.

    The recording has the header's frame count, or for a regular file the
    whole frames the file holds if fewer, so a partial sample frame at the
    end of a truncated file is dropped.  wave opens only PCM, so any other
    format tag fails there ("unknown format: 3").
    """
    fh = open(path, "rb")
    try:
        try:
            reader = wave.open(fh)
        except EOFError as exc:
            raise UnsupportedFormatError(f"{path}: file ends inside the WAV header") from exc
        except RuntimeError as exc:  # wave's bare error for a seek outside a chunk
            raise UnsupportedFormatError(f"{path}: a WAV chunk size is inconsistent") from exc
        except wave.Error as exc:
            raise UnsupportedFormatError(f"cannot read WAV file {path}: {exc}") from exc
        with reader:  # closes the reader, not fh
            if reader.getsampwidth() != 2:
                raise UnsupportedFormatError(f"{path}: only 16-bit PCM is supported, "
                                             f"got {8 * reader.getsampwidth()}-bit")
            rate = reader.getframerate()
            if rate <= 0:
                raise UnsupportedFormatError(f"{path}: sample rate {rate} Hz in header")
            n_channels, n_frames = reader.getnchannels(), reader.getnframes()
        # wave has just read the data chunk's header, so fh stands at its
        # first byte.  A pipe's length is known only once read.
        offset = fh.tell() if fh.seekable() else None
        if offset is not None:
            n_frames = min(n_frames, (fh.seek(0, os.SEEK_END) - offset) // (2 * n_channels))
        if n_frames <= 0:  # negative if the file shrank below the header meanwhile
            raise DegenerateInputError(f"{path}: no audio frames")
    except BaseException:
        fh.close()
        raise
    return PcmRecording(fh, offset, n_frames, n_channels, rate)


def write_wav(signal, path):
    """Write a SampledSignal as mono PCM 16-bit WAV."""
    clipped = np.clip(signal.samples, -1.0, 1.0 - 1.0 / PCM16_FULL_SCALE)
    pcm = np.round(clipped * PCM16_FULL_SCALE).astype("<i2")
    # wave.open(path) leaves a half-built writer whose __del__ fails when the
    # path cannot be opened; opening the file first keeps that error plain.
    with open(path, "wb") as fh, wave.open(fh, "wb") as writer:
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

    signal is a SampledSignal or a PcmRecording; the result is a
    SampledSignal.  The low-pass group delay is compensated so the output
    is time-aligned with the input; origin_offset_s is unchanged.  Only
    the kept outputs are computed, by polyphase decomposition (Crochiere &
    Rabiner, Multirate Digital Signal Processing, 1983, ch. 3), in blocks of
    max(1, 2**18 // factor) rows of `factor` samples, each multiplied in
    two halves, so a recording is cast into one reused 1 MB float64 part
    unless one row is longer.  A recording is read from its file here, in
    increasing order, so a recording of a pipe is decimated once.  The
    products run on unscaled values and each output is scaled once.  At
    factor 1 the blocks are cast or copied into a new array and scaled
    there; the caller may overwrite it, as it never shares the input's
    memory.
    """
    if not isinstance(factor, (int, np.integer)) or factor <= 0:
        raise ValueError("decimation factor must be a positive integer")
    if factor == 1:
        samples = np.empty(len(signal))
        for start in range(0, samples.size, BLOCK_SAMPLES):
            part = samples[start : start + BLOCK_SAMPLES]
            # A recording casts into part, and numpy skips assigning an
            # array to itself; a SampledSignal's view is copied.
            part[...] = signal.unscaled(start, start + BLOCK_SAMPLES, part)
            part *= signal.scale
        return SampledSignal(samples, signal.sample_rate_hz, signal.origin_offset_s)
    # Checked before the design, which for a huge factor is itself huge.
    n_taps = _anti_alias_taps(int(factor))
    if len(signal) <= n_taps:
        raise DegenerateInputError(
            f"signal of {len(signal)} samples is too short for the "
            f"{n_taps}-tap anti-alias filter"
        )
    taps = anti_alias_filter(int(factor), signal.sample_rate_hz)
    return SampledSignal(
        _polyphase_filter(taps, signal, int(factor)),
        signal.sample_rate_hz / factor,
        signal.origin_offset_s,
    )


def _polyphase_filter(taps, signal, factor):
    """Every factor-th output of the delay-compensated convolution of the
    signal's samples with the taps, by matrix products over blocks of rows.

    With 10 * factor + 1 taps, the delay 5 * factor is a whole number of
    output samples, and output j is sum_k taps[k] x[(j + 5) * factor - k].
    Viewing the samples as rows of `factor`, row r adds
    phases[i] @ row r to output r + i - width // 2, where
    phases[i, q] = taps[i * factor - q] (zero outside the taps) and
    width = 11; phase 0 is [taps[0], 0, ..., 0], so its line is taps[0]
    times each row's first sample.  The ceil(len / factor) rows go in
    blocks of max(1, BLOCK_SAMPLES // factor), each in two parts, read (a
    recording's cast into one reused part, a SampledSignal's a view) and
    multiplied while in cache into the columns of one product whose 11
    lines add into the outputs once per block, as one product per block
    would.  The signal's last part is zero-padded to its rows in a whole
    block, as narrower products take other OpenBLAS kernels with other
    bits.  The products run on unscaled values, and the outputs are
    multiplied by signal.scale at the end.
    """
    width = (taps.size - 1) // factor + 1
    phases = np.ascontiguousarray(
        np.concatenate((np.zeros(factor - 1), taps)).reshape(width, factor)[1:, ::-1]
    )
    n_rows = -(-len(signal) // factor)
    # Output j accumulates at j + width // 2, so rows near either end need
    # no clipping; the margins are sliced off at the end.
    acc = np.zeros(n_rows + width - 1)
    step = max(1, BLOCK_SAMPLES // factor)
    half = -(-step // 2)
    product = np.empty((width, step))
    part = np.empty(half * factor)
    for first in range(0, n_rows, step):
        stop = min(first + step, n_rows)
        for start in range(first, stop, half):
            end = min(start + half, first + step)  # the part as in a whole block
            rows = signal.unscaled(start * factor, min(end, stop) * factor, part)
            if rows.size < (end - start) * factor:
                part[rows.size : (end - start) * factor] = 0.0
                part[: rows.size] = rows  # numpy skips a recording's own part
                rows = part[: (end - start) * factor]
            rows = rows.reshape(end - start, factor)
            columns = product[:, start - first : end - first]
            np.multiply(rows[:, 0], taps[0], out=columns[0])
            np.matmul(phases, rows.T, out=columns[1:])
        for i, line in enumerate(product[:, : stop - first]):
            acc[first + i : stop + i] += line
    outputs = acc[width // 2 : acc.size - width // 2]
    outputs *= signal.scale
    return outputs
