"""Band-limited peak estimation shared by the STFT and Capon estimators.

Both estimators evaluate their spectrum, for all frames at once, only at
the bins q of the grid omega_q = 2*pi*q/Q that lie in the estimation
band, plus one neighbour on each side: the STFT by Bluestein's chirp-z
transform on numpy.fft over that run of bins, Capon by its trigonometric
polynomial.  The peak is the largest in-band bin, refined by fitting a
parabola to three log-spectrum samples around it.
"""

import math

import numpy as np

from .errors import IncompatibleInputError


def band_edges(band, grid_size, sample_rate_hz):
    """First and last bins q < Q/2 whose frequency q*Fs/Q lies in band, which
    must hold at least three so quadratic refinement has a neighbourhood.
    Only grid points near the band edges are formed, each rounded as in
    np.arange(Q // 2) * (Fs/Q)."""
    f_lo, f_hi = band
    nyquist = sample_rate_hz / 2.0
    if not (0.0 < f_lo < f_hi < nyquist):
        raise IncompatibleInputError(f"band ({f_lo:g}, {f_hi:g}) Hz outside (0, {nyquist:g}) Hz")
    step = sample_rate_hz / grid_size
    lo, hi = math.floor(f_lo / step), math.floor(f_hi / step)
    first = min((q for q in range(lo - 1, lo + 3) if q * step >= f_lo), default=lo + 2)
    last = min(max((q for q in range(hi - 1, hi + 2) if q * step <= f_hi), default=hi - 1),
               grid_size // 2 - 1)
    if last - first < 2:
        raise IncompatibleInputError(
            f"band ({f_lo:g}, {f_hi:g}) Hz contains fewer than 3 grid points of the "
            f"{grid_size}-point grid; use longer frames or a larger pad factor")
    return first, last


def band_bins(band, grid_size, sample_rate_hz):
    """The bins from band_edges plus one neighbour on each side."""
    first, last = band_edges(band, grid_size, sample_rate_hz)
    return np.arange(first - 1, last + 2)


def phase_table(lags, bins, grid_size):
    """Angles omega_q * t = 2 pi (t q mod Q) / Q, shape (lags, bins), of
    every lag t at every grid bin q; reducing t q mod Q first keeps the
    angles in [0, 2 pi) however long the lags run."""
    return 2.0 * np.pi * (np.outer(lags, bins) % grid_size) / grid_size


def _fast_length(n):
    """Smallest 2^a 3^b 5^c at or above n, a length numpy.fft runs fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp(m, grid_size):
    """exp(-i pi m / Q) of integers m, each reduced mod 2Q before the exp."""
    return np.exp(-1j * np.pi * (m % (2 * grid_size)) / grid_size)


def stft_band_power(frames, bins, grid_size):
    """|DFT|^2 / N of every frame (K, N) zero-padded to Q, at the
    contiguous bins q = q0 + b, b < B, by Bluestein's chirp-z transform on
    numpy.fft (Bluestein, 1970; Rabiner, Schafer & Rader, 1969), which
    needs no Q-point FFT and no N x B DFT matrix.  With
    q t = q0 t + (t^2 + b^2 - (b - t)^2) / 2 the band is one circular
    convolution of length L >= N + B - 1; the unit-modulus factor in b
    drops out of the power.  The chirped frames are zero-padded into one
    (K, L) complex buffer that both FFTs transform in place, so the caller
    bounds the memory by the rows it passes.

    Returns (power, valid); a frame with no energy has no peak.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n, first, size = frames.shape[-1], int(bins[0]), len(bins)
    length = _fast_length(n + size - 1)
    t = np.arange(n, dtype=np.int64)
    k = np.arange(length, dtype=np.int64)
    # Lag b - t runs over -(N-1)..B-1, which mod L do not overlap.
    kernel = np.fft.fft(_chirp(np.where(k < size, k, length - k) ** 2, grid_size).conj())
    spectrum = np.zeros((len(frames), length), dtype=np.complex128)
    np.multiply(frames, _chirp(t * t + 2 * first * t, grid_size), out=spectrum[:, :n])
    spectrum = np.fft.fft(spectrum, out=spectrum)
    spectrum *= kernel
    spectrum = np.fft.ifft(spectrum, out=spectrum)[:, :size]
    return (spectrum.real ** 2 + spectrum.imag ** 2) / n, np.vecdot(frames, frames) > 0.0


def band_peak(power, bins, grid_size, sample_rate_hz):
    """Peak frequency in Hz of every row of power, sampled at bins: the
    search bins plus one neighbour on each side, as band_bins returns.

    The peak is the largest search bin; ties resolve to the lowest.  The
    refinement moves it by the parabola vertex offset
    0.5*(a - c)/(a - 2b + c) of the log power a, b, c at the peak and its
    neighbours, clamped to [-0.5, 0.5].  It falls back to the raw bin
    frequency when a fit point has no positive power or the peak sits at
    the grid boundary.  Returns (freq_hz, refined).
    """
    power = np.asarray(power, dtype=np.float64)
    j = np.argmax(power[..., 1:-1], axis=-1)
    q_max = bins[1 + j]
    raw = q_max * sample_rate_hz / grid_size
    triple = np.take_along_axis(power, j[..., None] + np.arange(3), axis=-1)
    refined = (
        (q_max >= 1) & (q_max <= grid_size // 2 - 2) & np.all(triple > 0.0, axis=-1)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a, log_b, log_c = np.moveaxis(np.log(triple), -1, 0)
        denom = log_a - 2.0 * log_b + log_c
        offset = np.clip(0.5 * (log_a - log_c) / denom, -0.5, 0.5)
    offset = np.where(denom == 0.0, 0.0, offset)
    return np.where(refined, (q_max + offset) * sample_rate_hz / grid_size, raw), refined
