"""Band-limited peak estimation shared by the STFT and Capon estimators.

Both estimators evaluate their spectrum, for all frames at once, only at
the bins q of the grid omega_q = 2*pi*q/Q that lie in the estimation
band, plus one neighbour on each side.  The peak is the largest in-band
bin, refined by fitting a parabola to three log-spectrum samples around
it.
"""

import numpy as np

from .errors import IncompatibleInputError

DEFAULT_PAD_FACTOR = 4


def band_bins(band, grid_size, sample_rate_hz):
    """Bins q < Q/2 whose frequency q*Fs/Q lies in band, plus one
    neighbour on each side.

    The band must contain at least three grid points so quadratic
    refinement has a neighbourhood.
    """
    f_lo, f_hi = band
    nyquist = sample_rate_hz / 2.0
    if not (0.0 < f_lo < f_hi < nyquist):
        raise IncompatibleInputError(
            f"band ({f_lo:g}, {f_hi:g}) Hz outside (0, {nyquist:g}) Hz"
        )
    grid = np.arange(grid_size // 2) * (sample_rate_hz / grid_size)
    in_band = np.flatnonzero((grid >= f_lo) & (grid <= f_hi))
    if in_band.size < 3:
        raise IncompatibleInputError(
            f"band ({f_lo:g}, {f_hi:g}) Hz contains fewer than 3 grid points "
            f"of the {grid_size}-point grid; use longer frames or a larger "
            f"pad factor"
        )
    return np.arange(in_band[0] - 1, in_band[-1] + 2)


def stft_band_power(frames, bins, grid_size):
    """|DFT|^2 / N of every frame (K, N) zero-padded to Q, at the given
    bins, as one (N x B) DFT sub-matrix.

    Returns (power, valid); a frame with no energy has no peak.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[-1]
    if n == 0:
        raise ValueError("empty frames")
    phase = 2.0 * np.pi * (np.outer(np.arange(n), bins) % grid_size) / grid_size
    power = ((frames @ np.cos(phase)) ** 2 + (frames @ np.sin(phase)) ** 2) / n
    return power, np.einsum("...t,...t->...", frames, frames) > 0.0


def band_peak(power, bins, grid_size, sample_rate_hz, interpolate=True):
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
    if not interpolate:
        return raw, np.zeros(raw.shape, dtype=bool)
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
