"""Reference implementations the package is tested against.

The package estimates every frame at once, inverts each covariance
through Levinson and Gohberg-Semencul generators, and evaluates each
spectrum only inside the estimation band.  The per-frame chain here
takes one frame at a time through an explicit inverse, the full-grid
spectrum, a peak search over the whole band and a scalar quadratic
refinement.  The dense helpers form the Toeplitz machinery with explicit
matrices.  The package decimates by polyphase filtering and band-passes
by overlap-add; the full-rate helpers here convolve the whole signal
with one FFT and keep the outputs they need.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.signal import fftconvolve

from enfcapon import capon
from enfcapon.bandpass import design_bandpass
from enfcapon.framing import plan_frames
from enfcapon.pipeline import VALID_ENVELOPE_HZ, _decimation_factor, estimation_band
from enfcapon.signal_io import SampledSignal, anti_alias_filter
from enfcapon.windowing import make_window


def decimate_full_rate(signal, factor):
    """decimate(): anti-alias filter at the full rate, then keep every
    factor-th output of the delay-compensated convolution."""
    if factor == 1:
        return signal
    taps = anti_alias_filter(factor, signal.sample_rate_hz)
    filtered = fftconvolve(signal.samples, taps, mode="same")
    return SampledSignal(filtered[::factor], signal.sample_rate_hz / factor,
                         signal.origin_offset_s)


def apply_zero_phase_full(flt, signal):
    """apply_zero_phase(): the valid part of one FFT convolution, exactly
    zero where the whole input window is zero."""
    filtered = fftconvolve(signal.samples, flt.coeffs, mode="valid")
    nonzero_count = fftconvolve(signal.samples != 0.0, np.ones(len(flt)), mode="valid")
    filtered[nonzero_count < 0.5] = 0.0
    return SampledSignal(filtered, signal.sample_rate_hz,
                         signal.origin_offset_s + flt.delay_samples / signal.sample_rate_hz)


def peak_search(values, sample_rate_hz, band):
    """Index of the largest full-grid value whose frequency lies in band
    (lowest index on ties)."""
    grid = np.arange(values.size // 2) * (sample_rate_hz / values.size)
    in_band = np.flatnonzero((grid >= band[0]) & (grid <= band[1]))
    assert in_band.size >= 3
    return int(in_band[np.argmax(values[in_band])])


def refine_quadratic(values, sample_rate_hz, q_max):
    """Log-parabola vertex around q_max in Hz, or the raw bin frequency
    when a fit point has no positive power or q_max is at the boundary."""
    grid = values.size
    triple = values[q_max - 1 : q_max + 2]
    if not 1 <= q_max <= grid // 2 - 2 or np.any(triple <= 0.0):
        return q_max * sample_rate_hz / grid
    log_a, log_b, log_c = np.log(triple)
    denom = log_a - 2.0 * log_b + log_c
    offset = 0.0 if denom == 0.0 else float(np.clip(0.5 * (log_a - log_c) / denom, -0.5, 0.5))
    return (q_max + offset) * sample_rate_hz / grid


def peak_frequency(values, sample_rate_hz, band, interpolate=True):
    q_max = peak_search(values, sample_rate_hz, band)
    if not interpolate:
        return q_max * sample_rate_hz / values.size
    return refine_quadratic(values, sample_rate_hz, q_max)


def estimate_frame_stft(frame, sample_rate_hz, band, pad_factor=4, interpolate=True):
    """Zero-padded periodogram peak of one frame; NaN for a zero frame."""
    if not np.any(frame):
        return np.nan
    values = np.abs(np.fft.fft(frame, pad_factor * frame.size)) ** 2 / frame.size
    return peak_frequency(values, sample_rate_hz, band, interpolate)


def capon_estimate_frame(frame, sample_rate_hz, band, order=10, pad_factor=4,
                         interpolate=True):
    """Full-grid Capon peak of one frame, with the denominator coefficients
    taken as diagonal sums of the explicit inverse of the loaded Toeplitz
    autocovariance; NaN when that matrix is not positive definite."""
    n = frame.size
    rho = np.array([frame[k:] @ frame[: n - k] for k in range(order + 1)]) / n
    rho[0] *= 1.0 + capon.DEFAULT_LOADING
    try:
        inverse = cho_solve(cho_factor(toeplitz(rho)), np.eye(order + 1))
    except np.linalg.LinAlgError:
        return np.nan
    coeffs = [np.trace(inverse, offset=i) for i in range(order + 1)]
    values = capon.capon_psd(coeffs, pad_factor * n)
    return peak_frequency(values, sample_rate_hz, band, interpolate)


def per_frame_track(signal, config):
    """freq_hz of extract_enf(signal, config), estimated one frame at a time."""
    working = decimate_full_rate(signal, _decimation_factor(signal.sample_rate_hz,
                                                            config.working_rate_hz))
    flt = design_bandpass(working.sample_rate_hz, config.center_hz,
                          config.passband_hz, config.taps)
    filtered = apply_zero_phase_full(flt, working)
    rate = filtered.sample_rate_hz
    plan = plan_frames(len(filtered), config.frame_len_s, config.shift_s, rate)
    taps = make_window(config.window, plan.frame_len, config.kaiser_beta)
    band = estimation_band(flt)
    freqs = np.empty(plan.frame_count)
    for k in range(plan.frame_count):
        frame = filtered.samples[k * plan.shift : k * plan.shift + plan.frame_len] * taps
        if config.estimator == "capon":
            freqs[k] = capon_estimate_frame(frame, rate, band, config.capon_order,
                                            config.pad_factor, config.interpolate)
        else:
            freqs[k] = estimate_frame_stft(frame, rate, band, config.pad_factor,
                                           config.interpolate)
    freqs /= config.harmonic
    freqs[np.abs(freqs - config.nominal_hz) > VALID_ENVELOPE_HZ] = np.nan
    return freqs


def sample_covariance(frame, order):
    """Averaged-outer-product covariance estimate: symmetric, but not
    exactly Toeplitz for finite frames."""
    n = frame.size
    lagged = np.stack([frame[order - j : n - j] for j in range(order + 1)])
    return lagged @ lagged.T / (n - order)


def inverse_from_gs(gamma, delta):
    """Dense inverse K(gamma)K(gamma)^T - K(delta)K(delta)^T, where K(v)
    is the lower-triangular Toeplitz matrix with first column v."""
    kg = toeplitz(gamma, np.zeros(gamma.size))
    kd = toeplitz(delta, np.zeros(delta.size))
    return kg @ kg.T - kd @ kd.T


def denominator_quadratic_form(cov_matrix, omega):
    """Direct a*(omega) R^-1 a(omega)."""
    steering = np.exp(-1j * omega * np.arange(cov_matrix.shape[0]))
    return float(np.real(steering.conj() @ np.linalg.inv(cov_matrix) @ steering))
