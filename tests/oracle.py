"""Reference implementations the package is tested against.

The package estimates every frame at once, inverts each covariance
through Levinson and Gohberg-Semencul generators, and evaluates each
spectrum only inside the estimation band.  The per-frame chain here
takes one frame at a time through an explicit inverse, the full-grid
spectrum, a peak search over the whole band and a scalar quadratic
refinement.  The full-grid spectrum comes from one Hermitian FFT of the
denominator coefficients (capon_psd) or from an explicit inverse and
its quadratic form at every bin (capon_psd_dense).  The package runs
each stage of a batch over its own blocks of rows; stage_band_power and
stage_peaks call each stage once over all rows.  The dense helpers
form the Toeplitz machinery with explicit matrices.  The package reads
a WAV's data chunk one block at a time into a reused int16 buffer and
casts each block into float64; wav_floats here reads and converts the
whole data chunk at once.  It decimates by matrix products over parts
of a block of polyphase rows, which decimate_one_product here takes as
one product over the whole signal, and band-passes by overlap-save in
fixed real-FFT blocks; the full-rate helpers here convolve the whole
signal with one FFT and keep the outputs they need, and windowed_frames
frames what they filter.  The package matches a track by FFT sums that
nominate candidate lags; the scan here scores every lag through
`correlation`.
"""

import wave

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.signal import fftconvolve

from enfcapon import capon, spectral
from enfcapon.bandpass import design_bandpass
from enfcapon.errors import IncompatibleInputError, UndefinedCorrelationError
from enfcapon.matching import MatchResult, correlation
from enfcapon.pipeline import VALID_ENVELOPE_HZ, _decimation_factor
from enfcapon.signal_io import BLOCK_SAMPLES, SampledSignal, anti_alias_filter
from enfcapon.windowing import make_window


def wav_floats(path):
    """decimate(read_wav(path), 1).samples: the data chunk read whole,
    its whole frames' channel mean, then x 1/32768."""
    with wave.open(str(path), "rb") as reader:
        n_channels = reader.getnchannels()
        raw = reader.readframes(reader.getnframes())
    n_frames = len(raw) // (2 * n_channels)
    data = np.frombuffer(raw, dtype="<i2", count=n_frames * n_channels)
    if n_channels == 1:
        return data * (1.0 / 32768.0)
    samples = data.reshape(-1, n_channels).mean(axis=1)
    samples *= 1.0 / 32768.0
    return samples


def decimate_full_rate(signal, factor):
    """decimate(): anti-alias filter at the full rate, then keep every
    factor-th output of the delay-compensated convolution, exactly zero
    where the whole input window is zero."""
    if factor == 1:
        return signal
    taps = anti_alias_filter(factor, signal.sample_rate_hz)
    filtered = fftconvolve(signal.samples, taps, mode="same")
    nonzero_count = fftconvolve(signal.samples != 0.0, np.ones(taps.size), mode="same")
    filtered[nonzero_count < 0.5] = 0.0
    return SampledSignal(filtered[::factor], signal.sample_rate_hz / factor,
                         signal.origin_offset_s)


def decimate_one_product(signal, factor):
    """decimate() at factor > 1 as one product of all 11 phases and every
    row, zero-padded to at least one part's BLOCK_SAMPLES // factor rows
    (narrower products take other BLAS kernels), then the 11 line adds,
    last phase first.  signal is read whole: a SampledSignal or a
    seekable PcmRecording."""
    taps = anti_alias_filter(factor, signal.sample_rate_hz)
    width = (taps.size - 1) // factor + 1
    phases = np.ascontiguousarray(
        np.concatenate((np.zeros(factor - 1), taps)).reshape(width, factor)[:, ::-1])
    n_rows = -(-len(signal) // factor)
    samples = np.zeros(max(n_rows, BLOCK_SAMPLES // factor, 1) * factor)
    samples[: len(signal)] = signal.unscaled(0, len(signal), samples)
    product = phases @ samples.reshape(-1, factor).T
    acc = np.zeros(product.shape[1] + width - 1)
    for i in range(width - 1, -1, -1):
        acc[i : i + product.shape[1]] += product[i]
    outputs = acc[width // 2 : width // 2 + n_rows] * signal.scale
    return SampledSignal(outputs, signal.sample_rate_hz / factor, signal.origin_offset_s)


def apply_zero_phase_full(coeffs, signal):
    """apply_zero_phase(): the valid part of one FFT convolution, exactly
    zero where the whole input window is zero."""
    filtered = fftconvolve(signal.samples, coeffs, mode="valid")
    nonzero_count = fftconvolve(signal.samples != 0.0, np.ones(coeffs.size), mode="valid")
    filtered[nonzero_count < 0.5] = 0.0
    return SampledSignal(filtered, signal.sample_rate_hz,
                         signal.origin_offset_s + (coeffs.size - 1) // 2 / signal.sample_rate_hz)


def full_grid_in_band(grid_size, sample_rate_hz, band):
    """Bins q < Q/2 of the whole grid q*Fs/Q whose frequency lies in band."""
    grid = np.arange(grid_size // 2) * (sample_rate_hz / grid_size)
    return np.flatnonzero((grid >= band[0]) & (grid <= band[1]))


def peak_search(values, sample_rate_hz, band):
    """Index of the largest full-grid value whose frequency lies in band
    (lowest index on ties)."""
    in_band = full_grid_in_band(values.size, sample_rate_hz, band)
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


def peak_frequency(values, sample_rate_hz, band):
    return refine_quadratic(values, sample_rate_hz, peak_search(values, sample_rate_hz, band))


def estimate_frame_stft(frame, sample_rate_hz, band, pad_factor=4):
    """Zero-padded periodogram peak of one frame; NaN for a zero frame."""
    if not np.any(frame):
        return np.nan
    values = np.abs(np.fft.fft(frame, pad_factor * frame.size)) ** 2 / frame.size
    return peak_frequency(values, sample_rate_hz, band)


def loaded_covariance(frame, order):
    """Toeplitz matrix of the biased autocovariance of one frame, with the
    package's relative diagonal loading."""
    n = frame.size
    rho = np.array([frame[k:] @ frame[: n - k] for k in range(order + 1)]) / n
    rho[0] *= 1.0 + capon.DEFAULT_LOADING
    return toeplitz(rho)


def capon_psd(coeffs, grid_size):
    """Capon PSD (m+1)/phi_den on the whole grid q = 0..Q-1 via one transform.

    phi_den(omega_q) = x_0 + 2 sum_i x_i cos(2 pi q i / Q), evaluated for
    all q at once as the Hermitian FFT of the non-negative half x_0..x_m.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m_plus_1 = coeffs.size
    if grid_size < 2 * m_plus_1 - 1:
        raise ValueError(f"grid size {grid_size} smaller than 2M-1 = {2 * m_plus_1 - 1}")
    phi_den = np.fft.hfft(coeffs, grid_size)
    if np.any(phi_den <= 0.0):
        raise ValueError("non-positive Capon denominator")
    return m_plus_1 / phi_den


def capon_psd_dense(cov_matrix, grid_size):
    """Capon PSD through the explicit inverse: (m+1) / a*(omega) R^-1 a(omega)
    at every grid bin in one contraction."""
    m_plus_1 = cov_matrix.shape[0]
    inverse = np.linalg.inv(cov_matrix)
    steering = np.exp(
        -2j * np.pi * np.outer(np.arange(grid_size), np.arange(m_plus_1)) / grid_size
    )
    quad = np.einsum("qi,ij,qj->q", steering.conj(), inverse, steering)
    return m_plus_1 / quad.real


def capon_estimate_frame(frame, sample_rate_hz, band, order=10, pad_factor=4):
    """Full-grid Capon peak of one frame, with the denominator coefficients
    taken as diagonal sums of the explicit inverse of the loaded Toeplitz
    autocovariance; NaN when that matrix is not positive definite."""
    try:
        inverse = cho_solve(cho_factor(loaded_covariance(frame, order)), np.eye(order + 1))
    except np.linalg.LinAlgError:
        return np.nan
    coeffs = [np.trace(inverse, offset=i) for i in range(order + 1)]
    values = capon_psd(coeffs, pad_factor * frame.size)
    return peak_frequency(values, sample_rate_hz, band)


def stage_band_power(frames, bins, grid_size, order=capon.DEFAULT_ORDER):
    """(power, valid) of every frame (K, N) at the grid bins, each Capon
    stage called once over all K rows."""
    coeffs, valid = capon.capon_coeffs(capon.estimate_autocovariance(frames, order))
    return capon.capon_power(coeffs, valid, capon.cosine_table(bins, grid_size, order))


def stage_peaks(frames, config):
    """estimate_frames(frames, config), each stage called once over all rows."""
    bins, grid_size = config.search_bins, config.grid_size
    if config.estimator == "stft":
        power, valid = spectral.stft_band_power(frames, bins, grid_size)
    else:
        power, valid = stage_band_power(frames, bins, grid_size, config.capon_order)
    freqs, _ = spectral.band_peak(power, bins, grid_size, config.working_rate_hz)
    return np.where(valid, freqs, np.nan)


def windowed_frames(signal, config):
    """The windowed frames (K, N) that extract_enf(signal, config)
    estimates, from the full-rate helpers' filtered signal."""
    working = decimate_full_rate(signal, _decimation_factor(signal.sample_rate_hz,
                                                            config.working_rate_hz))
    coeffs = design_bandpass(working.sample_rate_hz, config.center_hz,
                             config.passband_hz, config.taps)
    filtered = apply_zero_phase_full(coeffs, working).samples
    frame_len, shift = config.frame_samples
    taps = make_window(config.window, frame_len)
    return np.stack([filtered[start : start + frame_len] * taps
                     for start in range(0, filtered.size - frame_len + 1, shift)])


def per_frame_track(signal, config):
    """freq_hz of extract_enf(signal, config), estimated one frame at a time."""
    rate, band = config.working_rate_hz, config.estimation_band
    frames = windowed_frames(signal, config)
    freqs = np.empty(len(frames))
    for k, frame in enumerate(frames):
        if config.estimator == "capon":
            freqs[k] = capon_estimate_frame(frame, rate, band, config.capon_order,
                                            config.pad_factor)
        else:
            freqs[k] = estimate_frame_stft(frame, rate, band, config.pad_factor)
    freqs /= config.harmonic
    freqs[np.abs(freqs - config.nominal_hz) > VALID_ENVELOPE_HZ] = np.nan
    return freqs


def sample_covariance(frame, order):
    """Averaged-outer-product covariance estimate: symmetric, but not
    exactly Toeplitz for finite frames."""
    n = frame.size
    lagged = np.stack([frame[order - j : n - j] for j in range(order + 1)])
    return lagged @ lagged.T / (n - order)


def gs_delta(gamma):
    """The second Gohberg-Semencul generator (0, gamma_{M-1}, ..., gamma_1)."""
    return np.concatenate([np.zeros_like(gamma[..., :1]), gamma[..., :0:-1]], axis=-1)


def inverse_from_gs(gamma):
    """Dense inverse K(gamma)K(gamma)^T - K(delta)K(delta)^T with delta =
    gs_delta(gamma), where K(v) is the lower-triangular Toeplitz matrix
    with first column v."""
    kg = toeplitz(gamma, np.zeros(gamma.size))
    kd = toeplitz(gs_delta(gamma), np.zeros(gamma.size))
    return kg @ kg.T - kd @ kd.T


def denominator_quadratic_form(cov_matrix, omega):
    """Direct a*(omega) R^-1 a(omega)."""
    steering = np.exp(-1j * omega * np.arange(cov_matrix.shape[0]))
    return float(np.real(steering.conj() @ np.linalg.inv(cov_matrix) @ steering))


def best_lag_scan(f, g, centered=False):
    """best_lag(): `correlation` at every lag, smallest lag on ties."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    k = f.size
    if g.size < k:
        raise IncompatibleInputError(
            f"reference length {g.size} shorter than track length {k}"
        )
    best = None
    for lag in range(g.size - k + 1):
        seg = g[lag : lag + k]
        try:
            c = correlation(f, seg, centered=centered)
        except UndefinedCorrelationError:
            continue
        if best is None or c > best.correlation:
            n_used = int(np.sum(~(np.isnan(f) | np.isnan(seg))))
            best = MatchResult(lag, c, centered, n_used)
    if best is None:
        raise UndefinedCorrelationError("correlation undefined at every lag")
    return best
