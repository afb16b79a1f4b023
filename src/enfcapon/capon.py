"""Fast filter-bank Capon spectral estimation over all frames at once.

Per frame: biased Toeplitz autocovariance of order m+1, Levinson-Durbin
solve, Gohberg-Semencul generator vectors for the inverse, and diagonal
sums of the inverse as the coefficients x_i of the trigonometric
polynomial phi_den(omega) = x_0 + 2 sum_i x_i cos(omega i).  The PSD is
(m+1) over that denominator.  Every stage runs once over the frame axis;
only the recursions over the order m loop in Python.

The inverted matrix has order M = m + 1 (the filter length, default 11),
not the frame length, so the displacement machinery is cheap and the
spectrum evaluation dominates.  capon_band_power evaluates the
denominator only at the in-band bins the peak search reads.
"""

import numpy as np

from . import spectral

DEFAULT_ORDER = 10

# Relative diagonal loading applied to the per-frame covariance before
# inversion.  A pure tone with no noise floor yields a covariance that is
# numerically rank deficient, and the resulting needle-sharp peak makes
# the three-point interpolation erratic.  Loading at 1e-5 of rho_0 widens
# the peak enough for a stable fit while staying orders of magnitude
# below any realistic noise floor.
DEFAULT_LOADING = 1e-5


def estimate_autocovariance(frames, order=DEFAULT_ORDER):
    """Biased autocorrelation rho_k = (1/N) sum_t y(t) y(t-k), k = 0..m,
    of every frame along the last axis; returns shape (..., m+1).

    The biased estimate is used (rather than averaged outer products)
    because it is guaranteed positive semidefinite and exactly Toeplitz,
    which the Gohberg-Semencul machinery requires.  The order must lie in
    1 <= m < N, as PipelineConfig checks.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[-1]
    lags = [np.einsum("...t,...t->...", frames[..., k:], frames[..., : n - k])
            for k in range(order + 1)]
    return np.stack(lags, axis=-1) / n


def levinson_solve(rho):
    """Levinson-Durbin solve of R_{M-1} w = -rho[1:] for every
    autocovariance row rho (..., M), looping over the order only.

    Returns (w, alpha, valid): w (..., M-1), the final prediction-error
    power alpha = rho_0 + rho[1:] . w, and a mask that is False where
    rho_0 or an intermediate error power is non-positive, which happens
    iff the Toeplitz matrix is not positive definite.  Invalid rows get
    w = 0 and alpha = 1, so later stages stay finite.
    """
    rho = np.asarray(rho, dtype=np.float64)
    alpha = rho[..., 0]
    valid = alpha > 0.0
    w = np.zeros(rho.shape[:-1] + (0,))
    with np.errstate(all="ignore"):  # failed rows run on, and are reset below
        for k in range(1, rho.shape[-1]):
            acc = rho[..., k] + np.einsum("...i,...i->...", w, rho[..., k - 1 : 0 : -1])
            reflection = -acc / alpha
            alpha = alpha * (1.0 - reflection * reflection)
            valid = valid & (alpha > 0.0)
            reflection = reflection[..., None]
            w = np.concatenate([w + reflection * w[..., ::-1], reflection], axis=-1)
    w[~valid] = 0.0
    return w, np.where(valid, alpha, 1.0), valid


def gs_factors(w, alpha):
    """Gohberg-Semencul generators of each inverse covariance:
    gamma = (1, w) / sqrt(alpha), delta = (0, reversed w) / sqrt(alpha).
    alpha must be positive, as every alpha levinson_solve returns is.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    scale = (1.0 / np.sqrt(alpha))[..., None]
    edge = np.ones(w.shape[:-1] + (1,))
    gamma = scale * np.concatenate([edge, w], axis=-1)
    delta = scale * np.concatenate([np.zeros_like(edge), w[..., ::-1]], axis=-1)
    return gamma, delta


def _diagonal_sums(vec):
    # For K(v)K(v)^T with the lower shift, the sum of the i-th diagonal
    # reduces to sum_a (M - i - a) v[a] v[a+i].
    m = vec.shape[-1]
    sums = [(vec[..., : m - i] * vec[..., i:]) @ np.arange(m - i, 0, -1, dtype=np.float64)
            for i in range(m)]
    return np.stack(sums, axis=-1)


def denom_coeffs(gamma, delta):
    """Diagonal sums x_i, i = 0..M-1, of each inverse
    K(gamma)K(gamma)^T - K(delta)K(delta)^T.  The full sequence is
    symmetric (x_{-i} = x_i); only the non-negative half is returned.
    """
    sums = _diagonal_sums(np.stack([gamma, delta]))
    return sums[0] - sums[1]


def capon_band_power(frames, bins, grid_size, order=DEFAULT_ORDER):
    """Capon PSD (m+1)/phi_den of every frame (K, N) at the grid bins
    omega_q = 2 pi q / Q listed in bins, as one (M x B) cosine sum.

    Returns (power, valid); a frame is invalid when it has no energy,
    fails a Levinson step, or has a non-positive denominator at a bin.
    """
    rho = estimate_autocovariance(frames, order)
    rho[..., 0] *= 1.0 + DEFAULT_LOADING
    w, alpha, valid = levinson_solve(rho)
    coeffs = denom_coeffs(*gs_factors(w, alpha))
    lags = np.arange(order + 1)
    phase = spectral.phase_table(lags, bins, grid_size)
    phi_den = coeffs @ (np.where(lags == 0, 1.0, 2.0)[:, None] * np.cos(phase))
    valid = valid & np.all(phi_den > 0.0, axis=-1)
    with np.errstate(divide="ignore"):
        return (order + 1) / phi_den, valid

