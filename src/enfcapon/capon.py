"""Fast filter-bank Capon spectral estimation over many frames at once.

Per frame: biased Toeplitz autocovariance of order m+1, Levinson-Durbin
solve, the one Gohberg-Semencul generator the inverse needs, and its
diagonal sums in one pass as the coefficients x_i of the trigonometric
polynomial phi_den(omega) = x_0 + 2 sum_i x_i cos(omega i).  The PSD is
(m+1) over that denominator at the in-band bins the peak search reads.
Every stage runs once over the rows it is given; only the recursions
over the order m loop in Python.  M = m + 1 (default 11), not the frame
length, sizes all but the autocovariance, the one stage that reads the
frames: capon_coeffs and capon_power go on from its rows, so a caller
can give each stage its own row count, as pipeline.estimate_frames does.
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
    lags = [np.vecdot(frames[..., k:], frames[..., : n - k]) for k in range(order + 1)]
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
            acc = rho[..., k] + np.vecdot(w, rho[..., k - 1 : 0 : -1])
            reflection = -acc / alpha
            alpha = alpha * (1.0 - reflection * reflection)
            valid = valid & (alpha > 0.0)
            reflection = reflection[..., None]
            w = np.concatenate([w + reflection * w[..., ::-1], reflection], axis=-1)
    w[~valid] = 0.0
    return w, np.where(valid, alpha, 1.0), valid


def gs_factors(w, alpha):
    """Gohberg-Semencul generator gamma = (1, w) / sqrt(alpha) of each
    inverse covariance; the second, delta = (0, gamma_{M-1}, ..., gamma_1),
    is gamma reversed (see denom_coeffs).  alpha must be positive, as
    every alpha levinson_solve returns is.
    """
    scale = (1.0 / np.sqrt(np.asarray(alpha, dtype=np.float64)))[..., None]
    w = np.asarray(w, dtype=np.float64)
    return scale * np.concatenate([np.ones(w.shape[:-1] + (1,)), w], axis=-1)


def denom_coeffs(gamma):
    """Diagonal sums x_i = sum_a (M - i - 2a) gamma_a gamma_{a+i},
    i = 0..M-1, of each inverse K(gamma)K(gamma)^T - K(delta)K(delta)^T.

    The i-th diagonal of K(v)K(v)^T (lower shift) sums to
    sum_a (M - i - a) v_a v_{a+i}; with delta_a = gamma_{M-a} (a >= 1) and
    b = M - i - a, delta's sum is sum_b b gamma_b gamma_{b+i}, so the
    difference is one sum (Musicus, IEEE Trans. ASSP 33(5), 1985).  The
    full sequence is symmetric (x_{-i} = x_i); only i >= 0 is returned.
    einsum sums each row alone, so a row's bits do not depend on the batch.
    """
    m = gamma.shape[-1]
    sums = [np.einsum("...j,...j,j->...", gamma[..., : m - i], gamma[..., i:],
                      np.arange(m - i, i - m, -2, dtype=np.float64)) for i in range(m)]
    return np.stack(sums, axis=-1)


def capon_coeffs(rho):
    """Denominator coefficients (..., M) and valid mask of every
    autocovariance row rho (..., M), rho_0 loaded in a copy."""
    rho = np.array(rho, dtype=np.float64)
    rho[..., 0] *= 1.0 + DEFAULT_LOADING
    w, alpha, valid = levinson_solve(rho)
    return denom_coeffs(gs_factors(w, alpha)), valid


def cosine_table(bins, grid_size, order=DEFAULT_ORDER):
    """(M, B) table whose product with coefficient rows is phi_den at bins."""
    lags = np.arange(order + 1)
    phase = spectral.phase_table(lags, bins, grid_size)
    return np.where(lags == 0, 1.0, 2.0)[:, None] * np.cos(phase)


def capon_power(coeffs, valid, table):
    """(power, valid): the Capon PSD (m+1)/phi_den, phi_den = coeffs @ table,
    of every coefficient row; a row with phi_den <= 0 at a bin turns invalid.
    einsum sums each row alone, where a BLAS product's order follows the
    row count, so a row's bits do not depend on the batch."""
    phi_den = np.einsum("...m,mb->...b", coeffs, table)
    with np.errstate(divide="ignore"):
        return coeffs.shape[-1] / phi_den, valid & np.all(phi_den > 0.0, axis=-1)
