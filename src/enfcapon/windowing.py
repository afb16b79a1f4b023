"""Temporal windows applied to frames before spectral analysis.

Only temporal windows live here; lag windows (applied to autocovariance
sequences) are deliberately not implemented.  The tapers are the
symmetric forms (Harris, Proc. IEEE 66(1), 1978).
"""

import numpy as np

WINDOW_KINDS = ("parzen", "hamming", "kaiser", "rect")

DEFAULT_KAISER_BETA = 8.6


def make_window(kind, n_points):
    """N-point symmetric taper of the given kind, as an array.

    kind is one of WINDOW_KINDS; the Kaiser window has shape parameter
    DEFAULT_KAISER_BETA.  Parzen is scipy.signal.windows.parzen's
    expression in its order, so it matches that taper to the bit.
    """
    if kind == "hamming":
        return np.hamming(n_points)
    if kind == "kaiser":
        return np.kaiser(n_points, DEFAULT_KAISER_BETA)
    if kind == "rect":
        return np.ones(n_points)
    n = np.abs(np.arange(-(n_points - 1) / 2.0, (n_points - 1) / 2.0 + 0.5, 1.0))
    a = n / (n_points / 2.0)
    return np.where(n <= (n_points - 1) / 4.0, 1 - 6 * a**2.0 + 6 * a**3.0, 2 * (1 - a) ** 3.0)
