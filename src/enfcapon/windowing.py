"""Temporal windows applied to frames before spectral analysis.

Only temporal windows live here; lag windows (applied to autocovariance
sequences) are deliberately not implemented.  The tapers are the
symmetric forms built by scipy.signal.get_window.
"""

from scipy.signal import get_window

WINDOW_KINDS = ("parzen", "hamming", "kaiser", "rectangular")

DEFAULT_KAISER_BETA = 8.6


def make_window(kind, n_points, beta=None):
    """N-point symmetric taper of the given kind, as an array.

    beta applies to the Kaiser window only (default 8.6).
    """
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown window kind {kind!r}, expected one of {WINDOW_KINDS}")
    if n_points < 1:
        raise ValueError("window length must be at least 1")
    if kind == "kaiser":
        if beta is None:
            beta = DEFAULT_KAISER_BETA
        if beta < 0:
            raise ValueError("Kaiser beta must be non-negative")
        kind = ("kaiser", beta)
    elif kind == "rectangular":
        kind = "boxcar"
    return get_window(kind, n_points, fftbins=False)
