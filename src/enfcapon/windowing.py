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

    kind is one of WINDOW_KINDS; beta applies to the Kaiser window only
    (default 8.6).
    """
    if kind == "kaiser":
        kind = ("kaiser", DEFAULT_KAISER_BETA if beta is None else beta)
    elif kind == "rectangular":
        kind = "boxcar"
    return get_window(kind, n_points, fftbins=False)
