"""Overlapping frame extraction at a fixed shift cadence."""

import numpy as np


def frame_matrix(samples, frame_len, shift, window):
    """(K, N) matrix of every whole frame times the window taps; row k
    holds samples [k*shift, k*shift + N) and a trailing partial frame is
    dropped."""
    frames = np.lib.stride_tricks.sliding_window_view(samples, frame_len)
    return frames[::shift] * window
