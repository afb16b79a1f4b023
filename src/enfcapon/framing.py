"""Overlapping frame extraction at a fixed shift cadence."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FramePlan:
    frame_len: int
    shift: int
    frame_count: int
    sample_rate_hz: float

    @property
    def frame_len_s(self):
        return self.frame_len / self.sample_rate_hz

    @property
    def shift_s(self):
        return self.shift / self.sample_rate_hz


def plan_frames(signal_len, frame_len_s, shift_s, sample_rate_hz):
    """Frame layout: N = round(L*Fs), shift = round(shift_s*Fs).

    A trailing partial frame is dropped; a signal shorter than one frame
    yields frame_count 0 (downstream decides whether that is an error).
    """
    if frame_len_s <= 0 or shift_s <= 0:
        raise ValueError("frame length and shift must be positive")
    frame_len = int(round(frame_len_s * sample_rate_hz))
    shift = int(round(shift_s * sample_rate_hz))
    if frame_len < 1 or shift < 1:
        raise ValueError("frame length and shift must round to at least 1 sample")
    if signal_len >= frame_len:
        count = (signal_len - frame_len) // shift + 1
    else:
        count = 0
    return FramePlan(frame_len, shift, count, sample_rate_hz)


def frame_matrix(signal, plan, window):
    """(K, N) matrix of every frame times the window taps; row k holds
    samples [k*shift, k*shift + N)."""
    if len(window) != plan.frame_len:
        raise ValueError(
            f"window length {len(window)} does not match frame length {plan.frame_len}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(signal.samples, plan.frame_len)
    return frames[:: plan.shift][: plan.frame_count] * window.taps
