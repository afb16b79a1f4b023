"""ENF track container and CSV/JSON persistence.

CSV schema: header ``frame_index,time_s,freq_hz``, one row per frame,
UTF-8, LF line endings.  JSON is an array of objects with the same three
keys.  Invalid (missing) estimates are stored as NaN and serialized as
``nan`` / ``null``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import TrackFormatError

CSV_HEADER = "frame_index,time_s,freq_hz"

# Frame times spaced equally to within this many seconds define a cadence.
CADENCE_TOL_S = 1e-9


@dataclass(frozen=True)
class EnfTrack:
    """Per-frame ENF estimates at a fixed shift cadence.

    freq_hz is NaN where the frame produced no usable estimate.  Metadata
    fields are None when the track was loaded from a bare file.
    """

    frame_index: np.ndarray
    time_s: np.ndarray
    freq_hz: np.ndarray
    frame_len_s: float | None = None
    shift_s: float | None = None

    def __post_init__(self):
        idx = np.asarray(self.frame_index, dtype=np.int64)
        times = np.asarray(self.time_s, dtype=np.float64)
        freqs = np.asarray(self.freq_hz, dtype=np.float64)
        if not (idx.shape == times.shape == freqs.shape) or idx.ndim != 1:
            raise ValueError("frame_index, time_s, freq_hz must be equal-length 1-D")
        if idx.size and np.any(np.diff(idx) != 1):
            raise ValueError("frame indices must be consecutive")
        object.__setattr__(self, "frame_index", idx)
        object.__setattr__(self, "time_s", times)
        object.__setattr__(self, "freq_hz", freqs)

    def __len__(self):
        return self.frame_index.size

    @property
    def valid(self):
        return ~np.isnan(self.freq_hz)


def write_track(track, path, format="csv"):
    """Serialize a track losslessly (repr round-trip for doubles)."""
    if format == "csv":
        lines = [CSV_HEADER]
        for i, t, f in zip(track.frame_index, track.time_s, track.freq_hz):
            lines.append(f"{int(i)},{float(t)!r},{float(f)!r}")
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    elif format == "json":
        rows = [
            {
                "frame_index": int(i),
                "time_s": float(t),
                "freq_hz": None if math.isnan(f) else float(f),
            }
            for i, t, f in zip(track.frame_index, track.time_s, track.freq_hz)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown track format {format!r}")


def read_track(path):
    """Load a track written by write_track; format inferred from content.

    shift_s is inferred from time_s when the times are uniformly spaced,
    and is None otherwise (or for fewer than two rows).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return _parse_json(text)
    return _parse_csv(text)


def _parse_json(text):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrackFormatError(f"invalid JSON: {exc}") from exc
    idx, times, freqs = [], [], []
    for n, row in enumerate(rows):
        try:
            idx.append(int(row["frame_index"]))
            times.append(float(row["time_s"]))
            f = row["freq_hz"]
            freqs.append(math.nan if f is None else _frequency(f))
        except (KeyError, TypeError, ValueError) as exc:
            raise TrackFormatError(f"bad entry {n}: {exc}") from exc
    return _track(idx, times, freqs)


def _parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise TrackFormatError(f"expected header {CSV_HEADER!r}", line=1)
    idx, times, freqs = [], [], []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TrackFormatError(f"expected 3 columns, got {len(parts)}", line=n)
        try:
            idx.append(int(parts[0]))
            times.append(float(parts[1]))
            freqs.append(_frequency(parts[2]))
        except ValueError as exc:
            raise TrackFormatError(str(exc), line=n) from exc
    return _track(idx, times, freqs)


def _frequency(value):
    """A frequency cell as float; NaN marks a missing estimate, inf is rejected."""
    f = float(value)
    if math.isinf(f):
        raise ValueError(f"infinite frequency {value!r}")
    return f


def _track(idx, times, freqs):
    times = np.array(times, dtype=np.float64)
    return EnfTrack(
        np.array(idx, dtype=np.int64), times, np.array(freqs, dtype=np.float64),
        shift_s=_uniform_shift(times),
    )


def _uniform_shift(times):
    if times.size < 2:
        return None
    shift = (times[-1] - times[0]) / (times.size - 1)
    # NaN spacings fail the comparison, so they leave the cadence undefined.
    if not (0.0 < shift < math.inf and np.all(np.abs(np.diff(times) - shift) <= CADENCE_TOL_S)):
        return None
    return float(shift)
