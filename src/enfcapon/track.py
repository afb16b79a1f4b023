"""ENF track container and CSV persistence.

CSV schema: header ``frame_index,time_s,freq_hz``, one row per frame,
UTF-8, LF line endings.  Invalid (missing) estimates are stored as NaN
and serialized as ``nan``.
"""

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TrackFormatError

CSV_HEADER = "frame_index,time_s,freq_hz"

# Frame times spaced equally to within this many seconds define a cadence.
CADENCE_TOL_S = 1e-9

_CSV_ROW = np.dtype([("i", "<i8"), ("t", "<f8"), ("f", "<f8")])
# ASCII characters np.loadtxt keeps inside a row or strips around a cell,
# where str.splitlines breaks the line or int()/float() reject the cell.
_CSV_FAST_PATH_EXCLUDED = "\x0b\x0c\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class EnfTrack:
    """Per-frame ENF estimates: exactly the three CSV columns.

    freq_hz is NaN where the frame produced no usable estimate.
    """

    frame_index: np.ndarray
    time_s: np.ndarray
    freq_hz: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.frame_index, dtype=np.int64)
        times = np.asarray(self.time_s, dtype=np.float64)
        freqs = np.asarray(self.freq_hz, dtype=np.float64)
        if not (idx.shape == times.shape == freqs.shape) or idx.ndim != 1:
            raise ValueError("frame_index, time_s, freq_hz must be equal-length 1-D")
        # np.diff wraps at the int64 limits; a wrapped run ends below its start.
        if idx.size and (np.any(np.diff(idx) != 1) or idx[-1] < idx[0]):
            raise ValueError("frame indices must be consecutive")
        object.__setattr__(self, "frame_index", idx)
        object.__setattr__(self, "time_s", times)
        object.__setattr__(self, "freq_hz", freqs)

    def __len__(self):
        return self.frame_index.size

    @property
    def valid(self):
        return ~np.isnan(self.freq_hz)

    @property
    def shift_s(self):
        """The frame shift, when time_s is uniformly spaced; None otherwise
        (or for fewer than two rows)."""
        return _uniform_shift(self.time_s)


def write_track(track, path):
    """Serialize a track as CSV, losslessly (repr round-trip for doubles)."""
    lines = [CSV_HEADER]
    for i, t, f in zip(track.frame_index.tolist(), track.time_s.tolist(),
                       track.freq_hz.tolist()):
        lines.append(f"{i},{t!r},{f!r}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_track(path):
    """Load a CSV track written by write_track.

    Every TrackFormatError message starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TrackFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return _parse_csv(text)
    except TrackFormatError as exc:
        exc.args = (f"{path}: {exc}",)  # exc.line stays
        raise


def _parse_csv(text):
    """Parse a CSV track in one np.loadtxt pass.  The line parser runs
    wherever that pass raises or could read the text differently, so it
    alone words every error."""
    first, _, body = text.partition("\n")
    # np.loadtxt reads ASCII free of the excluded characters as int()/float()
    # do, or raises.  A first line that str.splitlines breaks in two would
    # shift the line numbers.
    if (len(first.splitlines()) == 1 and first.strip() == CSV_HEADER and body.isascii()
            and not any(c in body for c in _CSV_FAST_PATH_EXCLUDED)):
        try:
            with warnings.catch_warnings():
                # "input contained no data" and, in older numpy, integers
                # parsed via float only warn.
                warnings.simplefilter("error")
                rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                                  dtype=_CSV_ROW, ndmin=1)
        except (ValueError, OverflowError, Warning):
            pass
        else:
            if not np.isinf(rows["f"]).any():
                return _track(rows["i"], rows["t"], rows["f"])
    return _parse_csv_lines(text)


def _parse_csv_lines(text):
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
    try:
        return EnfTrack(np.array(idx, dtype=np.int64), np.array(times, dtype=np.float64),
                        np.array(freqs, dtype=np.float64))
    except OverflowError as exc:
        raise TrackFormatError(f"frame index outside the int64 range: {exc}") from exc
    except ValueError as exc:
        raise TrackFormatError(str(exc)) from exc


def _uniform_shift(times):
    if times.size < 2:
        return None
    # NaN and infinite spacings fail the comparison, so they leave the
    # cadence undefined; infinite or huge times make them without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        shift = (times[-1] - times[0]) / (times.size - 1)
        if not (0.0 < shift < math.inf
                and np.all(np.abs(np.diff(times) - shift) <= CADENCE_TOL_S)):
            return None
    return float(shift)
