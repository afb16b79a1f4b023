import contextlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from enfcapon.bandpass import _PAIRS_PER_CALL, _block_length


def random_pd_toeplitz(rng, order, near_singular=False):
    """First column of a random positive-definite symmetric Toeplitz matrix.

    Built from the biased autocorrelation of a random sequence (positive
    semidefinite by construction) plus a diagonal boost.  near_singular
    shrinks the boost so the smallest eigenvalue can reach ~1e-8.
    """
    seq = rng.normal(size=4 * order)
    col = np.correlate(seq, seq, mode="full")[seq.size - 1 : seq.size + order - 1]
    col = col / seq.size
    boost = 1e-8 if near_singular else 0.1 * abs(col[0]) + 1e-6
    col[0] += boost
    return col


def make_tone(freq_hz, sample_rate_hz, duration_s, amplitude=1.0, phase=0.0):
    t = np.arange(int(round(duration_s * sample_rate_hz))) / sample_rate_hz
    return amplitude * np.cos(2.0 * np.pi * freq_hz * t + phase)


def overlap_save_call(taps):
    """Outputs of one overlap-save FFT call of a taps-long band-pass."""
    return 2 * _PAIRS_PER_CALL * (_block_length(taps) - (taps - 1))


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def resident_bytes():
    """This process's resident memory, which counts memory maps and other
    buffers that tracemalloc does not see (Linux /proc only)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


needs_pipes = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


@contextlib.contextmanager
def fed_pipe(path, data, piece=None):
    """A named pipe at path that a thread writes data into, in pieces of
    `piece` bytes if given, and that is joined on leaving."""
    os.mkfifo(path)
    piece = piece or len(data)

    def write_in_pieces():
        with open(path, "wb", buffering=0) as fh:
            for start in range(0, len(data), piece):
                fh.write(data[start:start + piece])

    writer = threading.Thread(target=write_in_pieces, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()


# Track files that fail before any row is parsed, with the message each
# gives: a JSON track as earlier versions wrote it (CSV is the only track
# format now), and a byte that is not UTF-8, with and without the UTF-8
# byte-order mark that read_track drops.
UNDECODABLE_TRACKS = {
    "legacy.json": (b'[\n {\n  "frame_index": 0,\n  "time_s": 0.5,\n  "freq_hz": 60.01\n },\n'
                    b' {\n  "frame_index": 1,\n  "time_s": 1.5,\n  "freq_hz": null\n }\n]\n',
                    "line 1: expected header 'frame_index,time_s,freq_hz'"),
    "latin1.csv": (b"frame_index,time_s,freq_hz\n0,0.0,60.0\xff\n", "not UTF-8"),
    "bom-latin1.csv": (b"\xef\xbb\xbfframe_index,time_s,freq_hz\n0,0.0,60.0\xff\n",
                       "not UTF-8"),
}


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def pd_cov(rng):
    return random_pd_toeplitz(rng, 11)
