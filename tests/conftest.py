import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def pd_cov(rng):
    return random_pd_toeplitz(rng, 11)
