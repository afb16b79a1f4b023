import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from enfcapon.windowing import WINDOW_KINDS, make_window


def parzen_scalar(n, n_points):
    """Direct scalar evaluation of the Parzen taper (test oracle)."""
    a = abs(n) / (n_points / 2.0)
    if abs(n) <= (n_points - 1) / 4.0:
        return 1.0 - 6.0 * a**2 + 6.0 * a**3
    return 2.0 * (1.0 - a) ** 3


def test_parzen_center_tap_is_one():
    for n_points in (1, 9, 441):
        taps = make_window("parzen", n_points)
        assert taps[(n_points - 1) // 2] == 1.0


def test_rectangular_all_ones():
    for n_points in (1, 5, 441):
        assert np.all(make_window("rect", n_points) == 1.0)


def test_parzen_n9_against_scalar_oracle():
    taps = make_window("parzen", 9)
    expected = [parzen_scalar(n, 9) for n in range(-4, 5)]
    np.testing.assert_allclose(taps, expected, rtol=0, atol=1e-15)
    # spot value from the outer branch: n = +-4 gives 2*(1 - 4/4.5)**3
    assert taps[0] == pytest.approx(2.0 * (1.0 - 4.0 / 4.5) ** 3, abs=1e-15)


def test_parzen_branches_nearly_continuous():
    # The two branch polynomials meet at |n| = (N-1)/4 up to a 1/N^3
    # gap; beyond N = 1000 that is below 1e-9.
    for n_points in (1024, 2001, 4097, 10000):
        boundary = (n_points - 1) / 4.0
        a = boundary / (n_points / 2.0)
        inner = 1.0 - 6.0 * a**2 + 6.0 * a**3
        outer = 2.0 * (1.0 - a) ** 3
        assert abs(inner - outer) < 1e-9


def test_parzen_nonnegative_and_monotone_sweep():
    for n_points in range(1, 10001, 7):
        taps = make_window("parzen", n_points)
        assert np.all(taps >= 0.0)
        half = taps[(n_points - 1) // 2 :]
        assert np.all(np.diff(half) <= 1e-15)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(WINDOW_KINDS),
    n_points=st.integers(min_value=1, max_value=1000),
)
def test_symmetry_every_kind(kind, n_points):
    taps = make_window(kind, n_points)
    assert np.max(np.abs(taps - taps[::-1])) < 1e-12
    assert np.all(taps <= 1.0 + 1e-12)
    assert np.all(taps >= 0.0)


def test_kaiser_default_beta():
    np.testing.assert_array_equal(make_window("kaiser", 32), np.kaiser(32, 8.6))


@pytest.mark.parametrize("n_points", [2, 3, 9, 441, 8820, 17640])
def test_hamming_and_kaiser_match_closed_forms(n_points):
    k = np.arange(n_points)
    hamming = 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n_points - 1))
    np.testing.assert_allclose(make_window("hamming", n_points), hamming, rtol=0, atol=1e-15)
    np.testing.assert_allclose(make_window("kaiser", n_points), np.kaiser(n_points, 8.6),
                               rtol=0, atol=1e-15)


SCIPY_LENGTHS = [*range(1, 3001), 4410, 8820, 17640]


def test_parzen_and_rect_bit_identical_to_scipy():
    for n_points in SCIPY_LENGTHS:
        for kind, scipy_kind in (("parzen", "parzen"), ("rect", "boxcar")):
            np.testing.assert_array_equal(make_window(kind, n_points),
                                          get_window(scipy_kind, n_points, fftbins=False))


def test_hamming_and_kaiser_match_scipy():
    for n_points in SCIPY_LENGTHS:
        for kind, scipy_kind in (("hamming", "hamming"), ("kaiser", ("kaiser", 8.6))):
            np.testing.assert_allclose(make_window(kind, n_points),
                                       get_window(scipy_kind, n_points, fftbins=False),
                                       rtol=0, atol=1e-15)
