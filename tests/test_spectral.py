import numpy as np
import pytest

from conftest import make_tone
from enfcapon.pipeline import estimate_frames
from enfcapon.spectral import band_bins, band_peak, stft_band_power
from enfcapon.windowing import make_window


def full_periodogram(frame, pad_factor):
    grid = pad_factor * frame.size
    power, _ = stft_band_power(frame[None, :], np.arange(grid), grid)
    return power[0]


def band_peak_of(values, band, rate, interpolate=False):
    """Peak of a full-grid spectrum through the band tail, in Hz."""
    bins = band_bins(band, values.size, rate)
    freq, refined = band_peak(values[bins][None, :], bins, values.size, rate, interpolate)
    return freq[0], refined[0]


def refine_at(values, q_max, rate):
    """Refinement around q_max: search bin q_max only, plus neighbours."""
    bins = np.arange(q_max - 1, q_max + 2)
    freq, refined = band_peak(values[bins][None, :], bins, values.size, rate)
    return freq[0], refined[0]


class TestPeriodogram:
    def test_impulse_flat_spectrum(self):
        frame = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(full_periodogram(frame, 1), 0.25)

    def test_bin_cosine_peaks(self):
        n, q0 = 64, 5
        frame = np.cos(2 * np.pi * q0 * np.arange(n) / n)
        values = full_periodogram(frame, 1)
        peaks = set(np.flatnonzero(values > 0.5 * values.max()))
        assert peaks == {q0, n - q0}

    def test_white_noise_level(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(0.0, 1.0, (100, 441))
        power, valid = stft_band_power(frames, np.arange(441), 441)
        assert np.all(valid)
        assert power.mean() == pytest.approx(1.0, rel=0.2)

    def test_empty_frame(self):
        with pytest.raises(ValueError):
            stft_band_power(np.empty((1, 0)), np.arange(4), 4)

    def test_parseval(self, rng):
        frame = rng.normal(size=256)
        values = full_periodogram(frame, 1)
        power = np.mean(frame**2)
        assert values.sum() * (1.0 / values.size) == pytest.approx(power, rel=0.01)


class TestPeakSearch:
    def test_single_peak(self):
        values = np.ones(64)
        values[10] = 5.0
        assert band_peak_of(values, (5.0, 20.0), 64.0)[0] == 10.0

    def test_tie_takes_lower_bin(self):
        values = np.ones(64)
        values[10] = values[14] = 5.0
        assert band_peak_of(values, (5.0, 20.0), 64.0)[0] == 10.0

    def test_band_restriction(self):
        values = np.ones(64)
        values[3] = 50.0   # outside band
        values[12] = 5.0   # inside band
        assert band_peak_of(values, (10.0, 20.0), 64.0)[0] == 12.0

    def test_band_errors(self):
        with pytest.raises(ValueError):
            band_bins((40.0, 50.0), 64, 64.0)  # beyond Nyquist
        with pytest.raises(ValueError):
            band_bins((10.0, 10.5), 64, 64.0)  # fewer than 3 grid points


class TestRefineQuadratic:
    def test_symmetric_neighbors_give_bin_frequency(self):
        values = np.ones(64)
        values[9] = values[11] = np.e
        values[10] = np.e**2
        freq, refined = refine_at(values, 10, 64.0)
        assert refined
        assert freq == pytest.approx(10.0)

    def test_planted_parabola_vertex(self):
        # log spectrum is an exact parabola with vertex 0.3 bins above
        # bin 20; the three-point fit must recover it exactly.
        grid = np.arange(64, dtype=float)
        log_values = -0.7 * (grid - 20.3) ** 2 + 1.5
        freq, _ = band_peak_of(np.exp(log_values), (15.0, 25.0), 64.0, interpolate=True)
        assert freq == pytest.approx(20.3, abs=1e-6)

    def test_zero_power_falls_back(self):
        values = np.ones(64)
        values[9] = 0.0
        values[10] = 2.0
        freq, refined = refine_at(values, 10, 64.0)
        assert not refined
        assert freq == pytest.approx(10.0)

    def test_flat_top_gives_zero_offset(self):
        values = np.full(64, 2.0)
        freq, _ = band_peak_of(values, (10.0, 20.0), 64.0, interpolate=True)
        assert freq == pytest.approx(10.0)

    def test_boundary_bin_falls_back(self):
        values = np.ones(64)
        assert not refine_at(values, 0, 64.0)[1]
        assert not refine_at(values, 31, 64.0)[1]


def test_refinement_beats_raw_bin_for_off_bin_tones():
    rng = np.random.default_rng(99)
    window = make_window("parzen", 441)
    band = (177.0, 183.0)
    f_true = rng.uniform(178.0, 182.0, 100)
    frames = np.stack([make_tone(f, 441, 1.0) * window.taps for f in f_true])
    grid = 4 * 441
    bins = band_bins(band, grid, 441.0)
    power, _ = stft_band_power(frames, bins, grid)
    refined, _ = band_peak(power, bins, grid, 441.0)
    raw, _ = band_peak(power, bins, grid, 441.0, interpolate=False)
    wins = np.count_nonzero(np.abs(refined - f_true) < np.abs(raw - f_true))
    assert wins >= 95


def test_estimate_frame_stft_pure_tone():
    frame = make_tone(180.05, 441, 1.0) * make_window("parzen", 441).taps
    est = estimate_frames(frame[None, :], 441.0, (177.0, 183.0), estimator="stft")
    assert est[0] == pytest.approx(180.05, abs=0.02)
