import numpy as np
import pytest

from conftest import make_tone, traced_peak
from enfcapon.errors import IncompatibleInputError
from enfcapon.pipeline import estimate_frames, power_config
from enfcapon.signal_io import BLOCK_SAMPLES
from enfcapon.spectral import _fast_length, band_bins, band_edges, band_peak, stft_band_power
from enfcapon.windowing import make_window
from oracle import full_grid_in_band


def full_periodogram(frame, pad_factor):
    grid = pad_factor * frame.size
    power, _ = stft_band_power(frame[None, :], np.arange(grid), grid)
    return power[0]


def band_peak_of(values, band, rate):
    """Peak of a full-grid spectrum through the band tail, in Hz."""
    bins = band_bins(band, values.size, rate)
    freq, refined = band_peak(values[bins][None, :], bins, values.size, rate)
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

    def test_parseval(self, rng):
        frame = rng.normal(size=256)
        values = full_periodogram(frame, 1)
        power = np.mean(frame**2)
        assert values.sum() * (1.0 / values.size) == pytest.approx(power, rel=0.01)

    @pytest.mark.parametrize("n, pad_factor", [(441, 4), (882, 16), (8820, 64)])
    def test_band_matches_zero_padded_fft(self, rng, n, pad_factor):
        grid = pad_factor * n
        bins = band_bins(power_config().estimation_band, grid, 441.0)
        frames = make_tone(180.02, 441.0, n / 441.0) * make_window("parzen", n)
        frames = frames + rng.normal(0.0, 0.5, (3, n))
        power, _ = stft_band_power(frames, bins, grid)
        expected = np.abs(np.fft.fft(frames, grid)[:, bins]) ** 2 / n
        scale = expected.max(axis=-1, keepdims=True)
        assert np.all(np.abs(power - expected) <= 1e-10 * scale)


    @pytest.mark.parametrize("n, pad_factor, first, size", [
        (1, 1, 0, 1), (1, 64, 0, 1), (1, 64, 0, 64), (2, 1, 1, 1), (441, 4, 0, 1),
        (441, 4, 0, 1764), (441, 4, 1763, 1), (2500, 1, 0, 2500), (47, 64, 5, 3000),
    ])
    def test_band_edge_cases_match_fft(self, rng, n, pad_factor, first, size):
        grid = pad_factor * n
        self.assert_band_matches_fft(rng.normal(size=(2, n)), np.arange(first, first + size),
                                     grid)

    def test_random_bands_match_fft(self):
        # Any frame length, pad factor and contiguous run of bins on the grid.
        rng = np.random.default_rng(21)
        for _ in range(300):
            n, pad_factor = int(rng.integers(1, 2501)), int(rng.integers(1, 65))
            grid = pad_factor * n
            size = int(rng.integers(1, min(grid, 3000) + 1))
            first = int(rng.integers(0, grid - size + 1))
            frames = rng.normal(size=(int(rng.integers(1, 4)), n))
            self.assert_band_matches_fft(frames, np.arange(first, first + size), grid)

    @pytest.mark.parametrize("frame_len_s", [1.0, 20.0])
    def test_one_estimate_block_holds_one_complex_buffer(self, rng, frame_len_s):
        # BLOCK_SAMPLES // N frames, twice the rows estimate windows at a
        # time, are transformed in one zero-padded (rows, L) complex buffer,
        # which the power rows join.  The rest (chirps, kernel, the power's
        # temporaries) measured 0.29 MB at 1 s and 0.60 MB at 20 s; the
        # margin is 1 MB.  A second complex copy of the frames, or of the
        # buffer, would not fit.
        config = power_config(estimator="stft", frame_len_s=frame_len_s)
        n, bins = config.frame_samples[0], config.search_bins
        frames = rng.normal(size=(BLOCK_SAMPLES // n, n)) * make_window("parzen", n)
        length = _fast_length(n + bins.size - 1)
        bound = (16 * length + 8 * bins.size) * len(frames) + (1 << 20)
        (power, valid), peak = traced_peak(lambda: stft_band_power(frames, bins,
                                                                   config.grid_size))
        assert power.shape == (len(frames), bins.size) and valid.all()
        assert peak <= bound

    @staticmethod
    def assert_band_matches_fft(frames, bins, grid):
        power, _ = stft_band_power(frames, bins, grid)
        expected = np.abs(np.fft.fft(frames, grid)[:, bins]) ** 2 / frames.shape[-1]
        scale = expected.max(axis=-1, keepdims=True)
        assert np.all(np.abs(power - expected) <= 1e-12 * scale)


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

    @pytest.mark.parametrize("rate", [64.0, 441.0, 1000.0 / 3])
    def test_band_edges_match_the_full_grid(self, rate):
        rng = np.random.default_rng(17)
        for _ in range(500):
            grid_size = int(rng.integers(8, 4000))
            step = rate / grid_size
            # Edges anywhere, on grid points, or one ulp to either side of them.
            edges = rng.uniform(0.0, rate / 2, 2)
            if rng.random() < 0.7:
                edges = rng.integers(1, grid_size // 2, 2) * step
                edges = np.nextafter(edges, edges + rng.integers(-1, 2, 2))
            band = tuple(float(f) for f in np.sort(edges))
            if not 0.0 < band[0] < band[1] < rate / 2:
                continue
            in_band = full_grid_in_band(grid_size, rate, band)
            if in_band.size < 3:
                with pytest.raises(IncompatibleInputError):
                    band_edges(band, grid_size, rate)
            else:
                assert band_edges(band, grid_size, rate) == (in_band[0], in_band[-1])


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
        freq, _ = band_peak_of(np.exp(log_values), (15.0, 25.0), 64.0)
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
        freq, _ = band_peak_of(values, (10.0, 20.0), 64.0)
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
    frames = np.stack([make_tone(f, 441, 1.0) * window for f in f_true])
    grid = 4 * 441
    bins = band_bins(band, grid, 441.0)
    power, _ = stft_band_power(frames, bins, grid)
    refined, _ = band_peak(power, bins, grid, 441.0)
    raw = bins[1 + np.argmax(power[:, 1:-1], axis=-1)] * 441.0 / grid
    wins = np.count_nonzero(np.abs(refined - f_true) < np.abs(raw - f_true))
    assert wins >= 95


def test_estimate_frame_stft_pure_tone():
    frame = make_tone(180.05, 441, 1.0) * make_window("parzen", 441)
    est = estimate_frames(frame[None, :], power_config(estimator="stft"))
    assert est[0] == pytest.approx(180.05, abs=0.02)
