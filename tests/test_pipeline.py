import time
import tracemalloc

import numpy as np
import pytest

from conftest import make_tone
from enfcapon.errors import DegenerateInputError, IncompatibleInputError
from enfcapon.pipeline import (PipelineConfig, estimate, extract_enf, power_config,
                               speech_config)
from enfcapon.signal_io import SampledSignal
from enfcapon.spectral import band_bins
from enfcapon.synthetic import make_power_fixture
from enfcapon.track import read_track, write_track
from oracle import per_frame_track


def tone_signal(freq_hz, duration_s=60.0, rate=441.0):
    return SampledSignal(make_tone(freq_hz, rate, duration_s), rate)


class TestConfig:
    def test_presets(self):
        power = power_config()
        assert (power.harmonic, power.taps) == (3, 1001)
        speech = speech_config()
        assert (speech.harmonic, speech.taps) == (2, 4801)

    def test_band_feasibility_check(self):
        with pytest.raises(ValueError):
            PipelineConfig(nominal_hz=60.0, harmonic=4)  # 240 > 220.5

    def test_bad_estimator(self):
        with pytest.raises(ValueError):
            PipelineConfig(estimator="welch")

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window must be one of"):
            PipelineConfig(window="hann")

    def test_capon_order_bounded(self):
        assert power_config(capon_order=64).capon_order == 64
        with pytest.raises(ValueError, match="capon order must be at most 64"):
            power_config(capon_order=65)

    @pytest.mark.parametrize("overrides", [
        {"estimator": "stft", "frame_len_s": 0.05},  # 22-sample frames, 88-point grid
        {"taps": 10**9 + 1},                           # band narrower than a grid step
    ])
    def test_band_without_three_grid_points_rejected(self, overrides):
        with pytest.raises(IncompatibleInputError, match="fewer than 3 grid points"):
            power_config(**overrides)

    def test_search_layout(self):
        config = power_config()
        assert config.grid_size == 4 * 441
        f_lo, f_hi = config.estimation_band
        assert 177.0 < f_lo < 177.1 and 182.9 < f_hi < 183.0
        bins = config.search_bins
        np.testing.assert_array_equal(bins, band_bins((f_lo, f_hi), 1764, 441.0))
        freqs = bins * 441.0 / 1764
        assert freqs[0] < f_lo <= freqs[1] and freqs[-2] <= f_hi < freqs[-1]

    def test_long_frames_checked_without_forming_the_grid(self):
        # The 6,350,400-point grid of one-hour frames is never formed.
        tracemalloc.start()
        try:
            config = power_config(frame_len_s=3600.0, pad_factor=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert config.grid_size == 6_350_400
        assert peak <= 100_000

    @pytest.mark.parametrize("overrides", [
        {"frame_len_s": 0.01},                     # 4 samples < capon order + 1
        {"frame_len_s": 0.0},
        {"shift_s": -1.0},
        {"frame_len_s": float("nan")},
        {"taps": 1000},
        {"passband_hz": 0.0},
        {"passband_hz": 400.0},
        {"shift_s": float("inf")},                 # sample count overflows
        {"capon_order": 0},
        {"pad_factor": 0},
        {"pad_factor": 65},                        # would build a huge grid
    ])
    def test_rejects_unusable_settings(self, overrides):
        with pytest.raises(ValueError):
            power_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"estimator": "welch"},
        {"window": "rectangular"},                 # the spelling is "rect"
        {"harmonic": 0},
        {"harmonic": 10**400},                     # beyond float range
        {"taps": 10**400 + 1},
        {"passband_hz": 400.0},
        {"taps": 1002},
        {"shift_s": float("nan")},
        {"capon_order": 0},
        {"capon_order": 65},
        {"pad_factor": 65},
        {"frame_len_s": 1e306},
        {"frame_len_s": 0.0},
        {"frame_len_s": 0.01},
        {"estimator": "stft", "frame_len_s": 0.05},
    ])
    def test_every_rejection_is_incompatible_input(self, overrides):
        with pytest.raises(IncompatibleInputError):
            power_config(**overrides)
        with pytest.raises(IncompatibleInputError):
            speech_config(**overrides)

    def test_presets_build_the_config_once(self, monkeypatch):
        built = []
        check = PipelineConfig.__post_init__
        monkeypatch.setattr(PipelineConfig, "__post_init__",
                            lambda self: built.append(self) or check(self))
        speech = speech_config(taps=801)
        assert (speech.harmonic, speech.taps) == (2, 801)
        assert power_config(window="rect").window == "rect"
        assert len(built) == 2

    def test_short_frames_allowed_for_stft(self):
        config = power_config(frame_len_s=0.02, estimator="stft", pad_factor=64)
        assert config.frame_samples[0] <= power_config().capon_order
        with pytest.raises(ValueError, match="shorter than capon order"):
            power_config(frame_len_s=0.02, pad_factor=64)


class TestExtract:
    def test_constant_tone_maps_to_fundamental(self):
        track = extract_enf(tone_signal(180.0), power_config())
        assert np.all(track.valid)
        assert np.all(np.abs(track.freq_hz - 60.0) < 0.01)

    def test_harmonic_one_matches_frame_estimator(self):
        config = PipelineConfig(harmonic=1, taps=501, estimator="stft")
        signal = tone_signal(60.02)
        track = extract_enf(signal, config)
        assert np.all(track.valid)
        np.testing.assert_allclose(
            track.freq_hz, per_frame_track(signal, config), rtol=0.0, atol=1e-9
        )

    def test_zero_frames_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            extract_enf(tone_signal(180.0, duration_s=3.0), power_config())

    def test_one_frame_after_filter_trim(self):
        # The 1001-tap filter keeps len - 1000 samples: exactly one frame.
        samples = np.cos(2.0 * np.pi * 180.0 / 441.0 * np.arange(1000 + 441))
        track = extract_enf(SampledSignal(samples, 441.0), power_config())
        assert len(track) == 1
        assert track.time_s[0] == 500 / 441.0
        assert track.shift_s is None
        with pytest.raises(DegenerateInputError, match="shorter than one 441-sample frame"):
            extract_enf(SampledSignal(samples[:-1], 441.0), power_config())

    @pytest.mark.parametrize("n_samples, shift_s, expected", [
        (10 * 441, 1.0, 1.0),
        (10 * 441, 0.5, 220 / 441),  # 220.5 samples round to 220
        (1000 + 441, 1.0, None),     # one frame after the filter trim
    ])
    def test_shift_survives_the_csv_round_trip(self, tmp_path, n_samples, shift_s, expected):
        samples = np.cos(2.0 * np.pi * 180.0 / 441.0 * np.arange(n_samples))
        track = extract_enf(SampledSignal(samples, 441.0), power_config(shift_s=shift_s))
        path = tmp_path / "track.csv"
        write_track(track, path)
        assert read_track(path).shift_s == track.shift_s
        if expected is None:
            assert track.shift_s is None
        else:
            assert track.shift_s == pytest.approx(expected, abs=1e-12)

    def test_non_integer_rate_ratio_rejected(self):
        signal = SampledSignal(np.ones(1000), 1000.0)
        with pytest.raises(IncompatibleInputError):
            extract_enf(signal, power_config())

    def test_near_multiple_rate_rejected(self):
        signal = SampledSignal(np.ones(5000), 882.0 * (1.0 + 1e-13))
        with pytest.raises(IncompatibleInputError, match="not an integer multiple"):
            extract_enf(signal, power_config())

    def test_estimate_rejects_other_rates(self):
        signal = SampledSignal(make_tone(180.0, 44100, 5.0), 44100.0)
        with pytest.raises(IncompatibleInputError, match="working rate 441 Hz"):
            estimate(signal, power_config())

    def test_signal_exactly_taps_long_is_degenerate(self):
        signal = SampledSignal(np.ones(1001), 441.0)
        with pytest.raises(DegenerateInputError):
            extract_enf(signal, power_config())

    def test_too_short_rejected_before_decimating(self):
        # At 44.1 MHz, decimate would first design a 1,000,001-tap filter.
        signal = SampledSignal(np.zeros(1_000_010), 44.1e6)
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateInputError, match="11 samples at the working rate"):
                extract_enf(signal, power_config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_band_too_narrow_for_grid_rejected(self):
        # 0.01 s STFT frames give a 16-point grid with no bin in the band
        with pytest.raises(IncompatibleInputError):
            extract_enf(tone_signal(180.0, duration_s=5.0),
                        power_config(estimator="stft", frame_len_s=0.01))

    @pytest.mark.parametrize("estimator", ["capon", "stft"])
    def test_silent_frames_are_missing(self, estimator):
        signal = SampledSignal(np.zeros(10 * 441), 441.0)
        track = extract_enf(signal, power_config(estimator=estimator))
        assert len(track) > 0
        assert not np.any(track.valid)

    @pytest.mark.parametrize("rate", [441.0, 4410.0])
    def test_frames_inside_digital_silence_are_missing(self, rate):
        samples = make_tone(180.0, rate, 60.0)
        samples[int(20 * rate) : int(40 * rate)] = 0.0
        track = extract_enf(SampledSignal(samples, rate), power_config())
        # Frame k reads input seconds [k, k + 1 + 1000/441) at most.
        assert not np.any(track.valid[21:37])
        assert np.all(track.valid[:17]) and np.all(track.valid[41:])

    def test_decimation_path(self):
        high = SampledSignal(make_tone(180.0, 4410, 30.0), 4410.0)
        track = extract_enf(high, power_config())
        assert np.all(np.abs(track.freq_hz[track.valid] - 60.0) < 0.01)

    def test_timestamps_account_for_filter_delay(self):
        track = extract_enf(tone_signal(180.0), power_config())
        assert track.time_s[0] == pytest.approx(500 / 441.0)
        assert np.all(np.diff(track.time_s) == pytest.approx(1.0))

    def test_determinism_bit_identical(self):
        fixture = make_power_fixture(3, duration_s=60.0)
        a = extract_enf(fixture.signal, power_config())
        b = extract_enf(fixture.signal, power_config())
        np.testing.assert_array_equal(a.freq_hz, b.freq_hz)


def silent_frame_count(duration_samples, **overrides):
    """Rows of extract_enf on silence that the 1001-tap filter trims to
    duration_samples."""
    signal = SampledSignal(np.zeros(duration_samples + 1000), 441.0)
    return len(extract_enf(signal, power_config(estimator="stft", **overrides)))


class TestFrameLayout:
    def test_thirty_minutes_one_second_frames(self):
        assert power_config(frame_len_s=1.0, shift_s=1.0).frame_samples == (441, 441)
        assert silent_frame_count(1800 * 441) == 1800

    def test_exact_single_frame(self):
        assert silent_frame_count(441) == 1

    def test_short_signal_gives_zero_frames(self):
        # No whole frame fits after the filter trim.
        with pytest.raises(DegenerateInputError, match="shorter than one 441-sample frame"):
            silent_frame_count(440)

    def test_twenty_second_frames(self):
        # 30-minute signal, L = 20 s, 1 s shift:
        # floor((793800 - 8820)/441) + 1 = 1781
        assert power_config(frame_len_s=20.0, shift_s=1.0).frame_samples == (8820, 441)
        assert silent_frame_count(793800, frame_len_s=20.0) == 1781

    def test_non_integer_layout_rounds_at_working_rate(self):
        # 1.5 * 441 = 661.5 rounds half to even; 0.7 * 441 = 308.7
        assert power_config(frame_len_s=1.5, shift_s=0.7).frame_samples == (662, 309)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="at least 1 sample"):
            power_config(frame_len_s=0.0)
        with pytest.raises(ValueError, match="at least 1 sample"):
            power_config(shift_s=-1.0)

    def test_count_never_exceeds_signal_len(self, rng):
        layout = {"frame_len_s": 0.05, "shift_s": 0.01, "pad_factor": 64}
        frame_len, shift = power_config(**layout).frame_samples
        assert (frame_len, shift) == (22, 4)
        for _ in range(50):
            n = int(rng.integers(frame_len, 5000))
            count = silent_frame_count(n, **layout)
            assert count == (n - frame_len) // shift + 1
            assert count <= n


class TestToFundamental:
    def test_division(self):
        track = extract_enf(tone_signal(180.03), power_config())
        assert np.all(np.abs(track.freq_hz - 60.01) < 0.01)


def test_runtime_scales_linearly():
    config = power_config(estimator="capon")
    durations = [60.0, 120.0, 240.0]
    per_second = []
    for duration in durations:
        fixture = make_power_fixture(9, duration_s=duration)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            extract_enf(fixture.signal, config)
            best = min(best, time.perf_counter() - t0)
        per_second.append(best / duration)
    # fixed per-call overhead inflates the shortest run; allow slack
    assert max(per_second) / min(per_second) < 2.5
