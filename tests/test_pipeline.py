import time

import numpy as np
import pytest

from conftest import make_tone
from enfcapon.errors import DegenerateInputError, IncompatibleInputError
from enfcapon.pipeline import PipelineConfig, extract_enf, power_config, speech_config
from enfcapon.signal_io import SampledSignal
from enfcapon.synthetic import make_power_fixture
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

    @pytest.mark.parametrize("overrides", [
        {"frame_len_s": 0.01},                     # 4 samples < capon order + 1
        {"frame_len_s": 0.0},
        {"shift_s": -1.0},
        {"frame_len_s": float("nan")},
        {"taps": 1000},
        {"passband_hz": 0.0},
        {"passband_hz": 400.0},
        {"window": "kaiser", "kaiser_beta": -1.0},
        {"capon_order": 0},
        {"pad_factor": 0},
        {"pad_factor": 65},                        # would build a huge grid
    ])
    def test_rejects_unusable_settings(self, overrides):
        with pytest.raises(ValueError):
            power_config(**overrides)

    def test_short_frames_allowed_for_stft(self):
        assert power_config(frame_len_s=0.01, estimator="stft").frame_len_s == 0.01


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
        assert (track.frame_len_s, track.shift_s) == (1.0, 1.0)
        with pytest.raises(DegenerateInputError, match="shorter than one 441-sample frame"):
            extract_enf(SampledSignal(samples[:-1], 441.0), power_config())

    def test_non_integer_rate_ratio_rejected(self):
        signal = SampledSignal(np.ones(1000), 1000.0)
        with pytest.raises(IncompatibleInputError):
            extract_enf(signal, power_config())

    def test_signal_exactly_taps_long_is_degenerate(self):
        signal = SampledSignal(np.ones(1001), 441.0)
        with pytest.raises(DegenerateInputError):
            extract_enf(signal, power_config())

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
