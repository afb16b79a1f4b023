import numpy as np
import pytest

from conftest import make_tone
from enfcapon.bandpass import apply_zero_phase, design_bandpass
from enfcapon.signal_io import SampledSignal
from oracle import apply_zero_phase_full


def response_by_summation(coeffs, freq_hz, sample_rate_hz):
    """Independent frequency-response oracle."""
    k = np.arange(len(coeffs))
    return sum(coeffs * np.exp(-2j * np.pi * freq_hz * k / sample_rate_hz))


@pytest.fixture(scope="module")
def power_filter():
    return design_bandpass(441.0, 180.0, 0.1, 1001)


class TestDesign:
    def test_unit_gain_at_center(self, power_filter):
        gain = abs(response_by_summation(power_filter.coeffs, 180.0, 441.0))
        assert 0.9 <= gain <= 1.1

    def test_dc_rejection(self, power_filter):
        assert abs(response_by_summation(power_filter.coeffs, 0.0, 441.0)) <= 0.01

    def test_three_tap_wide_band_symmetric(self):
        flt = design_bandpass(441.0, 110.0, 100.0, 3)
        assert np.max(np.abs(flt.coeffs - flt.coeffs[::-1])) < 1e-12

    def test_symmetric_coeffs(self, power_filter):
        c = power_filter.coeffs
        assert np.max(np.abs(c - c[::-1])) < 1e-12

    def test_rejects_even_taps(self):
        with pytest.raises(ValueError):
            design_bandpass(441.0, 180.0, 0.1, 1000)

    def test_rejects_band_outside_nyquist(self):
        with pytest.raises(ValueError):
            design_bandpass(441.0, 220.5, 0.1, 101)
        with pytest.raises(ValueError):
            design_bandpass(441.0, 0.04, 0.1, 101)


class TestApplyZeroPhase:
    def test_in_band_tone_zero_phase(self, power_filter):
        signal = SampledSignal(make_tone(180.0, 441, 30.0), 441.0)
        out = apply_zero_phase(power_filter, signal)
        delay = power_filter.delay_samples
        aligned_input = signal.samples[delay : delay + len(out)]
        # amplitude preserved within design ripple
        assert np.std(out.samples) == pytest.approx(np.std(aligned_input), rel=0.02)
        # cross-correlation peaks at lag 0 exactly
        lags = np.arange(-5, 6)
        xcorr = [
            np.dot(out.samples[5:-5], aligned_input[5 + lag : len(out) - 5 + lag])
            for lag in lags
        ]
        assert lags[int(np.argmax(xcorr))] == 0

    def test_out_of_band_tone_rejected(self, power_filter):
        signal = SampledSignal(make_tone(160.0, 441, 30.0), 441.0)
        out = apply_zero_phase(power_filter, signal)
        assert np.sqrt(np.mean(out.samples**2)) <= 0.01 * np.sqrt(
            np.mean(signal.samples**2)
        )

    def test_impulse_yields_coefficients(self):
        flt = design_bandpass(441.0, 180.0, 10.0, 101)
        samples = np.zeros(501)
        position = 250
        samples[position] = 1.0
        out = apply_zero_phase(flt, SampledSignal(samples, 441.0))
        start = position - len(flt) + 1
        np.testing.assert_allclose(
            out.samples[start : start + len(flt)], flt.coeffs, atol=1e-15
        )

    def test_offset_accounting(self, power_filter):
        signal = SampledSignal(make_tone(180.0, 441, 10.0), 441.0, origin_offset_s=2.0)
        out = apply_zero_phase(power_filter, signal)
        assert out.origin_offset_s == pytest.approx(2.0 + 500 / 441.0)
        assert len(out) == len(signal) - len(power_filter) + 1

    def test_linearity(self, rng):
        flt = design_bandpass(441.0, 180.0, 1.0, 201)
        x = SampledSignal(rng.normal(size=1000), 441.0)
        y = SampledSignal(rng.normal(size=1000), 441.0)
        combo = SampledSignal(2.5 * x.samples - 1.5 * y.samples, 441.0)
        lhs = apply_zero_phase(flt, combo).samples
        rhs = (
            2.5 * apply_zero_phase(flt, x).samples
            - 1.5 * apply_zero_phase(flt, y).samples
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("taps", [1001, 4801])
    def test_matches_full_fft_convolution(self, rng, taps):
        flt = design_bandpass(441.0, 180.0, 0.1, taps)
        samples = make_tone(180.01, 441, 1800.0) + rng.normal(0.0, 0.5, 1800 * 441)
        signal = SampledSignal(samples, 441.0, origin_offset_s=1.5)
        out = apply_zero_phase(flt, signal)
        expected = apply_zero_phase_full(flt, signal)
        assert len(out) == len(expected)
        assert out.origin_offset_s == expected.origin_offset_s
        assert np.max(np.abs(out.samples - expected.samples)) <= 1e-12

    def test_silent_stretch_filters_to_exact_zero(self, power_filter):
        samples = make_tone(180.0, 441, 30.0)
        samples[5000:8000] = 0.0
        out = apply_zero_phase(power_filter, SampledSignal(samples, 441.0))
        # Output i reads input samples i .. i + 1000.
        assert np.all(out.samples[5000:7000] == 0.0)
        assert np.all(out.samples[4000:5000] != 0.0)
        assert np.all(out.samples[7000:8000] != 0.0)

    def test_signal_shorter_than_filter(self):
        flt = design_bandpass(441.0, 180.0, 0.1, 1001)
        with pytest.raises(ValueError):
            apply_zero_phase(flt, SampledSignal(np.ones(500), 441.0))
