import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.signal import firwin

from conftest import make_tone
from enfcapon.errors import (
    DegenerateInputError,
    EnfError,
    UnsupportedFormatError,
)
from enfcapon.signal_io import (
    _BLOCK_ROWS,
    SampledSignal,
    anti_alias_filter,
    decimate,
    read_wav,
    write_wav,
)
from oracle import decimate_full_rate


def write_raw_wav(path, pcm, n_channels=1, sampwidth=2, rate=44100):
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(n_channels)
        writer.setsampwidth(sampwidth)
        writer.setframerate(rate)
        writer.writeframes(pcm)


class TestReadWav:
    def test_header_round_trip(self, tmp_path, rng):
        path = tmp_path / "mono.wav"
        signal = SampledSignal(rng.uniform(-0.5, 0.5, 44100), 44100.0)
        write_wav(signal, path)
        loaded = read_wav(path)
        assert len(loaded) == 44100
        assert loaded.sample_rate_hz == 44100.0
        assert np.allclose(loaded.samples, signal.samples, atol=1.0 / 32768)

    def test_full_scale_normalization(self, tmp_path):
        path = tmp_path / "fs.wav"
        pcm = np.full(100, 32767, dtype="<i2").tobytes()
        write_raw_wav(path, pcm)
        loaded = read_wav(path)
        assert np.all(np.abs(loaded.samples - 32767.0 / 32768.0) < 1e-9)

    def test_stereo_opposite_channels_cancel(self, tmp_path, rng):
        path = tmp_path / "stereo.wav"
        left = (rng.uniform(-1, 1, 200) * 20000).astype("<i2")
        interleaved = np.empty(400, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = -left
        write_raw_wav(path, interleaved.tobytes(), n_channels=2)
        loaded = read_wav(path)
        assert np.all(loaded.samples == 0.0)

    def test_rejects_non_16bit(self, tmp_path):
        path = tmp_path / "8bit.wav"
        write_raw_wav(path, bytes(100), sampwidth=1)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(UnsupportedFormatError):
            read_wav(tmp_path / "nope.wav")

    @pytest.mark.parametrize("keep_bytes", [4, 30])
    def test_rejects_file_ending_inside_header(self, tmp_path, keep_bytes):
        whole = tmp_path / "whole.wav"
        write_raw_wav(whole, bytes(400))
        path = tmp_path / "cut.wav"
        path.write_bytes(whole.read_bytes()[:keep_bytes])
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_rejects_zero_rate_header(self, tmp_path):
        path = tmp_path / "rate0.wav"
        write_raw_wav(path, bytes(400))
        data = bytearray(path.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate field
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.dictionaries(st.integers(0, 43), st.integers(0, 255), min_size=1))
    @example(edits={16: 127})  # the fmt chunk's size runs past its end
    def test_any_header_bytes_read_or_raise_package_errors(self, tmp_path, edits):
        path = tmp_path / "edited.wav"
        write_raw_wav(path, np.arange(200, dtype="<i2").tobytes(), rate=441)
        data = bytearray(path.read_bytes())
        for index, value in edits.items():
            data[index] = value
        path.write_bytes(bytes(data))
        try:
            read_wav(path)
        except EnfError:
            pass

    def test_no_frames_is_degenerate(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_raw_wav(path, b"")
        with pytest.raises(DegenerateInputError):
            read_wav(path)

    def test_partial_last_frame_dropped(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_raw_wav(path, np.arange(400, dtype="<i2").tobytes(), n_channels=2)
        cut = tmp_path / "cut.wav"
        cut.write_bytes(path.read_bytes()[:-3])
        assert np.array_equal(read_wav(cut).samples, read_wav(path).samples[:-1])

    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_bit_identical_to_two_step_scaling(self, tmp_path, rng, n_channels):
        pcm = rng.integers(-32768, 32768, 3000 * n_channels).astype("<i2")
        pcm[:2] = (-32768, 32767)
        path = tmp_path / "pcm.wav"
        write_raw_wav(path, pcm.tobytes(), n_channels=n_channels)
        two_step = pcm.astype(np.float64).reshape(-1, n_channels).mean(axis=1) / 32768.0
        assert read_wav(path).samples.tobytes() == two_step.tobytes()

    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_one_float64_copy(self, tmp_path, n_channels):
        # 10 s at 44.1 kHz: a second float64 array would add 3.5 MB.
        n_frames = 441_000
        path = tmp_path / "pcm.wav"
        write_raw_wav(path, bytes(2 * n_channels * n_frames), n_channels=n_channels)
        tracemalloc.start()
        try:
            read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n_channels * n_frames + 8 * n_frames + (1 << 20)


class TestDecimate:
    def test_factor_one_is_identity(self, rng):
        signal = SampledSignal(rng.normal(size=500), 1000.0)
        out = decimate(signal, 1)
        assert out.sample_rate_hz == 1000.0
        assert np.array_equal(out.samples, signal.samples)

    def test_output_rate(self):
        signal = SampledSignal(make_tone(60, 44100, 2.0), 44100.0)
        out = decimate(signal, 100)
        assert out.sample_rate_hz == 441.0
        assert len(out) == len(signal) // 100

    def test_in_band_tone_preserved(self):
        signal = SampledSignal(make_tone(60, 44100, 2.0), 44100.0)
        out = decimate(signal, 100)
        expected = make_tone(60, 441, 2.0)[: len(out)]
        interior = slice(20, len(out) - 20)
        assert np.max(np.abs(out.samples[interior] - expected[interior])) < 0.01

    def test_cascade_agrees_with_single_stage(self):
        signal = SampledSignal(make_tone(60, 4410, 4.0), 4410.0)
        two_stage = decimate(decimate(signal, 2), 5)
        one_stage = decimate(signal, 10)
        # Common support, excluding both anti-alias filters' edge regions.
        # The two routes apply different Hamming-design low-pass chains,
        # so they agree only to the order of the filters' passband ripple.
        interior = slice(30, min(len(two_stage), len(one_stage)) - 30)
        diff = np.max(np.abs(two_stage.samples[interior] - one_stage.samples[interior]))
        assert diff < 5e-3

    def test_out_of_band_attenuation(self):
        # In-band 60 Hz plus an aliasing 400 Hz tone; after decimation to
        # 441 Hz the alias lands at 41 Hz and must be down >= 60 dB.
        in_band = make_tone(60, 44100, 4.0)
        out_band = make_tone(400, 44100, 4.0)
        out = decimate(SampledSignal(in_band + out_band, 44100.0), 100)
        interior = out.samples[50:-50]
        window = np.hanning(interior.size)
        spectrum = np.abs(np.fft.rfft(interior * window))
        freqs = np.fft.rfftfreq(interior.size, d=1.0 / 441.0)
        alias_amp = spectrum[np.argmin(np.abs(freqs - 41.0))]
        tone_amp = spectrum[np.argmin(np.abs(freqs - 60.0))]
        assert alias_amp < tone_amp * 10 ** (-60.0 / 20.0)

    @pytest.mark.parametrize("factor", [2, 3, 7, 100, 109])
    def test_anti_alias_filter_matches_scipy_firwin(self, factor):
        rate = 441.0 * factor
        expected = firwin(10 * factor + 1, 0.45 * 441.0, fs=rate, window="hamming")
        np.testing.assert_allclose(anti_alias_filter(factor, rate), expected, rtol=0, atol=1e-15)

    def test_bad_factor(self):
        signal = SampledSignal(np.ones(100), 100.0)
        with pytest.raises(ValueError):
            decimate(signal, 0)
        with pytest.raises(ValueError):
            decimate(signal, 2.5)

    def test_too_short(self):
        signal = SampledSignal(np.ones(10), 100.0)
        with pytest.raises(DegenerateInputError):
            decimate(signal, 10)

    def test_too_short_rejected_before_the_filter_is_designed(self):
        # A header rate of 441 MHz asks for a 10,000,001-tap filter (80 MB).
        signal = SampledSignal(np.zeros(1000), 441e6)
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateInputError, match="10000001-tap"):
                decimate(signal, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    @pytest.mark.parametrize("factor", [2, 3, 7, 100])
    @pytest.mark.parametrize("length", [
        lambda f: 10 * f + 2,
        lambda f: 37 * f + 1,
        lambda f: 37 * f,
        lambda f: 400 * f - 1,
        lambda f: 2 * _BLOCK_ROWS * f,
        lambda f: (2 * _BLOCK_ROWS + 1) * f + 1,
    ], ids=["taps_plus_one", "not_a_multiple", "multiple", "long_not_a_multiple",
            "two_blocks", "past_two_blocks"])
    def test_matches_full_rate_filtering(self, rng, factor, length):
        signal = SampledSignal(rng.normal(size=length(factor)), 441.0 * factor, 2.5)
        out = decimate(signal, factor)
        expected = decimate_full_rate(signal, factor)
        assert len(out) == len(expected)
        assert (out.sample_rate_hz, out.origin_offset_s) == (441.0, 2.5)
        assert np.max(np.abs(out.samples - expected.samples)) <= 1e-12

    def test_transient_stays_below_a_whole_signal_product(self, rng):
        # Two minutes at 44.1 kHz: the (n_out, 11) product of every row at
        # once would take 4.7 MB beside the 0.4 MB output.
        signal = SampledSignal(rng.normal(size=120 * 44100), 44100.0)
        n_out, width = len(signal) // 100, 11
        bound = 8 * n_out + (2 << 20)
        assert bound < 8 * n_out * width
        tracemalloc.start()
        try:
            decimate(signal, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestSampledSignal:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SampledSignal(np.empty(0), 100.0)
        with pytest.raises(ValueError):
            SampledSignal(np.ones(10), 0.0)
