import os
import re
import warnings
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.signal import firwin

from conftest import fed_pipe, make_tone, needs_pipes, resident_bytes, traced_peak
from enfcapon.errors import (
    DegenerateInputError,
    EnfError,
    UnsupportedFormatError,
)
from enfcapon.signal_io import (
    BLOCK_SAMPLES,
    PcmRecording,
    SampledSignal,
    anti_alias_filter,
    decimate,
    read_wav,
    write_wav,
)
from oracle import decimate_full_rate, wav_floats


def write_raw_wav(path, pcm, n_channels=1, sampwidth=2, rate=44100):
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(n_channels)
        writer.setsampwidth(sampwidth)
        writer.setframerate(rate)
        writer.writeframes(pcm)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")


def open_fds(path):
    """How many of this process's file descriptors are open on path."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == str(path)
        except FileNotFoundError:  # the listing's own descriptor, closed since
            pass
    return count


class TestReadWav:
    def test_header_round_trip(self, tmp_path, rng):
        path = tmp_path / "mono.wav"
        signal = SampledSignal(rng.uniform(-0.5, 0.5, 44100), 44100.0)
        write_wav(signal, path)
        loaded = read_wav(path)
        assert len(loaded) == 44100
        assert loaded.sample_rate_hz == 44100.0
        assert np.allclose(loaded.floats(), signal.samples, atol=1.0 / 32768)

    def test_full_scale_normalization(self, tmp_path):
        path = tmp_path / "fs.wav"
        pcm = np.full(100, 32767, dtype="<i2").tobytes()
        write_raw_wav(path, pcm)
        loaded = read_wav(path)
        assert np.all(np.abs(loaded.floats() - 32767.0 / 32768.0) < 1e-9)

    def test_stereo_opposite_channels_cancel(self, tmp_path, rng):
        path = tmp_path / "stereo.wav"
        left = (rng.uniform(-1, 1, 200) * 20000).astype("<i2")
        interleaved = np.empty(400, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = -left
        write_raw_wav(path, interleaved.tobytes(), n_channels=2)
        loaded = read_wav(path)
        assert np.all(loaded.floats() == 0.0)

    def test_rejects_non_16bit(self, tmp_path):
        path = tmp_path / "8bit.wav"
        write_raw_wav(path, bytes(100), sampwidth=1)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_rejects_missing_file(self, tmp_path):
        # An OS error passes through, as from read_track; the CLI maps both.
        with pytest.raises(FileNotFoundError):
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
            read_wav(path).floats()
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
        assert np.array_equal(read_wav(cut).floats(), read_wav(path).floats()[:-1])

    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_bit_identical_to_two_step_scaling(self, tmp_path, rng, n_channels):
        pcm = rng.integers(-32768, 32768, 3000 * n_channels).astype("<i2")
        pcm[:2] = (-32768, 32767)
        path = tmp_path / "pcm.wav"
        write_raw_wav(path, pcm.tobytes(), n_channels=n_channels)
        two_step = pcm.astype(np.float64).reshape(-1, n_channels).mean(axis=1) / 32768.0
        assert read_wav(path).floats().tobytes() == two_step.tobytes()

    @needs_proc
    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_holds_at_most_one_read_block(self, tmp_path, n_channels):
        # 60 s at 44.1 kHz, 5.3 MB of codes per channel: read_wav reads the
        # header only, so what it holds, traced or resident (which counts
        # memory maps), stays within one block of codes whatever the length.
        n_frames = 60 * 44100
        path = tmp_path / "pcm.wav"
        write_raw_wav(path, bytes(2 * n_channels * n_frames), n_channels=n_channels)

        def opened():
            resident = resident_bytes()
            recording = read_wav(path)
            return recording, resident_bytes() - resident

        (recording, grown), peak = traced_peak(opened)
        assert len(recording) == n_frames
        assert peak + grown <= 2 * n_channels * BLOCK_SAMPLES

    @needs_proc
    def test_header_claiming_more_data_than_the_file_holds(self, tmp_path, rng):
        # 1 MB of codes whose RIFF and data chunks claim 2 GB: a buffer sized
        # from the claim would take that much, and the frame count is the
        # file's.  Reading the last 1,000 frames holds only those.
        n_frames = 2 * BLOCK_SAMPLES + 1000
        pcm = rng.integers(-32768, 32768, n_frames).astype("<i2")
        path = tmp_path / "claims.wav"
        write_raw_wav(path, pcm.tobytes())
        data = bytearray(path.read_bytes())
        data[4:8] = (0x7FFFFFF8).to_bytes(4, "little")  # the RIFF chunk's size
        data[40:44] = (0x7FFFFFF0).to_bytes(4, "little")  # the data chunk's size
        path.write_bytes(bytes(data))

        def read_tail():
            resident = resident_bytes()
            loaded = read_wav(path)
            tail = loaded.floats(n_frames - 1000)
            return loaded, tail, resident_bytes() - resident

        (loaded, tail, grown), peak = traced_peak(read_tail)
        assert peak + grown < 1 << 20
        assert len(loaded) == n_frames
        assert tail.tobytes() == (pcm[-1000:] * (1.0 / 32768)).tobytes()

    @needs_pipes
    def test_reads_from_a_pipe(self, tmp_path):
        # A pipe's length is unknown, so the header's claim is its frame count.
        path = tmp_path / "file.wav"
        write_raw_wav(path, np.arange(-500, 500, dtype="<i2").tobytes(), n_channels=2)
        with fed_pipe(tmp_path / "pipe.wav", path.read_bytes()) as pipe:
            loaded = read_wav(pipe)
            floats = loaded.floats()
        assert (len(loaded), loaded.n_channels) == (500, 2)
        assert floats.tobytes() == read_wav(path).floats().tobytes()

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_chunk_after_data_is_not_read(self, tmp_path, source):
        pcm = np.arange(-500, 500, dtype="<i2")
        path = tmp_path / "file.wav"
        write_raw_wav(path, pcm.tobytes(), n_channels=2)
        data = bytearray(path.read_bytes())
        data += b"LIST" + (12).to_bytes(4, "little") + b"INFO" + b"\x7f" * 8
        data[4:8] = (len(data) - 8).to_bytes(4, "little")  # the RIFF chunk's size
        path.write_bytes(bytes(data))
        if source == "pipe":
            if not hasattr(os, "mkfifo"):
                pytest.skip("needs named pipes")
            with fed_pipe(tmp_path / "pipe.wav", bytes(data)) as pipe:
                loaded = read_wav(pipe)
                floats = loaded.floats()
        else:
            loaded = read_wav(path)
            floats = loaded.floats()
        assert (len(loaded), loaded.n_channels) == (500, 2)
        two_step = pcm.astype(np.float64).reshape(-1, 2).mean(axis=1) / 32768.0
        assert floats.tobytes() == two_step.tobytes()


def write_random_wav(path, rng, n_frames, n_channels):
    pcm = rng.integers(-32768, 32768, n_frames * n_channels).astype("<i2")
    pcm[:2] = (-32768, 32767)
    write_raw_wav(path, pcm.tobytes(), n_channels=n_channels)


class TestPcmRecording:
    """A recording's frames read and made float64 a range at a time agree
    bit for bit with the whole data chunk converted at once."""

    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    def test_floats_match_whole_conversion(self, tmp_path, rng, n_channels):
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, n_channels)
        recording, expected = read_wav(path), wav_floats(path)
        assert (len(recording), recording.n_channels) == (3000, n_channels)
        assert recording.floats().tobytes() == expected.tobytes()
        for start, stop in [(0, 1), (5, 17), (1000, None), (2999, 3000)]:
            assert recording.floats(start, stop).tobytes() == expected[start:stop].tobytes()

    @pytest.mark.parametrize("n_channels, cut", [(2, 3), (3, 1), (3, 5)])
    def test_truncated_file_with_a_partial_last_frame(self, tmp_path, rng, n_channels, cut):
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, n_channels)
        path.write_bytes(path.read_bytes()[:-cut])
        recording = read_wav(path)
        assert len(recording) == 2999
        assert recording.floats().tobytes() == wav_floats(path).tobytes()

    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    @pytest.mark.parametrize("factor", [1, 20, 100])
    def test_partial_last_decimation_row(self, tmp_path, rng, n_channels, factor):
        # A recording's unscaled codes, scaled once per output, against the
        # scaled floats filtered as a SampledSignal.
        path = tmp_path / "pcm.wav"
        n_frames = 37 * 100 + 41
        write_random_wav(path, rng, n_frames, n_channels)
        out = decimate(read_wav(path), factor)
        expected = decimate(SampledSignal(wav_floats(path), 44100.0), factor)
        assert len(out) == -(-n_frames // factor)
        assert out.sample_rate_hz == expected.sample_rate_hz
        assert out.samples.tobytes() == expected.samples.tobytes()

    @needs_pipes
    @pytest.mark.parametrize("read_bytes", [1000, 1 << 20])
    def test_many_read_blocks_and_decimation_blocks(self, tmp_path, rng, read_bytes):
        # The file reaches read_wav through a pipe in pieces of read_bytes,
        # so a read gathers many pieces, and 3-channel frames of 6 bytes
        # straddle them.  Factor 20 does not divide BLOCK_SAMPLES, so a
        # decimation block holds fewer samples than that; each frame's 3
        # channels are averaged.  A pipe is read once, so the whole read
        # and the decimation each take their own.
        factor, n_channels = 20, 3
        assert BLOCK_SAMPLES % factor
        n_frames = (2 * (BLOCK_SAMPLES // factor) + 5) * factor + 7
        assert n_frames * 2 * n_channels > read_bytes
        assert read_bytes % (2 * n_channels)
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, n_frames, n_channels)
        data, expected = path.read_bytes(), wav_floats(path)
        with fed_pipe(tmp_path / "whole.wav", data, read_bytes) as pipe:
            assert read_wav(pipe).floats().tobytes() == expected.tobytes()
        with fed_pipe(tmp_path / "blocks.wav", data, read_bytes) as pipe:
            out = decimate(read_wav(pipe), factor)
        assert out.samples.tobytes() == decimate(
            SampledSignal(expected, 44100.0), factor).samples.tobytes()

    def test_file_truncated_after_read_wav(self, tmp_path, rng):
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, 2)
        recording = read_wav(path)
        os.truncate(path, 44 + 4 * 2000 + 3)  # 2,000 frames and 3 bytes of data
        with pytest.raises(UnsupportedFormatError,
                           match=re.escape(f"{path}: data ends at frame 2000 of 3000")):
            decimate(recording, 20)

    @needs_pipes
    def test_pipe_ending_before_its_header_claim(self, tmp_path, rng):
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, 2)
        with fed_pipe(tmp_path / "pipe.wav", path.read_bytes()[:-4001]) as pipe:
            recording = read_wav(pipe)
            assert len(recording) == 3000  # the header's claim
            with pytest.raises(UnsupportedFormatError,
                               match=re.escape(f"{pipe}: data ends at frame 1999 of 3000")):
                decimate(recording, 20)

    @needs_pipes
    def test_pipe_serves_ranges_in_order_only(self, tmp_path, rng):
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, 2)
        expected = wav_floats(path)
        with fed_pipe(tmp_path / "pipe.wav", path.read_bytes()) as pipe:
            recording = read_wav(pipe)
            assert recording.floats(0, 1000).tobytes() == expected[:1000].tobytes()
            assert recording.floats(1000, 2000).tobytes() == expected[1000:2000].tobytes()
            with pytest.raises(UnsupportedFormatError,
                               match="frame 500 was asked for at frame 2000"):
                recording.floats(500, 1000)
            assert recording.floats(2000).tobytes() == expected[2000:].tobytes()

    @needs_proc
    @pytest.mark.parametrize("factor", [20, 1000])
    def test_a_dropped_recording_closes_its_file(self, tmp_path, rng, factor):
        # 3,000 frames are too short for factor 1,000's 10,001 taps.
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recording = read_wav(path)
            assert open_fds(path) == 1
            if factor == 1000:
                with pytest.raises(DegenerateInputError):
                    decimate(recording, factor)
            else:
                decimate(recording, factor)
            del recording
            assert open_fds(path) == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_factor_one_converts_the_whole_recording(self, tmp_path, rng):
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, 3000, 2)
        out = decimate(read_wav(path), 1)
        assert isinstance(out, SampledSignal)
        assert (out.sample_rate_hz, out.origin_offset_s) == (44100.0, 0.0)
        assert out.samples.tobytes() == wav_floats(path).tobytes()

    def test_invariants(self, tmp_path):
        path = tmp_path / "pcm.wav"
        write_raw_wav(path, bytes(400))
        for n_frames, n_channels, rate in [(0, 1, 441.0), (10, 0, 441.0), (10, 1, 0.0)]:
            fh = open(path, "rb")
            with pytest.raises(ValueError):
                PcmRecording(fh, 44, n_frames, n_channels, rate)
            assert fh.closed


class TestDecimate:
    def test_factor_one_is_identity(self, rng):
        signal = SampledSignal(rng.normal(size=500), 1000.0)
        out = decimate(signal, 1)
        assert out.sample_rate_hz == 1000.0
        assert np.array_equal(out.samples, signal.samples)

    def test_factor_one_copies_its_input(self, rng):
        # prepare band-passes into decimate's result, so that must never be
        # the caller's array.
        samples = rng.normal(size=2 * BLOCK_SAMPLES + 3)
        signal = SampledSignal(samples.copy(), 441.0, 1.5)
        out = decimate(signal, 1)
        assert not np.shares_memory(out.samples, signal.samples)
        assert out.samples.tobytes() == samples.tobytes()
        assert (out.sample_rate_hz, out.origin_offset_s) == (441.0, 1.5)
        assert signal.samples.tobytes() == samples.tobytes()

    @needs_proc
    def test_factor_one_reads_a_recording_a_block_at_a_time(self, tmp_path, rng):
        # Six blocks and a few frames: the float64 result and one block of
        # codes, cast straight into the result, plus 256 KB for the rest.
        # Reading the recording whole would hold all its codes, six blocks
        # of them, beside the result.
        n_frames = 6 * BLOCK_SAMPLES + 7
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, n_frames, 1)

        def decimated():
            resident = resident_bytes()
            recording = read_wav(path)
            grown = resident_bytes() - resident
            return decimate(recording, 1), grown

        (out, grown), peak = traced_peak(decimated)
        assert out.samples.tobytes() == wav_floats(path).tobytes()
        assert peak + grown <= 8 * n_frames + 2 * BLOCK_SAMPLES + (1 << 18)

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

        def rejected():
            with pytest.raises(DegenerateInputError, match="10000001-tap"):
                decimate(signal, 10**6)

        assert traced_peak(rejected)[1] <= 1 << 20

    @pytest.mark.parametrize("factor", [2, 3, 7, 100])
    @pytest.mark.parametrize("length", [
        lambda f: 10 * f + 2,
        lambda f: 37 * f + 1,
        lambda f: 37 * f,
        lambda f: 400 * f - 1,
        lambda f: 2 * (BLOCK_SAMPLES // f) * f,
        lambda f: (2 * (BLOCK_SAMPLES // f) + 1) * f + 1,
    ], ids=["taps_plus_one", "not_a_multiple", "multiple", "long_not_a_multiple",
            "two_blocks", "past_two_blocks"])
    def test_matches_full_rate_filtering(self, rng, factor, length):
        signal = SampledSignal(rng.normal(size=length(factor)), 441.0 * factor, 2.5)
        out = decimate(signal, factor)
        expected = decimate_full_rate(signal, factor)
        assert len(out) == len(expected)
        assert (out.sample_rate_hz, out.origin_offset_s) == (441.0, 2.5)
        assert np.max(np.abs(out.samples - expected.samples)) <= 1e-12

    @pytest.mark.parametrize("factor", [20, 100, 109])
    def test_extending_the_signal_keeps_earlier_outputs_bit_for_bit(self, rng, factor):
        # Blocks of rows are laid out from the first sample at a size fixed
        # by the factor alone, so outputs that read only the first two
        # blocks' rows (all but the last width // 2 = 5 of a two-block
        # prefix) take the same products and sums in a longer signal,
        # here one ending in a partial block and a partial row.
        step = max(1, BLOCK_SAMPLES // factor)
        samples = rng.normal(size=(3 * step + 3) * factor + factor // 2 + 1)
        prefix = decimate(SampledSignal(samples[: 2 * step * factor], 441.0 * factor), factor)
        full = decimate(SampledSignal(samples, 441.0 * factor), factor)
        n = 2 * step - 5
        assert prefix.samples[:n].tobytes() == full.samples[:n].tobytes()

    def test_transient_stays_below_a_whole_signal_product(self, rng):
        # Two minutes at 44.1 kHz: the (n_out, 11) product of every row at
        # once would take 4.7 MB beside the 0.4 MB output.
        signal = SampledSignal(rng.normal(size=120 * 44100), 44100.0)
        n_out, width = len(signal) // 100, 11
        bound = 8 * n_out + (2 << 20)
        assert bound < 8 * n_out * width
        assert traced_peak(lambda: decimate(signal, 100))[1] <= bound

    @needs_proc
    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_a_recording_holds_one_block_of_float64_at_a_time(self, tmp_path, rng, n_channels):
        # Two minutes of 44.1 kHz codes: each block's float64 (2.1 MB) must
        # go before the next block's is made; two at once would not fit.
        # Beside them the recording holds one block of codes (0.5 MB a
        # channel) and nothing resident that tracemalloc does not see.
        n_frames = 120 * 44100
        path = tmp_path / "pcm.wav"
        write_random_wav(path, rng, n_frames, n_channels)
        block = (BLOCK_SAMPLES // 100) * 100
        bound = 8 * (n_frames // 100) + (8 + 2) * block + (1 << 20)
        assert bound < 8 * (n_frames // 100) + 2 * 8 * block

        def decimated():
            resident = resident_bytes()
            recording = read_wav(path)
            grown = resident_bytes() - resident
            decimate(recording, 100)
            return grown

        grown, peak = traced_peak(decimated)
        assert peak + grown <= bound


class TestSampledSignal:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SampledSignal(np.empty(0), 100.0)
        with pytest.raises(ValueError):
            SampledSignal(np.ones(10), 0.0)
